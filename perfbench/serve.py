"""Run the mining service with span tracing installed.

    python perfbench/serve.py TRACE_OUT [python -m repro.service arguments]

Installs the server-side wrappers of ``tracing.py``, runs the same entry
point as ``python -m repro.service``, and writes the recorded spans to
``TRACE_OUT`` once the service has drained and returned.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, (*tracing.SERVICE_TARGETS, *tracing.CORE_TARGETS))
    from repro.service.__main__ import main as service_main

    try:
        return service_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
