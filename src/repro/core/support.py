"""Support distributions over possible worlds (Poisson binomial machinery).

Under tuple uncertainty, ``support(X)`` is the number of *present*
transactions among those that contain ``X``.  With independent existence
probabilities ``p_1 .. p_k`` this is a Poisson-binomial random variable, and
everything the paper computes in polynomial time reduces to its tail:

* the **frequent probability** ``Pr_F(X) = Pr[support(X) >= min_sup]``
  (Definition 3.4), computed by the dynamic programming of [4]/[22];
* the per-event factors ``Pr(C_i)`` of Section IV.B;
* conditional world sampling for the ApproxFCP estimator, which must draw the
  presence pattern of the transactions containing ``X + e_i`` *conditioned on*
  at least ``min_sup`` of them being present.

Two DP implementations are provided: a NumPy-vectorized one (default) and a
pure-Python one (used as a cross-check and for the ablation benchmark).  Both
cap the count dimension at ``min_sup``; states at the cap absorb, so the
table stays ``O(k * min_sup)``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence

import numpy as np

from ._types import BoolArray, FloatArray

__all__ = [
    "capped_support_pmf",
    "frequent_probability",
    "frequent_probability_python",
    "frequent_probability_padded_batch",
    "sample_conditional_presence_batch",
    "support_pmf",
    "pmf_add",
    "pmf_remove",
    "pmf_tail_convolve",
    "PMFStabilityError",
    "expected_support",
    "support_variance",
    "tail_probability_table",
    "sample_conditional_presence",
    "SupportDistributionCache",
]


def _validate_probabilities(probabilities: Sequence[float]) -> None:
    for probability in probabilities:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range [0, 1]: {probability}")


def expected_support(probabilities: Sequence[float]) -> float:
    """Expected support: the sum of the containing transactions' probabilities.

    ``math.fsum`` keeps this path bit-identical to the cached
    ``SupportDPCache.expected_support_of_tidset`` reduction regardless of
    summation order.
    """
    return math.fsum(probabilities)


def support_variance(probabilities: Sequence[float]) -> float:
    """Variance of the support (sum of independent Bernoulli variances)."""
    return math.fsum(p * (1.0 - p) for p in probabilities)


def support_pmf(probabilities: Sequence[float]) -> FloatArray:
    """Full probability mass function of the support.

    Returns an array ``pmf`` of length ``k + 1`` where ``pmf[s]`` is
    ``Pr[support = s]``.  Quadratic in ``k``; used by oracles, the TODIS
    substrate, and tests rather than the hot mining path.
    """
    _validate_probabilities(probabilities)
    pmf = np.zeros(len(probabilities) + 1)
    pmf[0] = 1.0
    for count, probability in enumerate(probabilities, start=1):
        # New mass at s comes from "was s and absent" or "was s-1 and present".
        pmf[1 : count + 1] = (
            pmf[1 : count + 1] * (1.0 - probability) + pmf[:count] * probability
        )
        pmf[0] *= 1.0 - probability
    return pmf


class PMFStabilityError(ArithmeticError):
    """Raised when :func:`pmf_remove` cannot deconvolve a PMF stably.

    Deconvolution peels one Bernoulli factor off a Poisson-binomial PMF by
    running the convolution recurrence backwards; when the peeled probability
    sits near the unstable end of the chosen recurrence direction, rounding
    error can amplify geometrically.  Callers maintaining a window PMF
    incrementally catch this and fall back to a full :func:`support_pmf`
    recompute from the window's probabilities.
    """


def pmf_add(pmf: Sequence[float], probability: float) -> FloatArray:
    """Convolve a support PMF with one more Bernoulli(``probability``) row.

    The forward update of the :func:`support_pmf` DP, exposed as a single
    O(k) step so sliding-window maintainers can extend a PMF when a
    transaction enters the window instead of re-running the whole quadratic
    DP.  Returns a new array of length ``len(pmf) + 1``.

    >>> base = support_pmf([0.5, 0.8])
    >>> bool(np.allclose(pmf_add(base, 0.3), support_pmf([0.5, 0.8, 0.3])))
    True
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability out of range [0, 1]: {probability}")
    masses = np.asarray(pmf, dtype=float)
    out = np.zeros(len(masses) + 1)
    out[:-1] = masses * (1.0 - probability)
    out[1:] += masses * probability
    return out


# Tolerances of the pmf_remove stability check: individual masses may stray
# this far outside [0, 1] before the deconvolution is declared unstable, and
# the recovered PMF must still sum to 1 within _PMF_SUM_TOLERANCE.
_PMF_MASS_TOLERANCE = 1e-9
_PMF_SUM_TOLERANCE = 1e-6


def pmf_remove(pmf: Sequence[float], probability: float) -> FloatArray:
    """Peel one Bernoulli(``probability``) row back off a support PMF.

    Inverse of :func:`pmf_add`: given the PMF of ``k`` independent rows, one
    of which has the given probability, recover the PMF of the other
    ``k - 1`` in O(k) — the backbone of incremental window maintenance when
    a transaction is evicted.

    The deconvolution recurrence runs forward (dividing by ``1 - p``) when
    ``p <= 0.5`` and backward (dividing by ``p``) otherwise, so the division
    is always by the larger factor and error amplification stays bounded on
    well-conditioned inputs.  When rounding still drives a recovered mass
    outside ``[0, 1]`` or the total off 1 — which happens when ``p`` sits
    near 1 while low-count mass dominates — :class:`PMFStabilityError` is
    raised and the caller should recompute via :func:`support_pmf`.

    >>> base = support_pmf([0.5, 0.8])
    >>> bool(np.allclose(pmf_remove(pmf_add(base, 0.3), 0.3), base))
    True
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability out of range [0, 1]: {probability}")
    masses = np.asarray(pmf, dtype=float)
    if len(masses) < 2:
        raise ValueError("cannot remove a row from an empty PMF")
    remaining = len(masses) - 1
    if probability == 1.0:
        # A certain row shifts the PMF by exactly one count.
        if masses[0] > _PMF_MASS_TOLERANCE:
            raise PMFStabilityError(
                f"PMF has mass {masses[0]} at support 0 but claims a certain row"
            )
        return masses[1:].copy()
    if probability == 0.0:
        if masses[-1] > _PMF_MASS_TOLERANCE:
            raise PMFStabilityError(
                f"PMF has mass {masses[-1]} at full support but claims a null row"
            )
        return masses[:-1].copy()
    out = np.empty(remaining)
    if probability <= 0.5:
        absent = 1.0 - probability
        out[0] = masses[0] / absent
        for count in range(1, remaining):
            out[count] = (masses[count] - probability * out[count - 1]) / absent
    else:
        out[remaining - 1] = masses[remaining] / probability
        for count in range(remaining - 1, 0, -1):
            out[count - 1] = (
                masses[count] - (1.0 - probability) * out[count]
            ) / probability
    if (
        not np.isfinite(out).all()
        or out.min() < -_PMF_MASS_TOLERANCE
        or out.max() > 1.0 + _PMF_MASS_TOLERANCE
        or abs(out.sum() - 1.0) > _PMF_SUM_TOLERANCE
    ):
        raise PMFStabilityError(
            f"deconvolving p={probability} left an invalid PMF "
            f"(min={out.min() if len(out) else 0.0}, sum={out.sum()})"
        )
    np.clip(out, 0.0, 1.0, out=out)
    return out


# Below this cap the scalar loop beats vectorized updates: the state vector
# is so short that NumPy's per-operation dispatch dominates the arithmetic
# (measured crossover ~50 on the CI workloads).
_SCALAR_DP_CAP = 48


def frequent_probability(probabilities: Sequence[float], min_sup: int) -> float:
    """``Pr[support >= min_sup]`` by the capped DP.

    The state vector ``state[s]`` holds ``Pr[min(support so far, min_sup) = s]``;
    the last cell absorbs, so after processing all transactions it equals the
    tail probability directly.  Complexity ``O(k * min_sup)``.

    Small thresholds run a scalar in-place loop, large ones a vectorized
    in-place update; both perform the identical transition in the identical
    order, so the two paths agree bit-for-bit with the reference
    implementation (property-tested in ``tests/test_support_cache.py``).
    """
    if min_sup <= 0:
        return 1.0
    if min_sup > len(probabilities):
        return 0.0
    _validate_probabilities(probabilities)
    if min_sup <= _SCALAR_DP_CAP:
        state = [0.0] * (min_sup + 1)
        state[0] = 1.0
        for probability in probabilities:
            absent = 1.0 - probability
            # In-place right-to-left shift; the cap cell absorbs, so the mass
            # it would lose to a "present" transition is added back.
            cap_mass = state[min_sup]
            for count in range(min_sup, 0, -1):
                state[count] = state[count] * absent + state[count - 1] * probability
            state[0] *= absent
            # The sequential recurrence IS the exactness contract here.
            # prolint: ignore[FSUM-REDUCE] DP transition on a cell, not a reduction
            state[min_sup] += cap_mass * probability
        return state[min_sup]
    state = np.zeros(min_sup + 1)
    state[0] = 1.0
    for probability in probabilities:
        absent = 1.0 - probability
        cap_mass = state[min_sup]
        state[1:] = state[1:] * absent + state[:-1] * probability
        state[0] *= absent
        # Absorbing cap: mass at min_sup stays there even when a transaction
        # is present, so add back the part the generic transition dropped.
        # prolint: ignore[FSUM-REDUCE] DP transition, not a reduction.
        state[min_sup] += cap_mass * probability
    return float(state[min_sup])


def capped_support_pmf(probabilities: Sequence[float], cap: int) -> FloatArray:
    """Tail-capped support PMF: ``out[s] = Pr[min(support, cap) = s]``.

    This is the *full state vector* of the :func:`frequent_probability` DP —
    exact mass at every count below ``cap`` plus the absorbed tail mass at
    ``cap`` — computed with the identical scalar transition in the identical
    order, so ``capped_support_pmf(p, m)[m] == frequent_probability(p, m)``
    bit-for-bit whenever ``m <= len(p)``.

    Shard workers return this vector per item: capped PMFs over *disjoint*
    transaction sets compose under :func:`pmf_tail_convolve`, which is what
    lets a merge phase reconstruct a global ``Pr_F`` from per-shard scans
    without shipping full probability vectors twice.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    _validate_probabilities(probabilities)
    state = [0.0] * (cap + 1)
    state[0] = 1.0
    if cap == 0:
        return np.ones(1)
    for probability in probabilities:
        absent = 1.0 - probability
        cap_mass = state[cap]
        for count in range(cap, 0, -1):
            state[count] = state[count] * absent + state[count - 1] * probability
        state[0] *= absent
        # prolint: ignore[FSUM-REDUCE] DP transition on a cell, not a reduction
        state[cap] += cap_mass * probability
    return np.asarray(state, dtype=np.float64)


def pmf_tail_convolve(first: Sequence[float], second: Sequence[float]) -> FloatArray:
    """Convolve two tail-capped support PMFs over disjoint transaction sets.

    Both inputs must be :func:`capped_support_pmf` vectors with the same
    ``cap`` (length ``cap + 1``, last cell = absorbed ``>= cap`` mass).  The
    result is the capped PMF of the union: below the cap the counts add like
    an ordinary convolution, and the cap cell collects every combination
    whose total reaches ``cap`` — including anything already absorbed on
    either side.  Mathematically exact over disjoint row sets (independence);
    each output cell is an :func:`math.fsum` reduction, so the result agrees
    with the direct DP over the concatenated probabilities to within a few
    ulps (the sharded-mining merge asserts this as a self-check rather than
    relying on it bit-for-bit — the DP's sequential rounding differs).
    """
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ValueError(
            f"capped PMFs must share one shape (cap+1,), got {a.shape} and {b.shape}"
        )
    cap = len(a) - 1
    out = np.zeros(cap + 1)
    for total in range(cap):
        out[total] = math.fsum(
            a[i] * b[total - i] for i in range(total + 1)
        )
    # Everything not strictly below the cap lands on the cap: pairs whose
    # exact counts sum past it, plus any mass either side already absorbed.
    out[cap] = math.fsum(
        a[i] * b[j]
        for i in range(cap + 1)
        for j in range(cap + 1)
        if i + j >= cap
    )
    return out


def frequent_probability_padded_batch(
    padded: FloatArray, min_sup: int
) -> FloatArray:
    """Batched capped DP over left-aligned, zero-padded probability rows.

    ``padded[s]`` holds sub-tidset ``s``'s probabilities in ascending
    position order, right-padded with zeros to the longest row.  A zero
    probability is an *exact identity* transition (``x * 1.0`` returns ``x``
    and ``y * 0.0`` contributes ``+0.0`` bit-for-bit, all state masses being
    non-negative), so the padded walk performs the identical IEEE-754
    operations the serial DP performs on the compacted row — while every
    column advances the whole batch at once.  This is what makes batching
    actually amortize: the column count is the longest *member* width, not
    the base width, exactly as in the serial evaluation.

    Bit-exactness contract: ``result[s] == frequent_probability(row s's
    nonzero prefix, min_sup)`` exactly (the backend-parity tests assert
    ``==``, not ``approx``), which is what lets the bitmap tidset engine
    seed the support-DP cache in bulk without perturbing any pruning
    decision.
    """
    padded = np.asarray(padded, dtype=np.float64)
    batch, width = padded.shape
    if min_sup <= 0:
        return np.ones(batch)
    if batch == 0 or width == 0:
        return np.zeros(batch)
    # Rows are processed sorted by extent (index of the last nonzero, i.e.
    # the row's true probability count), longest first, and the active slice
    # shrinks as rows finish — total work is Σ row widths, exactly what the
    # serial evaluations would do, with the batch amortizing every column.
    nonzero = padded != 0.0
    extents = np.where(
        nonzero.any(axis=1), width - np.argmax(nonzero[:, ::-1], axis=1), 0
    )
    order = np.argsort(-extents, kind="stable")
    padded = padded[order]
    extents = extents[order]
    complements = 1.0 - padded
    state = np.zeros((batch, min_sup + 1))
    state[:, 0] = 1.0
    buffer = np.empty_like(state)
    present = np.empty_like(state)
    active = batch
    for column in range(int(extents[0])):
        while active and extents[active - 1] <= column:
            # This row is done; freeze its state in both swap buffers.
            active -= 1
            buffer[active] = state[active]
        live = state[:active]
        out = buffer[:active]
        column_probs = padded[:active, column : column + 1]
        # Same per-cell transition as frequent_probability: old*absent +
        # shifted*present, with the absorbing cap refunded from the old cap.
        # One full-width present-mass product serves both the shift (its
        # first min_sup entries) and the cap refund (its last entry).
        np.multiply(live, complements[:active, column : column + 1], out=out)
        np.multiply(live, column_probs, out=present[:active])
        out[:, 1:] += present[:active, :-1]
        out[:, min_sup] += present[:active, min_sup]
        state, buffer = buffer, state
    result = np.empty(batch)
    result[order] = state[:, min_sup]
    return result


def frequent_probability_python(probabilities: Sequence[float], min_sup: int) -> float:
    """Pure-Python reference implementation of :func:`frequent_probability`."""
    if min_sup <= 0:
        return 1.0
    if min_sup > len(probabilities):
        return 0.0
    _validate_probabilities(probabilities)
    state = [0.0] * (min_sup + 1)
    state[0] = 1.0
    for probability in probabilities:
        absent = 1.0 - probability
        next_state = [0.0] * (min_sup + 1)
        for count, mass in enumerate(state):
            if not mass:
                continue
            if count == min_sup:
                next_state[min_sup] += mass
            else:
                next_state[count] += mass * absent
                # prolint: ignore[FSUM-REDUCE] DP transition, not a reduction
                next_state[count + 1] += mass * probability
        state = next_state
    return state[min_sup]


def tail_probability_table(probabilities: Sequence[float], min_sup: int) -> FloatArray:
    """Suffix tail table for conditional sampling.

    Returns ``table`` of shape ``(k + 1, min_sup + 1)`` where ``table[j][r]``
    is the probability that at least ``r`` of the transactions ``j, j+1, ..,
    k-1`` are present.  ``table[k][0] = 1`` and ``table[k][r > 0] = 0``.

    This is the backward analogue of the frequent-probability DP; it lets
    :func:`sample_conditional_presence` walk the transactions forward and draw
    each presence bit from its exact conditional distribution.
    """
    if min_sup < 0:
        raise ValueError("min_sup must be non-negative")
    _validate_probabilities(probabilities)
    k = len(probabilities)
    table = np.zeros((k + 1, min_sup + 1))
    table[k][0] = 1.0
    for j in range(k - 1, -1, -1):
        probability = probabilities[j]
        table[j][0] = 1.0
        for remaining in range(1, min_sup + 1):
            table[j][remaining] = (
                probability * table[j + 1][remaining - 1]
                + (1.0 - probability) * table[j + 1][remaining]
            )
    return table


def sample_conditional_presence(
    probabilities: Sequence[float],
    min_sup: int,
    rng: Optional[random.Random] = None,
    tail_table: Optional[FloatArray] = None,
    uniforms: Optional[Sequence[float]] = None,
) -> List[bool]:
    """Sample presence bits conditioned on ``sum(bits) >= min_sup``.

    This is the exact conditional sampler used inside ApproxFCP: given the
    probabilities of the transactions containing ``X + e_i``, draw one
    possible world restricted to them, distributed as the unconditioned world
    distribution *given* that the support reaches ``min_sup``.

    The ``j``-th comparison consumes either ``rng.random()`` or
    ``uniforms[j]`` — passing pre-drawn uniforms is what lets the ApproxFCP
    estimator share one randomness stream between this serial walk (the
    tuple-oracle path) and :func:`sample_conditional_presence_batch` (the
    vectorized path) while staying bit-identical.  Exactly one of ``rng``
    and ``uniforms`` must be provided.

    Raises :class:`ValueError` when the conditioning event has zero
    probability (fewer than ``min_sup`` transactions, or the tail is 0).
    """
    k = len(probabilities)
    if min_sup > k:
        raise ValueError("cannot condition on support >= min_sup with too few rows")
    if (rng is None) == (uniforms is None):
        raise ValueError("provide exactly one of rng and uniforms")
    if tail_table is None:
        tail_table = tail_probability_table(probabilities, min_sup)
    if tail_table[0][min_sup] <= 0.0:
        raise ValueError("conditioning event has zero probability")
    if uniforms is not None:
        draws = iter(uniforms)
        draw: Callable[[], float] = lambda: next(draws)  # noqa: E731
    else:
        assert rng is not None
        draw = rng.random
    bits: List[bool] = []
    remaining = min_sup
    for j, probability in enumerate(probabilities):
        if remaining == 0:
            # Condition already satisfied; the rest are plain Bernoulli draws.
            bits.append(draw() < probability)
            continue
        joint_present = probability * tail_table[j + 1][remaining - 1]
        conditional_present = joint_present / tail_table[j][remaining]
        present = draw() < conditional_present
        bits.append(present)
        if present:
            remaining -= 1
    return bits


def sample_conditional_presence_batch(
    probabilities: Sequence[float],
    min_sup: int,
    uniforms: FloatArray,
    tail_table: FloatArray,
) -> BoolArray:
    """Vectorized :func:`sample_conditional_presence` over many uniform rows.

    ``uniforms[s, j]`` is the ``j``-th uniform draw of sample ``s`` — the
    exact values (in the exact order) the serial sampler would consume from
    its RNG.  The returned boolean ``(samples, k)`` matrix is bit-for-bit
    what running the serial sampler once per row would produce: the
    conditional probability is evaluated with the identical operations
    (``(p · tail[j+1][r−1]) / tail[j][r]``) and the identical comparison.
    The ApproxFCP estimator pre-draws its uniforms serially and batches the
    walks through here, which removes the per-sample Python loop from the
    sampling hot path for both tidset backends.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    k = len(probs)
    if min_sup > k:
        raise ValueError("cannot condition on support >= min_sup with too few rows")
    if tail_table[0][min_sup] <= 0.0:
        raise ValueError("conditioning event has zero probability")
    samples = uniforms.shape[0]
    if min_sup == 0:
        # No conditioning: every bit is a plain Bernoulli draw.
        return uniforms < probs[np.newaxis, :]
    bits = np.zeros((samples, k), dtype=bool)
    remaining = np.full(samples, min_sup, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(k):
            probability = probs[j]
            active = remaining > 0
            # Clamp inactive lanes to a valid row index; their quotient is
            # discarded by the where() (they draw plain Bernoulli bits).
            clamped = np.where(active, remaining, 1)
            numerator = tail_table[j + 1][clamped - 1]
            denominator = tail_table[j][clamped]
            conditional = np.where(
                active, (probability * numerator) / denominator, probability
            )
            present = uniforms[:, j] < conditional
            bits[:, j] = present
            remaining = remaining - (present & active)
    return bits


# Historical name: the bounded, instrumented cache now lives in
# :mod:`repro.core.cache`; the alias keeps the long-standing import path
# (and every non-hot-path caller) working unchanged.  The import sits at the
# bottom because cache.py pulls the DP functions from this module.
from .cache import SupportDPCache as SupportDistributionCache  # noqa: E402
