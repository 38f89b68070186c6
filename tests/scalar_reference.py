"""Scalar evaluators: the reference the numpy folds and lane evaluators are tested against.

Each function here works one Python float at a time: the distribution of a
maximum is a merge of two sorted CDF lists, the best single threshold a loop
over the atoms of that maximum, a distribution's lookup tables running sums
over its atoms, and each policy walks one arrival order through those tables
and the one-segment solve of ``inverse_target``, past the last atom too.  The
table builder, the folds and the lane pass in ``ocselect`` repeat the same
IEEE operations in the same order, so the tests compare the two under
``==``, every field of each ``EvaluationResult``, the reference's own result
type, included.  ``tvd``'s E[max of the boxes still to come] and switch
threshold read one merge of the remaining boxes, back to front in the order
``remaining`` gives: box order on up to ENUMERATION_LIMIT boxes, where the
package reads them from tables of every set, and arrival order past it.  A
one-box set is merged too, unlike ``max_distribution``'s one input.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence

from ocselect import (
    DensitySpec,
    DiscreteDistribution,
    Instance,
    ThresholdChoice,
)
from ocselect.benchmarks import ENUMERATION_LIMIT, ArrivalOrder, order_indices, prophet_value
from ocselect.densities import WEIGHT_ONE, integrate_weighted
from ocselect.distributions import PROB_TOL, TARGET_SLACK
from ocselect.policies import EXACT_POLICIES, VALUE_TOL, PolicyError, _mix


def as_probability(p: float) -> float:
    """Validate ``p`` as a probability and clamp it into [0, 1]."""
    if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
        raise ArithmeticError(f"not a probability within tolerance: {p!r}")
    return min(1.0, max(0.0, p))


class Tables(NamedTuple):
    """One distribution's lookup tables; all but ``emax_at_values`` end one past the last atom."""

    head_mass: tuple[float, ...]  # P[v < values[i]]; the last entry is the total mass
    tail_mass: tuple[float, ...]  # P[v >= values[i]]; the last entry is 0
    tail_mean: tuple[float, ...]  # sum of p*v over atoms with index >= i; the last entry is 0
    emax_at_values: tuple[float, ...]  # E[max(v, values[i])]
    mean: float


@cache
def tables(dist: DiscreteDistribution) -> Tables:
    """``dist``'s lookup tables, one running sum at a time."""
    k = len(dist.atoms)
    head_mass = [0.0] * (k + 1)
    tail_mass = [0.0] * (k + 1)
    tail_mean = [0.0] * (k + 1)
    acc = 0.0
    for i, p in enumerate(dist.probs):
        acc += p
        head_mass[i + 1] = acc
    mass = mean = 0.0
    for i in range(k - 1, -1, -1):
        mass += dist.probs[i]
        mean += dist.probs[i] * dist.values[i]
        tail_mass[i] = mass
        tail_mean[i] = mean
    emax = [dist.values[i] * head_mass[i] + tail_mean[i] for i in range(k)]
    return Tables(
        tuple(head_mass),
        tuple(tail_mass),
        tuple(tail_mean),
        tuple(emax),
        tail_mean[0],
    )


def inverse_target(dist: DiscreteDistribution, g_prev: float) -> float:
    """Smallest x >= 0 with E[max(v, x)] >= g_prev - TARGET_SLACK, solved on one segment."""
    if not (g_prev >= 0.0):
        raise ValueError(f"target must be >= 0: {g_prev!r}")
    tab = tables(dist)
    target = g_prev - TARGET_SLACK
    if tab.mean >= target:
        return 0.0
    i = bisect_left(tab.emax_at_values, target)
    # Segment (values[i-1], values[i]]; i >= 1 because the first mark is the
    # mean.  Slope is P[v < x] on the segment.  Past the last atom the segment
    # has no upper end, slope head_mass[-1] and tail mean 0.0.
    x = (target - tab.tail_mean[i]) / tab.head_mass[i]
    x = min(max(x, dist.values[i - 1]), (*dist.values, math.inf)[i])
    return min(max(x, 0.0), g_prev)


def expected_max_with(dist: DiscreteDistribution, x: float) -> float:
    """E[max(v, x)] for a fallback value x >= 0."""
    if x < 0.0:
        raise ValueError(f"fallback value must be >= 0: {x!r}")
    idx = bisect_left(dist.values, x)
    tab = tables(dist)
    return x * tab.head_mass[idx] + tab.tail_mean[idx]


def max_distribution(dists: Sequence[DiscreteDistribution]) -> DiscreteDistribution:
    """Distribution of the maximum of independent draws, merged in list order."""
    if not dists:
        raise ValueError("max of an empty collection is undefined")
    if len(dists) == 1:
        return dists[0]
    values: list[float] = []
    cdf: list[float] = []
    for d in dists:
        values, cdf = _merge_max(values, cdf, d)
    return _from_cdf(values, cdf)


def suffix_maxima(dists: Sequence[DiscreteDistribution]) -> list[tuple[list[float], list[float]]]:
    """The CDF of max(dists[t:]) for every t, merged back to front: dists[-1] first."""
    merged = []
    values: list[float] = []
    cdf: list[float] = []
    for d in reversed(dists):
        values, cdf = _merge_max(values, cdf, d)
        merged.append((values, cdf))
    return merged[::-1]


def suffix_expected_max(dists: Sequence[DiscreteDistribution]) -> list[float]:
    """E[max(dists[t:])] for every t, with 0.0 for the empty suffix at the end."""
    return [*(_mean_from_cdf(values, cdf) for values, cdf in suffix_maxima(dists)), 0.0]


def switch_threshold(dists: Sequence[DiscreteDistribution]) -> float:
    """``tvd``'s switch threshold: the best single threshold of ``suffix_maxima(dists)[0]``.

    One box is merged too, so its masses are differences of its normalised CDF.
    """
    return _best_threshold(_from_cdf(*suffix_maxima(dists)[0])).tau


def _from_cdf(values: list[float], cdf: list[float]) -> DiscreteDistribution:
    """The distribution whose CDF at each of ``values`` is ``cdf``, without its zero masses."""
    atoms = []
    prev = 0.0
    for v, c in zip(values, cdf):
        if c - prev > 0.0:
            atoms.append((v, c - prev))
        prev = c
    return DiscreteDistribution(tuple(atoms))


def _merge_max(
    values: list[float], cdf: list[float], d: DiscreteDistribution
) -> tuple[list[float], list[float]]:
    """CDF of max(current, a fresh draw from d) on the union of both supports.

    ``values``/``cdf`` are parallel lists, empty before the first draw.  The
    zero-probability lower tail is dropped to keep supports small.  Both CDFs
    end at exactly 1.0, so past the end of one support the product is the
    other CDF itself.
    """
    if not values:
        return list(d.values), d._cdf_norm_arr.tolist()
    dv, dc = d.values, d._cdf_norm_arr.tolist()
    out_v: list[float] = []
    out_c: list[float] = []
    a = b = 0.0
    i = j = 0
    na, nb = len(values), len(dv)
    while i < na and j < nb:
        v, y = values[i], dv[j]
        if v <= y:
            a = cdf[i]
            i += 1
        if y <= v:
            v = y
            b = dc[j]
            j += 1
        p = a * b
        if p > 0.0 or out_c:
            out_v.append(v)
            out_c.append(p)
    out_v += values[i:] or dv[j:]
    out_c += cdf[i:] or dc[j:]
    return out_v, out_c


def _mean_from_cdf(values: list[float], cdf: list[float]) -> float:
    """Mean of the distribution whose CDF at each of ``values`` is ``cdf``."""
    acc = 0.0
    prev = 0.0
    for v, c in zip(values, cdf):
        acc += v * (c - prev)
        prev = c
    return acc


def sta_lower_bound(instance: Instance, tau: float) -> float:
    """P[M >= tau] * tau + P[M < tau] * E[(M-tau)^+] for M the overall maximum."""
    if not (0.0 <= tau < math.inf):
        raise ValueError(f"threshold must be finite and >= 0: {tau!r}")
    return _threshold_bound(max_distribution(instance.dists), tau)


def best_single_threshold(dists: Sequence[DiscreteDistribution]) -> ThresholdChoice:
    """The single-threshold bound maximised over {0} plus the atoms; ties go to the smallest tau."""
    if not dists:
        raise ValueError("need at least one distribution")
    return _best_threshold(max_distribution(list(dists)))


def _best_threshold(md: DiscreteDistribution) -> ThresholdChoice:
    """The bound for M ~ md maximised over {0} plus md's atoms; ties go to the smallest tau."""
    best_tau, best_val = 0.0, _threshold_bound(md, 0.0)
    for v in md.values:
        val = _threshold_bound(md, v)
        if val > best_val:
            best_tau, best_val = v, val
    return ThresholdChoice(best_tau, best_val)


def _threshold_bound(md: DiscreteDistribution, tau: float) -> float:
    """P[M >= tau] * tau + P[M < tau] * E[(M - tau)^+] for M ~ md."""
    idx = bisect_left(md.values, tau)
    tab = tables(md)
    p_ge = as_probability(tab.tail_mass[idx])
    p_lt = as_probability(tab.head_mass[idx])
    plus = max(0.0, tab.tail_mean[idx] - tau * tab.tail_mass[idx])
    return p_ge * tau + p_lt * plus


def ordered_dists(instance: Instance, order: ArrivalOrder) -> tuple[DiscreteDistribution, ...]:
    """Distributions in arrival order, validating the order is a bijection."""
    return tuple(instance.dists[i] for i in order_indices(instance, order))


def remaining(instance: Instance, boxes: Sequence[int]) -> list[DiscreteDistribution]:
    """The distributions of ``boxes`` in the order ``tvd`` folds them.

    Up to ENUMERATION_LIMIT boxes that is box order, so the fold depends only
    on which boxes remain; past it, the order of ``boxes``.
    """
    if instance.n <= ENUMERATION_LIMIT:
        boxes = sorted(boxes)
    return [instance.dists[b] for b in boxes]


def emax_after(instance: Instance, boxes: Sequence[int]) -> list[float]:
    """emax_after[t] = E[max of the boxes strictly after stage t], each folded back to front.

    ``boxes`` holds indices into ``instance.boxes`` in arrival order.
    """
    if instance.n > ENUMERATION_LIMIT:
        return suffix_expected_max(remaining(instance, boxes[1:]))
    return [_set_expected_max(instance, frozenset(boxes[t + 1 :])) for t in range(len(boxes))]


@cache
def _set_expected_max(instance: Instance, boxes: frozenset[int]) -> float:
    return suffix_expected_max(remaining(instance, boxes))[0]


def threshold_run_values(
    dists: Sequence[DiscreteDistribution], thresholds: Sequence[float]
) -> tuple[float, ...]:
    """Per-stage values of taking the first v_t >= thresholds[t], by backward induction."""
    stages = [0.0]
    acc = 0.0
    for d, threshold in zip(reversed(dists), reversed(thresholds)):
        idx = bisect_left(d.values, threshold)
        tab = tables(d)
        acc = tab.tail_mean[idx] + tab.head_mass[idx] * acc
        stages.append(acc)
    return tuple(reversed(stages))


@dataclass(frozen=True)
class EvaluationResult:
    """Per-stage expected values of one exact recursion.

    ``per_stage[t]`` is the expected reward collected from stage t onward
    (0-based); the final entry is the empty-suffix value 0.  ``kind`` records
    which recursion produced the numbers.  For targeted policies ``targets``
    holds the threshold sequence actually used (truncated at the switch
    stage for the detecting variant), and ``switch_stage``/``threshold``
    describe the permanent switch to a single threshold if one happened.
    """

    kind: str
    per_stage: tuple[float, ...]
    targets: tuple[float, ...] | None = None
    switch_stage: int | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not self.per_stage or self.per_stage[-1] != 0.0:
            raise ValueError("per_stage must end with the empty-suffix value 0")
        for v in self.per_stage:
            if not math.isfinite(v) or v < -VALUE_TOL:
                raise ArithmeticError(f"per-stage value out of range: {v!r}")

    @property
    def total(self) -> float:
        return self.per_stage[0]


class Thresholds(NamedTuple):
    per_stage: list[float]
    targets: list[float]
    switch_stage: int | None


def stage_thresholds(
    policy_kind: str, g0: float, instance: Instance, boxes: Sequence[int]
) -> Thresholds:
    """Acceptance threshold of each stage, with the targets walked to get there.

    ``boxes`` holds indices into ``instance.boxes`` in arrival order.  ``sta``
    accepts at g0 at every stage.  ``tva`` accepts at each target of the walk
    g_t = inverse_target(d_t, g_{t-1}).  ``tvd`` walks the same targets until
    the first g_t above emax_after[t]; from that switch stage on it accepts at
    the ``switch_threshold`` of the remaining boxes, taken in the order
    ``remaining`` gives.
    """
    if policy_kind not in EXACT_POLICIES:
        raise PolicyError(f"unknown policy kind: {policy_kind!r}")
    if not (g0 >= 0.0):
        what = "threshold" if policy_kind == "sta" else "initial target"
        raise ValueError(f"{what} must be >= 0: {g0!r}")
    n = len(boxes)
    if policy_kind == "sta":
        return Thresholds([g0] * n, [], None)
    levels = emax_after(instance, boxes) if policy_kind == "tvd" else None
    targets: list[float] = []
    g = g0
    for t, b in enumerate(boxes):
        g = inverse_target(instance.dists[b], g)
        targets.append(g)
        if levels is not None and g > levels[t]:
            tau = switch_threshold(remaining(instance, boxes[t:]))
            return Thresholds(targets[:t] + [tau] * (n - t), targets, t)
    return Thresholds(targets, targets, None)


def opt_online(instance: Instance, order: ArrivalOrder) -> EvaluationResult:
    """Order-aware online optimum by backward induction."""
    stages = [0.0]
    acc = 0.0
    for d in reversed(ordered_dists(instance, order)):
        acc = expected_max_with(d, acc)
        stages.append(acc)
    return EvaluationResult("opt", tuple(reversed(stages)))


def sta_exact(instance: Instance, order: ArrivalOrder, tau: float) -> EvaluationResult:
    dists = ordered_dists(instance, order)
    plan = stage_thresholds("sta", tau, instance, order_indices(instance, order))
    return EvaluationResult("sta", threshold_run_values(dists, plan.per_stage), threshold=tau)


def exact(policy_kind: str, instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    """``tva_exact`` or ``tvd_exact``, one stage at a time."""
    dists = ordered_dists(instance, order)
    plan = stage_thresholds(policy_kind, g0, instance, order_indices(instance, order))
    switch = plan.switch_stage
    return EvaluationResult(
        policy_kind,
        threshold_run_values(dists, plan.per_stage),
        targets=tuple(plan.targets),
        switch_stage=switch,
        threshold=None if switch is None else plan.per_stage[switch],
    )


def tva_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    return exact("tva", instance, order, g0)


def tvd_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    return exact("tvd", instance, order, g0)


EVALUATORS = {"sta": sta_exact, "tva": tva_exact, "tvd": tvd_exact}


def value_cuts(
    dists: Sequence[DiscreteDistribution],
    emax_after: Sequence[float] | None,
    policy_kind: str,
    top: float,
) -> list[float]:
    """Starting targets below ``top`` where the value can jump, pulled back one level at a time."""
    if policy_kind not in ("tva", "tvd"):
        raise ValueError(f"value profile needs tva or tvd, got {policy_kind!r}")
    levels: set[float] = set()
    for t in range(len(dists) - 1, -1, -1):
        d = dists[t]
        levels.update(d.values)
        if policy_kind == "tvd":
            switch_level = emax_after[t]
            levels = {y for y in levels if y <= switch_level}
            levels.add(switch_level)
        pulled = (expected_max_with(d, y) + TARGET_SLACK for y in levels if y < top)
        levels = {y for y in pulled if y < top}
    return sorted(levels)


def density_cdf(spec: DensitySpec, x: float) -> float:
    """CDF at x: the density integrated from 1/2 piece by piece."""
    if x <= 0.5:
        return 0.0
    return min(1.0, integrate_weighted(spec, WEIGHT_ONE, 0.5, min(x, 1.0)))


def _mixture_pieces(
    instance: Instance,
    boxes: Sequence[int],
    emax_after: Sequence[float] | None,
    density: DensitySpec,
    policy_kind: str,
) -> tuple[list[float], list[float]]:
    """Weight and midpoint starting target of each piece of one order's mixture."""
    if policy_kind not in ("tva", "tvd"):
        raise ValueError(f"randomized mixture needs tva or tvd, got {policy_kind!r}")
    prophet = prophet_value(instance)
    lo, hi = density.pieces[0].lo, density.pieces[-1].hi
    dists = [instance.dists[b] for b in boxes]
    cuts = value_cuts(dists, emax_after, policy_kind, hi * prophet)
    edges = [lo, *(y / prophet for y in cuts if y > lo * prophet), hi]
    cdf = [density_cdf(density, x) for x in edges]
    # A piece between two cuts inside a gap of the density weighs 0.0 and is dropped.
    pieces = [
        (b - a, 0.5 * (x + y) * prophet)
        for a, b, x, y in zip(cdf, cdf[1:], edges, edges[1:])
        if b - a != 0.0
    ]
    return [w for w, _ in pieces], [m for _, m in pieces]


def randomized_value(
    instance: Instance, order: ArrivalOrder, density: DensitySpec, policy_kind: str = "tvd"
) -> float:
    """The mixture over the same pieces, each valued by the scalar evaluator at its midpoint."""
    boxes = order_indices(instance, order)
    emax = emax_after(instance, boxes)
    weights, mids = _mixture_pieces(instance, boxes, emax, density, policy_kind)
    evaluate = EVALUATORS[policy_kind]
    return _mix(weights, [evaluate(instance, order, g0).total for g0 in mids])
