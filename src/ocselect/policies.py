"""Order-unaware selection policies and their exact evaluators.

The targeted policy carries a running target: before each box it lowers the
target to the smallest fallback x whose E[max(v, x)] still reaches the
previous target, then accepts any value at or above the new target.  The
detecting variant additionally compares the updated target against the
expected maximum of the boxes still to come; the first time the target is
strictly larger, the run is known to be in the overestimation regime and
the policy switches, permanently, to the best single threshold computed
over the remaining boxes (the current one included).

Every evaluator here is exact: acceptance decisions depend on thresholds
and distributions only, so expected values are finite backward recursions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .benchmarks import (
    ArrivalOrder,
    EvaluationResult,
    Instance,
    ThresholdChoice,
    best_single_threshold,
    prophet_value,
    ordered_dists,
)
from .densities import PIECE_ZERO, DensitySpec, density_cdf
from .distributions import (
    TARGET_SLACK,
    DiscreteDistribution,
    expected_max_with,
    inverse_cdf,
    inverse_target,
)

TARGETED = "targeted"
CONSERVATIVE = "conservative"
TERMINATED = "terminated"

# Exact-evaluation policies selectable by name.
EXACT_POLICIES = ("sta", "tva", "tvd")


class PolicyError(ValueError):
    """A step machine was driven outside its contract."""


class Decision(NamedTuple):
    accept: bool


@dataclass(frozen=True)
class PolicyState:
    """State of a policy run between boxes.

    ``stage`` counts boxes already stepped (0-based index of the next box).
    ``target`` is the current targeted value; ``threshold`` and
    ``switch_stage`` are populated once the detecting policy has switched to
    conservative single-threshold mode.
    """

    stage: int
    mode: str
    target: float
    switch_stage: int | None = None
    threshold: float | None = None

    @staticmethod
    def initial(g0: float) -> "PolicyState":
        if not (g0 >= 0.0):
            raise ValueError(f"initial target must be >= 0: {g0!r}")
        return PolicyState(stage=0, mode=TARGETED, target=g0)


def tva_step(
    state: PolicyState, box_dist: DiscreteDistribution, realized_value: float
) -> tuple[PolicyState, Decision]:
    """Advance the plain targeted policy by one box."""
    if state.mode != TARGETED:
        raise PolicyError(f"targeted step in mode {state.mode!r}")
    g = inverse_target(box_dist, state.target)
    accept = realized_value >= g
    new = replace(
        state,
        stage=state.stage + 1,
        mode=TERMINATED if accept else TARGETED,
        target=g,
    )
    return new, Decision(accept)


def tvd_step(
    state: PolicyState,
    box_dist: DiscreteDistribution,
    remaining_dists: Sequence[DiscreteDistribution],
    realized_value: float,
) -> tuple[PolicyState, Decision]:
    """Advance the detecting targeted policy by one box.

    ``remaining_dists`` are the boxes strictly after the current one.  The
    switch test compares the updated target against the expected maximum of
    those remaining boxes; a tie stays targeted.  The conservative threshold
    is computed over the suffix including the current box, and the switch is
    permanent.
    """
    if state.mode == TERMINATED:
        raise PolicyError("stepping a terminated policy")
    if state.mode == CONSERVATIVE:
        accept = realized_value >= state.threshold
        new = replace(
            state,
            stage=state.stage + 1,
            mode=TERMINATED if accept else CONSERVATIVE,
        )
        return new, Decision(accept)
    g = inverse_target(box_dist, state.target)
    future = _expected_max(remaining_dists)
    if g <= future:
        accept = realized_value >= g
        new = replace(
            state,
            stage=state.stage + 1,
            mode=TERMINATED if accept else TARGETED,
            target=g,
        )
        return new, Decision(accept)
    choice = best_single_threshold([box_dist, *remaining_dists])
    accept = realized_value >= choice.tau
    new = replace(
        state,
        stage=state.stage + 1,
        mode=TERMINATED if accept else CONSERVATIVE,
        target=g,
        switch_stage=state.stage,
        threshold=choice.tau,
    )
    return new, Decision(accept)


def _expected_max(dists: Sequence[DiscreteDistribution]) -> float:
    if not dists:
        return 0.0
    values: list[float] = []
    cdf: list[float] = []
    for d in dists:
        values, cdf = _merge_max(values, cdf, d)
    return _mean_from_cdf(values, cdf)


# ---------------------------------------------------------------------------
# Per-(instance, order) cached tables.


class _OrderContext:
    __slots__ = ("dists", "_emax_after", "_switch_taus", "instance", "order")

    def __init__(self, instance: Instance, order: ArrivalOrder):
        self.instance = instance
        self.order = order
        self.dists = ordered_dists(instance, order)
        self._emax_after: tuple[float, ...] | None = None
        self._switch_taus: dict[int, ThresholdChoice] = {}

    def emax_after(self) -> tuple[float, ...]:
        """emax_after[t] = E[max of boxes strictly after stage t]."""
        if self._emax_after is None:
            n = len(self.dists)
            values: list[float] = []
            cdf: list[float] = []
            acc = [0.0] * (n + 1)
            for t in range(n - 1, 0, -1):
                values, cdf = _merge_max(values, cdf, self.dists[t])
                acc[t - 1] = _mean_from_cdf(values, cdf)
            self._emax_after = tuple(acc)
        return self._emax_after

    def switch_tau(self, s: int) -> ThresholdChoice:
        hit = self._switch_taus.get(s)
        if hit is None:
            hit = best_single_threshold(self.dists[s:])
            self._switch_taus[s] = hit
        return hit


def _order_context(instance: Instance, order: ArrivalOrder) -> _OrderContext:
    key = ("ctx", order)
    ctx = instance._memo.get(key)
    if ctx is None:
        ctx = _OrderContext(instance, order)
        instance._memo[key] = ctx
    return ctx


def _merge_max(
    values: list[float], cdf: list[float], d: DiscreteDistribution
) -> tuple[list[float], list[float]]:
    """CDF of max(current, fresh draw from d); inputs are parallel lists."""
    if not values:
        return list(d.values), list(d._cdf_norm_list)
    dv, dc = d.values, d._cdf_norm_list
    out_v: list[float] = []
    out_a: list[float] = []
    out_b: list[float] = []
    i = j = 0
    na, nb = len(values), len(dv)
    while i < na or j < nb:
        if j >= nb or (i < na and values[i] < dv[j]):
            v = values[i]
        elif i >= na or dv[j] < values[i]:
            v = dv[j]
        else:
            v = values[i]
        if i < na and values[i] == v:
            i += 1
        if j < nb and dv[j] == v:
            j += 1
        out_v.append(v)
        out_a.append(cdf[i - 1] if i > 0 else 0.0)
        out_b.append(dc[j - 1] if j > 0 else 0.0)
    merged = [a * b for a, b in zip(out_a, out_b)]
    # Drop zero-probability lower tail to keep suffix supports small.
    keep = 0
    while keep + 1 < len(merged) and merged[keep] == 0.0:
        keep += 1
    return out_v[keep:], merged[keep:]


def _mean_from_cdf(values: list[float], cdf: list[float]) -> float:
    acc = 0.0
    prev = 0.0
    for v, c in zip(values, cdf):
        acc += v * (c - prev)
        prev = c
    return acc


# ---------------------------------------------------------------------------
# Exact policy values.


def tva_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    """Exact expected value of the targeted policy started at target g0."""
    if not (g0 >= 0.0):
        raise ValueError(f"initial target must be >= 0: {g0!r}")
    ctx = _order_context(instance, order)
    targets = _target_walk(ctx.dists, g0)
    stages = [0.0]
    acc = 0.0
    for t in range(len(ctx.dists) - 1, -1, -1):
        acc = _accept_at(ctx.dists[t], targets[t], acc)
        stages.append(acc)
    return EvaluationResult("tva", tuple(reversed(stages)), targets=tuple(targets))


def tvd_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    """Exact expected value of the detecting targeted policy.

    Until the switch the run is identical to the plain targeted policy; from
    the switch stage on it is a single-threshold run over the suffix.  The
    switch stage depends only on the target walk and the distributions, so
    the whole evaluation stays an exact backward recursion.
    """
    if not (g0 >= 0.0):
        raise ValueError(f"initial target must be >= 0: {g0!r}")
    ctx = _order_context(instance, order)
    dists = ctx.dists
    n = len(dists)
    emax_after = ctx.emax_after()
    targets: list[float] = []
    g = g0
    switch: int | None = None
    for t in range(n):
        g = inverse_target(dists[t], g)
        targets.append(g)
        if g > emax_after[t]:
            switch = t
            break
    if switch is None:
        stages = [0.0]
        acc = 0.0
        for t in range(n - 1, -1, -1):
            acc = _accept_at(dists[t], targets[t], acc)
            stages.append(acc)
        return EvaluationResult("tvd", tuple(reversed(stages)), targets=tuple(targets))
    choice = ctx.switch_tau(switch)
    stages = [0.0]
    acc = 0.0
    for t in range(n - 1, switch - 1, -1):
        acc = _accept_at(dists[t], choice.tau, acc)
        stages.append(acc)
    for t in range(switch - 1, -1, -1):
        acc = _accept_at(dists[t], targets[t], acc)
        stages.append(acc)
    return EvaluationResult(
        "tvd",
        tuple(reversed(stages)),
        targets=tuple(targets),
        switch_stage=switch,
        threshold=choice.tau,
    )


def _target_walk(dists: Sequence[DiscreteDistribution], g0: float) -> list[float]:
    out = []
    g = g0
    for d in dists:
        g = inverse_target(d, g)
        out.append(g)
    return out


def _accept_at(d: DiscreteDistribution, threshold: float, continuation: float) -> float:
    """One backward step: accept v >= threshold, else keep the continuation."""
    idx = bisect_left(d.values, threshold)
    return d.tail_mean[idx] + d.head_mass[idx] * continuation


# ---------------------------------------------------------------------------
# Sampled runs and the randomized mixture value.


def sample_runs(
    policy_kind: str,
    g0: float,
    instance: Instance,
    order: ArrivalOrder,
    rng: np.random.Generator,
    runs: int,
) -> np.ndarray:
    """Value taken by each of ``runs`` sampled runs; 0.0 where nothing is taken.

    Each run samples every box once, in arrival order, and the rows of draws
    come from ``rng`` in the same order as a box-by-box replay would take
    them.  Every policy here fixes its stage thresholds from g0, the
    distributions and the order alone, so a run takes the first value at or
    above its stage's threshold.  For ``sta`` the parameter ``g0`` is the
    fixed acceptance threshold.
    """
    if policy_kind not in EXACT_POLICIES:
        raise PolicyError(f"unknown policy kind: {policy_kind!r}")
    dists = ordered_dists(instance, order)
    thresholds = _stage_thresholds(policy_kind, g0, dists)
    u = rng.random((runs, len(dists)))
    taken = np.zeros(runs)
    open_rows = np.arange(runs)
    for t, (d, threshold) in enumerate(zip(dists, thresholds)):
        values = inverse_cdf(d, u[open_rows, t])
        accept = values >= threshold
        taken[open_rows[accept]] = values[accept]
        open_rows = open_rows[~accept]
    return taken


def run_policy_sampled(
    policy_kind: str,
    g0: float,
    instance: Instance,
    order: ArrivalOrder,
    rng: np.random.Generator,
) -> float:
    """One sampled run of the named policy (see ``sample_runs``)."""
    return float(sample_runs(policy_kind, g0, instance, order, rng, 1)[0])


def _stage_thresholds(
    policy_kind: str, g0: float, dists: Sequence[DiscreteDistribution]
) -> list[float]:
    """Acceptance threshold of each stage, from a step-machine run that never accepts."""
    if policy_kind == "sta":
        if not (g0 >= 0.0):
            raise ValueError(f"threshold must be >= 0: {g0!r}")
        return [g0] * len(dists)
    state = PolicyState.initial(g0)
    out = []
    for i, d in enumerate(dists):
        if policy_kind == "tva":
            state, _ = tva_step(state, d, -math.inf)
        else:
            state, _ = tvd_step(state, d, dists[i + 1 :], -math.inf)
        out.append(state.threshold if state.mode == CONSERVATIVE else state.target)
    return out


def value_cuts(
    instance: Instance, order: ArrivalOrder, policy_kind: str, top: float
) -> list[float]:
    """Sorted starting targets below ``top`` where the policy value can jump.

    The value depends on g0 only through each stage's acceptance index and,
    for ``tvd``, the switch stage: through where each target g_t lies among
    the stage's atoms and emax_after[t].  Up to rounding, inverse_target(d, g)
    > y exactly when g > E[max(v, y)] + TARGET_SLACK, so each such level is
    carried back to g0 stage by stage.  Levels only grow on the way, so one
    reaching ``top`` is dropped at once.  For ``tvd`` a target above
    emax_after[t] switches the walk at stage t, after which no target from
    stage t on is used, so only levels up to emax_after[t] are kept there.
    """
    if policy_kind not in ("tva", "tvd"):
        raise ValueError(f"value profile needs tva or tvd, got {policy_kind!r}")
    ctx = _order_context(instance, order)
    levels: set[float] = set()
    for t in range(len(ctx.dists) - 1, -1, -1):
        d = ctx.dists[t]
        levels.update(d.values)
        if policy_kind == "tvd":
            switch_level = ctx.emax_after()[t]
            levels = {y for y in levels if y <= switch_level}
            levels.add(switch_level)
        pulled = (expected_max_with(d, y) + TARGET_SLACK for y in levels if y < top)
        levels = {y for y in pulled if y < top}
    return sorted(levels)


def randomized_value(
    instance: Instance,
    order: ArrivalOrder,
    density: DensitySpec,
    policy_kind: str = "tvd",
) -> float:
    """Exact expected policy value when g0 = x * prophet with x ~ density.

    The value is piecewise constant in g0 (see ``value_cuts``): each piece is
    valued by the exact evaluator at its midpoint and weighted by its mass
    under the analytic density CDF.  Weights are normalised and the result is
    kept within the piece values, so it can never exceed the optimum.
    """
    if policy_kind not in ("tva", "tvd"):
        raise ValueError(f"randomized mixture needs tva or tvd, got {policy_kind!r}")
    evaluate = tva_exact if policy_kind == "tva" else tvd_exact
    prophet = prophet_value(instance)
    if density.point_mass is not None:
        return evaluate(instance, order, density.point_mass * prophet).total

    positive = [p for p in density.pieces if p.kind != PIECE_ZERO]
    lo, hi = positive[0].lo, positive[-1].hi
    cuts = value_cuts(instance, order, policy_kind, hi * prophet)
    edges = [lo, *(y / prophet for y in cuts if y > lo * prophet), hi]
    cdf = [density_cdf(density, x) for x in edges]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    mids = [0.5 * (a + b) * prophet for a, b in zip(edges, edges[1:])]
    values = [evaluate(instance, order, g0).total for g0 in mids]
    mixed = math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)
    return min(max(mixed, min(values)), max(values))
