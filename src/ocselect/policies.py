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
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .benchmarks import (
    ArrivalOrder,
    BoxTables,
    EvaluationResult,
    Instance,
    best_single_threshold,
    check_lane_stages,
    ordered_dists,
    prophet_value,
    threshold_run_values,
)
from .densities import PIECE_ZERO, DensitySpec, density_cdf
from .distributions import (
    PROB_TOL,
    TARGET_SLACK,
    DiscreteDistribution,
    expected_max_with,
    inverse_cdf,
    inverse_target,
    suffix_expected_max,
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
    future = suffix_expected_max(remaining_dists)[0]
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


# ---------------------------------------------------------------------------
# Per-order tables and the stage thresholds of each policy.


class _OrderTables:
    """Arrival-order tables shared by every evaluation on one (instance, order)."""

    def __init__(self, instance: Instance, order: ArrivalOrder):
        self.instance = instance
        self.order = order
        self.dists = ordered_dists(instance, order)
        self._switch_taus: dict[int, float] = {}

    @cached_property
    def emax_after(self) -> list[float]:
        """emax_after[t] = E[max of boxes strictly after stage t]."""
        return suffix_expected_max(self.dists[1:])

    def switch_tau(self, s: int) -> float:
        """Best single threshold over the boxes from stage s on."""
        tau = self._switch_taus.get(s)
        if tau is None:
            tau = self._switch_taus[s] = best_single_threshold(self.dists[s:]).tau
        return tau


# Only the most recent (instance, order) is kept: callers run every
# evaluation of one order before moving to the next, so memory stays bounded
# however many orders a run enumerates.  The tables are a function of the
# immutable instance and order alone, so callers sharing the slot can only
# change whether it hits, never a value.
_recent: _OrderTables | None = None


def _order_tables(instance: Instance, order: ArrivalOrder) -> _OrderTables:
    global _recent
    tables = _recent
    if tables is None or tables.instance is not instance or tables.order != order:
        tables = _recent = _OrderTables(instance, order)
    return tables


class _Thresholds(NamedTuple):
    per_stage: list[float]
    targets: list[float]
    switch_stage: int | None


def _stage_thresholds(policy_kind: str, g0: float, tables: _OrderTables) -> _Thresholds:
    """Acceptance threshold of each stage, with the targets walked to get there.

    ``sta`` accepts at g0 at every stage.  ``tva`` accepts at each target of
    the walk g_t = inverse_target(d_t, g_{t-1}).  ``tvd`` walks the same
    targets until the first g_t above emax_after[t]; from that switch stage on
    it accepts at the best single threshold over the remaining boxes.
    """
    if policy_kind not in EXACT_POLICIES:
        raise PolicyError(f"unknown policy kind: {policy_kind!r}")
    if not (g0 >= 0.0):
        what = "threshold" if policy_kind == "sta" else "initial target"
        raise ValueError(f"{what} must be >= 0: {g0!r}")
    n = len(tables.dists)
    if policy_kind == "sta":
        return _Thresholds([g0] * n, [], None)
    targets: list[float] = []
    g = g0
    for t, d in enumerate(tables.dists):
        g = inverse_target(d, g)
        targets.append(g)
        if policy_kind == "tvd" and g > tables.emax_after[t]:
            return _Thresholds(targets[:t] + [tables.switch_tau(t)] * (n - t), targets, t)
    return _Thresholds(targets, targets, None)


# ---------------------------------------------------------------------------
# Exact policy values.


def _exact(
    policy_kind: str, instance: Instance, order: ArrivalOrder, g0: float
) -> EvaluationResult:
    tables = _order_tables(instance, order)
    plan = _stage_thresholds(policy_kind, g0, tables)
    switch = plan.switch_stage
    return EvaluationResult(
        policy_kind,
        threshold_run_values(tables.dists, plan.per_stage),
        targets=tuple(plan.targets),
        switch_stage=switch,
        threshold=None if switch is None else plan.per_stage[switch],
    )


def tva_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    """Exact expected value of the targeted policy started at target g0."""
    return _exact("tva", instance, order, g0)


def tvd_exact(instance: Instance, order: ArrivalOrder, g0: float) -> EvaluationResult:
    """Exact expected value of the detecting targeted policy.

    Until the switch the run is identical to the plain targeted policy; from
    the switch stage on it is a single-threshold run over the suffix.  The
    switch stage depends only on the target walk and the distributions, so
    the whole evaluation stays an exact backward recursion.
    """
    return _exact("tvd", instance, order, g0)


# ---------------------------------------------------------------------------
# Exact policy values of many lanes at once.


class LaneValues(NamedTuple):
    value: np.ndarray
    switch_stage: np.ndarray  # tvd's switch stage per lane, -1 where none


def lane_values(
    policy_kind: str, instance: Instance, perm: np.ndarray, rows: np.ndarray, g0: np.ndarray
) -> LaneValues:
    """Exact value of the named policy on every lane, bit for bit.

    A lane is one (order, g0) pair: lane i runs the order in row ``rows[i]``
    of ``perm``, which holds indices into ``instance.boxes``, from starting
    target ``g0[i]`` (for ``sta``, its threshold).  Many lanes may share one
    order: ``tvd``'s suffix E[max] table is built once per row of ``perm``
    and its switch threshold once per (row, switch stage), then gathered per
    lane.  Each stage is one numpy pass over all lanes that repeats the
    scalar path's IEEE operations in the same order, so every value equals
    ``sta_exact``/``tva_exact``/``tvd_exact(...).total`` and every switch
    stage that of ``tvd_exact``.
    """
    if policy_kind not in EXACT_POLICIES:
        raise PolicyError(f"unknown policy kind: {policy_kind!r}")
    negative = ~(g0 >= 0.0)
    if negative.any():
        what = "threshold" if policy_kind == "sta" else "initial target"
        raise ValueError(f"{what} must be >= 0: {float(g0[np.argmax(negative)])!r}")
    tables = instance.box_tables
    lane_perm = perm[rows]
    lanes, n = lane_perm.shape
    switch = np.full(lanes, -1)
    thresholds = np.empty((lanes, n))
    if policy_kind == "sta":
        thresholds[:] = g0[:, None]
    else:
        emax_after = _lane_emax_after(tables, perm)[rows] if policy_kind == "tvd" else None
        g = g0
        for t in range(n):
            g = _lane_inverse_target(tables, lane_perm[:, t], g)
            thresholds[:, t] = g
            if emax_after is not None:
                switch[(switch < 0) & (g > emax_after[:, t])] = t
        for s in sorted(set(switch[switch >= 0].tolist())):
            at = np.flatnonzero(switch == s)
            used = np.zeros(len(perm), dtype=bool)
            used[rows[at]] = True
            taus = np.empty(len(perm))
            taus[used] = _lane_switch_tau(tables, perm[used, s:])
            thresholds[at, s:] = taus[rows[at]][:, None]
    stages = np.zeros((lanes, n + 1))
    acc = stages[:, n]
    for t in range(n - 1, -1, -1):
        boxes = lane_perm[:, t]
        idx = tables.below(tables.values, boxes, thresholds[:, t])
        acc = tables.tail_mean[boxes, idx] + tables.head_mass[boxes, idx] * acc
        stages[:, t] = acc
    check_lane_stages(policy_kind, stages)
    return LaneValues(stages[:, 0], switch)


def _lane_inverse_target(tables: BoxTables, boxes: np.ndarray, g_prev: np.ndarray) -> np.ndarray:
    """``inverse_target`` of each lane's box at its target, same expressions in the same order."""
    target = g_prev - TARGET_SLACK
    i = tables.below(tables.emax_at_values, boxes, target)
    # Past the last mark; i is the row's first pad there, and i >= 1 wherever
    # the mean is below the target.
    above_support = tables.values[boxes, i] == math.inf
    i = np.maximum(i, 1)
    segment = (target - tables.tail_mean[boxes, i]) / tables.head_mass[boxes, i]
    segment = np.minimum(np.maximum(segment, tables.values[boxes, i - 1]), tables.values[boxes, i])
    x = np.where(above_support, target / tables.total_mass[boxes], segment)
    x = np.minimum(np.maximum(x, 0.0), g_prev)
    return np.where(tables.mean[boxes] >= target, 0.0, x)


def _lane_emax_after(tables: BoxTables, perm: np.ndarray) -> np.ndarray:
    """``emax_after`` of every lane: E[max of the boxes after stage t].

    Folds back to front as ``suffix_expected_max`` does.  Each mean is a
    sequential sum (``cumsum``) over the grid, where points outside the
    suffix's supports add an exact 0.0.
    """
    lanes, n = perm.shape
    out = np.zeros((lanes, n))
    running = tables.cdf[perm[:, n - 1]]
    for t in range(n - 2, -1, -1):
        mass = np.diff(running, axis=1, prepend=0.0)
        out[:, t] = np.cumsum(tables.grid * mass, axis=1)[:, -1]
        if t:
            running = running * tables.cdf[perm[:, t]]
    return out


def _lane_switch_tau(tables: BoxTables, suffix: np.ndarray) -> np.ndarray:
    """``best_single_threshold(dists).tau`` over each row's boxes, bit for bit.

    The masses are those of ``max_distribution``'s atoms, with an exact 0.0
    at grid points outside the suffix's supports, and every tail and head sum
    is sequential in the scalar order.  A one-box suffix keeps the box's raw
    probabilities, as ``max_distribution`` returns its single input unchanged.
    """
    if suffix.shape[1] == 1:
        return tables.alone_tau[suffix[:, 0]]
    running = tables.cdf[suffix[:, 0]]
    for t in range(1, suffix.shape[1]):
        running = running * tables.cdf[suffix[:, t]]
    mass = np.diff(running, axis=1, prepend=0.0)
    tau = tables.grid
    tail_mass = np.cumsum(mass[:, ::-1], axis=1)[:, ::-1]
    tail_mean = np.cumsum((mass * tau)[:, ::-1], axis=1)[:, ::-1]
    head_mass = np.zeros_like(mass)
    np.cumsum(mass[:, :-1], axis=1, out=head_mass[:, 1:])
    atom = mass > 0.0
    # tau = 0 reads tail_mass[0] as P[M >= 0]; its bound is exactly 0.0.
    for p in (tail_mass[:, 0], tail_mass[atom], head_mass[atom]):
        out = ~((-PROB_TOL <= p) & (p <= 1.0 + PROB_TOL))
        if out.any():
            raise ValueError(f"not a probability within tolerance: {float(p[out][0])!r}")
    p_ge = np.minimum(1.0, np.maximum(0.0, tail_mass))
    p_lt = np.minimum(1.0, np.maximum(0.0, head_mass))
    plus = np.maximum(0.0, tail_mean - tau * tail_mass)
    bound = np.where(atom, p_ge * tau + p_lt * plus, -math.inf)
    # The first maximum wins, with tau = 0 (bound 0.0) ahead of every atom.
    pick = np.argmax(np.concatenate((np.zeros((len(mass), 1)), bound), axis=1), axis=1)
    return np.where(pick == 0, 0.0, tau[pick - 1])


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
    tables = _order_tables(instance, order)
    thresholds = _stage_thresholds(policy_kind, g0, tables).per_stage
    u = rng.random((runs, len(tables.dists)))
    taken = np.zeros(runs)
    open_rows = np.arange(runs)
    for t, (d, threshold) in enumerate(zip(tables.dists, thresholds)):
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
    tables = _order_tables(instance, order)
    levels: set[float] = set()
    for t in range(len(tables.dists) - 1, -1, -1):
        d = tables.dists[t]
        levels.update(d.values)
        if policy_kind == "tvd":
            switch_level = tables.emax_after[t]
            levels = {y for y in levels if y <= switch_level}
            levels.add(switch_level)
        pulled = (expected_max_with(d, y) + TARGET_SLACK for y in levels if y < top)
        levels = {y for y in pulled if y < top}
    return sorted(levels)


def _mixture_pieces(
    instance: Instance, order: ArrivalOrder, density: DensitySpec, policy_kind: str
) -> tuple[list[float], list[float]]:
    """Weight and midpoint starting target of each piece of the mixture.

    The value is piecewise constant in g0 (see ``value_cuts``): each piece is
    weighted by its mass under the analytic density CDF and valued at its
    midpoint.  A point mass is one piece of weight 1.
    """
    if policy_kind not in ("tva", "tvd"):
        raise ValueError(f"randomized mixture needs tva or tvd, got {policy_kind!r}")
    prophet = prophet_value(instance)
    if density.point_mass is not None:
        return [1.0], [density.point_mass * prophet]
    positive = [p for p in density.pieces if p.kind != PIECE_ZERO]
    lo, hi = positive[0].lo, positive[-1].hi
    cuts = value_cuts(instance, order, policy_kind, hi * prophet)
    edges = [lo, *(y / prophet for y in cuts if y > lo * prophet), hi]
    cdf = [density_cdf(density, x) for x in edges]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    mids = [0.5 * (a + b) * prophet for a, b in zip(edges, edges[1:])]
    return weights, mids


def _mix(weights: list[float], values: list[float]) -> float:
    """Normalised weighted sum of the piece values, kept within them."""
    mixed = math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)
    return min(max(mixed, min(values)), max(values))


def randomized_value(
    instance: Instance,
    order: ArrivalOrder,
    density: DensitySpec,
    policy_kind: str = "tvd",
) -> float:
    """Exact expected policy value when g0 = x * prophet with x ~ density.

    Each piece of the value profile (see ``_mixture_pieces``) is valued by
    the scalar exact evaluator at its midpoint.  Weights are normalised and
    the result is kept within the piece values, so it can never exceed the
    optimum.  This is the one-order reference: ``lane_randomized_values``
    gives the same float for many orders at once.
    """
    weights, mids = _mixture_pieces(instance, order, density, policy_kind)
    evaluate = tva_exact if policy_kind == "tva" else tvd_exact
    return _mix(weights, [evaluate(instance, order, g0).total for g0 in mids])


def lane_randomized_values(
    instance: Instance,
    orders: Sequence[ArrivalOrder],
    perm: np.ndarray,
    density: DensitySpec,
    policy_kind: str,
    max_lanes: int,
) -> Iterator[float]:
    """``randomized_value`` of each order in turn, bit for bit, with its pieces as lanes.

    Row i of ``perm`` holds the box indices of ``orders[i]``.  Pieces are
    built order by order and valued by ``lane_values`` in passes of
    ``max_lanes`` lanes (the last pass may be shorter), so one order's pieces
    may span several passes and at most one pass of pieces waits at a time.
    An order's piece values are mixed as ``randomized_value`` mixes them as
    soon as the last of them is valued.
    """
    open_weights: deque[list[float]] = deque()  # orders not yet mixed
    values: list[float] = []  # their pieces valued so far
    rows: list[int] = []  # pieces not yet valued: row of perm and g0
    starts: list[float] = []
    for i, order in enumerate(orders):
        weights, mids = _mixture_pieces(instance, order, density, policy_kind)
        open_weights.append(weights)
        rows += [i] * len(mids)
        starts += mids
        while len(starts) >= max_lanes or (i == len(orders) - 1 and starts):
            at = np.array(rows[:max_lanes])
            part, g0 = perm[at[0] : at[-1] + 1], np.array(starts[:max_lanes])
            values += lane_values(policy_kind, instance, part, at - at[0], g0).value.tolist()
            del rows[:max_lanes], starts[:max_lanes]
            while open_weights and len(values) >= len(open_weights[0]):
                weights = open_weights.popleft()
                yield _mix(weights, values[: len(weights)])
                del values[: len(weights)]
