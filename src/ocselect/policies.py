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
from typing import NamedTuple, Sequence

import numpy as np

from .benchmarks import ArrivalOrder, Instance, order_indices, prophet_value
from .densities import DensitySpec, density_cdf
from .distributions import (
    DiscreteDistribution,
    _lane_inverse_target,
    _lane_jump_target,
    inverse_cdf,
)

# Exact-evaluation policies selectable by name.
EXACT_POLICIES = ("sta", "tva", "tvd")

# Lanes per pass of ``lane_randomized_values``, one per mixture piece, and
# orders per chunk of the CLI's ``eval``, one lane per order for the exact
# kinds.  Measured on the perfbench commands (Python 3.11, numpy 2.4, 2-vCPU
# VM; medians of 12 runs of each command's peak RSS and wall time, process
# start included, in two sets), all 8! orders of 8 boxes take 30.3 MB and
# 0.26-0.27 s with 512, 30.8-30.9 MB and 0.25-0.26 s with 1024, 32.1 MB and
# 0.24-0.26 s with 2048; the two 12-box mixtures on 120 orders 36.4, 36.5 and
# 36.9 MB in 0.33-0.36, 0.32-0.34 and 0.33 s.  512 is slower on both; 2048
# costs 1.3 MB on the orders for a few percent at most.
LANE_CHUNK = 1024

# Slack allowed when validating computed per-stage values as nonnegative.
VALUE_TOL = 1e-9


class PolicyError(ValueError):
    """An unknown policy kind was asked for."""


# ---------------------------------------------------------------------------
# Exact policy values of one order.  Each call returns ``lane_values`` on its
# one lane as it is: the value is ``stages[0, 0]``.


def _one_lane(
    policy_kind: str, instance: Instance, order: ArrivalOrder, g0: float | None
) -> LaneValues:
    """``lane_values`` on the one lane (order, g0)."""
    perm = np.array([order_indices(instance, order)])
    start = None if g0 is None else np.array([g0], float)
    return lane_values(policy_kind, instance, perm, np.zeros(1, dtype=int), start)


def opt_online(instance: Instance, order: ArrivalOrder) -> LaneValues:
    """Order-aware online optimum: accept any value at or above the value to go after it.

    Value-to-go from stage t is E[max(v_t, value-to-go from t+1)], zero past
    the last box.  Accepting at equality is optimal and is the convention
    used by every evaluator in this package.
    """
    return _one_lane("opt", instance, order, None)


def sta_exact(instance: Instance, order: ArrivalOrder, tau: float) -> LaneValues:
    """Exact value of the single-threshold policy: accept the first v >= tau."""
    return _one_lane("sta", instance, order, tau)


def tva_exact(instance: Instance, order: ArrivalOrder, g0: float) -> LaneValues:
    """Exact expected value of the targeted policy started at target g0."""
    return _one_lane("tva", instance, order, g0)


def tvd_exact(instance: Instance, order: ArrivalOrder, g0: float) -> LaneValues:
    """Exact expected value of the detecting targeted policy.

    Until the switch the run is identical to the plain targeted policy; from
    the switch stage on it is a single-threshold run over the suffix.  The
    switch stage depends only on the target walk and the distributions, so
    the whole evaluation stays an exact backward recursion.  ``thresholds[0]``
    holds the targets before ``switch_stage[0]`` and the single threshold
    from it on; ``switch_target[0]`` is the target found there above the
    value still to come.
    """
    return _one_lane("tvd", instance, order, g0)


# ---------------------------------------------------------------------------
# Exact policy values of many lanes at once.


class LaneValues(NamedTuple):
    stages: np.ndarray  # (lanes, n + 1): value to go from each stage; column 0 is the policy's
    thresholds: np.ndarray  # (lanes, n): the acceptance threshold of each stage
    switch_stage: np.ndarray  # tvd's switch stage per lane, -1 where none
    switch_target: np.ndarray  # tvd's target at its switch stage, nan where none


def lane_values(
    policy_kind: str,
    instance: Instance,
    perm: np.ndarray,
    rows: np.ndarray,
    g0: np.ndarray | None,
) -> LaneValues:
    """Exact value of the named policy on every lane, with each lane's stages and thresholds.

    A lane is one (order, g0) pair: lane i runs the order in row ``rows[i]``
    of ``perm``, which holds indices into ``instance.boxes``, from starting
    target ``g0[i]`` (for ``sta``, its threshold).  ``opt`` is the online
    optimum: it takes no g0 (pass None) and accepts at each stage any value
    at or above the value to go from the next stage.  ``sta`` accepts at g0 at
    every stage.  ``tva`` accepts at each target of the walk that
    ``_lane_inverse_target`` takes, g_t = the smallest x >= 0 with
    E[max(v_t, x)] >= g_{t-1}.  ``tvd`` walks the same targets until
    the first g_t above E[max of the boxes after stage t]; from that switch
    stage on it accepts at the best single threshold over the remaining
    boxes.  Both come from the instance's ``SuffixTables``.  Many lanes may
    share one order: ``tvd``'s E[max] table is built once per row of
    ``perm`` and gathered per lane, so ``perm`` should hold only the lanes'
    rows.  Its switch thresholds take one ``switch_tau`` call per switch
    stage, on the boxes that each lane switching there has left.  Each
    stage is one numpy pass over all lanes that repeats, in the same order,
    the IEEE operations of the one-order reference evaluators in
    ``tests/scalar_reference.py``.
    """
    if policy_kind not in ("opt", *EXACT_POLICIES):
        raise PolicyError(f"unknown policy kind: {policy_kind!r}")
    nonnegative = policy_kind == "opt" or g0 >= 0.0
    if not np.all(nonnegative):
        what = "threshold" if policy_kind == "sta" else "initial target"
        raise ValueError(f"{what} must be >= 0: {float(g0[np.argmin(nonnegative)])!r}")
    if policy_kind == "tvd":
        # Row t holds each row of perm's E[max of the boxes after stage t].
        emax_after = instance.suffix_tables.emax_after(perm).T
    tables = instance.box_tables
    lanes, n = len(rows), perm.shape[1]
    # Row t holds each lane's box at stage t, gathered once per pass.
    boxes = perm.T.take(rows, axis=1)
    switch = np.full(lanes, -1)
    # Like boxes, thresholds and stages are stage-major and are returned transposed.
    thresholds = np.empty((n, lanes))
    if policy_kind == "sta":
        thresholds[:] = g0
    elif policy_kind != "opt":
        g = g0
        for t in range(n):
            g = _lane_inverse_target(tables, boxes[t], g)
            thresholds[t] = g
            if policy_kind == "tvd":
                switch[(switch < 0) & (g > emax_after[t].take(rows))] = t
    switched = np.flatnonzero(switch >= 0)
    stage = switch[switched]
    switch_target = np.full(lanes, math.nan)
    for s in sorted(set(stage.tolist())):
        at = switched[stage == s]
        switch_target[at] = thresholds[s, at]
        thresholds[s:, at] = instance.suffix_tables.switch_tau(boxes[s:, at].T)
    stages = np.zeros((n + 1, lanes))
    acc = stages[n]
    tail_mean, head_mass = tables.tail_mean.ravel(), tables.head_mass.ravel()
    for t in range(n - 1, -1, -1):
        if policy_kind == "opt":
            thresholds[t] = acc
        cell = tables.cell(boxes[t], tables.below(tables.values, boxes[t], thresholds[t]))
        acc = tail_mean.take(cell) + head_mass.take(cell) * acc
        stages[t] = acc
    stages, thresholds = stages.T, thresholds.T
    # Each stage value is finite and nonnegative; the first lane's first bad value is named.
    out_of_range = ~(np.isfinite(stages) & (stages >= -VALUE_TOL))
    if out_of_range.any():
        raise ArithmeticError(f"per-stage value out of range: {float(stages[out_of_range][0])!r}")
    return LaneValues(stages, thresholds, switch, switch_target)


# ---------------------------------------------------------------------------
# Sampled runs and the randomized mixture value.


def sample_runs(
    dists: Sequence[DiscreteDistribution],
    thresholds: Sequence[float],
    rng: np.random.Generator,
    runs: int,
) -> np.ndarray:
    """Value taken by each of ``runs`` sampled runs; 0.0 where nothing is taken.

    Each run samples every box of ``dists`` once, in arrival order, and takes
    the first value at or above its stage's entry of ``thresholds``.  Every
    policy here fixes its stage thresholds from g0, the distributions and the
    order alone, so one row of ``lane_values(...).thresholds`` serves every
    run.  The rows of draws come from ``rng`` in the same order as a
    box-by-box replay would take them.
    """
    if len(thresholds) != len(dists):
        raise ValueError(f"dists has {len(dists)} entries but thresholds has {len(thresholds)}")
    u = rng.random((runs, len(dists)))
    taken = np.zeros(runs)
    open_rows = np.arange(runs)
    for t, (d, threshold) in enumerate(zip(dists, thresholds)):
        values = inverse_cdf(d, u[open_rows, t])
        accept = values >= threshold
        taken[open_rows[accept]] = values[accept]
        open_rows = open_rows[~accept]
    return taken


def _lane_value_cuts(
    instance: Instance, perm: np.ndarray, policy_kind: str, top: float
) -> np.ndarray:
    """Each order's sorted distinct starting targets below ``top`` where its value can jump.

    Row i of the result holds the cuts of the order in row i of ``perm``,
    then +inf pads.  The value depends on g0 only through each stage's
    acceptance index and, for ``tvd``, the switch stage: through where each
    target g_t lies among the stage's atoms and emax_after[t], E[max of the
    boxes after stage t] from the instance's ``SuffixTables``.  Each such
    level is carried back to g0 stage by stage, all orders at once, through
    ``_lane_jump_target``.  No target rises above g0 < ``top``, so a level
    at or above ``top`` is set to +inf before each pull-back, where it stays
    +inf however a box's masses round, and again after it.
    For ``tvd`` a target above emax_after[t] switches the walk at stage t,
    after which no target from stage t on is used, so only levels up to
    emax_after[t] are kept there.
    """
    tables = instance.box_tables
    if policy_kind == "tvd":
        emax_after = instance.suffix_tables.emax_after(perm)
    levels = np.empty((len(perm), 0))
    for t in range(perm.shape[1] - 1, -1, -1):
        boxes = perm[:, t]
        levels = np.concatenate((levels, tables.values.take(boxes, axis=0)), axis=1)
        if policy_kind == "tvd":
            switch_level = emax_after[:, t, None]
            levels[levels > switch_level] = math.inf
            levels = np.concatenate((levels, switch_level), axis=1)
        levels[levels >= top] = math.inf
        levels = _lane_jump_target(tables, boxes, levels)
        levels[levels >= top] = math.inf
        levels = _distinct(levels)
    return levels


def _distinct(levels: np.ndarray) -> np.ndarray:
    """Each row's distinct finite entries, sorted, then +inf pads, as wide as the widest row.

    Equal neighbours are masked after a sort; ``np.unique`` would import numpy.ma.
    """
    levels = np.sort(levels, axis=1)
    levels[:, 1:][levels[:, 1:] == levels[:, :-1]] = math.inf
    levels.sort(axis=1)
    return levels[:, : np.count_nonzero(levels < math.inf, axis=1).max(initial=0)]


class MixturePieces(NamedTuple):
    counts: np.ndarray  # pieces of each order, in the orders' order
    weights: np.ndarray  # each piece's mass under the density
    mids: np.ndarray  # each piece's midpoint starting target


def _lane_mixture_pieces(
    instance: Instance, perm: np.ndarray, density: DensitySpec, policy_kind: str
) -> MixturePieces:
    """The pieces of every order's mixture, flat, order after order.

    ``perm`` holds each order's indices into ``instance.boxes``.  The value
    is piecewise constant in g0 (see ``_lane_value_cuts``): each piece is
    weighted by its mass under the analytic density CDF and valued at its
    midpoint.  Each order's edges are one row: lo, its cuts, hi.  A cut at
    or below lo·prophet reads lo and a +inf pad reads hi; each makes a piece
    of weight exactly 0.0, dropped like a piece in a gap of the density.
    """
    prophet = prophet_value(instance)
    lo, hi = density.pieces[0].lo, density.pieces[-1].hi
    cuts = _lane_value_cuts(instance, perm, policy_kind, hi * prophet)
    edges = np.empty((len(perm), cuts.shape[1] + 2))
    edges[:, 0], edges[:, -1] = lo, hi
    edges[:, 1:-1] = np.where(cuts > lo * prophet, np.minimum(cuts / prophet, hi), lo)
    del cuts  # before the padded rows' CDF, the builder's peak
    cdf = density_cdf(density, edges)
    weights = cdf[:, 1:] - cdf[:, :-1]
    within = weights != 0.0
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:]) * prophet
    return MixturePieces(np.count_nonzero(within, axis=1), weights[within], mids[within])


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

    ``lane_randomized_values`` on the one order.  Weights are normalised and
    the result is kept within the piece values, so it can never exceed the
    optimum.
    """
    perm = np.array([order_indices(instance, order)])
    return float(lane_randomized_values(instance, perm, density, policy_kind)[0])


def lane_randomized_values(
    instance: Instance, perm: np.ndarray, density: DensitySpec, policy_kind: str
) -> np.ndarray:
    """The mixture value of each row of ``perm``, with its pieces as lanes.

    Row i of ``perm`` holds the box indices of one order.  Every row's
    pieces are built together (see ``_lane_mixture_pieces``) and valued by
    ``lane_values`` in passes of LANE_CHUNK lanes (the last pass may be
    shorter), so one order's pieces may span several passes.  An order's
    pieces are contiguous, so each pass gets only the rows of ``perm`` its
    pieces come from.  Each order's piece values are then mixed by ``_mix``.
    """
    if policy_kind not in ("tva", "tvd"):
        raise ValueError(f"randomized mixture needs tva or tvd, got {policy_kind!r}")
    counts, weights, mids = _lane_mixture_pieces(instance, perm, density, policy_kind)
    rows = np.repeat(np.arange(len(perm)), counts)
    values = np.empty(len(mids))
    for start in range(0, len(mids), LANE_CHUNK):
        part = slice(start, start + LANE_CHUNK)
        first, last = rows[start], rows[part][-1]
        lanes = perm[first : last + 1], rows[part] - first, mids[part]
        values[part] = lane_values(policy_kind, instance, *lanes).stages[:, 0]
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    mixed = [_mix(weights[a:b].tolist(), values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    return np.array(mixed)
