"""Hard ladder instances, their discretized programs, and dual certificates.

Two upper-bound families are implemented.  The general family combines a
descending ladder of deterministic boxes on [1, phi] with one free-reward
box (huge value, tiny probability, unit expectation); it caps every
order-unaware algorithm near 0.8293.  The detection family uses a ladder
on [0, c] with multiplicities plus a batch of small free-reward boxes; it
caps the detecting targeted policy near 0.7582.

Each family ships three things: instance/order builders for end-to-end
policy evaluation, a finite LP whose optimum upper-bounds the achievable
ratio on the family, and an analytic dual certificate whose feasibility is
re-checked, not trusted, at the breakpoints of its piecewise linear constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .benchmarks import ArrivalOrder, Box, Instance
from .densities import PHI, bisect_decreasing
from .distributions import DiscreteDistribution
from .policies import tvd_exact
from .simplex import FiniteLP

GRID_MATCH_TOL = 1e-9

SQRT5 = math.sqrt(5.0)


class HardnessParameterError(ValueError):
    """Construction parameters outside the supported regime."""


def _require_scale_separation(epsilon: float, delta: float) -> None:
    if not (0.0 < delta < epsilon * epsilon):
        raise HardnessParameterError(
            f"need 0 < delta < epsilon^2, got epsilon={epsilon!r} delta={delta!r}"
        )


def _det_dist(value: float) -> DiscreteDistribution:
    return DiscreteDistribution(((value, 1.0),))


def _free_dist(expectation: float, delta: float) -> DiscreteDistribution:
    return DiscreteDistribution(((0.0, 1.0 - delta), (expectation / delta, delta)))


def _ladder(top: float, foot: float, cells: int) -> tuple[np.ndarray, float]:
    """cells+1 evenly spaced rungs from top to foot, the last exactly foot, and the step."""
    step = (top - foot) / cells
    rungs = top - np.arange(cells + 1) * step
    rungs[-1] = foot
    return rungs, step


# ---------------------------------------------------------------------------
# General family: ladder on [1, phi] plus one unit-expectation free box.


@dataclass(frozen=True)
class GeneralHardInstance:
    epsilon: float
    delta: float
    step: float
    grid: tuple[float, ...]
    instance: Instance
    free_id: str


def make_general_hard_instance(epsilon: float, delta: float) -> GeneralHardInstance:
    """Ladder phi, phi-step, ..., 1 (step snapped to divide the span) + free box."""
    if not (epsilon > 0.0):
        raise HardnessParameterError(f"epsilon must be positive: {epsilon!r}")
    _require_scale_separation(epsilon, delta)
    if epsilon >= PHI - 1.0:
        grid, step = (PHI,), PHI - 1.0
    else:
        rungs, step = _ladder(PHI, 1.0, _general_cells(epsilon))
        grid = tuple(rungs.tolist())
    boxes = [Box(f"d{j:04d}", _det_dist(v)) for j, v in enumerate(grid)]
    boxes.append(Box("free", _free_dist(1.0, delta)))
    return GeneralHardInstance(
        epsilon=epsilon,
        delta=delta,
        step=step,
        grid=grid,
        instance=Instance(tuple(boxes)),
        free_id="free",
    )


def _grid_index(grid: tuple[float, ...], x: float) -> int:
    for j, v in enumerate(grid):
        if abs(v - x) <= GRID_MATCH_TOL:
            return j
    raise ValueError(f"value {x!r} is not on the ladder grid")


def free_last_order(hard: GeneralHardInstance) -> ArrivalOrder:
    """Deterministic boxes descending, free-reward box last."""
    return tuple(b.box_id for b in hard.instance.boxes[:-1]) + (hard.free_id,)


def free_after_order(hard: GeneralHardInstance, x: float) -> ArrivalOrder:
    """Descending ladder with the free-reward box right after the x box."""
    j = _grid_index(hard.grid, x)
    det = [b.box_id for b in hard.instance.boxes[:-1]]
    return tuple(det[: j + 1]) + (hard.free_id,) + tuple(det[j + 1 :])


def general_opt_prediction(hard: GeneralHardInstance, x: float) -> float:
    """Exact backward-induction value of the free-after-x order.

    Waiting for the free box and falling back to the next ladder value is
    optimal for every x above the ladder foot; at the foot the order equals
    the free-last order, whose value is the ladder top.
    """
    j = _grid_index(hard.grid, x)
    if j == len(hard.grid) - 1:
        return hard.grid[0]
    return 1.0 + (1.0 - hard.delta) * hard.grid[j + 1]


def _general_cells(grid_step: float) -> int:
    cells = (PHI - 1.0) / grid_step if 0.0 < grid_step < PHI - 1.0 else math.nan
    if not math.isfinite(cells):
        raise HardnessParameterError(f"grid_step must be in (0, phi-1): {grid_step!r}")
    return max(1, round(cells))


def primal_tableau_mb(grid_step: float) -> float:
    """MB of simplex_solve's tableau for build_primal_general(grid_step).

    The condensed tableau has one column per nonbasic variable: cells+2 of
    them (FiniteLP's rhs >= 0 lets the slacks of the cells+3 rows start
    basic), plus the rhs column, over the cells+3 rows and the cost row.
    The detection program has fewer cells at any step, since 1-c < phi-1.
    The solver's delayed pivots and flush tile come on top: 3 * DELAY
    columns and DELAY rows, 0.30 MB at step 0.001 and 1.2 MB beside 46.8 MB
    at 0.00025.
    """
    cells = float(_general_cells(grid_step))
    return (cells + 4.0) * (cells + 3.0) * 8.0 / 2**20


def build_primal_general(grid_step: float) -> FiniteLP:
    """Finite acceptance-probability program for the general family.

    Variables are (ratio, p_x for ladder x descending).  Row one is the
    free-last order; each ladder x adds the free-after-x order; the final
    row caps total acceptance probability at one.
    """
    grid, _ = _ladder(PHI, 1.0, _general_cells(grid_step))
    n = grid.size
    rows = np.zeros((n + 2, n + 1))
    rows[0, 0] = PHI
    rows[0, 1:] = 1.0 - grid
    rows[1:-1, 0] = grid + 1.0
    # Row of ladder x_i: x_i + 1 - y_j for j <= i, zero above the diagonal.
    block = rows[1:-1, 1:]
    np.subtract((grid + 1.0)[:, None], grid[None, :], out=block)
    block *= np.tri(n, dtype=bool)
    rows[-1, 1:] = 1.0
    rhs = np.concatenate(([1.0], grid + 1.0, [1.0]))
    objective = np.zeros(n + 1)
    objective[0] = 1.0
    return FiniteLP(objective=objective, rows=rows, rhs=rhs)


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Closed-form dual point: multiplier mu and density lam on [lo, hi]."""

    mu: float
    lo: float
    hi: float
    lam: Callable[[float], float]


class GeneralDualReport(NamedTuple):
    objective: float
    max_violation: float
    normalization_slack: float
    certificate: DualCertificate


def verify_dual_general(inject_error: float = 0.0) -> GeneralDualReport:
    """Check the exponential dual certificate for the general family.

    The certificate is mu = K e and lam(y) = K e^y on [1, phi] with
    K = (sqrt(5)-1) / (3e - sqrt(5) e + 2 e^phi).  By analytic antiderivatives
    it must satisfy phi mu + int lam(y)(y+1) dy >= 1 and, for each x in
    [1, phi], mu (x-1) + int_1^x lam(y)(x-y-1) dy = (mu - K e)(x-1) <= 0,
    which is linear in x and so checked at x = 1 and x = phi.
    ``inject_error`` shifts mu upward so negative tests can watch it fail.
    """
    k_const = (SQRT5 - 1.0) / (3.0 * math.e - SQRT5 * math.e + 2.0 * math.exp(PHI))
    mu = k_const * math.e + inject_error
    # int_1^phi e^y (y+1) dy = [y e^y] = phi e^phi - e
    weighted_tail = k_const * (PHI * math.exp(PHI) - math.e)
    objective = mu + weighted_tail
    normalization = PHI * mu + weighted_tail
    # int_1^x e^y (x-y-1) dy = [e^y (x-y)] = -e (x-1)
    ladder = [mu * (x - 1.0) - k_const * math.e * (x - 1.0) for x in (1.0, PHI)]
    # np.max propagates a NaN, so a NaN constraint reads as a violation.
    worst = float(np.max([1.0 - normalization] + ladder))
    certificate = DualCertificate(mu=mu, lo=1.0, hi=PHI, lam=lambda y: k_const * math.exp(y))
    return GeneralDualReport(objective, worst, normalization - 1.0, certificate)


# ---------------------------------------------------------------------------
# Detection family: ladder on [0, c] with multiplicities plus small free boxes.


@dataclass(frozen=True)
class DetectionHardInstance:
    c: float
    epsilon: float
    delta: float
    step: float
    multiplicity: int
    grid: tuple[float, ...]
    instance: Instance
    free_ids: tuple[str, ...]


def make_detection_hard_instance(c: float, epsilon: float, delta: float) -> DetectionHardInstance:
    """Ladder c, c-step, ..., 0 with multiplicity round((1-c)/step) each,
    plus the same count of free-reward boxes of expectation step.  The ids
    run rung by rung from the top, multiplicity copies each (d{j:04d}x{i:04d}),
    then the free boxes f0000, f0001, ... come last."""
    if not (0.5 < c < 1.0):
        raise HardnessParameterError(f"c must be in (0.5, 1): {c!r}")
    if not (0.0 < epsilon <= c):
        raise HardnessParameterError(f"epsilon must be in (0, c]: {epsilon!r}")
    _require_scale_separation(epsilon, delta)
    rungs, step = _ladder(c, 0.0, max(1, round(c / epsilon)))
    values = rungs.tolist()
    multiplicity = max(1, round((1.0 - c) / step))
    boxes = []
    for j, v in enumerate(values):
        for i in range(multiplicity):
            boxes.append(Box(f"d{j:04d}x{i:04d}", _det_dist(v)))
    free_ids = tuple(f"f{i:04d}" for i in range(multiplicity))
    for fid in free_ids:
        boxes.append(Box(fid, _free_dist(step, delta)))
    return DetectionHardInstance(
        c=c,
        epsilon=epsilon,
        delta=delta,
        step=step,
        multiplicity=multiplicity,
        grid=tuple(values),
        instance=Instance(tuple(boxes)),
        free_ids=free_ids,
    )


def detection_hard_order(hard: DetectionHardInstance, x: float) -> ArrivalOrder:
    """Three stages: ladder above x descending; alternating (free, x copy)
    pairs; then the remaining ladder descending."""
    j = _grid_index(hard.grid, x)
    if hard.grid[j] <= 2.0 * hard.c - 1.0 + GRID_MATCH_TOL:
        raise ValueError(f"x={x!r} must exceed 2c-1 for the hard order")
    m = hard.multiplicity
    ids = hard.instance.ids
    paired = zip(hard.free_ids, ids[j * m : (j + 1) * m])
    return ids[: j * m] + tuple(b for pair in paired for b in pair) + ids[(j + 1) * m : -m]


def detection_opt_prediction(hard: DetectionHardInstance, x: float) -> float:
    """Exact backward-induction value of the detection hard order at x:
    survive all free boxes to the last x copy, banking realized rewards."""
    m = hard.multiplicity
    keep = (1.0 - hard.delta) ** m
    return keep * x + hard.step * (1.0 - keep) / hard.delta


def detection_formula(c: float, x: float, g0: float) -> float:
    """Limiting value of the detecting policy on the hard order."""
    if g0 <= 1.0 - c + x:
        return g0
    return max(1.0 - c, g0 - (1.0 - c))


def tvd_on_detection_order(hard: DetectionHardInstance, x: float, g0: float) -> float:
    if not (hard.c - GRID_MATCH_TOL <= g0 <= 1.0 + GRID_MATCH_TOL):
        raise ValueError(f"g0 must lie in [c, 1]: {g0!r}")
    order = detection_hard_order(hard, x)
    return float(tvd_exact(hard.instance, order, g0).stages[0, 0])


def build_primal_tvd(c: float, grid_step: float) -> FiniteLP:
    """Finite initial-target-density program for the detection family.

    Variables are (ratio, q_i) where q_i is the probability that the
    initial target lands in the i-th cell of [c, 1].  Each x in (2c-1, c]
    contributes one hard order whose limiting value per cell midpoint is
    the midpoint itself below 1-c+x and max(1-c, y-(1-c)) above.
    """
    if not (0.5 < c < 1.0):
        raise HardnessParameterError(f"c must be in (0.5, 1): {c!r}")
    if not (0.0 < grid_step <= 1.0 - c):
        raise HardnessParameterError(f"grid_step must be in (0, 1-c]: {grid_step!r}")
    cells = max(2, round((1.0 - c) / grid_step))
    # The rungs climb from 2c-1, so the step is -(1-c)/cells.
    rungs, step = _ladder(2.0 * c - 1.0, c, cells)
    xs = rungs[1:]
    mids = c - (np.arange(cells) + 0.5) * step
    opt_x = 1.0 - c + xs
    rows = np.zeros((cells + 1, cells + 1))
    rows[:-1, 0] = opt_x
    switched = np.maximum(1.0 - c, mids - (1.0 - c))
    # Row of x, cell y: y below the switch level 1-c+x, the switched value above.
    rows[:-1, 1:] = -np.where(mids <= opt_x[:, None], mids, switched)
    rows[-1, 1:] = 1.0
    rhs = np.zeros(cells + 1)
    rhs[-1] = 1.0
    objective = np.zeros(cells + 1)
    objective[0] = 1.0
    return FiniteLP(objective=objective, rows=rows, rhs=rhs)


def solve_c_detection() -> float:
    """c with c = -1 + 1/(2(1-c)) + (1-c) ln((1-c)/(2c-1)), on [0.51, 0.65].

    The defining residual has a second crossing near 0.9; the bracket pins
    the relevant root.
    """

    def residual(c: float) -> float:
        rhs = -1.0 + 1.0 / (2.0 * (1.0 - c)) + (1.0 - c) * math.log((1.0 - c) / (2.0 * c - 1.0))
        return rhs - c

    return bisect_decreasing(residual, 0.51, 0.65)


class TvdDualReport(NamedTuple):
    c: float
    a: float
    b: float
    objective: float
    max_violation: float
    normalization_residual: float
    certificate: DualCertificate


def verify_dual_tvd(inject_error: float = 0.0) -> TvdDualReport:
    """Re-derive and check the two-piece dual certificate for detection.

    lam is a/x^2 on [2c-1, 1-c) and b/(1-c) on [1-c, c].  (a, b) solve the
    2x2 linear system: total lam mass T equals b, and the (1-c+x)-weighted
    mass equals one; both coefficient rows are analytic integrals.  The
    certificate must then satisfy, for every y in [c, 1] with z = y-(1-c),
    y * (lam mass above z) + max(1-c, z) * (lam mass below z) <= mu =
    c * T.  With B(z) the mass below z, the left side is (z+1-c) T - z B(z)
    on [2c-1, 1-c], where z B(z) = a z/(2c-1) - a, and (z+1-c) T - (1-c) B(z)
    on [1-c, c], where B is affine.  Both are linear in z, so the maximum
    is at y = c, 2-2c or 1.  ``inject_error`` lowers mu so negative tests
    can watch it fail.
    """
    c = solve_c_detection()
    lo = 2.0 * c - 1.0
    mid = 1.0 - c
    # Row 1: (integral of lam) - b = 0; row 2: integral of (1-c+x) lam = 1.
    a11 = 1.0 / lo - 1.0 / mid
    a12 = (2.0 * c - 1.0) / mid - 1.0
    a21 = mid / lo - 1.0 + math.log(mid / lo)
    a22 = (2.0 * c - 1.0) * (1.0 + 1.0 / (2.0 * mid))
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-9:
        raise ArithmeticError(f"certificate system is singular: det={det!r}")
    a = -a12 / det
    b = a11 / det
    total_mass = a * a11 + b * (2.0 * c - 1.0) / mid
    mu = c * total_mass - inject_error

    def violation(y: float) -> float:
        z = y - (1.0 - c)
        below = 0.0  # integral of lam over [2c-1, z]
        if lo < z < mid:
            below = a * (1.0 / lo - 1.0 / z)
        elif z >= mid:
            below = a * a11 + b * (min(z, c) - mid) / mid
        return y * (total_mass - below) + max(1.0 - c, z) * below - mu

    normalization = a * a21 + b * a22
    # np.max propagates a NaN, so a NaN constraint reads as a violation.
    worst = float(np.max([violation(y) for y in (c, 2.0 - 2.0 * c, 1.0)] + [1.0 - normalization]))

    def lam(x: float) -> float:
        if x < mid:
            return a / (x * x)
        return b / mid

    certificate = DualCertificate(mu=mu, lo=lo, hi=c, lam=lam)
    return TvdDualReport(c, a, b, mu, worst, normalization - 1.0, certificate)
