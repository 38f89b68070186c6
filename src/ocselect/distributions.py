"""Finite discrete value distributions and their exact expectation operators.

Everything downstream (benchmark recursions, policy evaluators, hardness
instances) is built on these primitives, so each operator is either a finite
sum or the solution of a single linear equation on one segment of a piecewise
linear function.  No quadrature, no iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

# Downward slack used when inverting the target recursion.  Biasing the
# solved threshold down by this amount keeps a value atom that sits exactly
# on the threshold on the "accept" side despite rounding in the solve.
TARGET_SLACK = 1e-12

# Absolute tolerance for rounding on probabilities: a single probability, or
# a distribution's probabilities summing to one.
PROB_TOL = 1e-12


def as_probability(p: np.ndarray | float) -> np.ndarray:
    """Validate ``p`` elementwise as probabilities and clamp them into [0, 1].

    Values outside [-1e-12, 1 + 1e-12] are rejected rather than clamped:
    anything further out is a logic error, not rounding noise.  The error
    names the first such value.
    """
    p = np.asarray(p)
    out = ~((-PROB_TOL <= p) & (p <= 1.0 + PROB_TOL))
    if out.any():
        raise ValueError(f"not a probability within tolerance: {float(p[out][0])!r}")
    return np.minimum(1.0, np.maximum(0.0, p))


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite distribution over nonnegative values.

    ``atoms`` is a tuple of (value, probability) pairs sorted by strictly
    increasing value, with probabilities in (0, 1] summing to 1 within
    1e-12.  ``tables`` holds its lookup tables (head mass, tail mean and
    E[max] at each atom) as a one-row ``BoxTables``.  Derived values are
    cached on first use; the dataclass is frozen so they can never go stale.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        prev = -math.inf
        for value, prob in self.atoms:
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"atom value must be finite and >= 0: {value!r}")
            if value <= prev:
                raise ValueError("atom values must be strictly increasing")
            prev = value
            if not (0.0 < prob <= 1.0 + PROB_TOL):
                raise ValueError(f"atom probability out of (0, 1]: {prob!r}")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)

    @cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    @cached_property
    def tables(self) -> BoxTables:
        """This distribution's own lookup tables, as the one row of a ``BoxTables``."""
        return BoxTables.build([self])

    @cached_property
    def mean(self) -> float:
        return float(self.tables.mean[0])

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @cached_property
    def _cdf_norm_arr(self) -> np.ndarray:
        """CDF at each atom normalised so the last entry is exactly 1.0."""
        cum = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        return cum / cum[-1]


class BoxTables(NamedTuple):
    """Every box's lookup tables as rows of a common width, for lane-batched passes.

    A lane is one (order, g0) pair; a chunk of lanes is a box-index array
    ``perm`` of shape (lanes, n), and stage t gathers rows ``perm[:, t]``.
    Row b holds box b's tables, one entry per atom and one past the end:
    ``head_mass`` is P[v < values[i]] and ``tail_mean`` the sum of p*v over
    the atoms at or above values[i].  ``values`` and ``emax_at_values``
    (E[max(v, values[i])], nondecreasing) read +inf from the row's first pad
    on, so counting a row's entries below x is ``bisect_left`` over the real
    entries.  Entries past a row's own width are never read.
    """

    values: np.ndarray
    head_mass: np.ndarray
    tail_mean: np.ndarray
    emax_at_values: np.ndarray
    mean: np.ndarray

    @staticmethod
    def build(dists: Sequence[DiscreteDistribution]) -> "BoxTables":
        values, probs = _atom_rows(dists)
        head_mass, _, tail_mean = _head_tail_sums(values, probs)
        emax_at_values = values * head_mass + tail_mean
        pad = probs == 0.0
        values[pad] = emax_at_values[pad] = math.inf
        return BoxTables(values, head_mass, tail_mean, emax_at_values, tail_mean[:, 0])

    def below(self, table: np.ndarray, boxes: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per lane, how many entries of ``table[boxes]`` lie below ``x``."""
        return np.count_nonzero(table[boxes] < x[:, None], axis=1)


def _atom_rows(dists: Sequence[DiscreteDistribution]) -> tuple[np.ndarray, np.ndarray]:
    """Each box's atom values and probabilities as a row, then 0.0 pads: at least one per row."""
    values = np.zeros((len(dists), max(len(d.atoms) for d in dists) + 1))
    probs = np.zeros_like(values)
    for b, d in enumerate(dists):
        values[b, : len(d.atoms)] = d.values
        probs[b, : len(d.atoms)] = d.probs
    return values, probs


def _head_tail_sums(values: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's head mass, tail mass and tail mean at every column.

    Row i of ``mass`` holds masses at the values in row i of ``values`` (a
    single row serves every row of ``mass``), in increasing order of value
    wherever the mass is positive and an exact 0.0 elsewhere.  The head mass
    at column j sums the masses before it; the tail mass and tail mean sum
    the masses (and mass times value) from it on.  Every sum is sequential,
    so it equals the sum over the row's own atoms bit for bit.
    """
    values = np.broadcast_to(values, mass.shape)
    tail_mass = np.cumsum(mass[:, ::-1], axis=1)[:, ::-1]
    tail_mean = np.cumsum((mass * values)[:, ::-1], axis=1)[:, ::-1]
    head_mass = np.zeros_like(mass)
    np.cumsum(mass[:, :-1], axis=1, out=head_mass[:, 1:])
    return head_mass, tail_mass, tail_mean


def _lane_inverse_target(tables: BoxTables, boxes: np.ndarray, g_prev: np.ndarray) -> np.ndarray:
    """Per lane, the smallest x >= 0 with E[max(v, x)] >= g_prev[i], v from row ``boxes[i]``.

    The map x -> E[max(v, x)] is nondecreasing and piecewise linear with
    breakpoints at the atoms, so the inverse is found by locating the first
    breakpoint whose image reaches the requested level and solving the
    linear equation on that one segment.  The solve targets
    ``g_prev - TARGET_SLACK``: the tiny downward bias keeps an atom lying
    exactly on the solution on the accept side of later >= comparisons,
    which is what makes running the recursion at g0 = OPT reproduce the
    optimal policy bit for bit.
    """
    target = g_prev - TARGET_SLACK
    i = tables.below(tables.emax_at_values, boxes, target)
    # The solve is on the segment (values[i-1], values[i]], whose slope is
    # P[v < x], and i >= 1 wherever the mean is below the target.  Past the
    # last mark i is the row's first pad, whose value is +inf: the segment
    # runs on from the last atom with slope head_mass[pad] and tail mean 0.0.
    i = np.maximum(i, 1)
    x = (target - tables.tail_mean[boxes, i]) / tables.head_mass[boxes, i]
    x = np.minimum(np.maximum(x, tables.values[boxes, i - 1]), tables.values[boxes, i])
    x = np.minimum(np.maximum(x, 0.0), g_prev)
    return np.where(tables.mean[boxes] >= target, 0.0, x)


def _lane_jump_target(tables: BoxTables, boxes: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The g above which ``_lane_inverse_target`` of row ``boxes[i]`` passes each level of row i.

    Up to rounding, the inversion of g on box v passes y exactly when
    g > E[max(v, y)] + TARGET_SLACK.
    """
    atoms = tables.values[boxes]
    # Atoms below each level, as bisect_left counts them; +inf pads never are.
    idx = sum(atoms[:, k, None] < levels for k in range(atoms.shape[1]))
    rows = boxes[:, None]
    return levels * tables.head_mass[rows, idx] + tables.tail_mean[rows, idx] + TARGET_SLACK


def max_distribution(dists: Sequence[DiscreteDistribution]) -> DiscreteDistribution:
    """Distribution of the maximum of independent draws, one per input.

    The CDF of the maximum is the product of the inputs' normalised CDF rows
    on the sorted union of their atom values, folded in list order one row
    at a time.  Each row ends at exactly 1.0, so the product's last entry is
    exactly 1.0 however many inputs there are.  One input is returned as is.
    """
    if not dists:
        raise ValueError("max of an empty collection is undefined")
    if len(dists) == 1:
        return dists[0]
    grid = _grid(dists)
    mass = _atom_masses(reduce(np.multiply, (_cdf_row(d, grid) for d in dists)))
    atom = mass > 0.0
    return DiscreteDistribution(tuple(zip(grid[atom].tolist(), mass[atom].tolist())))


def _grid(dists: Sequence[DiscreteDistribution]) -> np.ndarray:
    """The sorted union of the atom values of ``dists``."""
    # sorted(set()) rather than np.unique, which imports numpy.ma.
    return np.array(sorted({v for d in dists for v in d.values}))


def _cdf_row(dist: DiscreteDistribution, grid: np.ndarray) -> np.ndarray:
    """``dist``'s normalised CDF at each point of ``grid``: 0.0 below its first atom."""
    at = np.searchsorted(dist._values_arr, grid, side="right")
    return np.concatenate(([0.0], dist._cdf_norm_arr))[at]


def _atom_masses(cdf: np.ndarray) -> np.ndarray:
    """Mass at each grid point of the distribution whose CDF is ``cdf`` (on the last axis)."""
    mass = cdf.copy()
    mass[..., 1:] -= cdf[..., :-1]
    return mass


def _max_mean(grid: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Mean of the maximum whose CDF on ``grid`` is ``cdf`` (on the last axis), summed in order."""
    return np.cumsum(grid * _atom_masses(cdf), axis=-1)[..., -1]


def inverse_cdf(dist: DiscreteDistribution, u: np.ndarray) -> np.ndarray:
    """Value at each uniform variate: the first atom whose CDF exceeds it."""
    idx = np.searchsorted(dist._cdf_norm_arr, u, side="right")
    return dist._values_arr[np.minimum(idx, len(dist.values) - 1)]
