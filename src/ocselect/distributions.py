"""Finite discrete value distributions and their exact expectation operators.

Everything downstream (benchmark recursions, policy evaluators, hardness
instances) is built on these primitives, so each operator is either a finite
sum or the solution of a single linear equation on one segment of a piecewise
linear function.  No quadrature, no iteration.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

# Absolute tolerance for exact-arithmetic validation (probability sums etc.).
EXACT_TOL = 1e-12

# Downward slack used when inverting the target recursion.  Biasing the
# solved threshold down by this amount keeps a value atom that sits exactly
# on the threshold on the "accept" side despite rounding in the solve.
TARGET_SLACK = 1e-12

# Tolerance accepted when validating a raw scalar as a probability.
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
    1e-12.  Derived lookup tables are cached on first use; the dataclass is
    frozen so the tables can never go stale.
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
        if abs(total - 1.0) > EXACT_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)

    @cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    @cached_property
    def total_mass(self) -> float:
        return math.fsum(self.probs)

    @cached_property
    def tail_mass(self) -> tuple[float, ...]:
        """tail_mass[i] = P[v >= values[i]]; one trailing 0 sentinel."""
        out = [0.0] * (len(self.atoms) + 1)
        acc = 0.0
        for i in range(len(self.atoms) - 1, -1, -1):
            acc += self.probs[i]
            out[i] = acc
        return tuple(out)

    @cached_property
    def tail_mean(self) -> tuple[float, ...]:
        """tail_mean[i] = sum of p*v over atoms with index >= i; 0 sentinel."""
        out = [0.0] * (len(self.atoms) + 1)
        acc = 0.0
        for i in range(len(self.atoms) - 1, -1, -1):
            acc += self.probs[i] * self.values[i]
            out[i] = acc
        return tuple(out)

    @cached_property
    def head_mass(self) -> tuple[float, ...]:
        """head_mass[i] = P[v < values[i]]; one extra entry = total mass."""
        out = [0.0] * (len(self.atoms) + 1)
        acc = 0.0
        for i, p in enumerate(self.probs):
            acc += p
            out[i + 1] = acc
        return tuple(out)

    @cached_property
    def emax_at_values(self) -> tuple[float, ...]:
        """E[max(v, values[i])] at every atom; nondecreasing by construction."""
        return tuple(
            self.values[i] * self.head_mass[i] + self.tail_mean[i]
            for i in range(len(self.atoms))
        )

    @cached_property
    def mean(self) -> float:
        return self.tail_mean[0]

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @cached_property
    def _cdf_norm_arr(self) -> np.ndarray:
        """CDF at each atom normalised so the last entry is exactly 1.0."""
        cum = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        return cum / cum[-1]


def inverse_target(dist: DiscreteDistribution, g_prev: float) -> float:
    """Smallest x >= 0 with E[max(v, x)] >= g_prev (within 1e-12 slack).

    The map x -> E[max(v, x)] is nondecreasing and piecewise linear with
    breakpoints at the atoms, so the inverse is found by locating the first
    breakpoint whose image reaches the requested level and solving the
    linear equation on that one segment.  The solve targets
    ``g_prev - TARGET_SLACK``: the tiny downward bias keeps an atom lying
    exactly on the solution on the accept side of later >= comparisons,
    which is what makes running the recursion at g0 = OPT reproduce the
    optimal policy bit for bit.
    """
    if not (g_prev >= 0.0):
        raise ValueError(f"target must be >= 0: {g_prev!r}")
    target = g_prev - TARGET_SLACK
    if dist.mean >= target:
        return 0.0
    marks = dist.emax_at_values
    i = bisect_left(marks, target)
    if i == len(marks):
        # Above the support the map is x * total_mass.
        x = target / dist.total_mass
    else:
        # Segment (values[i-1], values[i]]; i >= 1 because marks[0] is the
        # mean, already handled above.  Slope is P[v < x] on the segment.
        slope = dist.head_mass[i]
        x = (target - dist.tail_mean[i]) / slope
        x = min(max(x, dist.values[i - 1]), dist.values[i])
    return min(max(x, 0.0), g_prev)


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


def suffix_expected_max(dists: Sequence[DiscreteDistribution]) -> list[float]:
    """E[max(dists[t:])] for every t, with 0.0 for the empty suffix at the end."""
    grid = _grid(dists)
    means = _suffix_max_means(grid, (_cdf_row(d, grid) for d in reversed(dists)))
    return [float(m) for m in means][::-1] + [0.0]


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


def _suffix_max_means(grid: np.ndarray, rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """E[max] of ever longer suffixes, folding in CDF rows on ``grid`` from the last box back.

    ``rows`` yields the last box's row first, then the one before it, and so
    on; a row may be a stack of rows, one per lane.  Each mean is a
    sequential sum (``cumsum``) over the grid, where points outside the
    suffix's supports add an exact 0.0.
    """
    for running in accumulate(rows, np.multiply):
        yield np.cumsum(grid * _atom_masses(running), axis=-1)[..., -1]


def inverse_cdf(dist: DiscreteDistribution, u: np.ndarray) -> np.ndarray:
    """Value at each uniform variate: the first atom whose CDF exceeds it."""
    idx = np.searchsorted(dist._cdf_norm_arr, u, side="right")
    return dist._values_arr[np.minimum(idx, len(dist.values) - 1)]
