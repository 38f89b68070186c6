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
from functools import cached_property
from typing import Sequence

import numpy as np

# Absolute tolerance for exact-arithmetic validation (probability sums etc.).
EXACT_TOL = 1e-12

# Downward slack used when inverting the target recursion.  Biasing the
# solved threshold down by this amount keeps a value atom that sits exactly
# on the threshold on the "accept" side despite rounding in the solve.
TARGET_SLACK = 1e-12

# Tolerance accepted when validating a raw scalar as a probability.
PROB_TOL = 1e-12


def as_probability(p: float) -> float:
    """Validate ``p`` as a probability and clamp it into [0, 1].

    Values outside [-1e-12, 1 + 1e-12] are rejected rather than clamped:
    anything further out is a logic error, not rounding noise.
    """
    if not (-PROB_TOL <= p <= 1.0 + PROB_TOL):
        raise ValueError(f"not a probability within tolerance: {p!r}")
    return min(1.0, max(0.0, p))


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

    @cached_property
    def _cdf_norm_list(self) -> tuple[float, ...]:
        return tuple(self._cdf_norm_arr.tolist())


def prob_ge(dist: DiscreteDistribution, tau: float) -> float:
    """P[v >= tau]."""
    idx = bisect_left(dist.values, tau)
    return as_probability(dist.tail_mass[idx])


def expected_plus(dist: DiscreteDistribution, tau: float) -> float:
    """E[(v - tau)^+] as an exact finite sum."""
    idx = bisect_left(dist.values, tau)
    return max(0.0, dist.tail_mean[idx] - tau * dist.tail_mass[idx])


def expected_max_with(dist: DiscreteDistribution, x: float) -> float:
    """E[max(v, x)] for a fallback value x >= 0."""
    if x < 0.0:
        raise ValueError(f"fallback value must be >= 0: {x!r}")
    idx = bisect_left(dist.values, x)
    return x * dist.head_mass[idx] + dist.tail_mean[idx]


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

    The CDFs are merged in list order (see ``_merge_max``).  Each input CDF
    is normalised so its last entry is exactly 1.0, which keeps the product's
    final entry exactly 1.0 regardless of how many inputs there are.
    """
    if not dists:
        raise ValueError("max of an empty collection is undefined")
    if len(dists) == 1:
        return dists[0]
    values: list[float] = []
    cdf: list[float] = []
    for d in dists:
        values, cdf = _merge_max(values, cdf, d)
    atoms = []
    prev = 0.0
    for v, c in zip(values, cdf):
        if c - prev > 0.0:
            atoms.append((v, c - prev))
        prev = c
    return DiscreteDistribution(tuple(atoms))


def suffix_expected_max(dists: Sequence[DiscreteDistribution]) -> list[float]:
    """E[max(dists[t:])] for every t, with 0.0 for the empty suffix at the end.

    One back-to-front fold of ``_merge_max`` yields every suffix at once.
    """
    out = [0.0] * (len(dists) + 1)
    values: list[float] = []
    cdf: list[float] = []
    for t in range(len(dists) - 1, -1, -1):
        values, cdf = _merge_max(values, cdf, dists[t])
        out[t] = _mean_from_cdf(values, cdf)
    return out


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
        return list(d.values), list(d._cdf_norm_list)
    dv, dc = d.values, d._cdf_norm_list
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


def inverse_cdf(dist: DiscreteDistribution, u: np.ndarray) -> np.ndarray:
    """Value at each uniform variate: the first atom whose CDF exceeds it."""
    idx = np.searchsorted(dist._cdf_norm_arr, u, side="right")
    return dist._values_arr[np.minimum(idx, len(dist.values) - 1)]


def sample(dist: DiscreteDistribution, rng: np.random.Generator) -> float:
    """Draw one value by inverting the CDF at a uniform variate."""
    return float(inverse_cdf(dist, rng.random()))
