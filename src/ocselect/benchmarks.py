"""Instances, arrival orders, and the order-free benchmarks.

An instance is a multiset of boxes with known value distributions.  The
prophet value (expectation of the overall maximum) is evaluated here; the
order-aware online optimum is a threshold policy, valued by the lane pass in
``policies``.  The single-threshold lower bound and the threshold that
maximises it live here too, since both are stated against the max
distribution.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import (
    BoxTables,
    DiscreteDistribution,
    _atom_masses,
    _atom_rows,
    _cdf_row,
    _grid,
    _head_tail_sums,
    _max_mean,
    as_probability,
    max_distribution,
)


class OrderError(ValueError):
    """An arrival order is not a bijection over the instance's box ids."""


@dataclass(frozen=True)
class Box:
    box_id: str
    dist: DiscreteDistribution

    def __post_init__(self) -> None:
        if not self.box_id:
            raise ValueError("box id must be nonempty")


@dataclass(frozen=True)
class Instance:
    """An immutable collection of boxes with distinct ids."""

    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("instance needs at least one box")
        ids = [b.box_id for b in self.boxes]
        if len(set(ids)) != len(ids):
            raise ValueError("box ids must be unique")

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(b.box_id for b in self.boxes)

    @cached_property
    def id_set(self) -> frozenset[str]:
        return frozenset(self.ids)

    @cached_property
    def dists(self) -> tuple[DiscreteDistribution, ...]:
        return tuple(b.dist for b in self.boxes)

    @property
    def n(self) -> int:
        return len(self.boxes)

    @cached_property
    def max_dist(self) -> DiscreteDistribution:
        """Distribution of the maximum over all boxes."""
        return max_distribution(self.dists)

    @cached_property
    def index(self) -> dict[str, int]:
        return {box_id: i for i, box_id in enumerate(self.ids)}

    @cached_property
    def box_tables(self) -> BoxTables:
        return BoxTables.build(self.dists)

    @cached_property
    def suffix_tables(self) -> "SuffixTables":
        return SuffixTables(self.dists)


# An arrival order is a permutation of the instance's box ids.
ArrivalOrder = tuple[str, ...]


def order_indices(instance: Instance, order: ArrivalOrder) -> list[int]:
    """Positions in ``instance.boxes`` in arrival order, validating the order is a bijection."""
    if len(order) != instance.n or set(order) != instance.id_set:
        raise OrderError(
            f"order {order!r} is not a permutation of instance ids {instance.ids!r}"
        )
    return [instance.index[box_id] for box_id in order]


# The most boxes whose orders ``eval --orders all`` lists without
# --force-enumeration, and the most for which ``SuffixTables`` answers from its
# tables of every set of boxes (at most 512 rows, fewer than one chunk's
# lanes).  Past it, each lane folds its own suffixes.
ENUMERATION_LIMIT = 9


class SuffixTables:
    """What ``tvd`` knows about the boxes still to come: their E[max] and best single threshold.

    Built only when ``tvd`` runs.  ``cdf`` is each box's normalised CDF row
    on ``grid``, the sorted union of every atom value, so a product of rows
    is the CDF of the boxes' maximum, carried flat between its own atoms.
    Its size is boxes times distinct values.  Every answer reads one product
    per set of boxes, multiplied back to front, its last box first.
    ``set_emax`` and ``set_tau`` hold the two quantities for every set,
    indexed by its bitmask (bit b for box b), the set's rows multiplied in
    descending box order.  Each has 2**n entries, and both are built on the
    first read of either.  ``emax_after`` and ``switch_tau`` read them up
    to ENUMERATION_LIMIT boxes, so every answer depends only on which boxes
    remain; past it they multiply each row's boxes back to front in arrival
    order.
    """

    def __init__(self, dists: Sequence[DiscreteDistribution]) -> None:
        self.grid = _grid(dists)
        self.cdf = np.array([_cdf_row(d, self.grid) for d in dists])

    @cached_property
    def set_emax(self) -> np.ndarray:
        """E[max] of each set; the empty set's entry is 0.0."""
        return self._set_tables[0]

    @cached_property
    def set_tau(self) -> np.ndarray:
        """The best single threshold of each set; the empty set's entry is never read."""
        return self._set_tables[1]

    def emax_after(self, perm: np.ndarray) -> np.ndarray:
        """E[max of the boxes after stage t] for each row of ``perm`` and each stage t.

        Up to ENUMERATION_LIMIT boxes, ``set_emax`` at each row's remaining
        set after stage t.  Past it, one back-to-front fold of the rows' CDF
        rows in arrival order, which passes every suffix on the way.
        """
        lanes, n = perm.shape
        if len(self.cdf) <= ENUMERATION_LIMIT:
            after = np.zeros_like(perm)
            after[:, :-1] = np.bitwise_or.accumulate(1 << perm[:, :0:-1], axis=1)[:, ::-1]
            return self.set_emax[after]
        out = np.zeros((lanes, n))
        rows = (self.cdf[perm[:, t]] for t in range(n - 1, 0, -1))
        for t, running in zip(range(n - 2, -1, -1), accumulate(rows, np.multiply)):
            out[:, t] = _max_mean(self.grid, running)
        return out

    def switch_tau(self, suffix: np.ndarray) -> np.ndarray:
        """The best single threshold over each row's boxes.

        Up to ENUMERATION_LIMIT boxes, ``set_tau`` at the row's set.  Past
        it, the threshold picked from the atom masses of the row's CDF: its
        boxes' rows multiplied back to front, its last box first.
        """
        if len(self.cdf) <= ENUMERATION_LIMIT:
            return self.set_tau[np.bitwise_or.reduce(1 << suffix, axis=1)]
        cdf = reduce(np.multiply, (self.cdf[b] for b in suffix[:, ::-1].T))
        return _best_thresholds(self.grid, _atom_masses(cdf))[0]

    @cached_property
    def _set_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``set_emax`` and ``set_tau``, both read from one table of every set's CDF.

        Row m of the table is set m's boxes' CDF rows multiplied in
        descending box order.  All sets fold in one pass: every row is
        multiplied by each box's CDF row where the box is in the set, and by
        1.0, which changes no bits, where it is not.  Each mean is a
        sequential sum over the grid, and the atom masses hold an exact 0.0,
        at grid points outside the set's supports.  Both answers are taken
        at the first read, so the table's temporaries never land on a later
        switch pass's arrays, and the table is not kept.
        """
        n = len(self.cdf)
        member = (np.arange(2**n)[:, None] & (1 << np.arange(n))) > 0
        boxes = range(n - 1, -1, -1)
        cdf = reduce(np.multiply, (np.where(member[:, b, None], self.cdf[b], 1.0) for b in boxes))
        emax = _max_mean(self.grid, cdf)
        emax[0] = 0.0
        return emax, _best_thresholds(self.grid, _atom_masses(cdf))[0]


def prophet_value(instance: Instance) -> float:
    """E[max over all boxes], the order-free offline benchmark."""
    return instance.max_dist.mean


def sta_lower_bound(instance: Instance, tau: float) -> float:
    """Closed-form lower bound on any single-threshold run at tau.

    With M the overall maximum: P[M >= tau] * tau + P[M < tau] * E[(M-tau)^+].
    The bound is order-free, which is what makes it useful: it certifies all
    arrival orders at once.
    """
    if not (tau >= 0.0):
        raise ValueError(f"threshold must be >= 0: {tau!r}")
    md = instance.max_dist
    head_mass, tail_mass, tail_mean = _head_tail_sums(*_atom_rows([md]))
    idx = bisect_left(md.values, tau)
    return float(_threshold_bound(tail_mass[0, idx], head_mass[0, idx], tail_mean[0, idx], tau))


class ThresholdChoice(NamedTuple):
    tau: float
    value: float


def best_single_threshold(
    dists: Sequence[DiscreteDistribution],
) -> ThresholdChoice:
    """Maximise the single-threshold lower bound over tau >= 0.

    The objective f(tau) = P[M >= tau] * tau + P[M < tau] * E[(M - tau)^+]
    is linear and increasing between consecutive atoms of the max
    distribution, so its maximum is attained on {0} plus the atoms.  Ties go
    to the smallest tau.
    """
    if not dists:
        raise ValueError("need at least one distribution")
    md = max_distribution(list(dists))
    tau, value = _best_thresholds(*_atom_rows([md]))
    return ThresholdChoice(float(tau[0]), float(value[0]))


def _threshold_bound(
    tail_mass: np.ndarray, head_mass: np.ndarray, tail_mean: np.ndarray, tau: np.ndarray | float
) -> np.ndarray:
    """P[M >= tau] * tau + P[M < tau] * E[(M - tau)^+], elementwise.

    The arguments are M's tail mass, head mass and tail mean at tau: the sums
    of the masses (and of mass times value) of M's atoms at or above tau, and
    of the masses below it.
    """
    p_ge = as_probability(tail_mass)
    p_lt = as_probability(head_mass)
    plus = np.maximum(0.0, tail_mean - tau * tail_mass)
    return p_ge * tau + p_lt * plus


def _best_thresholds(values: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best single threshold and its bound for each row of atom masses.

    Row i of ``mass`` holds the masses of one maximum's distribution at the
    values in row i of ``values``, laid out as ``_head_tail_sums`` takes
    them.  The candidates are 0 and each atom, and the first maximum wins.
    """
    head_mass, tail_mass, tail_mean = _head_tail_sums(values, mass)
    values = np.broadcast_to(values, mass.shape)
    atom = mass > 0.0
    bound = np.full((len(mass), 1 + mass.shape[1]), -math.inf)
    # Every atom is at or above tau = 0.
    bound[:, 0] = _threshold_bound(tail_mass[:, 0], head_mass[:, 0], tail_mean[:, 0], 0.0)
    bound[:, 1:][atom] = _threshold_bound(
        tail_mass[atom], head_mass[atom], tail_mean[atom], values[atom]
    )
    pick = np.argmax(bound, axis=1)
    rows = np.arange(len(mass))
    return np.where(pick == 0, 0.0, values[rows, pick - 1]), bound[rows, pick]
