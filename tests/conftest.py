"""Shared fixtures: deterministic random instance generation, and test densities.

Instances drawn here keep every atom probability at least MIN_ATOM_PROB so
exact recursions stay well conditioned, and values on a modest range so
brute-force oracles are cheap.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from ocselect import Box, DensityPiece, DensitySpec, DiscreteDistribution, Instance
from ocselect.densities import PIECE_INV, PIECE_INV_SHIFTED
from ocselect.distributions import _lane_inverse_target

MIN_ATOM_PROB = 0.02


def random_instance(
    rng: np.random.Generator,
    n_boxes: int,
    max_atoms: int = 4,
    value_cap: float = 10.0,
) -> Instance:
    boxes = []
    for b in range(n_boxes):
        k = int(rng.integers(1, max_atoms + 1))
        values = np.sort(rng.uniform(0.0, value_cap, size=k))
        while len(np.unique(np.round(values, 9))) < k:
            values = np.sort(rng.uniform(0.0, value_cap, size=k))
        raw = rng.uniform(MIN_ATOM_PROB, 1.0, size=k)
        probs = raw / raw.sum()
        # renormalized draws stay above MIN_ATOM_PROB / total <= 1 scaling loss
        probs = np.maximum(probs, MIN_ATOM_PROB)
        probs = probs / probs.sum()
        atoms = tuple((float(v), float(p)) for v, p in zip(values, probs))
        boxes.append(Box(f"b{b}", DiscreteDistribution(atoms)))
    return Instance(tuple(boxes))


def distinct_atoms_instance() -> Instance:
    """500 boxes of 6 atoms each with no value repeated: a 3,000-point grid."""
    rng = np.random.default_rng(500)
    boxes = []
    for b in range(500):
        values = np.sort(rng.uniform(0.0, 10.0, 6)).tolist()
        raw = rng.uniform(0.1, 1.0, 6)
        atoms = tuple(zip(values, (raw / raw.sum()).tolist()))
        boxes.append(Box(f"b{b}", DiscreteDistribution(atoms)))
    instance = Instance(tuple(boxes))
    assert len({v for d in instance.dists for v in d.values}) == 3000
    return instance


def gapped_density() -> DensitySpec:
    """Half the mass as coef/(2x-1) on [0.55, 0.6], half as coef/x on [0.7, 1]; none between."""
    return DensitySpec(
        "gapped",
        (
            DensityPiece(PIECE_INV_SHIFTED, 0.55, 0.6, 1.0 / math.log(2.0)),
            DensityPiece(PIECE_INV, 0.7, 1.0, 0.5 / math.log(1.0 / 0.7)),
        ),
    )


def short_density() -> DensitySpec:
    """Half the mass as coef/(2x-1) on [0.55, 2/3], half as coef/x on [2/3, 0.9]; none above."""
    return DensitySpec(
        "short",
        (
            DensityPiece(PIECE_INV_SHIFTED, 0.55, 2.0 / 3.0, 1.0 / math.log(10.0 / 3.0)),
            DensityPiece(PIECE_INV, 2.0 / 3.0, 0.9, 0.5 / math.log(1.35)),
        ),
    )


def narrow_density(lo: float, hi: float) -> DensitySpec:
    """All mass as coef/x on the narrow [lo, hi]: close to a deterministic start."""
    return DensitySpec("narrow", (DensityPiece(PIECE_INV, lo, hi, 1.0 / math.log(hi / lo)),))


def inverse_target(dist: DiscreteDistribution, g_prev: float) -> float:
    """``_lane_inverse_target`` on the one lane (dist, g_prev), as a float."""
    return float(_lane_inverse_target(dist.tables, np.zeros(1, dtype=int), np.array([g_prev]))[0])


def all_orders(instance: Instance):
    return [tuple(p) for p in itertools.permutations(sorted(instance.ids))]


@pytest.fixture(scope="session")
def sweep_instances() -> list[Instance]:
    """500 small instances reused by the behavioural sweeps."""
    rng = np.random.default_rng(20260822)
    out = []
    for _ in range(500):
        n = int(rng.integers(1, 7))
        out.append(random_instance(rng, n))
    return out


@pytest.fixture
def stop_simplex(monkeypatch):
    """``stop_simplex(limit)`` makes simplex_solve stop after at most
    ``limit`` pivots, those pivots applied, so the solve can end at a vertex
    that is feasible and not optimal.
    """
    from ocselect import simplex

    def stop(limit):
        def stopped(tableau, basis, labels):
            delayed, pivots = simplex._Delayed(tableau, basis, labels), 0
            while pivots < limit and (step := delayed.bland_step()) is not None:
                delayed.pivot(*step)
                pivots += 1
            delayed.flush()
            return pivots

        monkeypatch.setattr(simplex, "_iterate", stopped)

    return stop


SIMPLEX_FAULTS = ("nan-b", "nan-rows", "negative-b", "nan-cost")


@pytest.fixture
def break_simplex(monkeypatch):
    """``break_simplex(fault)`` corrupts simplex_solve's tableau once, right
    after its fifth pivot: "nan-b" puts NaN in every entry of b, "nan-rows"
    in every constraint entry, "negative-b" sets b's first entry, as the
    next read sees it, to -1e-6, and "nan-cost" puts NaN in the cost row's
    first entry.
    """
    from ocselect import simplex

    pivot = simplex._Delayed.pivot

    def corrupt(fault):
        pivots = itertools.count(1)

        def corrupted(self, row, col, column):
            pivot(self, row, col, column)
            if next(pivots) != 5:
                return
            if fault == "nan-b":
                self.tableau[:-1, -1] = math.nan
            elif fault == "nan-rows":
                self.tableau[:-1, :-1] = math.nan
            elif fault == "nan-cost":
                self.tableau[-1, 0] = math.nan
            else:
                self.tableau[0, -1] -= self.read(0, -1) + 1e-6

        monkeypatch.setattr(simplex._Delayed, "pivot", corrupted)

    return corrupt


def g0_grid(instance: Instance, points: int = 20) -> list[float]:
    from ocselect import prophet_value

    top = max(prophet_value(instance), 1e-6) * 1.5
    return [top * i / (points - 1) for i in range(points)]


def brute_force_opt(instance: Instance, order) -> float:
    """Realization-tree optimum: exact backward induction by enumeration."""
    dists = [instance.dists[instance.index[b]] for b in order]

    def go(t: int) -> float:
        if t == len(dists):
            return 0.0
        cont = go(t + 1)
        d = dists[t]
        return math.fsum(p * max(v, cont) for v, p in zip(d.values, d.probs))

    return go(0)
