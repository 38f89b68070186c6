"""Order-aware optimum, prophet value, and single-threshold quantities."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import scalar_reference as ref
from conftest import all_orders, brute_force_opt, distinct_atoms_instance, random_instance
from ocselect import (
    Box,
    DiscreteDistribution,
    Instance,
    OrderError,
    best_single_threshold,
    opt_online,
    prophet_value,
    sta_exact,
    sta_lower_bound,
)

A = Box("A", DiscreteDistribution(((1.0, 1.0),)))
B = Box("B", DiscreteDistribution(((0.0, 0.5), (2.0, 0.5))))
AB = Instance((A, B))


class TestInstanceValidation:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Instance((A, Box("A", B.dist)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance(())

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderError):
            opt_online(AB, ("A", "A"))
        with pytest.raises(OrderError):
            opt_online(AB, ("A",))
        with pytest.raises(OrderError):
            opt_online(AB, ("A", "C"))


class TestOptOnline:
    def test_deterministic_then_risky(self):
        assert opt_online(AB, ("A", "B")).stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_risky_then_deterministic(self):
        assert opt_online(AB, ("B", "A")).stages[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_single_box_is_mean(self):
        solo = Instance((B,))
        assert opt_online(solo, ("B",)).stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_per_stage_shape(self):
        res = opt_online(AB, ("B", "A"))
        assert res.stages.shape == (1, 3)
        assert res.stages[0, -1] == 0.0
        assert res.thresholds.tolist() == [res.stages[0, 1:].tolist()]

    def test_per_stage_matches_recursion_reevaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            order = tuple(rng.permutation(sorted(inst.ids)))
            res = opt_online(inst, order)
            cont = 0.0
            for t in range(inst.n - 1, -1, -1):
                d = inst.dists[inst.index[order[t]]]
                cont = math.fsum(
                    p * max(v, cont) for v, p in zip(d.values, d.probs)
                )
                assert res.stages[0, t] == pytest.approx(cont, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 5)), max_atoms=3)
            for order in all_orders(inst):
                assert opt_online(inst, order).stages[0, 0] == pytest.approx(
                    brute_force_opt(inst, order), abs=1e-12
                )


class TestProphetValue:
    def test_two_box(self):
        assert prophet_value(AB) == pytest.approx(1.5, abs=1e-12)

    def test_degenerate(self):
        inst = Instance((Box("x", DiscreteDistribution(((3.0, 1.0),))),))
        assert prophet_value(inst) == pytest.approx(3.0, abs=1e-12)

    def test_three_iid_coins(self):
        coin = DiscreteDistribution(((0.0, 0.5), (1.0, 0.5)))
        inst = Instance(tuple(Box(f"c{i}", coin) for i in range(3)))
        assert prophet_value(inst) == pytest.approx(0.875, abs=1e-12)

    def test_prophet_sandwich(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            inst = random_instance(rng, int(rng.integers(1, 6)))
            p = prophet_value(inst)
            for order in all_orders(inst)[:6]:
                opt = opt_online(inst, order).stages[0, 0]
                assert 0.5 * p - 1e-9 <= opt <= p + 1e-9

    def test_prophet_builds_no_boxes_by_grid_matrix(self):
        # 500 boxes of 6 atoms: a 500 x 3000 CDF matrix would take 11.4 MB.
        inst = distinct_atoms_instance()
        tracemalloc.start()
        try:
            prophet_value(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestStaExact:
    def test_accepts_first_at_threshold(self):
        assert sta_exact(AB, ("A", "B"), 1.0).stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_high_threshold_skips(self):
        assert sta_exact(AB, ("B", "A"), 1.5).stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_threshold_takes_first_box(self):
        assert sta_exact(AB, ("A", "B"), 0.0).stages[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sta_exact(AB, ("B", "A"), 0.0).stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_dominated_by_opt(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            order = tuple(rng.permutation(sorted(inst.ids)))
            opt = opt_online(inst, order).stages[0, 0]
            for tau in rng.uniform(0.0, 11.0, size=5):
                assert sta_exact(inst, order, float(tau)).stages[0, 0] <= opt + 1e-9


class TestStaLowerBound:
    def test_two_box_at_one(self):
        assert sta_lower_bound(AB, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_threshold_is_zero(self):
        # Both terms vanish at tau = 0: the tau factor and Pr[max < 0].
        assert sta_lower_bound(AB, 0.0) == 0.0

    def test_above_support_is_zero(self):
        assert sta_lower_bound(AB, 11.0) == 0.0

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_threshold_is_rejected(self, tau):
        # At +inf the bound's tau * P[M >= tau] would be 0 * inf.
        for bound in (sta_lower_bound, ref.sta_lower_bound):
            with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
                bound(AB, tau)

    def test_bound_is_actually_a_lower_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            taus = list(rng.uniform(0.0, 11.0, size=4))
            for order in all_orders(inst)[:6]:
                for tau in taus:
                    assert (
                        sta_exact(inst, order, float(tau)).stages[0, 0]
                        >= sta_lower_bound(inst, float(tau)) - 1e-9
                    )


class TestBestSingleThreshold:
    def test_risky_single(self):
        # f(0) = 0 (the Pr[max < 0] factor kills the plus term), f(2) = 1.
        choice = best_single_threshold([B.dist])
        assert choice.tau == 2.0
        assert choice.value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_five(self):
        choice = best_single_threshold([DiscreteDistribution(((5.0, 1.0),))])
        assert choice.tau == 5.0
        assert choice.value == pytest.approx(5.0, abs=1e-12)

    def test_two_unit_boxes(self):
        one = DiscreteDistribution(((1.0, 1.0),))
        choice = best_single_threshold([one, one])
        assert choice.tau == 1.0
        assert choice.value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            best_single_threshold([])

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(1, 4)))
            dists = list(inst.dists)
            choice = best_single_threshold(dists)
            sub = Instance(
                tuple(Box(f"s{i}", d) for i, d in enumerate(dists))
            )
            dense = max(
                sta_lower_bound(sub, float(t)) for t in np.linspace(0.0, 10.5, 2000)
            )
            assert choice.value >= dense - 1e-9
