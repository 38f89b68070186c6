"""Exact evaluators, mixtures and the sampler for the order-unaware policies."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from conftest import (
    all_orders,
    distinct_atoms_instance,
    g0_grid,
    gapped_density,
    inverse_target,
    narrow_density,
    random_instance,
    short_density,
)
from ocselect import (
    Box,
    DensitySpec,
    DiscreteDistribution,
    Instance,
    PolicyError,
    density_cdf,
    load_instance,
    opt_online,
    parse_instance,
    prophet_value,
    randomized_value,
    rho_656,
    rho_732,
    sample_runs,
    sta_exact,
    tva_exact,
    tvd_exact,
)
from ocselect import benchmarks, distributions, policies
from ocselect.benchmarks import order_indices
from ocselect.densities import PHI, PIECE_INV, DensityPiece
from ocselect.distributions import TARGET_SLACK, inverse_cdf
from ocselect.policies import LANE_CHUNK, lane_randomized_values, lane_values

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "data"

RISKY = DiscreteDistribution(((0.0, 0.5), (2.0, 0.5)))
UNIT = DiscreteDistribution(((1.0, 1.0),))
COIN = DiscreteDistribution(((0.0, 0.5), (1.0, 0.5)))
ZERO = DiscreteDistribution(((0.0, 1.0),))
A = Box("A", UNIT)
B = Box("B", RISKY)
AB = Instance((A, B))


def through_zero_box(level: float) -> float:
    """A target that the inversion on a point mass at 0 lowers to exactly ``level``."""
    g = level + TARGET_SLACK
    while inverse_target(ZERO, g) < level:
        g = math.nextafter(g, math.inf)
    while inverse_target(ZERO, g) > level:
        g = math.nextafter(g, -math.inf)
    assert inverse_target(ZERO, g) == level
    return g


class TestTvaWalk:
    # B (a coin on 0 or 2) then A (a sure 1): from 1.5 the walk lowers the
    # target to 1 on B and to 0 on A.
    @staticmethod
    def first_draws_and_taken(g0: float, runs: int = 400):
        order = ("B", "A")
        lane = tva_exact(AB, order, g0)
        dists = [AB.dists[b] for b in order_indices(AB, order)]
        taken = sample_runs(dists, lane.thresholds[0], np.random.default_rng(11), runs)
        u = np.random.default_rng(11).random((runs, len(dists)))
        return lane.thresholds[0], inverse_cdf(RISKY, u[:, 0]), taken

    def test_accept_at_new_target(self):
        thresholds, first, taken = self.first_draws_and_taken(1.5)
        assert thresholds[0] == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(first == 2.0) > 0
        assert np.all(taken[first == 2.0] == 2.0)

    def test_reject_below_target(self):
        thresholds, first, taken = self.first_draws_and_taken(1.5)
        assert thresholds.tolist() == [thresholds[0], 0.0]
        assert np.count_nonzero(first == 0.0) > 0
        assert np.all(taken[first == 0.0] == 1.0)

    def test_zero_target_accepts_anything(self):
        thresholds, first, taken = self.first_draws_and_taken(0.0)
        assert thresholds.tolist() == [0.0, 0.0]
        assert np.count_nonzero(first == 0.0) > 0
        assert np.array_equal(taken, first)


class TestTvdSwitch:
    def test_stays_targeted_when_future_covers(self):
        # The sure 1 meets 0.9 at once, so the target falls to 0, under the
        # coin's E[max] of 0.5 after it: no switch, and the 1 is taken.
        inst = Instance((Box("u", UNIT), Box("c", COIN)))
        res = tvd_exact(inst, ("u", "c"), 0.9)
        assert res.switch_stage.tolist() == [-1]
        assert res.thresholds[0, 0] == 0.0
        assert res.stages[0, 0] == 1.0

    def test_last_stage_with_positive_target_switches(self):
        # Nothing comes after a lone box, so any positive target is above the
        # E[max] still to come: the switch is at stage 0, to the coin's best
        # single threshold 1.
        res = tvd_exact(Instance((Box("c", COIN),)), ("c",), 0.8)
        assert res.switch_stage.tolist() == [0]
        assert res.switch_target[0] == pytest.approx(0.6, abs=1e-9)
        assert res.thresholds.tolist() == [[1.0]]
        assert res.stages[0, 0] == 0.5

    def test_conservative_mode_is_permanent(self):
        # The point mass at 0 leaves 0.9 above E[max] 0.75 of the two coins,
        # so tvd switches at stage 0 and holds the threshold 1 to the end,
        # where the targeted walk would go on lowering its target.
        inst = Instance((Box("x", ZERO), Box("c", COIN), Box("d", COIN)))
        order = ("x", "c", "d")
        res = tvd_exact(inst, order, 0.9)
        assert res.switch_stage.tolist() == [0]
        assert res.thresholds.tolist() == [[1.0, 1.0, 1.0]]
        assert res.stages[0, 0] == 0.75
        walk = tva_exact(inst, order, 0.9).thresholds[0]
        assert np.all(walk[1:] < 1.0)

    def test_switches_on_a_dead_box(self):
        # A point mass at 0 lowers no target, so 0.9 stays above E[max] of the
        # coin after it: the switch is at stage 0, to the best single threshold
        # over both boxes, which the coin alone meets.
        inst = Instance((Box("x", ZERO), Box("c", COIN)))
        res = tvd_exact(inst, ("x", "c"), 0.9)
        assert res.switch_stage.tolist() == [0]
        assert res.thresholds.tolist() == [[1.0, 1.0]]
        assert res.stages[0, 0] == 0.5

    def test_switches_exactly_above_emax_after(self):
        # tvd switches on a target strictly above E[max of the boxes still to
        # come], and reads that E[max] bit for bit as the reference folds it.
        # A point mass at 0 in front of the remaining boxes lowers a target to
        # any chosen level, so the switch test is probed at emax_after[t]
        # itself (a tie stays targeted) and at the next level above it (which
        # switches at stage 0).  The tie lane may still switch later.
        rng = np.random.default_rng(3)
        stages = 0
        for _ in range(300):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            with_zero = Instance((*inst.boxes, Box("zero", ZERO)))
            emax_after = ref.emax_after(inst, list(range(inst.n)))
            for t, level in enumerate(emax_after):
                stages += 1
                g = through_zero_box(level)
                above = math.nextafter(g, math.inf)
                while inverse_target(ZERO, above) == level:
                    above = math.nextafter(above, math.inf)
                perm = np.array([[inst.n, *range(t + 1, inst.n)]])
                starts = np.array([g, above])
                lanes = lane_values("tvd", with_zero, perm, np.zeros(2, dtype=int), starts)
                assert lanes.thresholds[0, 0] == level, (t, level)
                assert lanes.switch_stage[0] != 0 and lanes.switch_stage[1] == 0, (t, level)
        assert stages == 1206

    @pytest.mark.parametrize("fraction", [0.2, 1.25])
    def test_a_run_builds_the_cdf_rows_once(self, fraction, monkeypatch):
        # A tvd lane reads the instance's suffix tables, so it calls _cdf_row
        # only to build them: once per box, not once per remaining box at
        # every stage.  Past ENUMERATION_LIMIT it takes one mean per stage,
        # of the boxes after it, not one per stage still to come.  From 1.25
        # times the prophet value the lane switches at stage 0; from a fifth,
        # never.
        inst = random_instance(np.random.default_rng(3), 60)
        g0 = np.array([fraction * prophet_value(inst)])
        calls = {"_cdf_row": 0, "_max_mean": 0}

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            real = getattr(distributions, name)
            for module in list(sys.modules.values()):
                if module.__name__.startswith("ocselect") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy(name, real))  # each importer's own name
        lane = lane_values("tvd", inst, np.arange(inst.n)[None], np.zeros(1, dtype=int), g0)
        assert lane.switch_stage.tolist() == [0 if fraction > 1 else -1]
        assert calls["_cdf_row"] == inst.n
        assert calls["_max_mean"] <= inst.n


class TestTvaExact:
    def test_matched_target_is_met(self):
        assert tva_exact(AB, ("B", "A"), 1.5).stages[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_zero_target_takes_first_box(self):
        assert tva_exact(AB, ("B", "A"), 0.0).stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_consistency_at_intermediate_target(self):
        assert tva_exact(AB, ("B", "A"), 1.2).stages[0, 0] >= 1.2 - 1e-9

    def test_overshoot_single_deterministic_box(self):
        solo = Instance((A,))
        assert tva_exact(solo, ("A",), 5.0).stages[0, 0] == 0.0

    def test_targets_recorded_per_stage(self):
        res = tva_exact(AB, ("B", "A"), 1.5)
        assert res.thresholds.shape == (1, 2)
        assert res.thresholds[0, 0] == pytest.approx(1.0, abs=1e-9)


class TestTvdExact:
    def test_equals_tva_below_opt(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            for order in all_orders(inst)[:4]:
                opt = opt_online(inst, order).stages[0, 0]
                for frac in (0.0, 0.3, 0.7, 1.0):
                    g0 = frac * opt
                    tva = tva_exact(inst, order, g0).stages[0, 0]
                    tvd = tvd_exact(inst, order, g0).stages[0, 0]
                    assert tvd == pytest.approx(tva, abs=1e-12)

    def test_single_risky_box_overshoot(self):
        solo = Instance((B,))
        res = tvd_exact(solo, ("B",), 2.0)
        assert res.switch_stage[0] == 0
        assert res.stages[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert res.stages[0, 0] >= max(1.0 - 2.0, 2.0 / 2.0) - 1e-9

    def test_zero_target_never_switches(self):
        res = tvd_exact(AB, ("B", "A"), 0.0)
        assert res.switch_stage[0] == -1
        assert res.stages[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_detection_tie_stays_targeted(self):
        # After B the remaining expectation is exactly 1; g0 = 1.5 folds to
        # g_1 = 1 on B, a tie, which must NOT switch.
        res = tvd_exact(AB, ("B", "A"), 1.5)
        assert res.switch_stage[0] == -1
        assert res.stages[0, 0] == pytest.approx(1.5, abs=1e-12)


class TestConsistencyRobustnessGuarantees:
    def test_consistency_and_robustness_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            prophet = prophet_value(inst)
            for order in all_orders(inst)[:4]:
                opt = opt_online(inst, order).stages[0, 0]
                for g0 in g0_grid(inst, points=12):
                    tva = tva_exact(inst, order, g0).stages[0, 0]
                    if g0 <= opt:
                        assert tva >= g0 - 1e-9
                    elif g0 <= prophet:
                        assert tva >= prophet - g0 - 1e-9

    def test_detection_robustness(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            prophet = prophet_value(inst)
            for order in all_orders(inst)[:4]:
                opt = opt_online(inst, order).stages[0, 0]
                for g0 in g0_grid(inst, points=12):
                    if opt < g0 <= prophet:
                        tvd = tvd_exact(inst, order, g0).stages[0, 0]
                        assert tvd >= max(prophet - g0, g0 / 2.0) - 1e-9

    def test_under_over_estimation_stagewise(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            for order in all_orders(inst)[:4]:
                opt = opt_online(inst, order).stages[0]
                for g0 in (0.5 * opt[0], opt[0], 1.5 * opt[0] + 0.1):
                    targets = tva_exact(inst, order, g0).thresholds[0]
                    assert len(targets) == inst.n
                    for t, g in enumerate(targets):
                        if g0 <= opt[0]:
                            assert g <= opt[t + 1] + 1e-9
                        else:
                            assert g >= opt[t + 1] - 1e-9

    def test_known_opt_is_achieved_exactly(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            for order in all_orders(inst)[:4]:
                opt = opt_online(inst, order).stages[0, 0]
                assert tva_exact(inst, order, opt).stages[0, 0] == pytest.approx(
                    opt, abs=1e-9
                )

    def test_golden_ratio_floor_small_sweep(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(1, 5)))
            g0 = prophet_value(inst) / PHI
            for order in all_orders(inst):
                opt = opt_online(inst, order).stages[0, 0]
                if opt > 0:
                    ratio = tva_exact(inst, order, g0).stages[0, 0] / opt
                    assert ratio >= 1.0 / PHI - 1e-9


def sampled(kind, g0, inst, order, rng, runs):
    """``sample_runs`` at the stage thresholds of the order's lane evaluation."""
    perm = np.array([order_indices(inst, order)])
    lane = lane_values(kind, inst, perm, np.zeros(1, dtype=int), np.array([g0]))
    return sample_runs(ref.ordered_dists(inst, order), lane.thresholds[0], rng, runs)


class TestRunPolicySampled:
    def test_deterministic_instance_matches_exact(self):
        inst = Instance(
            (Box("x", UNIT), Box("y", DiscreteDistribution(((0.5, 1.0),))))
        )
        order = ("x", "y")
        rng = np.random.default_rng(1)
        exact = tva_exact(inst, order, 0.9).stages[0, 0]
        for _ in range(10):
            assert sampled("tva", 0.9, inst, order, rng, 1)[0] == exact

    def test_unreachable_target_returns_zero(self):
        solo = Instance((A,))
        rng = np.random.default_rng(2)
        assert all(
            sampled("tva", 5.0, solo, ("A",), rng, 1)[0] == 0.0
            for _ in range(10)
        )

    @pytest.mark.parametrize("kind,param", [("sta", 1.0), ("tva", 1.4), ("tvd", 1.9)])
    def test_monte_carlo_agreement(self, kind, param):
        order = ("B", "A")
        if kind == "sta":
            from ocselect import sta_exact

            exact = sta_exact(AB, order, param).stages[0, 0]
        else:
            evaluator = tva_exact if kind == "tva" else tvd_exact
            exact = evaluator(AB, order, param).stages[0, 0]
        rng = np.random.default_rng(97)
        n = 20_000
        # One call draws the same stream, row by row, as n one-run calls.
        draws = sampled(kind, param, AB, order, rng, n).tolist()
        mean = math.fsum(draws) / n
        spread = np.std(draws, ddof=1) / math.sqrt(n)
        assert abs(mean - exact) <= 4.0 * max(spread, 1e-9)

    def test_unknown_policy_kind_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(PolicyError):
            sampled("nope", 1.0, AB, ("A", "B"), rng, 1)


def small_instances():
    """1-4 boxes of 1-3 atoms each; values often include 0."""
    value = st.one_of(
        st.just(0.0), st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False)
    )

    def box(i, values, weights):
        values = sorted(set(values))
        total = sum(weights[: len(values)])
        atoms = tuple((v, w / total) for v, w in zip(values, weights))
        return Box(f"b{i}", DiscreteDistribution(atoms))

    boxes = st.lists(
        st.tuples(
            st.lists(value, min_size=1, max_size=3),
            st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=4,
    )
    return boxes.map(lambda bs: Instance(tuple(box(i, *b) for i, b in enumerate(bs))))


# Rounding in the pulled-back cuts leaves slivers a couple of ulps wide.
CUT_MARGIN_ULPS = 8


def cuts_of(inst: Instance, order, kind: str, top: float) -> list[float]:
    """One order's ``_lane_value_cuts``."""
    perm = np.array([order_indices(inst, order)])
    levels = policies._lane_value_cuts(inst, perm, kind, top)[0]
    return levels[levels < math.inf].tolist()


def values_at(kind: str, inst: Instance, order, g0: list[float]) -> list[float]:
    """The exact value of one order at each starting target, as lanes of one pass."""
    perm = np.array([order_indices(inst, order)])
    lanes = lane_values(kind, inst, perm, np.zeros(len(g0), dtype=int), np.array(g0))
    return lanes.stages[:, 0].tolist()


class TestValueProfile:
    @settings(max_examples=200, deadline=None)
    @given(
        small_instances(),
        st.sampled_from(("tva", "tvd")),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    def test_value_is_constant_between_cuts(self, inst, kind, fractions):
        order = inst.ids
        top = prophet_value(inst)
        edges = [0.0, *cuts_of(inst, order, kind, top), top]
        for a, b in zip(edges, edges[1:]):
            lo = a + CUT_MARGIN_ULPS * math.ulp(a)
            hi = b - CUT_MARGIN_ULPS * math.ulp(b)
            if lo >= hi:
                continue
            # Both ends catch any single missing cut; the fractions probe between.
            probes = [lo + f * (hi - lo) for f in (0.0, 1.0, *fractions)]
            piece, *values = values_at(kind, inst, order, [0.5 * (a + b), *probes])
            for value in values:
                assert value == piece

    def test_four_box_tvd_piece_count(self):
        # tvd levels above emax_after[t] are dropped at stage t: 148 pieces
        # over the 24 orders when every stage kept all of its levels.
        inst = load_instance(DATA_DIR / "four_box.json")
        spec = rho_732()
        lo, hi = spec.pieces[0].lo * prophet_value(inst), spec.pieces[-1].hi * prophet_value(inst)
        pieces = sum(
            1 + sum(y > lo for y in cuts_of(inst, order, "tvd", hi))
            for order in all_orders(inst)
        )
        assert pieces == 103


def gen_instance(seed: int, boxes: int = 12, atoms: int = 6) -> Instance:
    """An instance from the benchmark's generator: distinct six-decimal values, 1/1024 masses."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    payload = gen.make_instance(gen.workload_rng("cuts", seed), boxes=boxes, atoms=atoms)
    return parse_instance(json.dumps(payload))


def batched_cuts(inst: Instance, perm: np.ndarray, kind: str, top: float):
    """``_lane_value_cuts`` of every row of ``perm`` as lists, and the reference's."""
    emax = inst.suffix_tables.emax_after(perm)
    got = policies._lane_value_cuts(inst, perm, kind, top)
    want = [
        ref.value_cuts([inst.dists[b] for b in boxes], row, kind, top)
        for boxes, row in zip(perm.tolist(), emax.tolist())
    ]
    return [row[row < math.inf].tolist() for row in got], want


class TestBatchedCuts:
    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.sampled_from(("tva", "tvd")))
    def test_every_order_equals_the_reference(self, inst, kind):
        perm = np.array([order_indices(inst, order) for order in all_orders(inst)])
        prophet = prophet_value(inst)
        for top in (0.0, 0.5 * prophet, prophet, 2.0 * prophet, math.inf):
            got, want = batched_cuts(inst, perm, kind, top)
            assert got == want

    def test_zero_and_shared_atoms(self):
        zero_first = DiscreteDistribution(((0.0, 0.25), (1.0, 0.25), (3.0, 0.5)))
        inst = Instance((Box("z", ZERO), Box("c", COIN), Box("r", RISKY), Box("s", zero_first)))
        perm = np.array([order_indices(inst, order) for order in all_orders(inst)])
        for kind in ("tva", "tvd"):
            got, want = batched_cuts(inst, perm, kind, prophet_value(inst))
            assert got == want and any(got)
            # A top on an atom or a cut drops the level that reaches it.
            atoms = {v for d in inst.dists for v in d.values}
            for top in sorted(atoms | set(batched_cuts(inst, perm, kind, math.inf)[1][0])):
                got, want = batched_cuts(inst, perm, kind, top)
                assert got == want

    @pytest.mark.parametrize("name", ["four_box.json", "two_box.json"])
    def test_every_order_of_the_bundled_instances(self, name):
        inst = load_instance(DATA_DIR / name)
        perm = np.array([order_indices(inst, order) for order in all_orders(inst)])
        for kind in ("tva", "tvd"):
            for top in (prophet_value(inst), math.inf):
                got, want = batched_cuts(inst, perm, kind, top)
                assert got == want

    @pytest.mark.parametrize("kind", ["tva", "tvd"])
    def test_one_chunk_of_twelve_box_orders(self, kind):
        # Rows of one chunk reach different widths, so most carry +inf pads.
        inst = gen_instance(14)
        rng = np.random.default_rng(14)
        perm = np.array([rng.permutation(inst.n) for _ in range(LANE_CHUNK)])
        got, want = batched_cuts(inst, perm, kind, prophet_value(inst))
        assert got == want
        assert len({len(cuts) for cuts in got}) > 1

    def test_one_order_call_is_the_batched_row(self):
        inst = load_instance(DATA_DIR / "four_box.json")
        order = all_orders(inst)[5]
        got, want = batched_cuts(inst, np.array([order_indices(inst, order)]), "tvd", 3.0)
        assert cuts_of(inst, order, "tvd", 3.0) == got[0] == want[0]


class TestRandomizedValue:
    def test_a_narrow_density_equals_exact_at_its_support(self):
        # No cut of AB lies in [1/phi, 1/phi + 1e-4] times the prophet value,
        # so every draw gets tva_exact's value at 1/phi.
        spec = narrow_density(1.0 / PHI, 1.0 / PHI + 1e-4)
        got = randomized_value(AB, ("B", "A"), spec, policy_kind="tva")
        want = tva_exact(AB, ("B", "A"), prophet_value(AB) / PHI).stages[0, 0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_rho_732_beats_gamma_on_both_orders(self):
        for order in (("A", "B"), ("B", "A")):
            opt = opt_online(AB, order).stages[0, 0]
            got = randomized_value(AB, order, rho_732())
            assert got >= 0.732 * opt - 1e-6

    @pytest.mark.parametrize("spec,kind", [(rho_656(), "tva"), (rho_732(), "tvd")])
    def test_midpoint_sum_agrees_within_its_error_bound(self, spec, kind):
        # A midpoint sum with exact cell masses errs only in cells holding a
        # cut, each by at most (cuts in it) * largest jump * cell mass; 1e-12
        # covers rounding in the sums.
        rng = np.random.default_rng(101)
        inst = random_instance(rng, 3, max_atoms=3)
        order = tuple(sorted(inst.ids))
        prophet = prophet_value(inst)
        lo, hi = spec.pieces[0].lo, spec.pieces[-1].hi
        cells = 4000
        xs = np.linspace(lo, hi, cells + 1).tolist()
        cdf = [density_cdf(spec, x) for x in xs]
        mass = cdf[-1] - cdf[0]
        cell_values = values_at(
            kind, inst, order, [0.5 * (xs[j] + xs[j + 1]) * prophet for j in range(cells)]
        )
        reference = math.fsum(
            (cdf[j + 1] - cdf[j]) * cell_values[j] for j in range(cells)
        ) / mass

        cuts = [y for y in cuts_of(inst, order, kind, hi * prophet) if y > lo * prophet]
        edges = [lo * prophet, *cuts, hi * prophet]
        pieces = values_at(kind, inst, order, [0.5 * (a + b) for a, b in zip(edges, edges[1:])])
        jump = max((abs(b - a) for a, b in zip(pieces, pieces[1:])), default=0.0)
        # Both kernels decrease, so each piece's sup is at its left end.
        sup_pdf = max(
            p.coefficient / (2.0 * p.lo - 1.0 if p.kind == "reciprocal_2x_minus_1" else p.lo)
            for p in spec.pieces
        )
        bound = len(cuts) * jump * (hi - lo) / cells * sup_pdf / mass
        assert len(cuts) >= 1 and jump > 0.0
        got = randomized_value(inst, order, spec, policy_kind=kind)
        assert abs(got - reference) <= bound + 1e-12


def replay_run(kind, g0, inst, order, rng):
    """One run the slow way: sample every box, then take the first value at or
    above its stage's threshold from the scalar reference, box by box."""
    boxes = order_indices(inst, order)
    values = [float(inverse_cdf(inst.dists[b], rng.random())) for b in boxes]
    thresholds = ref.stage_thresholds(kind, g0, inst, boxes).per_stage
    return next((v for v, x in zip(values, thresholds) if v >= x), 0.0)


class TestSampleRuns:
    @settings(max_examples=200, deadline=None)
    @given(
        small_instances().flatmap(lambda inst: st.tuples(st.just(inst), st.permutations(inst.ids))),
        st.sampled_from(("sta", "tva", "tvd")),
        st.floats(0.0, 1.5),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_box_by_box_replay_bitwise(self, inst_order, kind, fraction, runs, seed):
        inst, order = inst_order
        order = tuple(order)
        g0 = fraction * prophet_value(inst)
        replay_rng = np.random.default_rng(seed)
        want = np.array([replay_run(kind, g0, inst, order, replay_rng) for _ in range(runs)])
        rng = np.random.default_rng(seed)
        got = sampled(kind, g0, inst, order, rng, runs)
        assert got.tobytes() == want.tobytes()
        # Both consumed the stream up to the same point.
        assert rng.random() == replay_rng.random()

    @pytest.mark.parametrize("kind", ["sta", "tva", "tvd"])
    def test_four_box_orders_match_replay_bitwise(self, kind):
        # At the prophet value every order is overestimated, so tvd switches
        # and the runs that reach the switch meet its single threshold.
        inst = load_instance(DATA_DIR / "four_box.json")
        for order in all_orders(inst):
            for g0 in (0.5 * opt_online(inst, order).stages[0, 0], prophet_value(inst)):
                replay_rng = np.random.default_rng(31)
                want = np.array([replay_run(kind, g0, inst, order, replay_rng) for _ in range(50)])
                got = sampled(kind, g0, inst, order, np.random.default_rng(31), 50)
                assert got.tobytes() == want.tobytes()

    def test_threshold_count_must_match_the_boxes(self):
        # Zipped, one threshold of 99 would leave boxes 2-4 undrawn and every
        # run at 0.0; three thresholds for one box would drop two of them.
        inst = load_instance(DATA_DIR / "four_box.json")
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="dists has 4 entries but thresholds has 1"):
            sample_runs(inst.dists, [99.0], rng, 5)
        with pytest.raises(ValueError, match="dists has 1 entries but thresholds has 3"):
            sample_runs(inst.dists[:1], [0.0, 1.0, 2.0], rng, 5)


def lane_instances() -> list[Instance]:
    """Conftest instances of 1-5 boxes, all-one-atom ones, and hand-made edge cases."""
    rng = np.random.default_rng(3)
    out = [random_instance(rng, int(rng.integers(1, 6))) for _ in range(30)]
    out += [random_instance(rng, n, max_atoms=1) for n in (1, 3, 4)]
    out.append(Instance((Box("solo", COIN),)))
    out.append(Instance((A, Box("zero", ZERO), B, Box("coin", COIN))))
    return out


PUBLIC = {"sta": sta_exact, "tva": tva_exact, "tvd": tvd_exact}


def assert_lanes_match_scalar(inst: Instance, orders, fractions) -> set[int]:
    """Every lane of every kind equals the scalar reference under ==.

    The optimum's stages equal the reference's, and its thresholds are the
    values to go after each stage.  Returns the lengths of the suffixes that
    tvd switched on.
    """
    perm = np.array([order_indices(inst, order) for order in orders])
    optima = lane_values("opt", inst, perm, np.arange(len(orders)), None)
    want = [list(ref.opt_online(inst, order).per_stage) for order in orders]
    assert optima.stages.tolist() == want
    assert optima.thresholds.tolist() == optima.stages[:, 1:].tolist()
    assert optima.switch_stage.tolist() == [-1] * len(orders)
    opt = optima.stages[:, 0]
    prophet = prophet_value(inst)
    starts = [np.zeros(len(orders)), opt, 1.25 * prophet + np.zeros(len(orders))]
    starts += [f * opt for f in fractions]
    suffixes: set[int] = set()
    for kind, scalar in ref.EVALUATORS.items():
        for g0 in starts:
            got = lane_values(kind, inst, perm, np.arange(len(orders)), g0)
            results = [scalar(inst, order, x) for order, x in zip(orders, g0.tolist())]
            assert got.stages[:, 0].tolist() == [r.total for r in results]
            stages = [-1 if r.switch_stage is None else r.switch_stage for r in results]
            assert got.switch_stage.tolist() == (stages if kind == "tvd" else [-1] * len(orders))
            suffixes.update(inst.n - s for s in stages if s >= 0)
    return suffixes


class TestLaneValues:
    def test_conftest_instances_match_scalar_bitwise(self):
        suffixes = set()
        for inst in lane_instances():
            suffixes |= assert_lanes_match_scalar(inst, all_orders(inst), (0.5, 0.9, 1.1))
        # Both switch-threshold paths ran: the last box alone and longer suffixes.
        assert {1, 2, 3, 4} <= suffixes

    @settings(max_examples=100, deadline=None)
    @given(small_instances(), st.floats(0.0, 2.0))
    def test_small_instances_match_scalar_bitwise(self, inst, fraction):
        assert_lanes_match_scalar(inst, all_orders(inst), (fraction,))

    def test_suffix_tables_match_scalar_bitwise(self):
        # Grids of up to 36 points, where a pairwise sum would round differently.
        rng = np.random.default_rng(5)
        for _ in range(6):
            inst = random_instance(rng, 6, max_atoms=6)
            orders = all_orders(inst)[::7]
            perm = np.array([order_indices(inst, order) for order in orders])
            tables = inst.suffix_tables
            emax_after = tables.emax_after(perm)
            for row, order in zip(emax_after.tolist(), orders):
                assert row == ref.emax_after(inst, order_indices(inst, order))
            for s in range(inst.n):
                taus = tables.switch_tau(perm[:, s:]).tolist()
                assert taus == [
                    ref.switch_threshold(ref.remaining(inst, row[s:]))
                    for row in perm.tolist()
                ]

    @pytest.mark.parametrize("kind", ["sta", "tva", "tvd"])
    @pytest.mark.parametrize("g0", [-0.1, -5e-324, -math.inf, math.nan])
    def test_rejects_a_bad_start_with_the_scalar_message(self, kind, g0):
        # A start is >= 0; the smallest negative float and nan are not.
        perm = np.array([[1, 0]])
        with pytest.raises(ValueError) as got:
            lane_values(kind, AB, perm, np.zeros(1, dtype=int), np.array([g0]))
        with pytest.raises(ValueError) as want:
            ref.stage_thresholds(kind, g0, AB, [1, 0])
        assert str(got.value) == str(want.value)

    def test_negative_start_is_rejected_like_the_scalar_path(self):
        perm = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="initial target must be >= 0: -1.0"):
            lane_values("tva", AB, perm, np.arange(2), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="threshold must be >= 0: nan"):
            lane_values("sta", AB, perm, np.arange(2), np.array([math.nan, 1.0]))
        with pytest.raises(PolicyError):
            lane_values("nope", AB, perm, np.arange(2), np.zeros(2))


def set_mask(boxes) -> int:
    return sum(1 << b for b in boxes)


def set_rows(n: int, size: int) -> np.ndarray:
    """Every set of ``size`` of ``n`` boxes, one row each, its boxes in box order."""
    return np.array(list(combinations(range(n), size)), dtype=int).reshape(-1, size)


# Allowance, in ulps of the exact value, for a set's E[max] from the table or
# from any arrival-order fold, and for how far the exact bound at the table's
# switch threshold falls below the best one.  Each atom mass is a difference
# of rounded CDF products, so the error grows with the top atom over E[max]:
# the lane instances' worst is 3.0 ulps for both (one box, E[max] 1.64, top
# atom 8.52), and 0 for the threshold.
SET_ULPS = 4


def exact_cdf(dist: DiscreteDistribution, grid: list[float]) -> list[Fraction]:
    """``dist``'s CDF at each grid point, exactly, with its probabilities scaled to sum to 1."""
    probs = [Fraction(p) for p in dist.probs]
    total, acc, out = sum(probs), Fraction(0), []
    for v in grid:
        acc += sum(p for x, p in zip(dist.values, probs) if x == v)
        out.append(acc / total)
    return out


def exact_max_atoms(cdfs: list[list[Fraction]], grid: list[float]) -> list[tuple[Fraction, ...]]:
    """The (value, mass) atoms of the maximum of independent draws with these exact CDFs."""
    cdf = [math.prod(column) for column in zip(*cdfs)]
    return [(Fraction(v), c - prev) for v, c, prev in zip(grid, cdf, [0, *cdf]) if c != prev]


def exact_bound(atoms: list[tuple[Fraction, Fraction]], tau: Fraction) -> Fraction:
    """P[M >= tau] * tau + P[M < tau] * E[(M - tau)^+] for M with these (value, mass) atoms."""
    p_ge = sum(m for v, m in atoms if v >= tau)
    plus = sum(m * (v - tau) for v, m in atoms if v >= tau)
    return p_ge * tau + (1 - p_ge) * plus


def ulps(x: float, exact: Fraction) -> float:
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


def set_value_conflicts(inst: Instance) -> int:
    """How many lanes of all orders read another value than the first lane with their set."""
    perm = np.array([order_indices(inst, order) for order in all_orders(inst)])
    tables = inst.suffix_tables
    read = [
        (set_mask(row[t + 1 :]), value)
        for row, values in zip(perm.tolist(), tables.emax_after(perm).tolist())
        for t, value in enumerate(values)
    ]
    for s in range(inst.n):
        taus = tables.switch_tau(perm[:, s:]).tolist()
        read += [(-set_mask(row), tau) for row, tau in zip(perm[:, s:].tolist(), taus)]
    first: dict[int, float] = {}
    return sum(first.setdefault(key, value) != value for key, value in read)


class TestSetTables:
    def test_a_remaining_set_reads_one_value_whatever_the_order(self, monkeypatch):
        # Every order of each lane instance and of a 7-box one: lanes with the
        # same boxes still to come read the same E[max] and switch threshold.
        # Folding each lane's suffix in arrival order, as the fold past
        # ENUMERATION_LIMIT does, gives some sets two values.
        instances = [*lane_instances(), random_instance(np.random.default_rng(7), 7, max_atoms=5)]
        assert sum(map(set_value_conflicts, instances)) == 0
        monkeypatch.setattr(benchmarks, "ENUMERATION_LIMIT", 0)
        assert sum(map(set_value_conflicts, instances)) > 0

    def test_every_set_equals_the_fold_in_box_order(self, monkeypatch):
        # The tables against the arrival-order fold, run on each set's boxes
        # in box order.  A first column of box 0 puts the set after stage 0.
        instances = [*lane_instances(), random_instance(np.random.default_rng(8), 9, max_atoms=3)]
        for inst in instances:
            tables = inst.suffix_tables
            for size in range(1, inst.n + 1):
                sets = set_rows(inst.n, size)
                after_first = np.concatenate((np.zeros((len(sets), 1), dtype=int), sets), axis=1)
                table = (
                    tables.emax_after(after_first)[:, 0].tolist(),
                    tables.switch_tau(sets).tolist(),
                )
                with monkeypatch.context() as fold:
                    fold.setattr(benchmarks, "ENUMERATION_LIMIT", 0)
                    folded = (
                        tables.emax_after(after_first)[:, 0].tolist(),
                        tables.switch_tau(sets).tolist(),
                    )
                assert table == folded
                masks = [set_mask(row) for row in sets.tolist()]
                assert tables.set_emax[masks].tolist() == folded[0]
                assert tables.set_tau[masks].tolist() == folded[1]

    def test_sets_are_within_a_few_ulps_of_the_exact_value(self, monkeypatch):
        # The exact E[max] of every set of each lane instance, from its atoms as
        # rationals, against the table and against the fold of every order of
        # the set; and the exact bound at the table's threshold against the
        # exact best bound over 0 and the maximum's atoms.
        worst = {"table": 0.0, "fold": 0.0, "tau": 0.0}
        for inst in lane_instances():
            tables = inst.suffix_tables
            grid = tables.grid.tolist()
            cdfs = [exact_cdf(d, grid) for d in inst.dists]
            for size in range(1, inst.n + 1):
                sets = set_rows(inst.n, size).tolist()
                exact = []
                for row in sets:
                    atoms = exact_max_atoms([cdfs[b] for b in row], grid)
                    exact.append(sum(v * m for v, m in atoms))
                    mask = set_mask(row)
                    worst["table"] = max(worst["table"], ulps(tables.set_emax[mask], exact[-1]))
                    candidates = [Fraction(0), *(v for v, _ in atoms)]
                    best = max(exact_bound(atoms, tau) for tau in candidates)
                    short = best - exact_bound(atoms, Fraction(tables.set_tau[mask]))
                    short /= Fraction(math.ulp(float(best)))
                    worst["tau"] = max(worst["tau"], float(short))
                # Box 0 in front puts each order of the set after stage 0.
                orders = [(i, [0, *o]) for i, row in enumerate(sets) for o in permutations(row)]
                with monkeypatch.context() as fold:
                    fold.setattr(benchmarks, "ENUMERATION_LIMIT", 0)
                    folded = tables.emax_after(np.array([o for _, o in orders]))
                for (i, _), value in zip(orders, folded[:, 0].tolist()):
                    worst["fold"] = max(worst["fold"], ulps(value, exact[i]))
        assert max(worst.values()) <= SET_ULPS, worst

    def test_past_the_limit_each_lane_folds_in_arrival_order(self):
        # 10 boxes: no set table is built, and the lanes still equal the
        # reference, which folds in arrival order there.
        inst = random_instance(np.random.default_rng(10), benchmarks.ENUMERATION_LIMIT + 1)
        rng = np.random.default_rng(11)
        orders = [tuple(np.array(inst.ids)[rng.permutation(inst.n)]) for _ in range(12)]
        perm = np.array([order_indices(inst, order) for order in orders])
        tables = inst.suffix_tables
        emax_after = tables.emax_after(perm)
        for row, boxes in zip(emax_after.tolist(), perm.tolist()):
            assert row == ref.emax_after(inst, boxes)
        for s in range(inst.n):
            taus = tables.switch_tau(perm[:, s:]).tolist()
            want = [ref.switch_threshold(ref.remaining(inst, row[s:])) for row in perm]
            assert taus == want
        switched_suffixes = assert_lanes_match_scalar(inst, orders, (0.9, 1.1))
        assert switched_suffixes
        g0 = 1.25 * prophet_value(inst)
        want = ref.tvd_exact(inst, orders[0], g0)
        got = one_lane("tvd", inst, orders[0], g0)
        assert want.switch_stage is not None
        s = int(got.switch_stage[0])
        assert (s, got.thresholds[0, s]) == (want.switch_stage, want.threshold)
        assert "set_emax" not in tables.__dict__ and "set_tau" not in tables.__dict__


def raised(call, *args) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        call(*args)
    return type(info.value), str(info.value)


def one_lane(kind: str, inst: Instance, order, g0: float | None):
    """``lane_values`` on the one lane (order, g0)."""
    perm = np.array([order_indices(inst, order)])
    start = None if g0 is None else np.array([g0])
    return lane_values(kind, inst, perm, np.zeros(1, dtype=int), start)


def assert_lanes_equal(got, want) -> None:
    """Two ``LaneValues`` equal in every field, shape and dtype, with nan equal to nan."""
    for field, a, b in zip(want._fields, got, want):
        np.testing.assert_array_equal(a, b, err_msg=field, strict=True)


class TestOneLaneEvaluators:
    def test_results_equal_the_reference(self):
        # Each call returns lane_values on its lane, every field.  Against the
        # reference's result, with s its switch stage (n where none): stages[0]
        # is per_stage and thresholds[0, :s] the targets before s; for tvd,
        # switch_target is the target at s and thresholds[0, s:] the single
        # threshold.
        switched = 0
        for inst in lane_instances():
            prophet = prophet_value(inst)
            for order in all_orders(inst)[:4]:
                opt = opt_online(inst, order)
                assert_lanes_equal(opt, one_lane("opt", inst, order, None))
                assert opt.stages[0].tolist() == list(ref.opt_online(inst, order).per_stage)
                assert opt.thresholds.tolist() == opt.stages[:, 1:].tolist()
                assert opt.switch_stage.tolist() == [-1]
                best = float(opt.stages[0, 0])
                for kind, public in PUBLIC.items():
                    for g0 in (0.0, 0.5 * best, best, 1.25 * prophet):
                        got = public(inst, order, g0)
                        assert_lanes_equal(got, one_lane(kind, inst, order, g0))
                        want = ref.EVALUATORS[kind](inst, order, g0)
                        assert got.stages[0].tolist() == list(want.per_stage)
                        thresholds = got.thresholds[0].tolist()
                        s = inst.n if want.switch_stage is None else want.switch_stage
                        # sta walks no targets: its tau is every stage's threshold.
                        targets = want.targets or (want.threshold,) * inst.n
                        assert thresholds[:s] == list(targets[:s])
                        if s < inst.n:
                            assert got.switch_stage.tolist() == [s]
                            assert got.switch_target.tolist() == [want.targets[s]]
                            assert thresholds[s:] == [want.threshold] * (inst.n - s)
                            switched += 1
                        else:
                            assert got.switch_stage.tolist() == [-1]
                            assert math.isnan(got.switch_target[0])
        assert switched > 0

    def test_randomized_value_equals_the_reference(self):
        for inst in lane_instances():
            for order in all_orders(inst)[:2]:
                for density, kind in ((rho_656(), "tva"), (rho_732(), "tvd")):
                    want = ref.randomized_value(inst, order, density, kind)
                    assert randomized_value(inst, order, density, kind) == want

    @pytest.mark.parametrize("kind", ["sta", "tva", "tvd"])
    def test_errors_equal_the_reference(self, kind):
        public, scalar = PUBLIC[kind], ref.EVALUATORS[kind]
        for order in (("A",), ("A", "A"), ("A", "C"), ("A", "B", "B")):
            assert raised(public, AB, order, 1.0) == raised(scalar, AB, order, 1.0)
            assert raised(opt_online, AB, order) == raised(ref.opt_online, AB, order)
        for g0 in (-1.0, -math.inf, math.nan):
            assert raised(public, AB, ("A", "B"), g0) == raised(scalar, AB, ("A", "B"), g0)

    def test_optimum_and_tva_build_no_suffix_tables(self):
        # 500 boxes of 6 atoms each, no value repeated: tvd's suffix tables
        # would hold a 500 x 3000 CDF (12 MB); opt and tva never read them.
        inst = distinct_atoms_instance()
        tracemalloc.start()
        try:
            opt = opt_online(inst, inst.ids)
            tva_exact(inst, inst.ids, opt.stages[0, 0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert "suffix_tables" not in inst.__dict__

    @pytest.mark.parametrize("kind", ["opt", "sta", "tva", "tvd"])
    def test_stage_out_of_range_raises_like_the_reference_result(self, kind, monkeypatch):
        # Negated tail means drive the stage values below zero.  The lane pass
        # raises what the reference's EvaluationResult raises on the first
        # lane's stages.
        inst = Instance((A, B, Box("coin", COIN)))
        tables = inst.box_tables
        inst.__dict__["box_tables"] = tables._replace(tail_mean=-tables.tail_mean)
        g0 = None if kind == "opt" else np.ones(2)
        args = (kind, inst, np.array([[0, 1, 2], [2, 1, 0]]), np.arange(2), g0)
        with monkeypatch.context() as unchecked:
            unchecked.setattr(policies, "VALUE_TOL", math.inf)
            first = tuple(lane_values(*args).stages[0].tolist())
        assert raised(lane_values, *args) == raised(ref.EvaluationResult, kind, first)

    def test_unknown_kind_raises_like_the_reference(self):
        got = raised(policies._one_lane, "nope", AB, ("A", "B"), 1.0)
        assert got == raised(ref.exact, "nope", AB, ("A", "B"), 1.0)
        assert got[0] is PolicyError


def high_density(lo: float = 0.9) -> DensitySpec:
    """All mass on [lo, 1]: g0 tops the optimum of many orders, so tvd switches."""
    return DensitySpec("high", (DensityPiece(PIECE_INV, lo, 1.0, -1.0 / math.log(lo)),))


MIXTURE_DENSITIES = (
    rho_656(),
    rho_732(),
    # A support that holds almost no cuts.
    narrow_density(1.0 / PHI, 1.0 / PHI + 1e-4),
    high_density(),
    gapped_density(),
    short_density(),
)


def mixture_instances() -> list[tuple[Instance, list]]:
    """The lane instances with all their orders, and a 6-box one with every 9th order."""
    out = [(inst, all_orders(inst)) for inst in lane_instances()]
    inst = random_instance(np.random.default_rng(9), 6, max_atoms=5)
    return out + [(inst, all_orders(inst)[::9])]


def mixture_lanes(inst: Instance, orders, density: DensitySpec, kind: str):
    """Every order's row of box indices, each piece's row, and each piece's midpoint."""
    perm = np.array([order_indices(inst, order) for order in orders])
    mids = []
    for boxes, order in zip(perm.tolist(), orders):
        emax_after = ref.emax_after(inst, boxes)
        mids.append(ref._mixture_pieces(inst, boxes, emax_after, density, kind)[1])
    rows = np.repeat(np.arange(len(orders)), [len(m) for m in mids])
    return perm, rows, np.array([g for m in mids for g in m])


class TestLaneRandomizedValues:
    @pytest.mark.parametrize("kind", ["tva", "tvd"])
    def test_equals_the_scalar_mixture(self, kind, monkeypatch):
        widest = 0
        for inst, orders in mixture_instances():
            perm = np.array([order_indices(inst, order) for order in orders])
            for density in MIXTURE_DENSITIES:
                want = [ref.randomized_value(inst, order, density, kind) for order in orders]
                # Three lanes per pass, so one order's pieces often span
                # several passes, and the CLI's pass.
                for lanes in (3, LANE_CHUNK):
                    monkeypatch.setattr(policies, "LANE_CHUNK", lanes)
                    got = lane_randomized_values(inst, perm, density, kind)
                    assert list(got) == want
                rows = mixture_lanes(inst, orders, density, kind)[1]
                widest = max(widest, np.bincount(rows).max())
        assert widest > 3

    def test_tvd_pieces_that_all_switch(self, monkeypatch):
        # With mass on [0.9, 1] only, every piece of an order whose optimum lies
        # below 0.9 * prophet starts above it, and tvd switches on each.
        density, switched = high_density(), 0
        monkeypatch.setattr(policies, "LANE_CHUNK", 3)
        for inst, orders in mixture_instances():
            perm, rows, g0 = mixture_lanes(inst, orders, density, "tvd")
            opt = lane_values("opt", inst, perm, np.arange(len(orders)), None).stages[:, 0]
            over = [i for i in range(len(orders)) if g0[rows == i].min() > opt[i]]
            lanes = lane_values("tvd", inst, perm, rows, g0)
            assert (lanes.switch_stage[np.isin(rows, over)] >= 0).all()
            got = lane_randomized_values(inst, perm, density, "tvd")
            want = [ref.randomized_value(inst, order, density, "tvd") for order in orders]
            assert list(got) == want
            switched += len(over)
        assert switched >= 20

    @pytest.mark.parametrize("kind", ["tva", "tvd"])
    @pytest.mark.parametrize("density", [gapped_density(), short_density()], ids=lambda d: d.name)
    def test_no_weight_off_the_pieces(self, density, kind, monkeypatch):
        # Cuts inside the gap bound pieces of weight exactly 0.0; they are
        # dropped before any lane is valued.  Past the last piece's end no
        # piece is made.  test_equals_the_scalar_mixture checks the mixture
        # values of both densities.
        lo, hi = density.pieces[0].lo, density.pieces[-1].hi
        valued = []

        def recording(*args):
            valued.append(args[4])  # each lane's starting target
            return lane_values(*args)

        monkeypatch.setattr(policies, "lane_values", recording)
        dropped = 0
        for inst, orders in mixture_instances():
            perm = np.array([order_indices(inst, order) for order in orders])
            pieces = policies._lane_mixture_pieces(inst, perm, density, kind)
            prophet = prophet_value(inst)
            assert (lo * prophet < pieces.mids).all() and (pieces.mids < hi * prophet).all()
            assert (pieces.weights > 0.0).all() and pieces.counts.sum() == pieces.mids.size
            cuts = policies._lane_value_cuts(inst, perm, kind, hi * prophet)
            made = np.count_nonzero((cuts > lo * prophet) & (cuts < math.inf), axis=1) + 1
            dropped += int((made - pieces.counts).sum())
            valued.clear()
            list(lane_randomized_values(inst, perm, density, kind))
            assert np.concatenate(valued).tolist() == pieces.mids.tolist()
        assert (dropped > 0) == (density.name == "gapped")

    def test_each_pass_gets_only_the_rows_of_its_pieces(self, monkeypatch):
        # 120 orders of 12 boxes make eight passes.  Each pass gets the rows
        # of the orders its pieces come from and no others, so only an order
        # whose pieces are split between two passes is passed twice.
        inst = gen_instance(1)
        rng = np.random.default_rng(1)
        perm = np.array([rng.permutation(inst.n) for _ in range(120)])
        passes = []

        def recording(kind, instance, part, rows, g0):
            passes.append((part.tolist(), rows.tolist()))
            return lane_values(kind, instance, part, rows, g0)

        monkeypatch.setattr(policies, "lane_values", recording)
        list(lane_randomized_values(inst, perm, rho_732(), "tvd"))
        counts = policies._lane_mixture_pieces(inst, perm, rho_732(), "tvd").counts
        piece_rows = np.repeat(np.arange(len(perm)), counts)
        assert len(passes) == 8
        for start, (part, rows) in zip(range(0, piece_rows.size, LANE_CHUNK), passes):
            want = piece_rows[start : start + LANE_CHUNK]
            assert part == perm[want[0] : want[-1] + 1].tolist()
            assert rows == (want - want[0]).tolist()
        assert sum(len(part) for part, _ in passes) <= len(perm) + len(passes) - 1

    def test_rejects_a_kind_without_a_mixture(self):
        perm = np.array([[0, 1]])
        with pytest.raises(ValueError, match="randomized mixture needs tva or tvd"):
            list(lane_randomized_values(AB, perm, rho_732(), "sta"))


class TestMixturePieces:
    @pytest.mark.parametrize("kind,density", [("tva", rho_656()), ("tvd", rho_732())])
    def test_one_chunk_stays_within_a_dozen_arrays_per_piece(self, kind, density):
        # Building the pieces of one LANE_CHUNK chunk of 12-box orders, cuts
        # and CDF included, peaks within twelve float64 arrays of one entry
        # per piece (96 bytes a piece); about 58 pieces per order here.
        inst = gen_instance(15)
        rng = np.random.default_rng(15)
        perm = np.array([rng.permutation(inst.n) for _ in range(LANE_CHUNK)])
        prophet_value(inst), inst.box_tables  # both cached on the instance
        tracemalloc.start()
        try:
            pieces = policies._lane_mixture_pieces(inst, perm, density, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pieces.weights.dtype == pieces.mids.dtype == np.float64
        assert pieces.counts.sum() == pieces.mids.size == pieces.weights.size
        assert pieces.mids.size > 40 * LANE_CHUNK
        assert peak <= 12 * 8 * pieces.mids.size


class TestSharedOrderTables:
    @pytest.mark.parametrize("kind", ["sta", "tva", "tvd"])
    def test_shared_rows_match_one_row_per_lane(self, kind):
        # Pieces of many orders, in order and shuffled, against the same lanes
        # with each order's row repeated per lane.
        rng = np.random.default_rng(12)
        switched = 0
        for inst, orders in mixture_instances():
            for density in (rho_732(), high_density()):
                perm, rows, g0 = mixture_lanes(inst, orders, density, "tvd")
                for pick in (np.arange(rows.size), rng.permutation(rows.size)):
                    shared = lane_values(kind, inst, perm, rows[pick], g0[pick])
                    one_row_each = perm[rows[pick]], np.arange(rows.size)
                    alone = lane_values(kind, inst, *one_row_each, g0[pick])
                    assert shared.stages[:, 0].tolist() == alone.stages[:, 0].tolist()
                    assert shared.switch_stage.tolist() == alone.switch_stage.tolist()
                    switched += int((shared.switch_stage >= 0).sum())
        assert (switched > 0) == (kind == "tvd")

    def test_one_pass_stays_within_eight_lane_by_stage_arrays(self):
        # One pass of LANE_CHUNK tvd pieces on 12 boxes.  Suffix tables built
        # once per order keep it within eight (lanes, boxes + 1) float arrays;
        # building them once per lane, on the instance's grid, took 3.4x more.
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 12, max_atoms=6)
        # About 27 pieces an order, so the first pass ends well before the last order.
        count = LANE_CHUNK // 16
        orders = [tuple(inst.ids[j] for j in rng.permutation(inst.n)) for _ in range(count)]
        perm, rows, g0 = mixture_lanes(inst, orders, rho_732(), "tvd")
        rows, g0 = rows[:LANE_CHUNK], g0[:LANE_CHUNK]
        assert rows.size == LANE_CHUNK and rows[-1] + 1 < len(orders)
        bound = 8 * LANE_CHUNK * (inst.n + 1) * 8
        lane_values("tvd", inst, perm, rows, g0)  # builds the instance's box tables
        tracemalloc.start()
        try:
            lanes = lane_values("tvd", inst, perm[: rows[-1] + 1], rows, g0)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            streamed = list(lane_randomized_values(inst, perm, rho_732(), "tvd"))
            _, stream_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (lanes.switch_stage >= 0).any()
        assert len(streamed) == len(orders)
        assert peak <= bound and stream_peak <= bound
