"""Exact expectation operators on finite discrete distributions."""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
import warnings
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from conftest import distinct_atoms_instance, inverse_target, random_instance
from scalar_reference import expected_max_with
from ocselect import Box, DiscreteDistribution, Instance, best_single_threshold, sta_lower_bound
from ocselect.benchmarks import order_indices
from ocselect.io import parse_instance
from ocselect.policies import lane_values
from ocselect.distributions import (
    TARGET_SLACK,
    BoxTables,
    _lane_inverse_target,
    _lane_jump_target,
    inverse_cdf,
    max_distribution,
)

ZERO_TWO = DiscreteDistribution(((0.0, 0.5), (2.0, 0.5)))


def dist_strategy(max_atoms: int = 4, value_cap: float = 10.0):
    def build(draw_values, draw_weights):
        values = sorted(set(draw_values))
        weights = draw_weights[: len(values)]
        total = sum(weights)
        atoms = tuple((v, w / total) for v, w in zip(values, weights))
        return DiscreteDistribution(atoms)

    return st.builds(
        build,
        st.lists(
            st.floats(0.0, value_cap, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=max_atoms,
        ),
        st.lists(
            st.floats(0.05, 1.0, allow_subnormal=False),
            min_size=max_atoms,
            max_size=max_atoms,
        ),
    )


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(())

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((2.0, 0.5), (0.0, 0.5)))

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((1.0, 0.5), (1.0, 0.5)))

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((-1.0, 1.0),))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((0.0, 0.3), (1.0, 0.3)))

    def test_rejects_zero_probability_atom(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((0.0, 0.0), (1.0, 1.0)))


class TestExpectedMaxWith:
    def test_interior(self):
        assert expected_max_with(ZERO_TWO, 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_zero_is_mean(self):
        assert expected_max_with(ZERO_TWO, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_floor_dominates(self):
        one = DiscreteDistribution(((1.0, 1.0),))
        assert expected_max_with(one, 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            expected_max_with(ZERO_TWO, -0.5)

    @settings(max_examples=150, deadline=None)
    @given(dist_strategy(), st.floats(0.0, 12.0, allow_subnormal=False), st.floats(0.0, 12.0, allow_subnormal=False))
    def test_monotone_in_floor(self, d, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert expected_max_with(d, lo) <= expected_max_with(d, hi) + 1e-12


class TestInverseTarget:
    def test_already_met_clamps_to_zero(self):
        assert inverse_target(ZERO_TWO, 1.0) == 0.0

    def test_linear_segment(self):
        assert inverse_target(ZERO_TWO, 1.5) == pytest.approx(1.0, abs=1e-9)

    def test_zero_box_identity(self):
        zero = DiscreteDistribution(((0.0, 1.0),))
        assert inverse_target(zero, 0.7) == pytest.approx(0.7, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(dist_strategy(), st.floats(0.0, 15.0, allow_subnormal=False))
    def test_round_trip_and_shrinking(self, d, g):
        x = inverse_target(d, g)
        assert 0.0 <= x <= g
        assert expected_max_with(d, x) >= g - 1e-9
        if x > 1e-6:
            assert expected_max_with(d, x - 1e-6) < g


class TestMaxDistribution:
    def test_mixed_pair(self):
        md = max_distribution([ZERO_TWO, DiscreteDistribution(((1.0, 1.0),))])
        assert md.values == (1.0, 2.0)
        assert md.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_singleton_identity(self):
        three = DiscreteDistribution(((3.0, 1.0),))
        md = max_distribution([three])
        assert md.values == (3.0,) and md.probs == (1.0,)

    def test_iid_pair(self):
        coin = DiscreteDistribution(((0.0, 0.5), (1.0, 0.5)))
        md = max_distribution([coin, coin])
        assert md.values == (0.0, 1.0)
        assert md.probs == pytest.approx((0.25, 0.75), abs=1e-12)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            max_distribution([])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(dist_strategy(max_atoms=3, value_cap=5.0), min_size=1, max_size=4))
    def test_matches_joint_enumeration(self, dists):
        md = max_distribution(dists)
        brute: dict[float, float] = {}
        for combo in itertools.product(*(range(len(d.values)) for d in dists)):
            p = math.prod(d.probs[i] for d, i in zip(dists, combo))
            v = max(d.values[i] for d, i in zip(dists, combo))
            brute[v] = brute.get(v, 0.0) + p
        assert set(md.values) == set(brute)
        for v, p in zip(md.values, md.probs):
            assert p == pytest.approx(brute[v], abs=1e-12)
        assert math.fsum(md.probs) == pytest.approx(1.0, abs=1e-12)


def cdf_product_atoms(dists):
    """Atoms of the max from the product of normalised CDFs over the union support."""
    union = np.unique(np.concatenate([np.asarray(d.values) for d in dists]))
    prod = np.ones(len(union))
    for d in dists:
        cum = np.cumsum(np.asarray(d.probs))
        idx = np.searchsorted(np.asarray(d.values), union, side="right")
        prod *= np.concatenate(([0.0], cum / cum[-1]))[idx]
    pmf = np.diff(prod, prepend=0.0)
    return tuple((float(v), float(p)) for v, p in zip(union.tolist(), pmf.tolist()) if p > 0.0)


def dist_with_zero(max_atoms: int = 4):
    """Like dist_strategy, but atoms at 0 are common."""
    value = st.one_of(
        st.just(0.0), st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False)
    )

    def build(values, weights):
        values = sorted(set(values))
        total = sum(weights[: len(values)])
        return DiscreteDistribution(tuple((v, w / total) for v, w in zip(values, weights)))

    return st.builds(
        build,
        st.lists(value, min_size=1, max_size=max_atoms),
        st.lists(st.floats(0.05, 1.0), min_size=max_atoms, max_size=max_atoms),
    )


class TestMaxDistributionFold:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(dist_with_zero(), min_size=2, max_size=6))
    def test_equals_cdf_product_exactly(self, dists):
        assert max_distribution(dists).atoms == cdf_product_atoms(dists)


class TestScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(dist_with_zero(), min_size=1, max_size=6), st.floats(0.0, 11.0))
    def test_folds_and_picker_equal_the_scalar_reference(self, dists, tau):
        md = max_distribution(dists)
        assert md.atoms == ref.max_distribution(dists).atoms
        choice = best_single_threshold(dists)
        assert choice == ref.best_single_threshold(dists)
        assert type(choice.tau) is float and type(choice.value) is float
        inst = Instance(tuple(Box(f"b{i}", d) for i, d in enumerate(dists)))
        for t in (0.0, tau, *md.values):
            bound = sta_lower_bound(inst, t)
            assert bound == ref.sta_lower_bound(inst, t)
            assert type(bound) is float


def boxes_of_mixed_widths():
    """Lists of boxes from one to four atoms wide, with atoms at 0 common."""
    return st.lists(st.one_of(dist_with_zero(1), dist_with_zero(4)), min_size=1, max_size=6)


def targets_around(d: DiscreteDistribution) -> list[float]:
    """0, the mean, each E[max] mark and one ulp either side of it, and some above the support.

    Each mark comes twice: as the target itself and shifted up by the slack
    that the inversion takes off, so that the slackened target lands on it.
    """
    marks = [y for m in ref.tables(d).emax_at_values for y in (m, m + TARGET_SLACK)]
    around = [math.nextafter(m, side) for m in marks for side in (0.0, math.inf)]
    top = d.values[-1]
    return [0.0, d.mean, *marks, *around, top + 1.0, 2.0 * top + 3.0, 1e6]


class TestBoxTables:
    @settings(max_examples=300, deadline=None)
    @given(boxes_of_mixed_widths())
    def test_rows_equal_the_scalar_tables(self, dists):
        tables = BoxTables.build(dists)
        assert tables.values.shape == (len(dists), max(len(d.atoms) for d in dists) + 1)
        for b, d in enumerate(dists):
            k = len(d.atoms)
            want = ref.tables(d)
            for got, row in ((tables, b), (BoxTables.build([d]), 0)):
                assert got.values[row, :k].tolist() == list(d.values)
                assert got.head_mass[row, : k + 1].tolist() == list(want.head_mass)
                assert got.tail_mean[row, : k + 1].tolist() == list(want.tail_mean)
                assert got.emax_at_values[row, :k].tolist() == list(want.emax_at_values)
                assert np.all(got.values[row, k:] == math.inf)
                assert np.all(got.emax_at_values[row, k:] == math.inf)
            assert d.mean == want.mean and type(d.mean) is float


def gen_instances() -> list[Instance]:
    """Instances as ``perfbench/gen.py`` makes them: 6 atoms a box, probabilities k/1024."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [
        parse_instance(json.dumps(gen.make_instance(random.Random(seed), boxes=boxes, atoms=6)))
        for seed, boxes in ((1, 8), (2, 12), (3, 500))
    ]


class TestBelow:
    def test_equals_bisect_left_on_every_row(self, sweep_instances):
        # ``below`` finds the first entry not below x, which is bisect_left's
        # count only on rows that never decrease: ``values`` rows do by
        # DiscreteDistribution's check, and ``emax_at_values`` is a rounded
        # values * head_mass + tail_mean, so its rows are checked here.
        rng = np.random.default_rng(40)
        instances = [
            *sweep_instances,
            random_instance(rng, 12, max_atoms=6),
            distinct_atoms_instance(),
            *gen_instances(),
        ]
        rows = 0
        for inst in instances:
            tables = BoxTables.build(inst.dists)
            for table in (tables.values, tables.emax_at_values):
                for b, d in enumerate(inst.dists):
                    row = table[b, : len(d.atoms)].tolist()
                    assert all(x <= y for x, y in zip(row, row[1:])), (b, row)
                    xs = [row[0] - 1.0, math.nextafter(row[0], -math.inf), math.inf, math.nan]
                    xs += [y for v in row for y in (math.nextafter(v, -math.inf), v)]
                    xs += [math.nextafter(v, math.inf) for v in row]
                    got = tables.below(table, np.full(len(xs), b), np.array(xs))
                    assert got.tolist() == [bisect_left(row, x) for x in xs], (b, row)
                    rows += 1
        assert rows == 2 * sum(inst.n for inst in instances)


class TestFlatGathers:
    # One 6-atom box and one 1-atom box: the tables are 7 wide, and the
    # 1-atom box's row is its atom, then six pads.
    SIX = DiscreteDistribution(
        tuple(zip((0.5, 1.25, 2.0, 3.5, 5.0, 7.25), (0.1, 0.2, 0.15, 0.25, 0.2, 0.1)))
    )
    ONE = DiscreteDistribution(((3.0, 1.0),))
    INSTANCE = Instance((Box("six", SIX), Box("one", ONE)))

    def test_every_table_is_c_contiguous(self):
        tables = BoxTables.build(self.INSTANCE.dists)
        assert tables.values.shape == (2, 7)
        for name, table in tables._asdict().items():
            assert table.flags.c_contiguous, name
            assert np.shares_memory(table.ravel(), table), name

    def test_the_inversion_at_the_row_edges_equals_the_scalar_reference(self):
        tables = BoxTables.build(self.INSTANCE.dists)
        boxes, targets, want = [], [], []
        for b, d in enumerate(self.INSTANCE.dists):
            top = d.values[-1]
            # The mean, where the index is clamped to 1, and past the last
            # mark, where it is the row's first pad.
            for g in (d.mean, d.mean + TARGET_SLACK, top + 1.0, 2.0 * top + 3.0, 1e6):
                boxes.append(b)
                targets.append(g)
                want.append(ref.inverse_target(d, g))
        boxes, targets = np.array(boxes), np.array(targets)
        index = tables.below(tables.emax_at_values, boxes, targets - TARGET_SLACK)
        assert index.tolist() == [0, 0, 6, 6, 6, 0, 0, 1, 1, 1]
        assert _lane_inverse_target(tables, boxes, targets).tolist() == want

    def test_the_jump_target_past_the_last_atom_equals_the_scalar_reference(self):
        tables = BoxTables.build(self.INSTANCE.dists)
        levels = np.array([[0.0, 0.5, 7.25, 8.0, 20.0], [0.0, 2.5, 3.0, 3.5, 20.0]])
        got = _lane_jump_target(tables, np.arange(2), levels)
        for d, row, got_row in zip(self.INSTANCE.dists, levels.tolist(), got.tolist()):
            assert got_row == [expected_max_with(d, y) + TARGET_SLACK for y in row]

    def test_a_level_of_inf_pulls_back_to_inf_on_every_row(self, sweep_instances):
        # ``_lane_value_cuts`` sets the levels it drops to +inf before the
        # pull-back.  A +inf level lands on its row's first pad, whose head
        # mass is the box's total probability, so it reads +inf, unwarned.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for inst in (*sweep_instances, *gen_instances()):
                tables = BoxTables.build(inst.dists)
                levels = np.full((inst.n, 2), math.inf)
                got = _lane_jump_target(tables, np.arange(inst.n), levels)
                assert got.tolist() == levels.tolist()

    def test_the_backward_pass_at_the_row_edges_equals_the_scalar_reference(self):
        # Thresholds at 0, at each box's first and last atom and one ulp past
        # the last, where the index is the row's first pad, on both orders.
        inst = self.INSTANCE
        taus = [0.0, 0.5, 3.0, 7.25, math.nextafter(7.25, math.inf), math.nextafter(3.0, math.inf)]
        orders = [("six", "one"), ("one", "six")]
        perm = np.array([order_indices(inst, order) for order in orders])
        rows = np.repeat(np.arange(2), len(taus))
        lanes = lane_values("sta", inst, perm, rows, np.tile(taus, 2))
        want = [ref.sta_exact(inst, order, tau).per_stage for order in orders for tau in taus]
        assert [tuple(row) for row in lanes.stages.tolist()] == want
        opt = lane_values("opt", inst, perm, np.arange(2), None)
        assert [tuple(row) for row in opt.stages.tolist()] == [
            ref.opt_online(inst, order).per_stage for order in orders
        ]


class TestInverseTargetMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dist_with_zero(1), dist_with_zero(5), dist_strategy(6, 1e3)))
    def test_equals_the_scalar_reference(self, d):
        for g in targets_around(d):
            assert inverse_target(d, g) == ref.inverse_target(d, g), g


class TestJumpTargetRoundTrip:
    def test_inverting_a_level_above_the_support_gives_it_back(self):
        # Past a box's last atom the inversion solves the segment that the
        # pull-back of the value cuts crosses, slope head_mass[pad], so every
        # level comes back bit for bit.  The probabilities are renormalised
        # draws, so head_mass[pad] and their fsum can differ in the last bit.
        inst = random_instance(np.random.default_rng(30), 3000)
        tables = BoxTables.build(inst.dists)
        boxes = np.arange(inst.n)
        top = np.array([d.values[-1] for d in inst.dists])
        levels = top[:, None] + np.random.default_rng(31).uniform(0.0, 10.0, size=(inst.n, 6))
        g = _lane_jump_target(tables, boxes, levels)
        back = _lane_inverse_target(tables, np.repeat(boxes, 6), g.ravel())
        assert np.count_nonzero(back != levels.ravel()) == 0


class TestSample:
    def test_degenerate(self):
        seven = DiscreteDistribution(((7.0, 1.0),))
        rng = np.random.default_rng(42)
        assert all(v == 7.0 for v in inverse_cdf(seven, rng.random(50)).tolist())

    def test_binomial_concentration(self):
        rng = np.random.default_rng(20260822)
        n = 100_000
        hits = int(np.count_nonzero(inverse_cdf(ZERO_TWO, rng.random(n)) == 2.0))
        sigma = math.sqrt(n * 0.25)
        assert abs(hits - n / 2) <= 3 * sigma

    def test_deterministic_given_seed(self):
        d = DiscreteDistribution(((0.0, 0.25), (1.0, 0.75)))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            runs.append(inverse_cdf(d, rng.random(200)).tolist())
        assert runs[0] == runs[1]

    @settings(max_examples=50, deadline=None)
    @given(dist_strategy(), st.integers(0, 2**32 - 1))
    def test_values_come_from_support(self, d, seed):
        rng = np.random.default_rng(seed)
        for value in inverse_cdf(d, rng.random(20)).tolist():
            assert value in d.values
