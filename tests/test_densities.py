"""Closed-form starting-target densities: constants, pieces, guarantees, CDF."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import scalar_reference as ref
from conftest import gapped_density, short_density
from ocselect import (
    DensityPiece,
    DensitySpec,
    density_cdf,
    integrate_weighted,
    point_density,
    rho_656,
    rho_732,
    solve_c_656,
    solve_c_732,
    verify_guarantee,
)
from ocselect.densities import (
    ENVELOPE_TVA,
    ENVELOPE_TVD,
    PIECE_INV,
    PIECE_INV_SHIFTED,
    _WEIGHTS,
    _envelope_integral,
)


class TestConstants656:
    def test_c_matches_published_decimal(self):
        c, _ = solve_c_656()
        assert c == pytest.approx(0.523, abs=1e-3)

    def test_root_residual(self):
        c, _ = solve_c_656()
        assert abs(math.log(1.0 / (2.0 * c - 1.0)) - 2.0 * c - 2.0) < 1e-10

    def test_gamma_identity(self):
        # Substituting the root equation into gamma = 2/ln(1/(2c-1)) collapses
        # it to 1/(1+c).
        c, gamma = solve_c_656()
        assert gamma == pytest.approx(1.0 / (1.0 + c), abs=1e-10)
        assert gamma == pytest.approx(0.656, abs=5e-3)


class TestConstants732:
    def test_c_matches_published_decimal(self):
        c, _ = solve_c_732()
        assert c == pytest.approx(0.555, abs=1e-3)

    def test_gamma_matches_published_decimal(self):
        _, gamma = solve_c_732()
        assert gamma == pytest.approx(0.732, abs=1e-3)

    def test_root_residual(self):
        c, _ = solve_c_732()
        assert abs(1.0 / (6.0 * c - 3.0) - math.exp(2.0 * c)) < 1e-10


def pdf(spec: DensitySpec, x: float) -> float:
    """The density at x from its pieces' closed forms; pieces are [lo, hi), 0.0 off them."""
    piece = next((p for p in spec.pieces if p.lo <= x < p.hi or x == p.hi == 1.0), None)
    if piece is None:
        return 0.0
    return piece.coefficient / (2.0 * x - 1.0 if piece.kind == PIECE_INV_SHIFTED else x)


class TestDensityPdf:
    def test_656_zero_below_c(self):
        assert pdf(rho_656(), 0.5) == 0.0
        assert pdf(rho_656(), 0.51) == 0.0

    def test_656_at_one(self):
        _, gamma = solve_c_656()
        assert pdf(rho_656(), 1.0) == pytest.approx(gamma, abs=1e-12)

    def test_732_at_one(self):
        _, gamma = solve_c_732()
        assert pdf(rho_732(), 1.0) == pytest.approx(2.0 * gamma, abs=1e-12)

    def test_732_has_jump_at_two_thirds(self):
        spec = rho_732()
        gamma = spec.gamma
        left = pdf(spec, 2.0 / 3.0)
        right = pdf(spec, 2.0 / 3.0 + 1e-9)
        assert left == pytest.approx(gamma / (2.0 * (2.0 / 3.0) - 1.0), rel=1e-6)
        assert right == pytest.approx(2.0 * gamma / (2.0 / 3.0), rel=1e-6)


class TestNormalization:
    @pytest.mark.parametrize("spec_factory", [rho_656, rho_732])
    def test_total_mass_one(self, spec_factory):
        mass = integrate_weighted(spec_factory(), "one", 0.5, 1.0)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_spec_validation_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="is not 1"):
            DensitySpec(
                name="broken",
                pieces=(DensityPiece("reciprocal_x", 0.75, 1.0, coefficient=1.0),),
            )

    def test_pieces_must_not_overlap(self):
        with pytest.raises(ValueError, match="must not overlap"):
            DensitySpec(
                name="overlapping",
                pieces=(
                    DensityPiece("reciprocal_x", 0.7, 0.85, coefficient=3.47),
                    DensityPiece("reciprocal_x", 0.8, 1.0, coefficient=3.47),
                ),
            )

    def test_pieces_must_be_sorted(self):
        late, early = gapped_density().pieces[::-1]
        with pytest.raises(ValueError, match="pieces must be sorted"):
            DensitySpec(name="unsorted", pieces=(late, early))

    def test_zero_is_not_a_piece_kind(self):
        with pytest.raises(ValueError, match="unknown piece kind: 'zero'"):
            DensityPiece("zero", 0.5, 0.55, coefficient=1.0)


ZERO_STRETCHES = [gapped_density(), short_density()]


class TestZeroOffThePieces:
    """A gap between two pieces, and a last piece that ends below 1."""

    @pytest.mark.parametrize("spec", ZERO_STRETCHES, ids=lambda spec: spec.name)
    @pytest.mark.parametrize("weight", list(_WEIGHTS))
    def test_nothing_off_the_pieces(self, spec, weight):
        # Off the pieces: from 1/2 to the first, across the gap, past the end.
        edges = [0.5, *(e for p in spec.pieces for e in (p.lo, p.hi)), 1.0]
        for a, b in zip(edges[::2], edges[1::2]):
            assert integrate_weighted(spec, weight, a, b) == 0.0
            assert density_cdf(spec, np.array([a, b])).tolist() == [density_cdf(spec, a)] * 2
        pieces = [integrate_weighted(spec, weight, p.lo, p.hi) for p in spec.pieces]
        assert integrate_weighted(spec, weight, 0.5, 1.0) == sum(pieces)
        assert all(part > 0.0 for part in pieces)


class TestIntegrateWeighted:
    @pytest.mark.parametrize("spec_factory", [rho_656, rho_732, gapped_density, short_density])
    @pytest.mark.parametrize("weight", list(_WEIGHTS))
    def test_an_array_of_upper_ends_gets_each_scalar_integral(self, spec_factory, weight):
        spec = spec_factory()
        ends = cdf_probes(spec)
        for lo in (0.5, spec.pieces[0].lo, 0.6, 2.0 / 3.0, 0.9):
            want = [integrate_weighted(spec, weight, lo, hi) for hi in ends]
            assert integrate_weighted(spec, weight, lo, np.array(ends)).tolist() == want

    @pytest.mark.parametrize("weight", list(_WEIGHTS))
    def test_point_mass_counts_only_inside_the_bounds(self, weight):
        spec = point_density(0.7)
        value = {"one": 1.0, "x": 0.7, "one_minus_x": 1.0 - 0.7}[weight]
        for lo, hi in ((0.5, 1.0), (0.7, 0.7), (0.5, 0.7), (0.7, 1.0)):
            assert integrate_weighted(spec, weight, lo, hi) == value
        for lo, hi in ((0.5, 0.6), (0.71, 1.0), (0.8, 0.6)):
            assert integrate_weighted(spec, weight, lo, hi) == 0.0


class TestVerifyGuarantee:
    def test_732_meets_its_envelope(self):
        spec = rho_732()
        check = verify_guarantee(spec, ENVELOPE_TVD)
        assert check.min_ratio >= spec.gamma - 1e-6

    def test_656_meets_its_envelope_with_equality_band(self):
        spec = rho_656()
        check = verify_guarantee(spec, ENVELOPE_TVA)
        assert check.min_ratio >= spec.gamma - 1e-6
        assert check.min_ratio - spec.gamma <= 1e-4
        assert check.argmin_y >= spec.c - 1e-3

    def test_656_under_dominating_envelope(self):
        spec = rho_656()
        check = verify_guarantee(spec, ENVELOPE_TVD)
        assert check.min_ratio >= 0.656

    def test_point_mass_guarantee_is_its_consistency_value(self):
        # All mass at y0: for y < y0 the LHS is the envelope floor; the
        # exact infimum is pinned in TestGuaranteeAgainstDenseScan, so just
        # require the check to run and stay in (0, 1].
        check = verify_guarantee(point_density(0.8), ENVELOPE_TVD)
        assert 0.0 < check.min_ratio <= 1.0


def dense_scan(spec, envelope, points=200_001):
    """The grid scan verify_guarantee once ran, kept as an oracle."""
    best, best_y = math.inf, 0.5
    for y in np.linspace(0.5, 1.0, points):
        ratio = _envelope_integral(spec, envelope, float(y)) / float(y)
        if ratio < best:
            best, best_y = ratio, float(y)
    return best, best_y


def reciprocal_tail(lo):
    """coef/x on [lo, 1], zero below: under tva, F/y has an interior minimum."""
    coefficient = 1.0 / math.log(1.0 / lo)
    return DensitySpec(
        name=f"reciprocal-from-{lo}",
        pieces=(DensityPiece("reciprocal_x", lo, 1.0, coefficient=coefficient),),
    )


class TestGuaranteeAgainstDenseScan:
    @pytest.mark.parametrize(
        "spec_factory, envelope",
        [
            (rho_656, ENVELOPE_TVA),
            (rho_732, ENVELOPE_TVD),
            (rho_656, ENVELOPE_TVD),
            (functools.partial(reciprocal_tail, 0.55), ENVELOPE_TVA),
            (functools.partial(reciprocal_tail, 0.55), ENVELOPE_TVD),
            (gapped_density, ENVELOPE_TVA),
            (gapped_density, ENVELOPE_TVD),
            (short_density, ENVELOPE_TVA),
            (short_density, ENVELOPE_TVD),
        ],
        ids=[
            "656-tva",
            "732-tvd",
            "656-tvd",
            "reciprocal-tva",
            "reciprocal-tvd",
            "gapped-tva",
            "gapped-tvd",
            "short-tva",
            "short-tvd",
        ],
    )
    def test_density_minimum_is_a_breakpoint_value(self, spec_factory, envelope):
        spec = spec_factory()
        check = verify_guarantee(spec, envelope)
        grid_min, _ = dense_scan(spec, envelope)
        assert check.min_ratio <= grid_min + 4 * math.ulp(grid_min)
        y = check.argmin_y
        assert check.min_ratio == _envelope_integral(spec, envelope, y) / y

    def test_interior_stationary_point_is_found(self):
        # F(0.55) = 1 - 0.45 k, so y* = 0.55 exp(1/k - 0.55) = exp(-0.55).
        check = verify_guarantee(reciprocal_tail(0.55), ENVELOPE_TVA)
        assert check.argmin_y == pytest.approx(math.exp(-0.55), abs=1e-12)
        assert check.argmin_y == pytest.approx(0.5769, abs=1e-4)

    @pytest.mark.parametrize(
        "p, envelope, expected",
        [
            # F/y falls on [p, 1], so at or below 1/2 the minimum is p/1.
            (0.5, ENVELOPE_TVA, (0.5, 1.0)),
            (0.5, ENVELOPE_TVD, (0.5, 1.0)),
            (0.6, ENVELOPE_TVA, (0.6, 1.0)),
            (0.6, ENVELOPE_TVD, (0.6, 1.0)),
            # The left limit floor(p)/p at y = p.  The stored 0.8 lies just
            # above 4/5, so (1-p)/p is the float just under 0.25.
            (0.8, ENVELOPE_TVA, ((1.0 - 0.8) / 0.8, 0.8)),
            (0.8, ENVELOPE_TVD, (0.5, 0.8)),
            # tva's floor 1-p is 0 at p = 1, attained already at y = 1/2.
            (1.0, ENVELOPE_TVA, (0.0, 0.5)),
            (1.0, ENVELOPE_TVD, (0.5, 1.0)),
        ],
    )
    def test_point_mass_infimum(self, p, envelope, expected):
        spec = point_density(p)
        check = verify_guarantee(spec, envelope)
        assert check == expected
        grid_min, _ = dense_scan(spec, envelope)
        assert check.min_ratio <= grid_min + 4 * math.ulp(grid_min)


class TestCdf:
    def test_cdf_monotone_and_normalized(self):
        spec = rho_732()
        xs = np.linspace(0.5, 1.0, 501)
        vals = [density_cdf(spec, float(x)) for x in xs]
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def cdf_probes(spec: DensitySpec) -> list[float]:
    """x at and below 1/2, at and next to each piece edge, above 1, and at random."""
    edges = sorted({p.lo for p in spec.pieces} | {p.hi for p in spec.pieces} | {2.0 / 3.0})
    near = [math.nextafter(e, d) for e in edges for d in (0.0, 2.0)]
    rng = np.random.default_rng(14)
    return [-1.0, 0.0, 0.25, 0.5, *edges, *near, 1.0 + 1e-9, 1.5, *rng.uniform(0.45, 1.05, 2000)]


class TestArrayCdf:
    @pytest.mark.parametrize("spec_factory", [rho_656, rho_732, gapped_density, short_density])
    def test_equals_the_scalar_reference_bit_for_bit(self, spec_factory):
        spec = spec_factory()
        xs = cdf_probes(spec)
        want = [ref.density_cdf(spec, x) for x in xs]
        # The weight-one integral from 1/2, capped at 1, is 0.0 at x <= 1/2 too.
        assert want == [min(1.0, integrate_weighted(spec, "one", 0.5, min(x, 1.0))) for x in xs]
        assert density_cdf(spec, np.array(xs)).tolist() == want
        assert [density_cdf(spec, x) for x in xs] == want

    def test_point_mass(self):
        spec = point_density(0.7)
        xs = [0.0, 0.5, math.nextafter(0.7, 0.0), 0.7, math.nextafter(0.7, 1.0), 1.0, 2.0]
        want = [ref.density_cdf(spec, x) for x in xs]
        assert want == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        assert density_cdf(spec, np.array(xs)).tolist() == want

    @pytest.mark.parametrize("spec", [rho_656(), rho_732(), point_density(0.7)])
    def test_a_scalar_gives_a_python_float(self, spec):
        for x in (0.3, 0.6, 0.9, 1.2, np.float64(0.8)):
            got = density_cdf(spec, x)
            assert type(got) is float and got == ref.density_cdf(spec, float(x))
