"""Closed-form densities for drawing the initial target fraction.

A randomized run draws x from one of these densities and starts the
targeted policy at g0 = x * E[max].  Both shipped densities live on
[1/2, 1] and are built from two kernels, coef/(2x-1) and coef/x; one
closed-form integrator serves the CDF, the normalisation and the checks.

The constants c (left edge of the positive part) and gamma (the ratio the
density certifies) come from one-dimensional root finding; the defining
residual equations are monotone on the documented brackets.  The guarantee
check takes its minimum at a handful of breakpoints, with no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

ROOT_TOL = 1e-12
NORMALIZATION_TOL = 1e-8
EDGE_TOL = 1e-12

PHI = (1.0 + math.sqrt(5.0)) / 2.0

PIECE_INV_SHIFTED = "reciprocal_2x_minus_1"
PIECE_INV = "reciprocal_x"

WEIGHT_ONE = "one"
WEIGHT_X = "x"
WEIGHT_ONE_MINUS_X = "one_minus_x"

# Each weight's value at x, which is also its integral against a point mass at x.
_WEIGHTS = {
    WEIGHT_ONE: lambda x: 1.0,
    WEIGHT_X: lambda x: x,
    WEIGHT_ONE_MINUS_X: lambda x: 1.0 - x,
}

ENVELOPE_TVA = "tva"
ENVELOPE_TVD = "tvd"


@dataclass(frozen=True)
class DensityPiece:
    """One smooth positive piece: pdf(x) = coefficient * kernel(kind) on [lo, hi)."""

    kind: str
    lo: float
    hi: float
    coefficient: float

    def __post_init__(self) -> None:
        if self.kind not in (PIECE_INV_SHIFTED, PIECE_INV):
            raise ValueError(f"unknown piece kind: {self.kind!r}")
        if not (0.5 - EDGE_TOL <= self.lo < self.hi <= 1.0 + EDGE_TOL):
            raise ValueError(f"piece [{self.lo}, {self.hi}] not inside [1/2, 1]")
        if not (self.coefficient > 0.0):
            raise ValueError(f"coefficient must be positive: {self.coefficient!r}")
        if self.kind == PIECE_INV_SHIFTED and self.lo <= 0.5:
            raise ValueError("kernel 1/(2x-1) needs lo > 1/2")


@dataclass(frozen=True)
class DensitySpec:
    """A density on [1/2, 1], or a single point mass.

    ``pieces`` are the density's positive pieces, sorted and not
    overlapping; the density is zero off them.  They must integrate to one.
    A point-mass spec carries no pieces; it represents the deterministic
    choice of the target fraction and is exempt from the pdf machinery.
    """

    name: str
    pieces: tuple[DensityPiece, ...]
    gamma: float | None = None
    point_mass: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("density needs a name")
        if self.point_mass is not None:
            if self.pieces:
                raise ValueError("point mass and pieces are mutually exclusive")
            if not (0.0 <= self.point_mass <= 1.0):
                raise ValueError(f"point mass outside [0, 1]: {self.point_mass!r}")
            return
        if not self.pieces:
            raise ValueError("density needs pieces or a point mass")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if right.lo < left.hi:
                pair = f"[{left.lo}, {left.hi}] then [{right.lo}, {right.hi}]"
                raise ValueError(f"pieces must be sorted and must not overlap: {pair}")
        mass = integrate_weighted(self, WEIGHT_ONE, 0.5, 1.0)
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density mass {mass!r} is not 1")

    @property
    def c(self) -> float | None:  # the left edge of the positive part
        return self.pieces[0].lo if self.pieces else None


class GuaranteeCheck(NamedTuple):
    min_ratio: float
    argmin_y: float


def bisect_decreasing(residual, lo: float, hi: float) -> float:
    """Root of a decreasing residual, bisected to float resolution."""
    r_lo = residual(lo)
    r_hi = residual(hi)
    if not (r_lo > 0.0 > r_hi):
        raise ValueError("bracket does not straddle the root")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(residual(root)) > ROOT_TOL:
        raise ArithmeticError(f"residual {residual(root)!r} above tolerance")
    return root


@lru_cache(maxsize=1)
def solve_c_656() -> tuple[float, float]:
    """Left edge and ratio of the one-kernel density.

    c solves ln(1/(2c-1)) - 2c = 2; the gamma below is equivalent to
    1/(1+c) after substituting the defining equation.
    """
    c = bisect_decreasing(lambda t: math.log(1.0 / (2.0 * t - 1.0)) - 2.0 * t - 2.0, 0.51, 0.75)
    gamma = 2.0 / math.log(1.0 / (2.0 * c - 1.0))
    return c, gamma


@lru_cache(maxsize=1)
def solve_c_732() -> tuple[float, float]:
    """Left edge and ratio of the two-kernel density.

    c solves 1/(6c-3) = e^(2c) on (1/2, 2/3)."""
    c = bisect_decreasing(
        lambda t: 1.0 / (6.0 * t - 3.0) - math.exp(2.0 * t), 0.5 + 1e-6, 2.0 / 3.0
    )
    gamma = -2.0 / math.log((16.0 / 27.0) * (2.0 * c - 1.0))
    return c, gamma


@lru_cache(maxsize=1)
def rho_656() -> DensitySpec:
    c, gamma = solve_c_656()
    return DensitySpec(
        name="rho-656",
        pieces=(DensityPiece(PIECE_INV_SHIFTED, c, 1.0, gamma),),
        gamma=gamma,
    )


@lru_cache(maxsize=1)
def rho_732() -> DensitySpec:
    c, gamma = solve_c_732()
    return DensitySpec(
        name="rho-732",
        pieces=(
            DensityPiece(PIECE_INV_SHIFTED, c, 2.0 / 3.0, gamma),
            DensityPiece(PIECE_INV, 2.0 / 3.0, 1.0, 2.0 * gamma),
        ),
        gamma=gamma,
    )


def point_density(fraction: float, name: str | None = None) -> DensitySpec:
    """Deterministic target fraction as a degenerate density."""
    return DensitySpec(name=name or f"point-{fraction:.6g}", pieces=(), point_mass=fraction)


def _piece_integral(piece: DensityPiece, weight: str, lo: float, hi: float | np.ndarray):
    """The module's one integrator: weight(x) * pdf over [lo, hi] ∩ piece, in closed form.

    hi is a float or a 1-D array, whose entries each take ``math.log`` of one
    float and so get a one-entry call's bits.  An upper end at or below the
    piece's start reads an exact 0.0 (an array entry is raised to the start)."""
    a = max(lo, piece.lo)
    if isinstance(hi, np.ndarray):
        b = np.maximum(np.minimum(hi, piece.hi), a)
        log = lambda t: np.fromiter(map(math.log, memoryview(t)), float, len(t))
    else:
        b, log = min(hi, piece.hi), math.log
        if b <= a:
            return 0.0
    k = piece.coefficient
    if piece.kind == PIECE_INV_SHIFTED:
        la, lb = math.log(2.0 * a - 1.0), log(2.0 * b - 1.0)
        if weight == WEIGHT_ONE:
            return k * 0.5 * (lb - la)
        if weight == WEIGHT_X:
            return k * ((b - a) / 2.0 + (lb - la) / 4.0)
        if weight == WEIGHT_ONE_MINUS_X:
            return k * ((lb - la) / 4.0 - (b - a) / 2.0)
    else:
        la, lb = math.log(a), log(b)
        if weight == WEIGHT_ONE:
            return k * (lb - la)
        if weight == WEIGHT_X:
            return k * (b - a)
        if weight == WEIGHT_ONE_MINUS_X:
            return k * ((lb - la) - (b - a))
    raise ValueError(f"unknown weight: {weight!r}")


def integrate_weighted(spec: DensitySpec, weight: str, lo: float, hi: float | np.ndarray):
    """∫ weight(x) ρ(x) dx over [lo, hi], the pieces' ``_piece_integral`` summed in piece order.

    A density with pieces also takes a 1-D array hi: one integral per entry.
    """
    if weight not in _WEIGHTS:
        raise ValueError(f"unknown weight: {weight!r}")
    if spec.point_mass is not None:
        return _WEIGHTS[weight](spec.point_mass) if lo <= spec.point_mass <= hi else 0.0
    return sum(_piece_integral(p, weight, lo, hi) for p in spec.pieces)


def density_cdf(spec: DensitySpec, x: float | np.ndarray) -> float | np.ndarray:
    """CDF at x, or at each entry of an array x.

    0 at x <= 1/2, else the weight-one ``integrate_weighted`` from 1/2 to
    min(x, 1), capped at 1; a point mass p steps from 0 to 1 at p."""
    xs = np.asarray(x, dtype=float)
    if spec.point_mass is not None:
        cdf = np.where(xs >= spec.point_mass, 1.0, 0.0)
    else:
        top = np.minimum(xs, 1.0).reshape(-1)
        mass = integrate_weighted(spec, WEIGHT_ONE, 0.5, top).reshape(xs.shape)
        cdf = np.where(xs <= 0.5, 0.0, np.minimum(mass, 1.0))
    return float(cdf) if cdf.ndim == 0 else cdf


def _floor(envelope: str, x: float) -> float:
    """What an overestimated target x still delivers, as a fraction of the optimum."""
    return 1.0 - x if envelope == ENVELOPE_TVA else max(1.0 - x, x / 2.0)


def _envelope_integral(spec: DensitySpec, envelope: str, y: float) -> float:
    """∫ over x ≤ y of x ρ plus ∫ over x > y of the overestimation floor."""
    if spec.point_mass is not None:
        x = spec.point_mass
        return x if x <= y else _floor(envelope, x)
    taken = integrate_weighted(spec, WEIGHT_X, 0.5, y)
    if envelope == ENVELOPE_TVA:
        return taken + integrate_weighted(spec, WEIGHT_ONE_MINUS_X, y, 1.0)
    split = max(y, 2.0 / 3.0)
    return (
        taken
        + integrate_weighted(spec, WEIGHT_ONE_MINUS_X, y, split)
        + integrate_weighted(spec, WEIGHT_X, split, 1.0) / 2.0
    )


def verify_guarantee(spec: DensitySpec, lower_envelope: str) -> GuaranteeCheck:
    """Infimum over y in [1/2, 1] of (certified lower bound at y) / y.

    y is the scaled online optimum.  A draw x ≤ y delivers x; beyond y the
    overestimation floor applies: 1-x under tva, max(1-x, x/2) under tvd.
    With F(y) that bound, F' = (2y-1)ρ, or (y/2)ρ above 2/3 under tvd, and
    (F/y)' has the sign of G = yF' - F, where G' = yF''.  Per piece, cut at
    2/3 under tvd: coef/(2y-1) below the cut and coef/y above it make F
    affine, so F/y is monotone; coef/(2y-1) above 2/3 has F'' < 0, so F/y
    rises, then falls; coef/y below the cut has F'' > 0, so F/y falls, then
    rises, bottoming out at yF' = F, y* = lo exp(F(lo)/coef - 2 lo + 1).  F is
    constant off the pieces, so F/y falls there.  F is continuous, so the
    minimum is at 1/2, 1, a piece edge, 2/3 (tvd) or a y* inside its piece.
    A point mass p makes F/y fall on [1/2, p) and on [p, 1]: the infimum is
    at 1/2, at 1, or the left limit floor(p)/p at y = p, never attained.
    """
    if lower_envelope not in (ENVELOPE_TVA, ENVELOPE_TVD):
        raise ValueError(f"unknown envelope: {lower_envelope!r}")
    cut = 2.0 / 3.0 if lower_envelope == ENVELOPE_TVD else 1.0
    ys = {0.5, 1.0, cut}
    for piece in spec.pieces:
        ys.update((piece.lo, piece.hi))
        if piece.kind == PIECE_INV and piece.lo < cut:
            f_lo = _envelope_integral(spec, lower_envelope, piece.lo)
            y_star = piece.lo * math.exp(f_lo / piece.coefficient - 2.0 * piece.lo + 1.0)
            if piece.lo < y_star < min(piece.hi, cut):
                ys.add(y_star)
    candidates = [
        (_envelope_integral(spec, lower_envelope, y) / y, y)
        for y in sorted(min(max(y, 0.5), 1.0) for y in ys)
    ]
    p = spec.point_mass
    if p is not None and p > 0.5:
        candidates.append((_floor(lower_envelope, p) / p, p))
    # argmin of an array holding a NaN is the NaN, so a NaN ratio is reported.
    return GuaranteeCheck(*candidates[int(np.argmin([ratio for ratio, _ in candidates]))])
