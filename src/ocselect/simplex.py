"""Small dense simplex solver for the certification programs.

The linear programs here have at most a few thousand variables, so a plain
dense tableau with Bland's anti-cycling rule is both sufficient and easy
to audit.  Problems are stated as: maximize objective . z subject to
rows . z <= rhs and z >= 0.  The tableau is column-major, and a pivot
updates only the columns where its pivot row is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-10
PHASE1_TOL = 1e-8
# Columns per multiply/subtract pass of a pivot.
PIVOT_BLOCK = 64


class InfeasibleError(ValueError):
    """The constraint set admits no nonnegative solution."""


class UnboundedError(ValueError):
    """The objective is unbounded above on the feasible set."""


@dataclass(frozen=True, eq=False)
class FiniteLP:
    """maximize objective . z  subject to  rows . z <= rhs,  z >= 0.

    The fields accept any nested sequences and hold read-only float64
    arrays: objective (n), rows (m x n) and rhs (m).
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        objective, rows, rhs = map(_frozen_array, (self.objective, self.rows, self.rhs))
        n = objective.size
        if objective.ndim != 1 or n == 0:
            raise ValueError("LP needs at least one variable")
        if rhs.ndim != 1 or len(rows) != rhs.size:
            raise ValueError("row/rhs count mismatch")
        if rows.size == 0:
            rows = rows.reshape(0, n)
        if rows.shape != (rhs.size, n):
            raise ValueError("row width does not match variable count")
        if not all(np.isfinite(array).all() for array in (objective, rows, rhs)):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_vars(self) -> int:
        return self.objective.size


def _frozen_array(data) -> np.ndarray:
    array = np.array(data, dtype=float)
    array.flags.writeable = False
    return array


class LPSolution(NamedTuple):
    value: float
    solution: tuple[float, ...]
    # Largest violation of rows . z <= rhs at the returned point (>= 0).
    residual: float
    # Bland pivots taken in phase 1 and phase 2 (0 in phase 1 without artificials).
    pivots: tuple[int, int]


def simplex_solve(lp: FiniteLP) -> LPSolution:
    """Two-phase dense simplex with Bland's rule.

    Raises InfeasibleError / UnboundedError, and ArithmeticError if the
    returned point fails the independent feasibility post-check.
    """
    n = lp.n_vars
    m = lp.rhs.size

    # Ax + s = b with slacks; flip rows with negative rhs and add artificials.
    # One column-major tableau holds [A | slacks | artificials | b] over the
    # cost row, so each column a pivot updates is contiguous.
    flip = lp.rhs < 0.0
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    tableau = np.zeros((m + 1, n + m + n_art + 1), order="F")
    tableau[:m, :n] = lp.rows
    tableau[art_rows, :n] = -lp.rows[art_rows]
    tableau[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    tableau[art_rows, n + m + np.arange(n_art)] = 1.0
    tableau[:m, -1] = np.where(flip, -lp.rhs, lp.rhs)
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)

    if n_art:
        cost = tableau[m]
        cost[n + m : -1] = 1.0
        for i in art_rows:
            cost -= tableau[i]
        phase1 = _iterate(tableau, basis)
        if tableau[-1, -1] < -PHASE1_TOL:
            raise InfeasibleError(f"phase-1 infeasibility {-tableau[-1, -1]:.3e}")
        tableau, basis = _drop_artificials(tableau, basis, n + m)
    else:
        phase1 = 0

    # Phase 2: minimize -objective.
    cost = tableau[-1]
    cost[:] = 0.0
    cost[:n] = -lp.objective
    for i in np.flatnonzero(basis < n):
        coef = -lp.objective[basis[i]]
        if coef != 0.0:
            cost -= coef * tableau[i]
    phase2 = _iterate(tableau, basis)

    z = np.zeros(tableau.shape[1] - 1)
    z[basis] = tableau[:-1, -1]
    solution = z[:n]

    residual = float(np.max(lp.rows @ solution - lp.rhs, initial=0.0))
    if residual > FEASIBILITY_TOL or float(np.min(solution, initial=0.0)) < -FEASIBILITY_TOL:
        raise ArithmeticError(f"solution fails post-check, residual {residual:.3e}")
    value = float(np.dot(lp.objective, solution))
    return LPSolution(value, tuple(float(v) for v in solution), residual, (phase1, phase2))


def _iterate(tableau: np.ndarray, basis: np.ndarray) -> int:
    """Pivot until no reduced cost is negative; returns the number of pivots."""
    m = tableau.shape[0] - 1
    limit = 200 * (tableau.shape[0] + tableau.shape[1])
    for pivots in range(limit):
        entering = tableau[-1, :-1] < -PIVOT_TOL
        col = int(entering.argmax())  # Bland: lowest eligible index enters
        if not entering[col]:
            return pivots
        column = tableau[:m, col]
        positive = np.flatnonzero(column > PIVOT_TOL)
        if positive.size == 0:
            raise UnboundedError(f"column {col} unbounded")
        ratios = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-15]
        row = int(ties[basis[ties].argmin()])  # Bland: lowest basis leaves
        _pivot(tableau, basis, row, col)
    raise ArithmeticError("pivot limit exceeded")


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Eliminate column ``col`` with pivot row ``row`` of a column-major tableau.

    Each updated entry gets t - f * p, rounded as the dense rank-1 update
    rounds it.  Columns where the pivot row is exactly zero would only have
    zero subtracted, so they are skipped; the nonzero runs are updated
    PIVOT_BLOCK columns at a time through one scratch buffer.
    """
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row].copy()
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    scratch = np.empty((factors.size, PIVOT_BLOCK), order="F")
    nonzero = np.zeros(pivot_row.size + 2, dtype=bool)
    nonzero[1:-1] = pivot_row != 0.0
    edges = np.flatnonzero(nonzero[1:] != nonzero[:-1]).tolist()
    for start, stop in zip(edges[::2], edges[1::2]):
        for a in range(start, stop, PIVOT_BLOCK):
            b = min(a + PIVOT_BLOCK, stop)
            block = scratch[:, : b - a]
            np.multiply(factors[:, None], pivot_row[a:b], out=block)
            tableau[:, a:b] -= block
    basis[row] = col


def _drop_artificials(
    tableau: np.ndarray, basis: np.ndarray, first_art: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pivot zero-level artificials out of the basis, then cut their columns.

    No row is ever redundant here.  A flipped row's slack column starts as
    the exact negation of its artificial's column, and every pivot rounds
    both the same way (division and t - f * p are symmetric under negation),
    so they stay exact negations.  A basic artificial's column is the unit
    vector of the row it is basic in, so that row holds -1 in the
    artificial's slack column, below ``first_art``, and always has a pivot.
    """
    for i in np.flatnonzero(basis >= first_art):
        pivots = np.flatnonzero(np.abs(tableau[i, :first_art]) > PIVOT_TOL)
        _pivot(tableau, basis, i, int(pivots[0]))
    # Move b next to the last kept column; the slice stays column-major.
    tableau[:, first_art] = tableau[:, -1]
    return tableau[:, : first_art + 1], basis
