"""Small dense simplex solver for the certification programs.

The linear programs here have at most a few thousand variables, so a plain
dense tableau with Bland's anti-cycling rule is both sufficient and easy
to audit.  Problems are stated as: maximize objective . z subject to
rows . z <= rhs and z >= 0.  The tableau is column-major, and pivots reach
it in blocks of DELAY, each block through one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEASIBILITY_TOL = 1e-9
# Largest dual infeasibility and duality gap the optimality post-check accepts.
DUALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
PHASE1_TOL = 1e-8
# Pivots held back before one matrix product applies them all (see _Delayed).
DELAY = 16


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
    returned point fails the independent feasibility or optimality post-check.
    """
    n, m = lp.n_vars, lp.rhs.size

    # Ax + s = b with slacks; flip rows with negative rhs and add artificials.
    # One column-major tableau holds [A | slacks | artificials | b] over the
    # cost row, so each column tile a block of pivots updates is contiguous.
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

    phase1 = 0
    if n_art:
        cost = tableau[m]
        cost[n + m : -1] = 1.0
        cost -= tableau[art_rows].sum(axis=0)
        phase1 = _iterate(tableau, basis)
        if tableau[-1, -1] < -PHASE1_TOL:
            raise InfeasibleError(f"phase-1 infeasibility {-tableau[-1, -1]:.3e}")
        tableau, basis = _drop_artificials(tableau, basis, n + m)

    # Phase 2: minimize -objective, priced out on the rows where z is basic.
    cost = tableau[-1]
    cost[:] = 0.0
    cost[:n] = -lp.objective
    priced = np.flatnonzero(basis < n)
    cost += lp.objective[basis[priced]] @ tableau[priced]
    phase2 = _iterate(tableau, basis)

    z = np.zeros(tableau.shape[1] - 1)
    z[basis] = tableau[:-1, -1]
    solution = z[:n]

    residual = float(np.max(lp.rows @ solution - lp.rhs, initial=0.0))
    if residual > FEASIBILITY_TOL or float(np.min(solution, initial=0.0)) < -FEASIBILITY_TOL:
        raise ArithmeticError(f"solution fails post-check, residual {residual:.3e}")
    value = float(np.dot(lp.objective, solution))
    # The slacks' reduced costs y prove value the maximum by weak duality.
    y = tableau[-1, n : n + m]
    worst = np.max([-y.min(initial=0.0), np.max(lp.objective - y @ lp.rows), lp.rhs @ y - value])
    if not worst <= DUALITY_TOL:
        raise ArithmeticError(f"solution fails the optimality post-check, duality {worst:.3e}")
    return LPSolution(value, tuple(float(v) for v in solution), residual, (phase1, phase2))


def _iterate(tableau: np.ndarray, basis: np.ndarray) -> int:
    """Pivot until no reduced cost is negative; returns the number of pivots."""
    delayed = _Delayed(tableau, basis)
    for pivots in range(200 * (tableau.shape[0] + tableau.shape[1])):
        entering = delayed.read(-1, slice(-1)) < -PIVOT_TOL
        col = int(entering.argmax())  # Bland: lowest eligible index enters
        if not entering[col]:
            delayed.flush()
            return pivots
        column, rhs = delayed.read(slice(-1), [col, -1]).T
        positive = np.flatnonzero(column > PIVOT_TOL)
        if positive.size == 0:
            raise UnboundedError(f"column {col} unbounded")
        ratios = rhs[positive] / column[positive]
        ties = positive[ratios <= ratios.min() + 1e-15]
        row = int(ties[basis[ties].argmin()])  # Bland: lowest basis leaves
        delayed.pivot(row, col)
    raise ArithmeticError("pivot limit exceeded")


class _Delayed:
    """A tableau and up to DELAY pivots not yet applied to it.

    The current tableau is tableau - etas @ rows: pivot j's eta column is the
    entering column with the pivot minus one in the pivot row, and rows[j] is
    its pivot row over the pivot.  ``flush`` applies them in column tiles.
    """

    def __init__(self, tableau: np.ndarray, basis: np.ndarray) -> None:
        self.tableau, self.basis, self.k = tableau, basis, 0
        self.etas = np.empty((tableau.shape[0], DELAY), order="F")
        self.rows = np.empty((DELAY, tableau.shape[1]))
        self.tile = np.empty((tableau.shape[0], 2 * DELAY), order="F")

    def read(self, i, j) -> np.ndarray:
        """The current tableau[i, j], for one row i or a few columns j."""
        return self.tableau[i, j] - self.etas[i, : self.k] @ self.rows[: self.k, j]

    def pivot(self, row: int, col: int) -> None:
        pivot_row, eta = self.read(row, slice(None)), self.read(slice(None), col)
        eta[row] = pivot_row[col] - 1.0
        self.rows[self.k], self.etas[:, self.k] = pivot_row / pivot_row[col], eta
        self.basis[row], self.k = col, self.k + 1
        if self.k == DELAY:
            self.flush()

    def flush(self) -> None:
        etas, rows, width = self.etas[:, : self.k], self.rows[: self.k], self.tile.shape[1]
        for a in range(0, self.tableau.shape[1], width):
            block = self.tableau[:, a : a + width]
            product = self.tile[:, : block.shape[1]]
            np.matmul(etas, rows[:, a : a + width], out=product)
            block -= product
        self.k = 0


def _drop_artificials(
    tableau: np.ndarray, basis: np.ndarray, first_art: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pivot zero-level artificials out of the basis, then cut their columns.

    No row is ever redundant here.  A flipped row's slack column starts as
    the negation of its artificial's column, and pivots apply the same row
    operations to both, so they stay negations up to rounding.  A basic
    artificial's column is the unit vector of its row, so that row holds
    about -1 in the slack column, below ``first_art``: it always has a pivot.
    """
    delayed = _Delayed(tableau, basis)
    for i in np.flatnonzero(basis >= first_art):
        pivots = np.flatnonzero(np.abs(delayed.read(i, slice(first_art))) > PIVOT_TOL)
        delayed.pivot(i, int(pivots[0]))
    delayed.flush()
    # Move b next to the last kept column; the slice stays column-major.
    tableau[:, first_art] = tableau[:, -1]
    return tableau[:, : first_art + 1], basis
