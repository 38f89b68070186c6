"""Small dense simplex solver for the certification programs.

The linear programs here have at most a few thousand variables, so a plain
dense tableau with Bland's anti-cycling rule is both sufficient and easy
to audit.  Problems are stated as: maximize objective . z subject to
rows . z <= rhs and z >= 0, with rhs >= 0, so z = 0 is feasible and one
phase of pivots from the slack basis solves them.  The tableau is
condensed (one column per nonbasic variable) and column-major, and pivots
reach it in blocks of DELAY, each block through one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEASIBILITY_TOL = 1e-9
# Largest dual infeasibility and duality gap the optimality post-check accepts.
DUALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
# Pivots held back before one matrix product applies them all (see _Delayed).
DELAY = 16


class UnboundedError(ArithmeticError):
    """Unbounded objective: every program built here is bounded, so a numerical failure."""


@dataclass(frozen=True, eq=False)
class FiniteLP:
    """maximize objective . z  subject to  rows . z <= rhs,  z >= 0.

    The fields accept any nested sequences and hold read-only float64
    arrays: objective (n), rows (m x n) and rhs (m).  Every entry is
    finite and every rhs entry is at least 0, so z = 0 is feasible.
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
        if (rhs < 0.0).any():
            raise ValueError("LP rhs must be nonnegative")
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
    # Bland pivots taken from the slack basis to the optimum.
    pivots: int


def simplex_solve(lp: FiniteLP) -> LPSolution:
    """One-phase dense simplex with Bland's rule, from the slack basis.

    FiniteLP's rhs >= 0 makes that basis (z = 0) feasible.  Raises
    UnboundedError, and ArithmeticError if the tableau breaks down or the
    returned point fails the independent feasibility or optimality
    post-check.
    """
    n, m = lp.n_vars, lp.rhs.size

    # Ax + s = b with slacks, which start basic.  Variables are labelled z
    # (0..n-1) and slacks (n..n+m-1).  The condensed tableau holds one
    # column per nonbasic variable and b, over the cost row -objective;
    # basic variables have no column, since theirs would be unit vectors.
    # It is column-major, so each column tile a block of pivots updates is
    # contiguous.
    tableau = np.zeros((m + 1, n + 1), order="F")
    tableau[:m, :n] = lp.rows
    tableau[:m, -1] = lp.rhs
    tableau[m, :n] = -lp.objective
    labels, basis = np.arange(n), n + np.arange(m)
    pivots = _iterate(tableau, basis, labels)

    z = np.zeros(n + m)
    z[basis] = tableau[:-1, -1]
    solution = z[:n]

    residual = float(np.max(lp.rows @ solution - lp.rhs, initial=0.0))
    # Written as "not within bounds" so that a NaN reads as a violation.
    if not (residual <= FEASIBILITY_TOL and np.min(solution, initial=0.0) >= -FEASIBILITY_TOL):
        raise ArithmeticError(f"solution fails post-check, residual {residual:.3e}")
    value = float(np.dot(lp.objective, solution))
    # The slacks' reduced costs y prove value the maximum by weak duality;
    # a basic slack's is 0.
    y = np.zeros(m)
    slacks = np.flatnonzero(labels >= n)
    y[labels[slacks] - n] = tableau[-1, slacks]
    worst = np.max([-y.min(initial=0.0), np.max(lp.objective - y @ lp.rows), lp.rhs @ y - value])
    if not worst <= DUALITY_TOL:
        raise ArithmeticError(f"solution fails the optimality post-check, duality {worst:.3e}")
    return LPSolution(value, tuple(float(v) for v in solution), residual, pivots)


def _iterate(tableau: np.ndarray, basis: np.ndarray, labels: np.ndarray) -> int:
    """Pivot until no reduced cost is negative; returns the number of pivots."""
    delayed = _Delayed(tableau, basis, labels)
    # 200 times the rows and columns of a tableau with every variable's column.
    for pivots in range(200 * (tableau.shape[0] + basis.size + labels.size + 1)):
        step = delayed.bland_step()
        if step is None:
            delayed.flush()
            return pivots
        delayed.pivot(*step)
    raise ArithmeticError("pivot limit exceeded")


class _Delayed:
    """A condensed tableau and up to DELAY pivots not yet applied to it.

    A pivot at (row, col) exchanges basis[row] and labels[col]: column col
    then holds the leaving variable.  The current tableau is tableau -
    etas @ rows: pivot j's eta column is the entering column with the pivot
    minus one in the pivot row, and rows[j] is its pivot row over the pivot.
    The pivot column itself is written into tableau at once, and zeroed in
    rows, so the product leaves it alone.  ``flush`` applies the rest in
    column tiles.
    """

    def __init__(self, tableau: np.ndarray, basis: np.ndarray, labels: np.ndarray) -> None:
        self.tableau, self.basis, self.labels, self.k = tableau, basis, labels, 0
        self.etas = np.empty((tableau.shape[0], DELAY), order="F")
        self.rows = np.empty((DELAY, tableau.shape[1]))
        self.tile = np.empty((tableau.shape[0], 2 * DELAY), order="F")

    def read(self, i, j) -> np.ndarray:
        """The current tableau[i, j], for one row i or a few columns j."""
        return self.tableau[i, j] - self.etas[i, : self.k] @ self.rows[: self.k, j]

    def bland_step(self) -> tuple[int, int, np.ndarray] | None:
        """The next Bland pivot (row, col, current column col), or None at
        the optimum: the lowest eligible label enters, and among ratio ties
        the row with the lowest basic label leaves.  Every basis stays
        feasible, so a non-finite entry in the columns read, or a b below
        -FEASIBILITY_TOL, is a numerical breakdown (ArithmeticError).  A NaN
        reduced cost never enters, so the cost row is checked at the end."""
        costs = self.read(-1, slice(-1))
        eligible = np.flatnonzero(costs < -PIVOT_TOL)
        if eligible.size == 0:
            if not np.isfinite(costs).all():
                raise ArithmeticError("tableau breaks down: a reduced cost is not finite")
            return None
        col = int(eligible[self.labels[eligible].argmin()])
        current = self.read(slice(None), [col, -1])
        column, rhs = current.T
        if not np.isfinite(current).all() or rhs[:-1].min(initial=0.0) < -FEASIBILITY_TOL:
            raise ArithmeticError(f"tableau breaks down entering column {self.labels[col]}")
        positive = np.flatnonzero(column[:-1] > PIVOT_TOL)
        if positive.size == 0:
            raise UnboundedError(f"column {self.labels[col]} unbounded")
        ratios = rhs[positive] / column[positive]
        ties = positive[ratios <= ratios.min() + 1e-15]
        return int(ties[self.basis[ties].argmin()]), col, column

    def pivot(self, row: int, col: int, column: np.ndarray) -> None:
        """Pivot on (row, col), given the current column col."""
        p, k = column[row], self.k
        self.rows[k] = self.read(row, slice(None)) / p
        self.rows[: k + 1, col] = 0.0
        self.etas[:, k] = column
        self.etas[row, k] = p - 1.0
        self.tableau[:, col] = column / -p
        self.tableau[row, col] = 1.0 / p
        self.basis[row], self.labels[col] = self.labels[col], self.basis[row]
        self.k = k + 1
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
