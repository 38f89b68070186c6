"""Small dense simplex solver for the certification programs.

The linear programs here have at most a few thousand variables, so a plain
dense tableau with Bland's anti-cycling rule is both sufficient and easy
to audit.  Problems are stated as: maximize objective . z subject to
rows . z <= rhs and z >= 0.  The tableau is condensed (one column per
nonbasic variable) and column-major, and pivots reach it in blocks of
DELAY, each block through one matrix product.
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
    # Variables are labelled z (0..n-1), slacks (n..n+m-1), artificials.  The
    # condensed tableau holds one column per nonbasic variable and b, over
    # the cost row; basic variables have no column, since theirs would be
    # unit vectors.  It is column-major, so each column tile a block of
    # pivots updates is contiguous.  A flipped row starts with its artificial
    # basic and its slack nonbasic, holding -1 in that row.
    flip = lp.rhs < 0.0
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    tableau = np.zeros((m + 1, n + n_art + 1), order="F")
    tableau[:m, :n] = lp.rows
    tableau[art_rows, :n] = -lp.rows[art_rows]
    tableau[art_rows, n + np.arange(n_art)] = -1.0
    tableau[:m, -1] = np.where(flip, -lp.rhs, lp.rhs)
    labels = np.concatenate((np.arange(n), n + art_rows))
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)

    phase1 = 0
    if n_art:
        # Minimize the artificials' sum, priced out on their rows.
        tableau[m] = -tableau[art_rows].sum(axis=0)
        phase1 = _iterate(tableau, basis, labels)
        if tableau[-1, -1] < -PHASE1_TOL:
            raise InfeasibleError(f"phase-1 infeasibility {-tableau[-1, -1]:.3e}")
        tableau, labels = _drop_artificials(tableau, basis, labels, n + m)

    # Phase 2: minimize -objective, priced out on the rows where z is basic.
    cost = tableau[-1]
    cost[:] = 0.0
    structural = np.flatnonzero(labels < n)
    cost[structural] = -lp.objective[labels[structural]]
    priced = np.flatnonzero(basis < n)
    cost += lp.objective[basis[priced]] @ tableau[priced]
    phase2 = _iterate(tableau, basis, labels)

    z = np.zeros(n + m)
    z[basis] = tableau[:-1, -1]
    solution = z[:n]

    residual = float(np.max(lp.rows @ solution - lp.rhs, initial=0.0))
    if residual > FEASIBILITY_TOL or float(np.min(solution, initial=0.0)) < -FEASIBILITY_TOL:
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
    return LPSolution(value, tuple(float(v) for v in solution), residual, (phase1, phase2))


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
        the row with the lowest basic label leaves."""
        eligible = np.flatnonzero(self.read(-1, slice(-1)) < -PIVOT_TOL)
        if eligible.size == 0:
            return None
        col = int(eligible[self.labels[eligible].argmin()])
        column, rhs = self.read(slice(None), [col, -1]).T
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


def _drop_artificials(
    tableau: np.ndarray, basis: np.ndarray, labels: np.ndarray, first_art: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pivot zero-level artificials out of the basis, then cut their columns.

    No row is ever redundant here.  A flipped row's slack starts as a
    nonbasic column that is the negation of its artificial's, and pivots
    apply the same row operations to both, so they stay negations up to
    rounding.  A basic artificial's column is the unit vector of its row, so
    that row holds about -1 in its slack's column, whose label is below
    ``first_art``: it always has a pivot.  Returns the tableau and labels
    without the artificials' columns.
    """
    delayed = _Delayed(tableau, basis, labels)
    for i in np.flatnonzero(basis >= first_art):
        candidates = np.flatnonzero(
            (np.abs(delayed.read(i, slice(-1))) > PIVOT_TOL) & (labels < first_art)
        )
        col = int(candidates[labels[candidates].argmin()])
        delayed.pivot(i, col, delayed.read(slice(None), col))
    delayed.flush()
    # Move the kept columns to the front and b after them; the slice stays
    # column-major.
    kept = np.flatnonzero(labels < first_art)
    tableau[:, : kept.size] = tableau[:, kept]
    tableau[:, kept.size] = tableau[:, -1]
    return tableau[:, : kept.size + 1], labels[kept]
