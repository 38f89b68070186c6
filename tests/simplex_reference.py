"""Dense Bland tableau: the reference the delayed-update simplex is compared with.

``simplex_solve`` builds its tableau and reads its answer the same way under
both; only the pivots differ.  Here every pivot is one rank-1 update of the
whole tableau, applied at once, as ``ocselect.simplex`` did before it held
pivots back and applied them in blocks.  ``solve`` runs ``simplex_solve``
with these loops in place of its own.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from ocselect import simplex
from ocselect.simplex import PIVOT_TOL, UnboundedError


def dense_pivot(tableau, basis, row, col):
    """Rank-1 update over every column of the tableau."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _iterate(tableau, basis, stop_after=None):
    """Pivot until no reduced cost is negative; returns the number of pivots.

    ``stop_after`` ends the loop early after that many pivots.
    """
    m = tableau.shape[0] - 1
    limit = 200 * (tableau.shape[0] + tableau.shape[1])
    for pivots in range(limit):
        entering = tableau[-1, :-1] < -PIVOT_TOL
        col = int(entering.argmax())  # Bland: lowest eligible index enters
        if not entering[col] or pivots == stop_after:
            return pivots
        column = tableau[:m, col]
        positive = np.flatnonzero(column > PIVOT_TOL)
        if positive.size == 0:
            raise UnboundedError(f"column {col} unbounded")
        ratios = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-15]
        row = int(ties[basis[ties].argmin()])  # Bland: lowest basis leaves
        dense_pivot(tableau, basis, row, col)
    raise ArithmeticError("pivot limit exceeded")


def _drop_artificials(tableau, basis, first_art):
    """Pivot zero-level artificials out of the basis, then cut their columns."""
    for i in np.flatnonzero(basis >= first_art):
        pivots = np.flatnonzero(np.abs(tableau[i, :first_art]) > PIVOT_TOL)
        dense_pivot(tableau, basis, i, int(pivots[0]))
    tableau[:, first_art] = tableau[:, -1]
    return tableau[:, : first_art + 1], basis


def solve(lp):
    """``simplex_solve`` with every pivot a dense rank-1 update."""
    with mock.patch.object(simplex, "_iterate", _iterate), mock.patch.object(
        simplex, "_drop_artificials", _drop_artificials
    ):
        return simplex.simplex_solve(lp)
