"""Exact rational dual simplex for small covering programs.

Solves   min c.x  s.t.  A x >= b,  0 <= x <= u   in Fraction arithmetic.

``CoverLP`` is incremental: ``add_rows`` appends inequalities and ``solve``
re-optimizes from the basis the previous solve left.  Every column starts
nonbasic at its lower bound 0 (at its upper bound only when its cost is
negative) and the surplus variables of the rows form the basis, so every
reduced cost is dual feasible and no phase 1 is needed.  The surplus values
A x - b may start negative; dual simplex pivots repair them.

A new row has its basic structural columns eliminated with the current
tableau rows and enters with its surplus basic at A x - b.  That leaves every
reduced cost as it was, so the last optimal basis stays dual feasible and the
next solve re-optimizes it in a few pivots.  This is how constraint
generation adds cut rows.

Each pivot takes the most violated basic variable as the leaving row (below 0
or above its upper bound) and, by the ratio test, the nonbasic column whose
move repairs that row at the least |d_j / a_rj|, ties to the smallest index.
After _DANTZIG_BUDGET pivots in one solve the leaving row becomes the
violated one with the smallest basic index (Bland's rule for the dual), which
rules out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import RelaysynthError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_DANTZIG_BUDGET = 200
_MAX_PIVOTS = 20_000  # pivot bound of one CoverLP.solve call


class SimplexError(RelaysynthError, RuntimeError):
    pass


class InfeasibleError(SimplexError):
    """The system has no point with A x >= b inside the box."""


@dataclass
class CoverRow:
    """One inequality sum_j coeff[j] * x_j >= rhs."""

    coeffs: Dict[int, Fraction]
    rhs: Fraction


class CoverLP:
    """min c.x, A x >= b, 0 <= x <= u; rows may be added between solves.

    Variables are the n structural columns followed by one surplus per row.
    ``solves`` and ``pivots`` count the solve calls and pivots made so far.
    """

    def __init__(self, costs: Sequence[Fraction], upper: Sequence[Fraction]):
        self._n = len(costs)
        self._costs = [Fraction(c) for c in costs]
        self._upper: List[Optional[Fraction]] = [Fraction(u) for u in upper]
        self._at_upper = [c < 0 for c in self._costs]
        self._x = [u if up else _ZERO for u, up in zip(self._upper, self._at_upper)]
        self._reduced = list(self._costs)
        self._tab: List[List[Fraction]] = []  # one row per constraint, all variables
        self._basis: List[int] = []  # basic variable of each row
        self._row_of: List[Optional[int]] = [None] * self._n  # row of a basic variable
        self.solves = 0
        self.pivots = 0

    def add_rows(self, rows: Iterable[CoverRow]) -> None:
        """Append rows; each must hold at the upper bounds or InfeasibleError."""
        rows = list(rows)
        for row in rows:
            have = sum(Fraction(c) * self._upper[j] for j, c in row.coeffs.items())
            if have < row.rhs:
                raise InfeasibleError("row unsatisfiable even at upper bounds")
        width = len(self._x) + len(rows)
        for line in self._tab:
            line.extend([_ZERO] * len(rows))
        for row in rows:
            # -A x + s = -b, with the basic structural columns eliminated.
            s = len(self._x)
            line = [_ZERO] * width
            line[s] = _ONE
            for j, c in row.coeffs.items():
                line[j] = -Fraction(c)
            for j in row.coeffs:
                i = self._row_of[j]
                factor = line[j]
                if i is not None and factor:
                    src = self._tab[i]
                    for t, v in enumerate(src):
                        if v:
                            line[t] -= factor * v
            self._tab.append(line)
            self._basis.append(s)
            self._row_of.append(len(self._basis) - 1)
            self._upper.append(None)
            self._at_upper.append(False)
            self._reduced.append(_ZERO)
            self._x.append(
                sum(Fraction(c) * self._x[j] for j, c in row.coeffs.items()) - row.rhs
            )

    def solve(self) -> Tuple[Fraction, List[Fraction]]:
        """Re-optimize; return (optimal value, x) over the structural columns."""
        self.solves += 1
        pivots = 0
        while True:
            r = self._leaving_row(bland=pivots >= _DANTZIG_BUDGET)
            if r is None:
                break
            if pivots == _MAX_PIVOTS:
                raise SimplexError("pivot limit exceeded")
            self._pivot(r)
            pivots += 1
            self.pivots += 1
        x = self._x[: self._n]
        return sum((c * v for c, v in zip(self._costs, x)), _ZERO), x

    def _leaving_row(self, bland: bool) -> Optional[int]:
        best = None
        worst = _ZERO
        for i, v in enumerate(self._basis):
            val = self._x[v]
            ub = self._upper[v]
            if val < 0:
                gap = -val
            elif ub is not None and val > ub:
                gap = val - ub
            else:
                continue
            if bland:
                if best is None or v < self._basis[best]:
                    best = i
            elif gap > worst:
                best, worst = i, gap
        return best

    def _pivot(self, r: int) -> None:
        line = self._tab[r]
        leave = self._basis[r]
        below = self._x[leave] < 0
        target = _ZERO if below else self._upper[leave]
        nonzero = [j for j, a in enumerate(line) if a]

        # Moving x_j off its bound changes x_leave by -a_rj per unit of x_j;
        # the move repairs the row when a_rj < 0 exactly if (below xor at upper).
        enter = -1
        best = None
        for j in nonzero:
            if self._row_of[j] is not None:
                continue
            a = line[j]
            if (a < 0) != (below != self._at_upper[j]):
                continue
            ratio = abs(self._reduced[j] / a)
            if best is None or ratio < best:
                enter, best = j, ratio
        if enter < 0:
            raise InfeasibleError("no point meets the rows inside the box")

        step = (self._x[leave] - target) / line[enter]
        for i, row in enumerate(self._tab):
            a = row[enter]
            if a:
                self._x[self._basis[i]] -= a * step
        self._x[enter] += step
        self._at_upper[leave] = not below
        self._row_of[leave] = None
        self._row_of[enter] = r
        self._basis[r] = enter

        inv = _ONE / line[enter]
        for j in nonzero:
            line[j] *= inv
        for row in self._tab:
            factor = row[enter]
            if factor and row is not line:
                for j in nonzero:
                    row[j] -= factor * line[j]
        factor = self._reduced[enter]
        if factor:
            for j in nonzero:
                self._reduced[j] -= factor * line[j]


def solve_min_cover(
    costs: Sequence[Fraction],
    upper: Sequence[Fraction],
    rows: Sequence[CoverRow],
) -> Tuple[Fraction, List[Fraction]]:
    """Return (optimal value, x) for min c.x, A x >= b, 0 <= x <= u, cold."""
    lp = CoverLP(costs, upper)
    lp.add_rows(rows)
    return lp.solve()
