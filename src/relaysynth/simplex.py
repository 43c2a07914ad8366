"""Exact rational simplex for small covering programs.

Solves   min c.x  s.t.  A x >= b,  0 <= x <= u   in Fraction arithmetic.

The constraint generation callers only ever add valid cut inequalities, so the
all-at-upper point x = u is feasible and the solver starts there without a
phase-1.  Bounded variables are handled implicitly (nonbasic at lower or upper
bound); after a burst of Dantzig pivots the rule falls back to Bland's to rule
out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import RelaysynthError

_ZERO = Fraction(0)
_DANTZIG_BUDGET = 200
_MAX_PIVOTS = 20_000  # pivot bound of solve_min_cover


class SimplexError(RelaysynthError, RuntimeError):
    pass


class InfeasibleError(SimplexError):
    """The system has no point with A x >= b inside the box."""


@dataclass
class CoverRow:
    """One inequality sum_j coeff[j] * x_j >= rhs."""

    coeffs: Dict[int, Fraction]
    rhs: Fraction


def solve_min_cover(
    costs: Sequence[Fraction],
    upper: Sequence[Fraction],
    rows: Sequence[CoverRow],
) -> Tuple[Fraction, List[Fraction]]:
    """Return (optimal value, x) for min c.x, A x >= b, 0 <= x <= u."""
    n = len(costs)
    costs = [Fraction(c) for c in costs]
    upper = [Fraction(u) for u in upper]
    for row in rows:
        have = sum(row.coeffs.get(j, _ZERO) * upper[j] for j in row.coeffs)
        if have < row.rhs:
            raise InfeasibleError("row unsatisfiable even at upper bounds")

    m = len(rows)
    nv = n + m  # structural then surplus variables
    INF = None

    def ub(j):
        return upper[j] if j < n else INF

    # Equality form: -A x + s = -b, so the surplus basis starts as the identity.
    tab = []
    xb = []
    basis = []
    for i, row in enumerate(rows):
        line = [_ZERO] * nv
        for j, coeff in row.coeffs.items():
            line[j] = -Fraction(coeff)
        line[n + i] = Fraction(1)
        tab.append(line)
        basis.append(n + i)
        slack = sum(Fraction(c) * upper[j] for j, c in row.coeffs.items()) - row.rhs
        xb.append(slack)

    status = ["UP"] * n + ["LO"] * m  # every structural var starts at its upper bound
    obj = costs + [_ZERO] * m  # reduced costs (c_B starts at zero: surplus basis)

    pivots = 0
    while True:
        if pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")
        use_bland = pivots >= _DANTZIG_BUDGET

        enter = -1
        best = _ZERO
        for j in range(nv):
            if status[j] == "LO" and obj[j] < 0:
                score = -obj[j]
            elif status[j] == "UP" and obj[j] > 0:
                score = obj[j]
            else:
                continue
            if use_bland:
                enter = j
                break
            if score > best:
                best = score
                enter = j
        if enter < 0:
            break  # optimal

        from_lo = status[enter] == "LO"
        # Basic values move as xb_i - t * d_i while the entering var moves by t.
        d = [tab[i][enter] if from_lo else -tab[i][enter] for i in range(m)]

        t_limit = ub(enter)  # bound-to-bound flip distance
        leave_row = -1
        leave_to = ""
        for i in range(m):
            di = d[i]
            if di > 0:
                cap = xb[i] / di
                hit = "LO"
            elif di < 0:
                ubi = ub(basis[i])
                if ubi is None:
                    continue
                cap = (ubi - xb[i]) / (-di)
                hit = "UP"
            else:
                continue
            if t_limit is None or cap < t_limit or (
                cap == t_limit and leave_row >= 0 and basis[i] < basis[leave_row]
            ):
                t_limit = cap
                leave_row = i
                leave_to = hit

        if t_limit is None:
            raise SimplexError("unbounded direction (malformed program)")

        t = t_limit
        for i in range(m):
            if d[i]:
                xb[i] -= t * d[i]

        if leave_row < 0:
            # Bound flip: the entering variable crosses the whole box.
            status[enter] = "UP" if from_lo else "LO"
            pivots += 1
            continue

        enter_val = t if from_lo else ub(enter) - t
        out_var = basis[leave_row]
        status[out_var] = leave_to
        status[enter] = "B"
        basis[leave_row] = enter
        xb[leave_row] = enter_val

        # Pivot the tableau and the reduced-cost row.
        prow = tab[leave_row]
        piv = prow[enter]
        if piv == 0:
            raise SimplexError("zero pivot")
        inv = Fraction(1) / piv
        tab[leave_row] = prow = [v * inv for v in prow]
        for i in range(m):
            if i == leave_row:
                continue
            factor = tab[i][enter]
            if factor:
                row_i = tab[i]
                tab[i] = [a - factor * b for a, b in zip(row_i, prow)]
        factor = obj[enter]
        if factor:
            obj = [a - factor * b for a, b in zip(obj, prow)]
        pivots += 1

    x = [_ZERO] * nv
    for j in range(nv):
        if status[j] == "UP":
            x[j] = ub(j)
    for i in range(m):
        x[basis[i]] = xb[i]
    value = sum(costs[j] * x[j] for j in range(n))
    return value, x[:n]
