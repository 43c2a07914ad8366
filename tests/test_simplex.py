import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from relaysynth import simplex
from relaysynth.simplex import (
    CoverLP,
    CoverRow,
    InfeasibleError,
    solve_min_cover,
)


def test_single_cut_forces_cheapest_cover():
    value, x = solve_min_cover(
        [Fraction(3), Fraction(1)],
        [Fraction(1), Fraction(1)],
        [CoverRow({0: Fraction(1), 1: Fraction(1)}, Fraction(1))],
    )
    assert value == 1
    assert x == [0, 1]


def test_upper_bounds_bind():
    value, x = solve_min_cover(
        [Fraction(1)],
        [Fraction(2)],
        [CoverRow({0: Fraction(1)}, Fraction(2))],
    )
    assert value == 2
    assert x == [2]


def test_infeasible_row_detected():
    with pytest.raises(InfeasibleError):
        solve_min_cover(
            [Fraction(1)],
            [Fraction(1)],
            [CoverRow({0: Fraction(1)}, Fraction(3))],
        )


def test_matches_float_solver_on_random_covers():
    rng = random.Random(42)
    for _ in range(250):
        n = rng.randint(2, 9)
        m = rng.randint(1, 10)
        costs = [Fraction(rng.randint(0, 9)) for _ in range(n)]
        upper = [Fraction(rng.randint(1, 3)) for _ in range(n)]
        rows = []
        for _ in range(m):
            support = rng.sample(range(n), rng.randint(1, n))
            coeffs = {j: Fraction(rng.randint(1, 4)) for j in support}
            cap = sum(coeffs[j] * upper[j] for j in support)
            rows.append(CoverRow(coeffs, Fraction(rng.randint(0, int(cap)))))
        value, x = solve_min_cover(costs, upper, rows)
        for row in rows:
            assert sum(row.coeffs[j] * x[j] for j in row.coeffs) >= row.rhs
        for j in range(n):
            assert 0 <= x[j] <= upper[j]
        a_ub = [[0.0] * n for _ in range(m)]
        b_ub = []
        for i, row in enumerate(rows):
            for j, c in row.coeffs.items():
                a_ub[i][j] = -float(c)
            b_ub.append(-float(row.rhs))
        res = linprog(
            [float(c) for c in costs],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0.0, float(u)) for u in upper],
            method="highs",
        )
        assert res.status == 0
        assert abs(res.fun - float(value)) < 1e-7


def _linprog_value(costs, upper, rows):
    n = len(costs)
    a_ub = [[0.0] * n for _ in rows]
    for i, row in enumerate(rows):
        for j, c in row.coeffs.items():
            a_ub[i][j] = -float(c)
    res = linprog(
        [float(c) for c in costs],
        A_ub=a_ub,
        b_ub=[-float(row.rhs) for row in rows],
        bounds=[(0.0, float(u)) for u in upper],
        method="highs",
    )
    assert res.status == 0
    return res.fun


def _check_warm_against_cold(rng, costs, upper, rows):
    # One CoverLP takes the rows in 2-4 batches and re-optimizes after each;
    # every optimum must equal a cold solve of the same rows exactly.
    batches = rng.randint(2, min(4, len(rows)))
    cuts = sorted(rng.sample(range(1, len(rows)), batches - 1))
    lp = CoverLP(costs, upper)
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        lp.add_rows(rows[lo:hi])
        value, x = lp.solve()
        seen = rows[:hi]
        assert value == solve_min_cover(costs, upper, seen)[0]
        assert value == sum(c * v for c, v in zip(costs, x))
        for row in seen:
            assert sum(row.coeffs[j] * x[j] for j in row.coeffs) >= row.rhs
        for j in range(len(costs)):
            assert 0 <= x[j] <= upper[j]
        assert abs(_linprog_value(costs, upper, seen) - float(value)) < 1e-7
    assert lp.solves == batches
    return lp.pivots


def test_warm_rows_match_cold_solves_on_random_covers():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 9)
        m = rng.randint(2, 12)
        # Zero costs tie the ratio test; a negative cost starts at its upper bound.
        costs = [Fraction(rng.choice((0, 0, 1, 1, -1)) * rng.randint(1, 9))
                 for _ in range(n)]
        upper = [Fraction(rng.randint(1, 3)) for _ in range(n)]
        rows = []
        for _ in range(m):
            support = rng.sample(range(n), rng.randint(1, n))
            coeffs = {j: Fraction(rng.randint(1, 4)) for j in support}
            cap = sum(coeffs[j] * upper[j] for j in support)
            rows.append(CoverRow(coeffs, Fraction(rng.randint(0, int(cap)))))
        _check_warm_against_cold(rng, costs, upper, rows)


@pytest.mark.parametrize("budget", [simplex._DANTZIG_BUDGET, 0])
def test_warm_rows_match_cold_solves_when_dual_degenerate(monkeypatch, budget):
    # Equal costs and 0/1 rows tie most ratio tests; a budget of 0 runs every
    # pivot under the Bland rule.
    monkeypatch.setattr(simplex, "_DANTZIG_BUDGET", budget)
    rng = random.Random(11)
    pivots = 0
    for _ in range(12):
        n = rng.randint(8, 14)
        upper = [Fraction(rng.randint(1, 2)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(30, 40)):
            coeffs = {j: Fraction(1) for j in rng.sample(range(n), rng.randint(2, 5))}
            rhs = rng.randint(1, int(sum(upper[j] for j in coeffs)))
            rows.append(CoverRow(coeffs, Fraction(rhs)))
        pivots += _check_warm_against_cold(rng, [Fraction(1)] * n, upper, rows)
    assert pivots > 0


def test_row_added_after_a_solve_must_be_coverable():
    lp = CoverLP([Fraction(1), Fraction(2)], [Fraction(1), Fraction(1)])
    lp.add_rows([CoverRow({0: Fraction(1)}, Fraction(1))])
    assert lp.solve() == (1, [1, 0])
    with pytest.raises(InfeasibleError):
        lp.add_rows([CoverRow({0: Fraction(1), 1: Fraction(1)}, Fraction(3))])
    # The rejected batch leaves the program as it was.
    assert lp.solve() == (1, [1, 0])
    assert (lp.solves, lp.pivots) == (2, 1)
