"""Unit and property tests for repro.symbolic.diophantine."""

import pytest
from hypothesis import given, strategies as st

from repro.symbolic.diophantine import (
    count_solutions_in_box,
    ext_gcd,
    has_solution_in_box,
    has_solution_with_conditions,
    iter_solutions_in_box,
    solve_linear_2var,
)
from repro.symbolic.ranges import NEG_INF, POS_INF


class TestExtGcd:
    def test_basic(self):
        g, x, y = ext_gcd(12, 8)
        assert g == 4
        assert 12 * x + 8 * y == 4

    def test_zero_cases(self):
        g, x, y = ext_gcd(0, 0)
        assert g == 0 and 0 * x + 0 * y == 0
        g, x, y = ext_gcd(0, 5)
        assert g == 5 and 5 * y == 5
        g, x, y = ext_gcd(-6, 0)
        assert g == 6 and -6 * x == 6

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_bezout_identity(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


class TestSolve:
    def test_solvable(self):
        sol = solve_linear_2var(2, 3, 7)
        assert sol is not None
        x, y = sol.point_at(0)
        assert 2 * x + 3 * y == 7

    def test_unsolvable(self):
        assert solve_linear_2var(2, 4, 7) is None

    def test_degenerate_zero(self):
        sol = solve_linear_2var(0, 0, 0)
        assert sol is not None and sol.unconstrained

    def test_degenerate_nonzero(self):
        assert solve_linear_2var(0, 0, 5) is None

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-50, 50))
    def test_family_members_solve(self, a, b, c):
        sol = solve_linear_2var(a, b, c)
        if sol is None or sol.unconstrained:
            return
        for t in (-3, 0, 5):
            x, y = sol.point_at(t)
            assert a * x + b * y == c


def brute_box(a, b, c, xlo, xhi, ylo, yhi):
    return [
        (x, y)
        for x in range(xlo, xhi + 1)
        for y in range(ylo, yhi + 1)
        if a * x + b * y == c
    ]


class TestBoxQueries:
    def test_simple_hit(self):
        assert has_solution_in_box(1, -1, 0, 1, 5, 1, 5)

    def test_simple_miss(self):
        # x - y = 10 impossible with both in [1, 5]
        assert not has_solution_in_box(1, -1, 10, 1, 5, 1, 5)

    def test_unbounded_defaults(self):
        assert has_solution_in_box(3, 5, 1)

    def test_infinite_sides(self):
        assert has_solution_in_box(1, 0, 100, 1, POS_INF, 1, 5)
        assert not has_solution_in_box(1, 0, 0, 1, POS_INF, 1, 5)

    def test_count_finite(self):
        # x + y = 6, x,y in [1,5]: (1,5)...(5,1)
        assert count_solutions_in_box(1, 1, 6, 1, 5, 1, 5) == 5

    def test_count_zero(self):
        assert count_solutions_in_box(2, 2, 5, 0, 10, 0, 10) == 0

    def test_count_bounded_by_one_side(self):
        # y's range alone pins the parameter: still finitely many solutions.
        assert count_solutions_in_box(1, 1, 6, NEG_INF, POS_INF, 1, 5) == 5

    def test_count_infinite(self):
        assert (
            count_solutions_in_box(1, -1, 0, NEG_INF, POS_INF, NEG_INF, POS_INF)
            is None
        )

    def test_iter_matches_count(self):
        points = list(iter_solutions_in_box(1, 1, 6, 1, 5, 1, 5))
        assert len(points) == 5
        assert all(x + y == 6 for x, y in points)

    def test_iter_infinite_raises(self):
        with pytest.raises(ValueError):
            list(
                iter_solutions_in_box(1, -1, 0, NEG_INF, POS_INF, NEG_INF, POS_INF)
            )

    @given(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.integers(-10, 10),
        st.integers(-3, 3),
        st.integers(0, 5),
        st.integers(-3, 3),
        st.integers(0, 5),
    )
    def test_matches_brute_force(self, a, b, c, xlo, xw, ylo, yw):
        xhi, yhi = xlo + xw, ylo + yw
        expected = brute_box(a, b, c, xlo, xhi, ylo, yhi)
        assert has_solution_in_box(a, b, c, xlo, xhi, ylo, yhi) == bool(expected)
        count = count_solutions_in_box(a, b, c, xlo, xhi, ylo, yhi)
        if a == b == 0 and c == 0:
            assert count == (xhi - xlo + 1) * (yhi - ylo + 1)
        else:
            assert count == len(expected)


def brute_half_open(a, b, c, bound, x_is_upper, ylo, yhi):
    """Brute force over bounded ``y`` with ``x`` on one side of ``bound``."""
    for y in range(ylo, yhi + 1):
        rest = c - b * y
        if a == 0:
            if rest == 0:
                return True
            continue
        if rest % a:
            continue
        x = rest // a
        if (x <= bound) if x_is_upper else (x >= bound):
            return True
    return False


class TestFreshInfinities:
    """Bounds built by interval arithmetic carry new ``inf`` objects, not
    the ``NEG_INF``/``POS_INF`` constants; the solver must treat every
    infinity as unbounded by value, never by identity."""

    def test_fresh_neg_inf_lower_bound(self):
        # x = 4y + 22 >= 50 for y in [7, 9], so x <= 9 has no solution.
        assert not has_solution_in_box(-1, 4, -22, -float("inf"), 9, 7, 9)

    @given(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.integers(-30, 30),
        st.integers(-10, 10),
        st.integers(-3, 3),
        st.integers(0, 5),
        st.booleans(),
    )
    def test_half_open_x_matches_brute_force(
        self, a, b, c, bound, ylo, yw, x_is_upper
    ):
        yhi = ylo + yw
        if x_is_upper:
            xlo, xhi = -float("inf"), bound
        else:
            xlo, xhi = bound, float("inf")
        assert xlo is not NEG_INF and xhi is not POS_INF
        expected = brute_half_open(a, b, c, bound, x_is_upper, ylo, yhi)
        assert has_solution_in_box(a, b, c, xlo, xhi, ylo, yhi) == expected


class TestConditions:
    def test_ordering_conditions(self):
        box = [(1, 0, 1, 10), (0, 1, 1, 10)]
        # x - y = -2 within the box: x < y always.
        assert has_solution_with_conditions(1, -1, -2, box + [(1, -1, NEG_INF, -1)])
        assert not has_solution_with_conditions(1, -1, -2, box + [(1, -1, 0, 0)])
        assert not has_solution_with_conditions(1, -1, -2, box + [(1, -1, 1, POS_INF)])

    def test_unsolvable_equation(self):
        assert not has_solution_with_conditions(2, 2, 1, [])

    def test_degenerate_constant_conditions(self):
        assert has_solution_with_conditions(0, 0, 0, [(0, 0, -1, 1)])
        assert not has_solution_with_conditions(0, 0, 0, [(0, 0, 1, 2)])

    @given(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.integers(-8, 8),
        st.integers(-3, 3),
        st.integers(0, 4),
        st.integers(-3, 3),
        st.integers(0, 4),
    )
    def test_direction_split_partitions_box(self, a, b, c, xlo, xw, ylo, yw):
        """LT/EQ/GT conditions partition the box solutions exactly."""
        if a == 0 and b == 0:
            return
        xhi, yhi = xlo + xw, ylo + yw
        box = [(1, 0, xlo, xhi), (0, 1, ylo, yhi)]
        solutions = brute_box(a, b, c, xlo, xhi, ylo, yhi)
        lt = [p for p in solutions if p[0] < p[1]]
        eq = [p for p in solutions if p[0] == p[1]]
        gt = [p for p in solutions if p[0] > p[1]]
        assert has_solution_with_conditions(
            a, b, c, box + [(1, -1, NEG_INF, -1)]
        ) == bool(lt)
        assert has_solution_with_conditions(a, b, c, box + [(1, -1, 0, 0)]) == bool(eq)
        assert has_solution_with_conditions(
            a, b, c, box + [(1, -1, 1, POS_INF)]
        ) == bool(gt)
