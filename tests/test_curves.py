import json
import tracemalloc
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import isqrt, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import curves
from hesskit.curves import (CONDITION_FAMILIES, CURVE_ONE, CURVE_TWO,
                            FAMILIES, OMEGA1, OMEGA2,
                            QuadraticInY, condition_matches_curve, even_a,
                            even_b, fiber_recover, is_s_integral, odd_c, rho1,
                            rho2, scan_condition, signed_points, verify_family)
from hesskit.errors import InputError

ks = st.integers(min_value=-60, max_value=60)

ONE, TWO = FAMILIES[1], FAMILIES[2]
W1, X1, W1_SINTEGRAL_X_Y = ONE.weierstrass, ONE.minimal, ONE.reps
W2, X2, W2_INTEGRAL_X_Y = TWO.weierstrass, TWO.minimal, TWO.reps


class TestConditionScans:
    def test_even_quadric_power_windows(self):
        wide = scan_condition("evenA", 2, 2, 20)
        assert wide.violations == ((7, 3), (12, 4))
        assert not wide.clean
        assert scan_condition("evenA", 2, 2, 6).clean

    def test_odd_window_is_clean(self):
        rep = scan_condition("odd", 2, 2, 100)
        assert rep.clean and rep.violations == ()

    def test_even_double_line_window(self):
        rep = scan_condition("evenB", 2, 2, 100)
        assert rep.violations == ((2, 2),)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            scan_condition("oddA", 2, 2, 5)

    # the two rows between them: each row's condition is its curve at r = 2
    @given(ks, ks)
    def test_odd_condition_is_curve_one(self, k, m):
        assert (ONE.condition, ONE.curve) == ("odd", CURVE_ONE)
        assert CONDITION_FAMILIES["odd"] is ONE
        assert odd_c(2, k, m) == ONE.curve.evaluate(k, m)

    @given(ks, ks)
    def test_even_double_line_condition_is_curve_two(self, k, m):
        assert (TWO.condition, TWO.curve) == ("evenB", CURVE_TWO)
        assert CONDITION_FAMILIES["evenB"] is TWO
        assert even_b(2, k, m) == TWO.curve.evaluate(k, m)

    def test_bridge_helper_on_a_grid(self):
        grid = [(k, m) for k in range(-5, 6) for m in range(-5, 6)]
        assert condition_matches_curve("odd", CURVE_ONE, grid)
        assert condition_matches_curve("evenB", CURVE_TWO, grid)

    @given(ks.filter(lambda k: k >= 2), st.integers(1, 60))
    def test_even_quadric_power_values_are_integers(self, k, m):
        # no curve bridge exists for this one; pin the polynomial instead
        assert even_a(2, k, m) == 2 * m * m + m - 3 * k


class TestIntegralPoints:
    @pytest.mark.parametrize("curve,omega", [(CURVE_ONE, OMEGA1),
                                             (CURVE_TWO, OMEGA2)])
    def test_search_recovers_the_expected_sets(self, curve, omega):
        assert set(curve.integral_points(500)) == set(omega)

    @pytest.mark.parametrize("curve", [CURVE_ONE, CURVE_TWO])
    def test_discriminant_search_agrees_with_boxed_brute_force(self, curve):
        box = {(x, y)
               for x in range(-40, 41) for y in range(-1000, 1001)
               if curve.contains(x, y)}
        assert box == set(curve.integral_points(40))

    def test_every_listed_point_lies_on_its_curve(self):
        assert all(CURVE_ONE.contains(x, y) for x, y in OMEGA1)
        assert all(CURVE_TWO.contains(x, y) for x, y in OMEGA2)

    def test_set_sizes(self):
        assert len(OMEGA1) == 6 and len(OMEGA2) == 7


def _horner(coeffs, x):
    total = 0
    for k in reversed(coeffs):
        total = total * x + k
    return total


def _values_from(coeffs, x):
    """p(x), p(x + 1), p(x + 2), ... without end, by exact integer forward
    differences: each difference level is the running sum of the next one,
    started at its value at x, and the top level is constant."""
    diffs = [_horner(coeffs, x + i) for i in range(max(len(coeffs), 1))]
    for level in range(1, len(diffs)):
        for i in range(len(diffs) - 1, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    values = repeat(diffs[-1])
    for start in reversed(diffs[:-1]):
        values = accumulate(values, initial=start)
    return values


def _loop_points(curve, bound):
    """Reference search: the exact discriminant test on every x, no sieve,
    with a, b and c stepped along x by ``_values_from``."""
    found = set()
    abc = (_values_from(p, -bound) for p in (curve.a, curve.b, curve.c))
    for x, a, b, c in zip(range(-bound, bound + 1), *abc):
        if a == 0:
            if b == 0:
                if c == 0:
                    raise ValueError(f"line x = {x} lies on the curve")
                continue
            if c % b == 0:
                found.add((x, -c // b))
            continue
        disc = b * b - 4 * a * c
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for num in (-b + s, -b - s):
            if num % (2 * a) == 0:
                found.add((x, num // (2 * a)))
    return sorted(found)


def _agrees_with_loop(curve, bound):
    try:
        expected = _loop_points(curve, bound)
    except ValueError:
        with pytest.raises(ValueError, match="lies on the curve"):
            curve.integral_points(bound)
        return
    assert curve.integral_points(bound) == expected


_coeff_polys = st.lists(st.integers(-6, 6), max_size=4)  # degree <= 3
_small_polys = st.lists(st.integers(-3, 3), max_size=2)  # degree <= 1
_bounds = st.integers(0, 3 * 10 ** 5)  # up to 6e5 x values: crosses block edges


def _mul(p, q):
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


@st.composite
def factored_curves(draw):
    """(u y - p)(v y - q) = 0, integer points on many x.

    Its discriminant (u q - v p)**2 is a square at every x, so no x is sieved
    out and the block walk and exact test are what these curves check.
    """
    u, p, v, q = (draw(_small_polys) for _ in range(4))
    b = [-s - t for s, t in zip_longest(_mul(u, q), _mul(v, p), fillvalue=0)]
    return QuadraticInY("factored", _mul(u, v), b, _mul(p, q))


BLOCK = curves._BLOCK
DIAGONALS = QuadraticInY("y^2 = x^2", a=(1,), b=(0,), c=(0, 0, -1))
ANTIDIAGONAL = QuadraticInY("y + x = 0", a=(0,), b=(1,), c=(0, 1))


class TestSieve:
    """The residue sieve against the plain loop it replaced."""

    @pytest.mark.parametrize("curve", [CURVE_ONE, CURVE_TWO, DIAGONALS,
                                       ANTIDIAGONAL])
    def test_bound_zero(self, curve):
        assert curve.integral_points(0) == _loop_points(curve, 0)

    def test_linear_branch_at_a_root_of_a(self):
        # (x - 3) y**2 + y - x = 0 is linear in y at x = 3, where y = 3
        curve = QuadraticInY("a-root", a=(-3, 1), b=(1,), c=(0, -1))
        points = curve.integral_points(1000)
        assert (3, 3) in points
        assert points == _loop_points(curve, 1000)

    def test_a_whole_vertical_line_is_refused(self):
        # (x - 2)(y**2 + y + 1) = 0 contains the line x = 2
        curve = QuadraticInY("line", a=(-2, 1), b=(-2, 1), c=(-2, 1))
        assert curve.integral_points(1) == []
        with pytest.raises(ValueError, match="x = 2 lies on the curve"):
            curve.integral_points(2)

    def test_a_and_b_vanishing_alone_is_no_line(self):
        # at x = 2 the equation reads 1 = 0: no point, no error
        curve = QuadraticInY("no-line", a=(-2, 1), b=(-2, 1), c=(1,))
        assert curve.integral_points(10) == _loop_points(curve, 10)

    @pytest.mark.parametrize("bound", [-1, 1.5, 10.0, True, "10", None])
    def test_bad_bounds_are_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be an int >="):
            CURVE_ONE.integral_points(bound)
        with pytest.raises(ValueError, match="bound must be an int >="):
            verify_family(1, bound)

    @settings(max_examples=12, deadline=None)
    @given(a=_coeff_polys, b=_coeff_polys, c=_coeff_polys, bound=_bounds)
    def test_random_curves_agree_with_the_loop(self, a, b, c, bound):
        _agrees_with_loop(QuadraticInY("random", a, b, c), bound)

    @settings(max_examples=12, deadline=None)
    @given(curve=factored_curves(), bound=_bounds)
    def test_factored_curves_agree_with_the_loop(self, curve, bound):
        _agrees_with_loop(curve, bound)


TABLE_CURVES = [CURVE_ONE, CURVE_TWO, DIAGONALS,
                QuadraticInY("r", (3, -1), (2,), (5, 0, 1))]


class TestBlockSieve:
    """The residue tables, their periods and the block walk over them."""

    @pytest.mark.parametrize("curve", TABLE_CURVES)
    def test_residues_pass_every_sieve_table(self, curve):
        tables = curve._sieve_tables()
        assert [m for m, _ in tables] == list(curves.SIEVE_MODULI)
        for m, table in tables:
            squares = {r * r % m for r in range(m)}
            discs = [b * b - 4 * a * c
                     for a, b, c in map(curve._coeffs_at, range(m))]
            assert table.tolist() == [d % m in squares for d in discs]

    def test_groups_partition_the_moduli(self):
        members = [m for group in curves.SIEVE_GROUPS for m in group]
        assert len(members) == len(set(members))
        assert sorted(members) == sorted(curves.SIEVE_MODULI)

    def test_every_period_is_at_most_two_to_the_fourteen(self):
        assert all(prod(group) <= 1 << 14 for group in curves.SIEVE_GROUPS)

    @pytest.mark.parametrize("curve", TABLE_CURVES)
    def test_each_period_table_is_the_and_of_its_members(self, curve):
        tables = {m: table.tolist() for m, table in curve._sieve_tables()}
        periods = curve._period_tables()
        assert [p for p, _ in periods] == [prod(g) for g in curves.SIEVE_GROUPS]
        for group, (period, table) in zip(curves.SIEVE_GROUPS, periods):
            assert table.tolist() == [all(tables[m][r % m] for m in group)
                                      for r in range(period)]

    def test_a_table_with_no_residue_finds_nothing(self):
        # y**2 = 3: 12 is a non-square modulo 64, so every x is sieved out
        curve = QuadraticInY("y^2 = 3", a=(1,), b=(0,), c=(-3,))
        assert not dict(curve._sieve_tables())[64].any()
        assert curve.integral_points(10 ** 6) == _loop_points(curve, 50) == []

    def test_shipped_tables_are_selective(self, monkeypatch):
        # the SIEVE_GROUPS comment: about one x in 250 000 survives, so at
        # most one in 10**5 (30 of 3 000 001) may reach the exact test
        exact, calls = QuadraticInY._ys_at, []
        monkeypatch.setattr(QuadraticInY, "_ys_at",
                            lambda self, x: calls.append(x) or exact(self, x))
        bound = 15 * 10 ** 5
        for curve in (CURVE_ONE, CURVE_TWO):
            calls.clear()
            curve.integral_points(bound)
            assert len(calls) <= (2 * bound + 1) // 10 ** 5

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_every_x_near_block_edges(self, shift):
        # every residue is kept on these two curves, so each block is full
        bound = BLOCK + shift
        xs = range(-bound, bound + 1)
        assert DIAGONALS.integral_points(bound) == sorted(
            {(x, y) for x in xs for y in (x, -x)})
        # a(x) = 0 for every x: the curve is linear in y
        assert ANTIDIAGONAL.integral_points(bound) == [(x, -x) for x in xs]

    @pytest.mark.parametrize("curve,omega", [(CURVE_ONE, OMEGA1),
                                             (CURVE_TWO, OMEGA2)])
    def test_shipped_curves_across_two_blocks(self, curve, omega):
        bound = 2 * BLOCK + 1
        assert curve.integral_points(bound) == sorted(omega)

    @pytest.mark.parametrize("curve", [CURVE_ONE, CURVE_TWO])
    def test_memory_stays_flat_whatever_the_bound(self, curve):
        peaks = []
        tracemalloc.start()
        try:
            for bound in (10 ** 5, 2 * 10 ** 6):
                tracemalloc.reset_peak()
                curve.integral_points(bound)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestWeierstrassModels:
    def test_representative_counts(self):
        assert len(W1_SINTEGRAL_X_Y) == 10
        assert len(W2_INTEGRAL_X_Y) == 6

    def test_all_signed_points_on_curve(self):
        assert all(W1.on_curve(x, y) for x, y in signed_points(W1_SINTEGRAL_X_Y))
        assert all(W2.on_curve(x, y) for x, y in signed_points(W2_INTEGRAL_X_Y))

    def test_denominator_support(self):
        assert ONE.primes == {2, 3} and TWO.primes == frozenset()
        for x, y in W1_SINTEGRAL_X_Y:
            assert is_s_integral(x, ONE.primes) and is_s_integral(y, ONE.primes)
        for x, y in W2_INTEGRAL_X_Y:
            assert x.denominator == 1 and y.denominator == 1
        # 3 divides a denominator on the W1 list, and a fifth is no S-integer
        assert not all(is_s_integral(y, {2}) for _, y in W1_SINTEGRAL_X_Y)
        assert not is_s_integral(Fraction(1, 10), {2, 3})

    def test_rescaling_reaches_the_labelled_models(self):
        assert (ONE.u, TWO.u) == (64, 4)
        r1 = W1.rescaled(64, "X1")
        assert (r1.a2, r1.a4, r1.a6) == (X1.a2, X1.a4, X1.a6)
        r2 = W2.rescaled(4, "X2")
        assert (r2.a2, r2.a4, r2.a6) == (X2.a2, X2.a4, X2.a6)
        assert X1.label == "366.b1" and X2.label == "1002.e1"

    def test_rescaled_points_land_on_the_minimal_models(self):
        for x, y in signed_points(W1_SINTEGRAL_X_Y):
            assert X1.on_curve(*rho2(1, x, y))
        for x, y in signed_points(W2_INTEGRAL_X_Y):
            assert X2.on_curve(*rho2(2, x, y))

    def test_rho2_is_the_hand_typed_rescaling(self):
        # u = 64 and u = 4 give u**2, u**3 = 2**12, 2**18 and 16, 64
        for x, y in signed_points(W1_SINTEGRAL_X_Y):
            assert rho2(1, x, y) == (2 ** 12 * x, 2 ** 18 * y)
        for x, y in signed_points(W2_INTEGRAL_X_Y):
            assert rho2(2, x, y) == (16 * x, 64 * y)


def _sympy_fiber(family, a, b):
    """Independent fiber computation straight from the coordinate forms.

    Solutions with x = 0 are dropped: for both families that is the branch of
    the first relation consisting of base points of the map, which the
    recovery routine deliberately leaves out.
    """
    x, y = sympy.symbols("x y")
    if family == 1:
        cx = 6 * x * y
        cy = (3 * x ** 2 - sympy.Rational(9, 2) * x * y - 3 * y ** 2
              + sympy.Rational(3, 2) * x - 6 * y)
        cz = -8 * x ** 2 - 4 * x
    else:
        cx = 6 * y
        cy = 12 * y ** 2 - 9 * x - 9 * y
        cz = -x
    sols = sympy.solve([sympy.Eq(cx, a * cz), sympy.Eq(cy, b * cz)],
                       [x, y], dict=True)
    out = set()
    for s in sols:
        sx, sy = s[x], s[y]
        if not (sx.is_rational and sy.is_rational):
            continue
        if sx == 0:
            continue
        out.add((Fraction(str(sx)), Fraction(str(sy))))
    return out


class TestFiberRecovery:
    def test_family_one_quadratic_fiber_matches_sympy(self):
        rep = fiber_recover(1, 1, 1)
        assert rep.case == "quadratic"
        assert set(rep.candidates) == _sympy_fiber(1, 1, 1)
        assert {x for x, _ in rep.candidates} == {Fraction(-1, 2),
                                                 Fraction(-16, 35)}

    def test_family_two_linear_fiber_matches_sympy(self):
        rep = fiber_recover(2, 2, 2)
        assert rep.case == "linear"
        assert set(rep.candidates) == _sympy_fiber(2, 2, 2) == {(Fraction(3),
                                                                Fraction(-1))}

    def test_family_two_degenerate_targets(self):
        assert fiber_recover(2, 0, 9).case == "contracted-line"
        assert fiber_recover(2, 0, 5).case == "empty"

    def test_candidates_map_back_to_their_target(self):
        # a candidate either maps to its target or sits where the map is
        # undefined / sends the point to infinity
        for a, b in list(signed_points(W1_SINTEGRAL_X_Y))[:6]:
            rep = fiber_recover(1, a, b)
            if rep.case == "contracted-line":
                continue
            for cx, cy in rep.candidates:
                img = rho1(1, cx, cy)
                if img.defined and img.affine is not None:
                    assert img.affine == (a, b)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            fiber_recover(3, 0, 0)


class TestFamilyVerification:
    def test_family_one_end_to_end(self):
        rep = verify_family(1, 400)
        assert rep.passed()
        assert rep.fiber_cases == {"quadratic": 17, "contracted-line": 2,
                                   "linear": 1}
        assert set(rep.recovered_set) == OMEGA1
        assert rep.brute_force_set == rep.expected_set

    def test_family_two_end_to_end(self):
        rep = verify_family(2, 400)
        assert rep.passed()
        assert rep.fiber_cases == {"linear": 10, "contracted-line": 1,
                                   "empty": 1}
        assert set(rep.recovered_set) == OMEGA2

    def test_integer_candidate_sets(self):
        fixture = json.loads(curves.fixture_bytes())
        one, two = ({tuple(p) for p in fixture[curve]["family_candidates"]}
                    for curve in ("curve-one", "curve-two"))
        assert one == {(-1, 1), (-1, 2), (0, -2), (0, 0), (1, -3), (1, 0)}
        assert (ONE.shear, TWO.shear) == (1, 0)
        # s = 1 shifts the family-1 candidates onto omega1, s = 0 is the identity
        for family, candidates, omega in ((1, one, OMEGA1), (2, two, OMEGA2)):
            sheared = {(x, FAMILIES[family].shear * x + y) for x, y in candidates}
            assert sheared == omega
            rep = verify_family(family, 10)
            assert candidates == set(rep.integer_candidates)
            assert sheared == set(rep.recovered_set)
        assert two == OMEGA2

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            verify_family(0, 100)


@pytest.mark.parametrize("call", [
    lambda f: rho1(f, 1, 1),
    lambda f: rho2(f, 1, 1),
    lambda f: fiber_recover(f, 1, 1),
    lambda f: verify_family(f, 100),
], ids=["rho1", "rho2", "fiber_recover", "verify_family"])
@pytest.mark.parametrize("family", [True, 2.0, 0, 3])
def test_every_family_entry_refuses_the_same_way(call, family):
    with pytest.raises(InputError, match="^family must be"):
        call(family)
