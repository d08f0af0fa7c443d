import itertools
import random
from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit.errors import InputError, require_int
from hesskit.forms import (FIELD_BITS, Form, _coerce, dim_sym, dot,
                           exact_quotient, monomials_of_degree, packed, powers,
                           random_form)
from hesskit.hessians import adjugate_second_partials, adjugate_trace, hess
from hesskit.orbit_checks import hyperbolic_q
from hesskit.rank_certificates import differential_matrix

from conftest import RATIONAL, SYMS, forms, to_sympy


# Reference kernel: forms as plain dicts of exponent tuple -> nonzero
# Fraction, multiplied and added term by term.  The differential tests below
# compare the packed-key, integer-numerator kernel of ``Form`` against it.

def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_scale(a, c):
    return {e: c * v for e, v in a.items()} if c else {}


def ref_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def ref_dot(terms):
    out = {}
    for c, f, g in terms:
        out = ref_add(out, ref_scale(ref_mul(dict(f.terms), dict(g.terms)), c))
    return out


def ref_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def assert_canonical(f):
    """The stored numerators and denominator satisfy the module invariant."""
    num = dict(f.numerators)
    assert f._den > 0
    assert all(type(c) is int and c for c in num.values())
    assert gcd(f._den, *num.values()) == 1
    assert len(f.terms) == f.num_terms() == len(num)
    for c in f.terms.values():
        assert type(c) is Fraction and c != 0
        assert gcd(c.numerator, c.denominator) == 1
    rebuilt = Form(f.nvars, f.degree, dict(f.terms))
    assert rebuilt == f and hash(rebuilt) == hash(f)


rational_forms = forms(denominators=RATIONAL)
same_degree_pairs = st.integers(1, 4).flatmap(lambda d: st.tuples(
    forms(min_degree=d, max_degree=d, denominators=RATIONAL),
    forms(min_degree=d, max_degree=d, denominators=RATIONAL)))


def check_product_against_sympy(f, g):
    fg = f * g
    assert to_sympy(fg) == sympy.expand(to_sympy(f) * to_sympy(g))
    assert fg.degree == f.degree + g.degree


def check_derivative_against_sympy(f, i):
    df = f.diff(i)
    assert to_sympy(df) == sympy.expand(sympy.diff(to_sympy(f), SYMS[i]))


def reference_init(nvars, degree, terms):
    """``Form.__init__`` as a validation loop in several passes: each
    coefficient through ``Fraction``, then the length, then each exponent
    entry, then the degree by ``sum``; returns the numerators by exponent
    tuple and their least common denominator."""
    require_int("nvars", nvars, 1)
    require_int("degree", degree, 0)
    clean = {}
    for exps, c in terms.items():
        c = _coerce(c)
        if len(exps) != nvars:
            raise ValueError(f"exponent tuple {exps} has wrong length for nvars={nvars}")
        for e in exps:
            if isinstance(e, bool) or not isinstance(e, int):
                raise InputError(f"exponents must be ints, got {exps!r}")
            if e < 0:
                raise ValueError(f"negative exponent in {exps}")
            if e > (1 << FIELD_BITS) - 1:
                raise ValueError(f"exponent in {exps} does not fit a "
                                 f"{FIELD_BITS}-bit field")
        if sum(exps) != degree:
            raise ValueError(f"monomial {exps} is not of degree {degree}")
        if c:
            clean[tuple(exps)] = c
    den = lcm(*(c.denominator for c in clean.values()))
    return ({e: c.numerator * (den // c.denominator) for e, c in clean.items()},
            den)


def refusal(build, *args):
    """The type and message of the exception ``build(*args)`` raises."""
    with pytest.raises(Exception) as info:
        build(*args)
    return type(info.value), str(info.value)


class Exp(IntEnum):
    ONE = 1
    TWO = 2


BIG = 1 << FIELD_BITS

# (nvars, degree, terms) that the constructor refuses; the later rows put
# two faults in one term, or in two terms, to pin which one is reported
REFUSED_TERMS = [
    (2, 2, {(True, 1): 1}),
    (2, 2, {(1.0, 1): 1}),
    (2, 2, {(-1, 3): 1}),
    (2, BIG, {(BIG, 0): 1}),
    (3, 2, {(2, 0): 1}),
    (3, 2, {(2, 1, 0): 1}),
    (1, 2, {(2,): True}),
    (1, 2, {(2,): 0.5}),
    (2, 2, {(1.0, 1): 0}),
    (3, 2, {(2, 1, 0): 0}),
    (2, 2, {("1", 1): 1}),
    (1, 2, {(2,): "abc"}),
    (True, 2, {(2,): 1}),
    (1, 2.0, {(2,): 1}),
    (1, 0, {(0,): None}),
    (2, 2, {(1.0, 1): 0.5}),
    (2, 2, {(-1, BIG): 1}),
    (2, 2, {(BIG, -1): 1}),
    (2, 2, {(1, 0): Fraction(1, 2), (2, 0): 0.5}),
    (2, 2, {(2, 0): Fraction(1, 2), (1, 1): 1, (3, -1): 2, (True, 1): 1}),
    (2, 1, {(1, 0, 0): "x"}),
]


class TestConstruction:
    @pytest.mark.parametrize("nvars,degree,terms", REFUSED_TERMS)
    def test_refusals_match_the_reference_loop(self, nvars, degree, terms):
        got = refusal(Form, nvars, degree, terms)
        assert got == refusal(reference_init, nvars, degree, terms)

    @pytest.mark.parametrize("terms", [
        {}, {(2, 1): 3}, {(2, 1): 0, (1, 2): "0"}, {(Exp.TWO, Exp.ONE): 3},
        {(Exp.ONE, Exp.TWO): Exp.TWO, (3, 0): Fraction(-5, 6)},
        {(3, 0): Fraction(4, 2), (0, 3): "7/21", (1, 2): -4},
        {(3, 0): Fraction(1, 6), (2, 1): Fraction(1, 10), (0, 3): 15}])
    def test_accepted_terms_match_the_reference_loop(self, terms):
        f = Form(2, 3, terms)
        assert (dict(f.numerators), packed(f)[1]) == reference_init(2, 3, terms)
        assert all(type(k) is int for k in packed(f)[0])
        assert_canonical(f)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_int_and_fraction_coefficients_build_equal_forms(self, data):
        nvars = data.draw(st.integers(1, 4))
        degree = data.draw(st.integers(0, 5))
        monos = st.sampled_from(monomials_of_degree(nvars, degree))
        ints = data.draw(st.dictionaries(monos, st.integers(-10 ** 20, 10 ** 20)))
        f = Form(nvars, degree, ints)
        g = Form(nvars, degree, {e: Fraction(c) for e, c in ints.items()})
        assert f == g and hash(f) == hash(g)
        assert packed(f)[1] == 1 and dict(f.numerators) == dict(g.numerators)
        mixed = data.draw(st.dictionaries(monos, coefficients))
        h = Form(nvars, degree, mixed)
        assert (dict(h.numerators), packed(h)[1]) \
            == reference_init(nvars, degree, mixed)
        assert_canonical(h)

    def test_monomial_infers_variable_count(self):
        f = Form.monomial((2, 1, 0), 3)
        assert f.nvars == 3 and f.degree == 3
        assert f.terms == {(2, 1, 0): Fraction(3)}

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            Form.from_coeffs(3, 2, {(2, 0, 0): 1, (1, 0, 0): 1})

    def test_a_zero_coefficient_does_not_skip_the_checks(self):
        for exps in ((2, 0), (1, 1, 0, 0), (3, 0, 0), (-1, 3, 0),
                     (1 << FIELD_BITS, 0, 0)):
            with pytest.raises(ValueError):
                Form(3, 2, {exps: 0})
        assert Form(3, 2, {(2, 0, 0): 0, (1, 1, 0): "0"}).is_zero()

    def test_zero_form_has_no_terms(self):
        z = Form.zero(3, 4)
        assert z.is_zero() and z.degree == 4

    def test_canonical_order_is_descending_lex(self):
        monos = monomials_of_degree(3, 2)
        assert monos[0] == (2, 0, 0)
        assert monos[-1] == (0, 0, 2)
        assert monos == sorted(monos, reverse=True)

    def test_monomials_match_the_product_oracle(self):
        # every exponent tuple with the right sum, sorted in descending order
        for nvars in range(1, 6):
            for d in range(13):
                oracle = sorted((e for e in itertools.product(range(d + 1),
                                                              repeat=nvars)
                                 if sum(e) == d), reverse=True)
                assert monomials_of_degree(nvars, d) == oracle

    def test_dim_sym_matches_monomial_count(self):
        for nvars in (2, 3, 4):
            for d in range(0, 6):
                assert dim_sym(nvars, d) == len(monomials_of_degree(nvars, d))


class TestArithmetic:
    @settings(max_examples=40)
    @given(f=forms(), g=forms())
    def test_product_against_sympy(self, f, g):
        check_product_against_sympy(f, g)

    @settings(max_examples=40)
    @given(f=rational_forms, g=rational_forms)
    def test_product_against_sympy_rational(self, f, g):
        check_product_against_sympy(f, g)

    @settings(max_examples=40)
    @given(f=forms(max_degree=3))
    def test_square_matches_self_product(self, f):
        assert f ** 2 == f * f

    @given(f=forms(), g=forms(min_degree=3, max_degree=3),
           h=forms(min_degree=3, max_degree=3))
    @settings(max_examples=25)
    def test_product_distributes_over_sums(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(f=rational_forms, gh=same_degree_pairs)
    @settings(max_examples=25)
    def test_product_distributes_over_sums_rational(self, f, gh):
        g, h = gh
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=40)
    @given(f=forms(), i=st.integers(0, 2))
    def test_derivative_against_sympy(self, f, i):
        check_derivative_against_sympy(f, i)

    @settings(max_examples=40)
    @given(f=rational_forms, i=st.integers(0, 2))
    def test_derivative_against_sympy_rational(self, f, i):
        check_derivative_against_sympy(f, i)

    @settings(max_examples=30)
    @given(f=forms(), point=st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                      st.integers(-5, 5)))
    def test_evaluation_is_substitution(self, f, point):
        subs = {v: p for v, p in zip(SYMS, point)}
        assert f.evaluate(tuple(Fraction(p) for p in point)) \
            == to_sympy(f).subs(subs)

    def test_euler_identity_on_a_sample(self):
        """sum_i x_i df/dx_i = d f for homogeneous f."""
        f = Form.from_coeffs(3, 3, {(3, 0, 0): 2, (1, 1, 1): -5, (0, 2, 1): 7})
        total = Form.zero(3, 3)
        for i in range(3):
            total = total + Form.variable(3, i) * f.diff(i)
        assert total == Fraction(3) * f


class TestIntegerKernel:
    """Integer numerators over one shared denominator, against ``ref_*``."""

    @settings(max_examples=60)
    @given(f=rational_forms, g=rational_forms)
    def test_product_matches_reference(self, f, g):
        fg = f * g
        assert dict(fg.terms) == ref_mul(dict(f.terms), dict(g.terms))
        assert_canonical(fg)

    @settings(max_examples=60)
    @given(fg=same_degree_pairs)
    def test_sum_and_difference_match_reference(self, fg):
        f, g = fg
        a, b = dict(f.terms), dict(g.terms)
        minus_b = ref_scale(b, -1)
        zero = Form.zero(3, f.degree + 3)  # another nominal degree
        for got, want, degree in (
                (f + g, ref_add(a, b), f.degree),
                (f - g, ref_add(a, minus_b), f.degree),
                (-g, minus_b, g.degree),
                # a zero operand on either side passes the other through
                (f + zero, a, f.degree), (zero + g, b, g.degree),
                (f - zero, a, f.degree), (zero - g, minus_b, g.degree),
                (zero + Form.zero(3, 1), {}, 1)):
            assert dict(got.terms) == want and got.degree == degree
            assert_canonical(got)
        assert (-g)._den == g._den and (-f)._den == f._den
        z = f - f
        assert z == Form.zero(3, f.degree) and z._den == 1
        assert z.is_zero() and z.degree == f.degree
        for bad in (f * Form.variable(3, 0), Form.variable(2, 0) ** f.degree,
                    Form.zero(2, f.degree)):
            for pair in ((f, bad), (bad, f)):
                for op in (Form.__add__, Form.__sub__):
                    with pytest.raises(ValueError):
                        op(*pair)

    @settings(max_examples=40)
    @given(f=rational_forms,
           c=st.fractions(min_value=-20, max_value=20, max_denominator=35))
    def test_scale_matches_reference(self, f, c):
        a = dict(f.terms)
        for got, want in ((f.scale(c), ref_scale(a, c)), (f * c, ref_scale(a, c)),
                          (c * f, ref_scale(a, c)), (f.scale(0), {}),
                          (f.scale("1/2"), ref_scale(a, Fraction(1, 2))),
                          (f.scale("-3"), ref_scale(a, -3))):
            assert dict(got.terms) == want and got.degree == f.degree
            assert_canonical(got)

    @settings(max_examples=40)
    @given(f=rational_forms, i=st.integers(0, 2))
    def test_derivative_matches_reference(self, f, i):
        df = f.diff(i)
        assert dict(df.terms) == ref_diff(dict(f.terms), i)
        assert_canonical(df)

    @settings(max_examples=25)
    @given(f=forms(max_degree=2, denominators=RATIONAL), k=st.integers(0, 3))
    def test_power_matches_reference(self, f, k):
        fk = f ** k
        assert dict(fk.terms) == ref_pow(dict(f.terms), k, f.nvars)
        assert_canonical(fk)

    @pytest.mark.parametrize("f", [
        Form.zero(3, 2),
        Form.from_coeffs(3, 1, {(1, 0, 0): Fraction(1, 6),
                                (0, 1, 0): Fraction(-3, 4), (0, 0, 1): 2}),
        Form.from_coeffs(2, 2, {(2, 0): 1, (1, 1): -1}),
    ], ids=["zero", "denominator", "integral"])
    def test_power_is_repeated_product(self, f):
        want = Form.from_coeffs(f.nvars, 0, {(0,) * f.nvars: 1})
        for k in range(6):
            got = f ** k
            assert got == want and got.degree == want.degree == k * f.degree
            assert got.terms == want.terms
            assert_canonical(got)
            want = want * f

    @settings(max_examples=40)
    @given(f=rational_forms)
    def test_cancellation_gives_the_zero_form(self, f):
        half = f.scale(Fraction(1, 2))
        for z in (f - f, f + (-f), half + half - f, f.scale(0)):
            assert z.is_zero() and z.num_terms() == 0
            assert z == Form.zero(3, 0) == Form.zero(3, 11)
            assert hash(z) == hash(Form.zero(3, 11))
            assert_canonical(z)

    def test_shared_denominator_is_reduced(self):
        sixth = Form.from_coeffs(3, 1, {(1, 0, 0): Fraction(1, 6),
                                        (0, 1, 0): Fraction(1, 2)})
        third = Form.from_coeffs(3, 1, {(1, 0, 0): Fraction(1, 3),
                                        (0, 1, 0): Fraction(1, 2)})
        total = sixth + third
        assert (dict(total.numerators), total._den) == (
            {(1, 0, 0): 1, (0, 1, 0): 2}, 2)
        assert total == Form.from_coeffs(3, 1, {(1, 0, 0): Fraction(1, 2),
                                                (0, 1, 0): 1})
        assert (total * 2) == Form.from_coeffs(3, 1, {(1, 0, 0): 1,
                                                      (0, 1, 0): 2})
        assert hash(total * 2) == hash(Form.from_coeffs(
            3, 1, {(1, 0, 0): 1, (0, 1, 0): 2}))

    def test_terms_view_is_read_only(self):
        f = Form.from_coeffs(3, 2, {(2, 0, 0): Fraction(3, 4)})
        assert f.terms == {(2, 0, 0): Fraction(3, 4)}
        assert f.terms.get((0, 2, 0)) is None and (2, 0, 0) in f.terms
        with pytest.raises(TypeError):
            f.terms[(2, 0, 0)] = Fraction(1)

    @settings(max_examples=40)
    @given(f=rational_forms)
    def test_numerators_are_the_terms_times_one_denominator(self, f):
        num = f.numerators
        den = lcm(*(c.denominator for c in f.terms.values()))
        assert num == {e: int(c * den) for e, c in f.terms.items()}
        with pytest.raises(TypeError):
            num[next(iter(num))] = 1


@st.composite
def with_reference(draw, nvars, degree=None):
    """A form and the tuple-keyed ``Fraction`` dict it was built from, with
    integer or rational coefficients."""
    if degree is None:
        degree = draw(st.integers(0, 4 if nvars <= 3 else 2))
    monos = monomials_of_degree(nvars, degree)
    dens = draw(st.sampled_from([(1,), RATIONAL]))
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                      st.sampled_from(dens))
    a = draw(st.dictionaries(st.sampled_from(monos), coeff,
                             max_size=len(monos)))
    return Form(nvars, degree, a), a


def check_views(f, a, probes=None):
    """Every tuple-keyed edge of ``f`` against the dict it was built from,
    looked up at ``probes`` (default: every monomial of f's degree)."""
    den = lcm(*(c.denominator for c in a.values()))
    assert dict(f.terms) == a and f.terms == a
    assert dict(f.numerators) == {e: int(c * den) for e, c in a.items()}
    assert [e for e, _ in f.sorted_terms()] == sorted(a, reverse=True)
    assert f.sorted_terms() == list(f) == sorted(a.items(), reverse=True)
    if probes is None:
        probes = monomials_of_degree(f.nvars, f.degree)
    for e in probes:
        assert f.coefficient(e) == a.get(e, 0)
        assert (e in f.terms) == (e in f.numerators) == (e in a)
        assert f.terms.get(e) == a.get(e)


TOP = (1 << FIELD_BITS) - 1  # the largest exponent a key field holds


class TestPackedKeys:
    """The packed-key kernel against the tuple-key reference ``ref_*``."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_kernel_matches_reference(self, nvars):
        @settings(max_examples=30, deadline=None)
        @given(data=st.data())
        def check(data):
            f, a = data.draw(with_reference(nvars))
            g, b = data.draw(with_reference(nvars))
            h, c = data.draw(with_reference(nvars, f.degree))
            k = data.draw(st.integers(0, 3))
            check_views(f, a)
            assert dict((f * g).terms) == ref_mul(a, b)
            assert dict((f + h).terms) == ref_add(a, c)
            assert dict((f - h).terms) == ref_add(a, ref_scale(c, -1))
            zero = Form.zero(nvars, f.degree + 1)
            assert dict((zero + h).terms) == c
            assert dict((zero - h).terms) == ref_scale(c, -1)
            assert dict((f - zero).terms) == a
            for i in range(nvars):
                assert dict(f.diff(i).terms) == ref_diff(a, i)
            assert dict((f ** k).terms) == ref_pow(a, k, nvars)
            for got in (f * g, f + h, f.diff(0), f ** k):
                assert_canonical(got)

        check()

    def test_largest_exponent_fills_its_field(self):
        a = {(TOP, 0, 0): Fraction(2), (0, TOP, 0): Fraction(-1),
             (0, 0, TOP): Fraction(1, 3), (TOP - 1, 0, 1): Fraction(5, 2),
             (1, TOP - 1, 0): Fraction(7)}
        f = Form(3, TOP, a)
        check_views(f, a, list(a) + [(TOP - 1, 1, 0), (0, 1, TOP - 1)])
        for i in range(3):
            assert dict(f.diff(i).terms) == ref_diff(a, i)
        low = {(0, 0, 0): Fraction(3)}
        assert dict((f * Form(3, 0, low)).terms) == ref_mul(a, low)
        # fields of a product reach the top without spilling into x0's
        g = Form(2, TOP - 4, {(TOP - 7, 3): 1, (0, TOP - 4): -2})
        h = Form(2, 4, {(3, 1): 5, (0, 4): 1})
        assert dict((g * h).terms) == ref_mul(dict(g.terms), dict(h.terms))
        assert (g * h).coefficient((0, TOP)) == -2

    def test_exponent_past_the_field_is_refused(self):
        for nvars, exps in ((1, (TOP + 1,)), (3, (0, TOP + 1, 0)),
                            (2, (TOP + 1, 2))):
            with pytest.raises(ValueError, match="16-bit field"):
                Form(nvars, sum(exps), {exps: 1})
            with pytest.raises(ValueError, match="16-bit field"):
                Form.monomial(exps)

    def test_product_degree_past_the_field_is_refused(self):
        x = Form.monomial((TOP, 0))
        y = Form.variable(2, 1)
        assert (Form.monomial((TOP - 1, 0)) * y).terms == {(TOP - 1, 1): 1}
        for product in (lambda: x * y, lambda: y * x, lambda: x ** 2,
                        lambda: x * Form.zero(2, 1)):
            with pytest.raises(ValueError, match="16-bit field"):
                product()

    def test_a_lookup_outside_the_fields_finds_nothing(self):
        f = Form.from_coeffs(3, 1, {(0, 0, 1): 4, (0, 1, 0): 3})
        # each would pack to the key of (0, 0, 1) or (0, 1, 0) if unchecked
        for exps in ((1,), (0, 1), (0, 0, 0, 1), (0, 0, TOP + 2),
                     (0, 0, 1 << FIELD_BITS), (0, 2, -1), (1, -TOP, 0),
                     (0, 0, 1.5), [0, 0, 1], "abc", None):
            for view in (f.terms, f.numerators):
                assert exps not in view and view.get(exps) is None
                with pytest.raises(KeyError):
                    view[exps]
        for exps in ((1,), (0, 1), (0, 0, 0, 1), (0, 0, 1 << FIELD_BITS),
                     (0, 2, -1)):
            assert f.coefficient(exps) == 0
        assert f.coefficient([0, 0, 1]) == 4 and f.terms[(0, 1, 0)] == 3

    @pytest.mark.parametrize("nvars,degree", [(1, 4), (2, 5), (3, 4), (5, 3)])
    def test_differential_matrix_reads_the_same_keys(self, nvars, degree):
        """The rank path's packed columns equal the numerators of the image
        forms, each built through ``adjugate_trace``."""
        f = random_form(nvars, degree, random.Random(nvars), coeff_bound=4)
        M = differential_matrix(f)
        row_of = {e: i for i, e in enumerate(M.row_monomials)}

        def column(g):
            return {row_of[e]: v for e, v in g.numerators.items()}

        adj = adjugate_second_partials(f)
        assert M.columns == [column(adjugate_trace(adj, Form.monomial(e)))
                             for e in M.col_monomials]
        assert M.hess_column == column(hess(f))


coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12))


@pytest.mark.parametrize("top", [0, 1, 2, 5])
def test_powers_are_the_repeated_products(top):
    f = random_form(3, 2, random.Random(top), coeff_bound=3)
    got = powers(f, top)
    assert got == [f ** k for k in range(top + 1)]
    assert all(p.degree == 2 * k for k, p in enumerate(got))
    for p in got:
        assert_canonical(p)


class TestDot:
    """``dot``, the one product loop, against ``ref_mul``, ``ref_add`` and
    ``ref_scale``."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_sum_of_products_matches_reference(self, nvars):
        @settings(max_examples=30, deadline=None)
        @given(data=st.data())
        def check(data):
            degree = data.draw(st.integers(0, 4 if nvars <= 3 else 3))
            terms = []
            for _ in range(data.draw(st.integers(0, 4))):
                left = data.draw(st.integers(0, degree))
                f, _ = data.draw(with_reference(nvars, left))
                g, _ = data.draw(with_reference(nvars, degree - left))
                terms.append((data.draw(coefficients), f, g))
            got = dot(nvars, degree, terms)
            assert dict(got.terms) == ref_dot(terms)
            assert (got.nvars, got.degree) == (nvars, degree)
            assert_canonical(got)
            if len(terms) == 1 and terms[0][0] == 1:
                assert got == terms[0][1] * terms[0][2]

        check()

    @settings(max_examples=40)
    @given(f=rational_forms, g=rational_forms,
           c=st.fractions(min_value=-5, max_value=5,
                          max_denominator=12).filter(bool))
    def test_full_cancellation_gives_the_zero_form(self, f, g, c):
        degree = f.degree + g.degree
        for terms in ([(c, f, g), (-c, g, f)],
                      [(c, f, g), (-1, f.scale(c), g)],
                      [(1, f, g.scale(c)), (-1, g, f.scale(c))]):
            z = dot(3, degree, terms)
            assert z.is_zero() and z.num_terms() == 0
            assert z.degree == degree and z._den == 1
            assert z == Form.zero(3, degree) and hash(z) == hash(Form.zero(3, 0))
            assert_canonical(z)

    def test_partial_cancellation_drops_exactly_the_zeros(self):
        x0, x1 = Form.variable(2, 0), Form.variable(2, 1)
        half = Fraction(1, 2)
        got = dot(2, 2, [(half, x0, x0 + x1), (-half, x0, x0),
                         (Fraction(1, 3), x1, x1)])
        assert dict(got.numerators) == {(1, 1): 3, (0, 2): 2}
        assert got._den == 6 and got.num_terms() == 2
        assert_canonical(got)

    def test_zero_terms_are_skipped(self):
        x = Form.variable(3, 0)
        f = Form.from_coeffs(3, 2, {(1, 1, 0): Fraction(2, 3)})
        for terms in ([], [(0, f, f)], [(Fraction(0), f, f)],
                      [(5, Form.zero(3, 2), f)], [(5, f, Form.zero(3, 7))]):
            z = dot(3, 4, terms)
            assert z.is_zero() and z.degree == 4 and z._den == 1
        assert dot(3, 4, [(0, f, f), (1, f, f), (2, Form.zero(3, 1), x)]) == f * f

    def test_refusals(self):
        x3, x2 = Form.variable(3, 0), Form.variable(2, 0)
        for terms in ([(1, x3, x2)], [(1, x2, x3)], [(1, x2, x2)],
                      [(1, Form.zero(2, 1), x3)], [(0, x3, x2)]):
            with pytest.raises(ValueError, match="different variable counts"):
                dot(3, 2, terms)
        for degree, terms in ((3, [(1, x3, x3)]),
                              (2, [(1, x3, x3), (1, x3 * x3, x3)])):
            with pytest.raises(ValueError, match="in a sum of degree"):
                dot(3, degree, terms)
        top = Form.monomial((TOP, 0))
        for degree, terms in ((TOP + 1, []), (TOP + 1, [(1, top, x2)]),
                              (1 << 20, [(0, x2, x2)])):
            with pytest.raises(ValueError, match="16-bit field"):
                dot(2, degree, terms)
        assert dot(2, TOP, [(1, Form.monomial((TOP - 1, 0)), x2)]) \
            == Form.monomial((TOP, 0))
        for c in (1.5, 0.0, True, False, "1", None):
            with pytest.raises(TypeError, match="int or Fraction"):
                dot(3, 2, [(c, x3, x3)])


class TestExactQuotient:
    """Division by q, by a monomial and by their products: a product
    divides back to its factor, and a remainder gives None."""

    @pytest.mark.parametrize("nvars", [3, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_product_divides_back(self, nvars, data):
        g = data.draw(forms(nvars=nvars, min_degree=0, max_degree=4,
                            denominators=RATIONAL,
                            sparse=data.draw(st.booleans())))
        q = hyperbolic_q(nvars - 1)
        assert exact_quotient(q * g, q) == g
        exps = data.draw(st.lists(st.integers(0, 2), min_size=nvars,
                                  max_size=nvars))
        P = Form.monomial(exps) * q ** data.draw(st.integers(0, 3))
        assert exact_quotient(g * P, P) == g

    @pytest.mark.parametrize("nvars", [3, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_remainder_returns_none(self, nvars, data):
        g = data.draw(forms(nvars=nvars, min_degree=0, max_degree=4,
                            denominators=RATIONAL,
                            sparse=data.draw(st.booleans())))
        q = hyperbolic_q(nvars - 1)
        # q is irreducible and no monomial, so it divides no q*g + c x**e
        e = data.draw(st.sampled_from(monomials_of_degree(nvars, g.degree + 2)))
        c = data.draw(st.integers(1, 5))
        assert exact_quotient(q * g + Form.monomial(e, c), q) is None
        # x0 * q does not divide a term free of x0
        x0 = Form.variable(nvars, 0)
        free = Form.monomial((0,) * (nvars - 1) + (g.degree + 3,))
        assert exact_quotient(x0 * q * g + free, x0 * q) is None

    def test_lower_degree_or_a_bad_divisor(self):
        q = hyperbolic_q(2)
        assert exact_quotient(Form.variable(3, 0), q) is None
        assert exact_quotient(q, Form.monomial((0, 0, 0))) == q
        assert exact_quotient(Form.zero(3, 2), q) == Form.zero(3, 0)
        two_tops = Form.from_coeffs(3, 2, {(1, 0, 1): 1, (0, 1, 1): 1})
        for bad in (q * 2, two_tops, q.scale(Fraction(1, 2)), Form.zero(3, 2)):
            with pytest.raises(ValueError, match="top term"):
                exact_quotient(q * q, bad)
        with pytest.raises(ValueError, match="variable counts"):
            exact_quotient(q, hyperbolic_q(3))


def reference_random_form(nvars, degree, rng, coeff_bound=9, density=1.0):
    """``random_form`` with its draws built as ``Fraction`` coefficients."""
    monos = monomials_of_degree(nvars, degree)
    terms = {}
    for e in monos:
        if density < 1.0 and rng.random() > density:
            continue
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[e] = Fraction(c)
    if not terms:
        e = monos[rng.randrange(len(monos))]
        terms[e] = Fraction(rng.choice(
            [c for c in range(-coeff_bound, coeff_bound + 1) if c]))
    return Form(nvars, degree, terms)


class TestRandomAndJson:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    @pytest.mark.parametrize("density", [1.0, 0.5, 0.0])
    def test_random_form_matches_the_reference(self, nvars, density):
        """The same form and the same draws; at density 0 every monomial is
        skipped and the one-term fallback draws the form."""
        for degree in range(7):
            for seed in range(4):
                ours, theirs = (random.Random(f"{nvars}:{degree}:{seed}")
                                for _ in range(2))
                got = random_form(nvars, degree, ours, coeff_bound=3,
                                  density=density)
                want = reference_random_form(nvars, degree, theirs,
                                             coeff_bound=3, density=density)
                assert got == want, (nvars, degree, seed)
                assert ours.getstate() == theirs.getstate()
                assert_canonical(got)
                if density == 0.0:
                    assert got.num_terms() == 1

    def test_random_form_is_seed_stable(self):
        a = random_form(3, 4, random.Random(11))
        b = random_form(3, 4, random.Random(11))
        assert a == b
