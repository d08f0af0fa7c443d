import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import hesskit.hessians
from hesskit.forms import Form, random_form
from hesskit.hessians import (TParameterForm, _det_by_expansion, adjugate,
                              adjugate_second_partials, adjugate_trace, h3,
                              h12, hess, hess_from_adjugate, hess_t,
                              hessian_expansion, lowest_t_order)
from hesskit.indeterminacy import sample_family
from hesskit.orbit_checks import hyperbolic_q

from conftest import RATIONAL, SYMS, forms, to_sympy


def sympy_hessian(expr, nvars: int):
    """det of the matrix of second partials of a sympy expression in the
    first ``nvars`` symbols."""
    vs = SYMS[:nvars]
    mat = sympy.Matrix([[sympy.diff(expr, a, b) for b in vs] for a in vs])
    # sympy's polynomial-ring determinant; Matrix.det on these entries takes
    # seconds per 4x4 case
    dm = DomainMatrix.from_Matrix(mat)
    return sympy.expand(dm.domain.to_sympy(dm.det()))


def jet(f: Form, g: Form):
    """Hess f and d/deps Hess(f + eps g) at eps = 0, by Jacobi's formula."""
    return hess(f), adjugate_trace(adjugate_second_partials(f), g)


def check_jet_against_sympy(f: Form, g: Form):
    eps = sympy.Symbol("_eps")
    expr = to_sympy(f) + eps * to_sympy(g)
    poly = sympy.Poly(sympy_hessian(expr, f.nvars), eps)
    h0, h1 = jet(f, g)
    assert to_sympy(h0) == sympy.expand(poly.coeff_monomial(eps ** 0))
    assert to_sympy(h1) == sympy.expand(poly.coeff_monomial(eps))


def at_t(family: TParameterForm, t0: Fraction) -> Form:
    """The family with a concrete value substituted for t."""
    total = Form.zero(family.nvars, family.degree)
    for a, form in family.slots.items():
        total = total + (t0 ** a) * form
    return total


def laplace_h3(f: Form, g: Form, h: Form) -> Form:
    """Reference h3: six 3 x 3 Laplace determinants whose rows are drawn
    from the three Hessian matrices, divided by 6."""
    mats = (f.second_partials(), g.second_partials(), h.second_partials())
    total = Form.zero(3, 3 * max(f.degree - 2, 0))
    for perm in itertools.permutations(range(3)):
        total = total + _det_by_expansion([mats[perm[row]][row] for row in range(3)])
    return total.scale(Fraction(1, 6))


def ordered_expansion(family: TParameterForm) -> TParameterForm:
    """Reference hessian_expansion: sums over all ordered pairs and triples
    of the slots after x0**d."""
    d = family.degree
    rest = [(a, f) for a, f in family.sorted_slots() if a != 0]
    scale = Form.monomial((d - 2, 0, 0), d * (d - 1))
    acc = {}
    for group in itertools.product(rest, repeat=2):
        key = sum(a for a, _ in group)
        form = scale * h12(*(f for _, f in group))
        acc[key] = acc[key] + form if key in acc else form
    for group in itertools.product(rest, repeat=3):
        key = sum(a for a, _ in group)
        form = laplace_h3(*(f for _, f in group))
        acc[key] = acc[key] + form if key in acc else form
    return TParameterForm({0: Form.zero(3, 3 * (d - 2)), **acc})


def sympy_h3(f: Form, g: Form, h: Form):
    """The s*t*u coefficient of Hess(s f + t g + u h), divided by 6."""
    s, t, u = sympy.symbols("_s _t _u")
    expr = s * to_sympy(f) + t * to_sympy(g) + u * to_sympy(h)
    poly = sympy.Poly(sympy_hessian(expr, 3), s, t, u)
    return sympy.expand(poly.coeff_monomial(s * t * u) / 6)


@st.composite
def h3_arguments(draw, min_degree=2, max_degree=5, coeff_bound=6):
    """Three ternary forms of one degree, with repeats and zero forms."""
    d = draw(st.integers(min_degree, max_degree))
    pool = [draw(forms(min_degree=d, max_degree=d, coeff_bound=coeff_bound))
            for _ in range(3)]
    pool.append(Form.zero(3, d))
    return [pool[i] for i in draw(st.lists(st.integers(0, 3), min_size=3,
                                           max_size=3))]


Q2 = Form.from_coeffs(3, 2, {(1, 1, 0): 1, (0, 0, 2): 1})  # x0 x1 + x2**2
L2 = Form.monomial((1, 0, 0))


class TestHessian:
    @settings(max_examples=25, deadline=None)
    @given(f=forms(min_degree=2, max_degree=4))
    def test_matches_sympy(self, f):
        assert to_sympy(hess(f)) == sympy_hessian(to_sympy(f), f.nvars)

    @settings(max_examples=10, deadline=None)
    @given(f=forms(nvars=4, min_degree=2, max_degree=3, coeff_bound=4))
    def test_matches_sympy_in_four_variables(self, f):
        assert to_sympy(hess(f)) == sympy_hessian(to_sympy(f), f.nvars)

    def test_hyperbolic_quadric_anchor(self):
        assert hess(Q2) == Form.monomial((0, 0, 0), -2)

    def test_quadric_times_line_anchor(self):
        assert hess(Q2 * L2) == Form.monomial((3, 0, 0), -8)

    @settings(max_examples=15)
    @given(f=forms(min_degree=2, max_degree=4))
    def test_cubes_under_scaling(self, f):
        assert hess(Fraction(3) * f) == Fraction(27) * hess(f)

    def test_binary_cone_has_zero_hessian(self):
        f = Form.from_coeffs(3, 4, {(4, 0, 0): 1, (2, 2, 0): -3, (0, 4, 0): 5})
        assert hess(f).is_zero()

    def test_degree_below_two_gives_zero(self):
        assert hess(Form.monomial((1, 0, 0))).is_zero()


class TestFirstOrderJet:
    @settings(max_examples=12, deadline=None)
    @given(f=forms(min_degree=3, max_degree=3), g=forms(min_degree=3, max_degree=3))
    def test_jet_matches_sympy_epsilon_expansion(self, f, g):
        check_jet_against_sympy(f, g)

    @settings(max_examples=10, deadline=None)
    @given(f=forms(nvars=4, min_degree=3, max_degree=3, coeff_bound=4),
           g=forms(nvars=4, min_degree=3, max_degree=3, coeff_bound=4))
    def test_jet_matches_sympy_epsilon_expansion_in_four_variables(self, f, g):
        check_jet_against_sympy(f, g)

    @settings(max_examples=30, deadline=None)
    @given(nvars=st.integers(2, 4), data=st.data())
    def test_first_row_cofactor_sum_is_the_hessian(self, nvars, data):
        f = data.draw(forms(nvars=nvars, min_degree=1,
                            max_degree=4 if nvars < 4 else 3, coeff_bound=4))
        assert hess_from_adjugate(f, adjugate_second_partials(f)) == hess(f)

    @settings(max_examples=25, deadline=None)
    @given(nvars=st.integers(1, 4), data=st.data())
    def test_adjugate_of_a_multiple(self, nvars, data):
        """adjugate(c A) = c**(n - 1) adjugate(A) for c a monomial times a
        power of q, on A = D2 f, where adjugate(A) is also
        ``adjugate_second_partials(f)``."""
        f = data.draw(forms(
            nvars=nvars, min_degree=2, max_degree=4 if nvars < 4 else 3,
            coeff_bound=4,
            denominators=data.draw(st.sampled_from([(1,), RATIONAL])),
            sparse=data.draw(st.booleans())))
        c = Form.monomial(data.draw(st.lists(
            st.integers(0, 2), min_size=nvars, max_size=nvars)))
        if nvars >= 2:
            c = c * hyperbolic_q(nvars - 1) ** data.draw(st.integers(0, 2))
        A = f.second_partials()
        adj = adjugate(A)
        assert adj == adjugate_second_partials(f)
        assert adjugate([[c * a for a in row] for row in A]) == \
            [[c ** (nvars - 1) * e for e in row] for row in adj]

    @settings(max_examples=15, deadline=None)
    @given(f=forms(nvars=1, min_degree=2, max_degree=6, denominators=RATIONAL))
    def test_univariate_adjugate_is_the_constant_one(self, f):
        adj = adjugate_second_partials(f)
        assert adj == [[Form.monomial((0,))]]
        assert hess_from_adjugate(f, adj) == hess(f)

    def test_empty_matrix_is_refused(self):
        with pytest.raises(ValueError, match="empty matrix"):
            _det_by_expansion([])


class TestPolarizations:
    @settings(max_examples=20)
    @given(f=forms(min_degree=2, max_degree=3), g=forms(min_degree=2, max_degree=3))
    def test_h12_diagonal_and_symmetry(self, f, g):
        assert h12(f, f) == h12(f)
        if f.degree == g.degree:
            assert h12(f, g) == h12(g, f)

    @settings(max_examples=15)
    @given(f=forms(min_degree=3, max_degree=3), g=forms(min_degree=3, max_degree=3),
           h=forms(min_degree=3, max_degree=3))
    def test_h12_is_bilinear(self, f, g, h):
        assert h12(f + g, h) == h12(f, h) + h12(g, h)

    @settings(max_examples=12, deadline=None)
    @given(f=forms(min_degree=2, max_degree=3), g=forms(min_degree=2, max_degree=3),
           h=forms(min_degree=2, max_degree=3))
    def test_h3_is_symmetric(self, f, g, h):
        if not (f.degree == g.degree == h.degree):
            g = h = f
        base = h3(f, g, h)
        assert base == h3(g, f, h) == h3(h, g, f) == h3(f, h, g)

    @settings(max_examples=20, deadline=None)
    @given(f=forms(min_degree=2, max_degree=4))
    def test_h3_diagonal_is_the_hessian(self, f):
        assert h3(f, f, f) == hess(f)

    @settings(max_examples=12, deadline=None)
    @given(f=forms(min_degree=3, max_degree=3), g=forms(min_degree=3, max_degree=3))
    def test_first_order_term_is_three_h3(self, f, g):
        _, h1 = jet(f, g)
        assert h1 == Fraction(3) * h3(f, f, g)


class TestMixedAdjugateH3:
    """h3 by the polarized adjugate against the six-Laplace route and sympy."""

    @settings(max_examples=60, deadline=None)
    @given(args=h3_arguments())
    def test_matches_the_laplace_route(self, args):
        assert h3(*args) == laplace_h3(*args)

    @settings(max_examples=12, deadline=None)
    @given(args=h3_arguments(max_degree=4, coeff_bound=4))
    def test_matches_sympy(self, args):
        assert to_sympy(h3(*args)) == sympy_h3(*args)

    @settings(max_examples=20, deadline=None)
    @given(args=h3_arguments())
    def test_equal_but_distinct_objects_agree_with_repeats(self, args):
        f, g, _ = args
        copy = Form.from_coeffs(3, f.degree, dict(f.terms))
        assert copy is not f
        assert h3(f, f, g) == h3(f, copy, g) == h3(g, f, copy)
        assert h3(f, f, f) == h3(f, copy, f) == hess(f)

    def test_zero_argument_gives_zero(self):
        f = Form.from_coeffs(3, 3, {(3, 0, 0): 1, (0, 2, 1): -2, (1, 1, 1): 5})
        zero = Form.zero(3, 3)
        for args in ((zero, f, f), (f, zero, f), (f, f, zero), (zero,) * 3):
            assert h3(*args).is_zero()

    def test_product_count(self, monkeypatch):
        """Guard: distinct dense quartics take at most 30 Form products (the
        six-Laplace route took 54), a repeated argument at most 18.  Each
        (c, f, g) triple handed to ``dot`` is one product."""
        rng = random.Random(7)
        f, g, h = (random_form(3, 4, rng, coeff_bound=9) for _ in range(3))
        assert all(q.num_terms() >= 12 for q in (f, g, h))
        calls = []
        original = hesskit.hessians.dot

        def counting(nvars, degree, terms):
            terms = list(terms)
            calls.extend(terms)
            return original(nvars, degree, terms)

        monkeypatch.setattr(hesskit.hessians, "dot", counting)
        monkeypatch.setattr(Form, "__mul__", None)
        value = h3(f, g, h)
        distinct = len(calls)
        calls.clear()
        repeated = h3(f, g, f)
        monkeypatch.undo()
        assert distinct <= 30
        assert len(calls) <= 18
        assert value == laplace_h3(f, g, h)
        assert repeated == laplace_h3(f, g, f)


class TestParameterFamilies:
    FAMILY = TParameterForm({
        0: Form.monomial((4, 0, 0)),
        1: Form.from_coeffs(3, 4, {(0, 4, 0): 1, (0, 0, 4): 1}),
        3: Form.from_coeffs(3, 4, {(1, 1, 2): -2, (0, 2, 2): 1}),
    })

    def test_hessian_family_interpolates_substitution(self):
        """hess_t must commute with substituting concrete t values."""
        H = hess_t(self.FAMILY)
        for t0 in (Fraction(1), Fraction(-2), Fraction(1, 3)):
            assert at_t(H, t0) == hess(at_t(self.FAMILY, t0))

    def test_cone_family_hessian_is_none(self):
        fam = TParameterForm({0: Form.monomial((4, 0, 0)),
                              2: Form.from_coeffs(3, 4, {(0, 4, 0): 7})})
        H = hess_t(fam)
        assert H.is_zero()
        assert (H.nvars, H.degree) == (3, 6)
        assert hessian_expansion(fam).is_zero()

    def test_lowest_order_reads_the_leading_slot(self):
        H = hess_t(self.FAMILY)
        order, lead = lowest_t_order(H)
        assert order == min(H.slots)
        assert lead == H.slots[order]

    def test_expansion_route_agrees(self):
        a = hess_t(self.FAMILY)
        b = hessian_expansion(self.FAMILY)
        assert not a.is_zero()
        assert a.slots == b.slots

    @settings(max_examples=15, deadline=None)
    @given(d=st.integers(3, 5), seed=st.integers(0, 10 ** 6))
    def test_sampled_families_agree_across_routes(self, d, seed):
        fam = sample_family(d, random.Random(seed))
        H = hess_t(fam)
        assert H.slots == hessian_expansion(fam).slots
        for t0 in (Fraction(1), Fraction(-2), Fraction(1, 3)):
            assert at_t(H, t0) == hess(at_t(fam, t0))


class TestMultisetExpansion:
    """hessian_expansion over multisets against the ordered-sum route."""

    @settings(max_examples=15, deadline=None)
    @given(d=st.integers(3, 5), slots=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
    def test_matches_the_ordered_sums(self, d, slots, seed):
        fam = sample_family(d, random.Random(seed), max_slots=slots,
                            max_exponent=5)
        assert hessian_expansion(fam).slots == ordered_expansion(fam).slots

    def test_cone_family_gives_zero_on_both_routes(self):
        fam = TParameterForm({0: Form.monomial((5, 0, 0)),
                              1: Form.from_coeffs(3, 5, {(0, 5, 0): 2}),
                              2: Form.from_coeffs(3, 5, {(2, 3, 0): -1})})
        assert hessian_expansion(fam).is_zero()
        assert ordered_expansion(fam).is_zero()
        assert hess_t(fam).is_zero()


class TestTruncatedProduct:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), below=st.integers(0, 12))
    def test_drops_exactly_the_slots_at_or_above_the_bound(self, seed, below):
        rng = random.Random(seed)
        p = sample_family(3, rng, max_slots=3, max_exponent=5)
        q = sample_family(3, rng, max_slots=3, max_exponent=5)
        full = p * q
        cut = hesskit.hessians._family_dot(((1, p, q),), below)
        assert cut.slots == {a: f for a, f in full.slots.items() if a < below}
        assert (cut.nvars, cut.degree) == (full.nvars, full.degree)
        assert hesskit.hessians._family_dot(((1, p, q),)).slots == full.slots


class TestZeroFamily:
    OTHER = TParameterForm({
        1: Form.from_coeffs(3, 4, {(2, 1, 1): 3, (0, 0, 4): -1}),
        2: Form.from_coeffs(3, 4, {(0, 4, 0): Fraction(1, 2)}),
    })

    ZERO = TParameterForm({0: Form.zero(3, 4)})

    def test_difference_with_itself_is_zero(self):
        """The zero family has no slots and keeps the shape of its zero
        slot."""
        zero = self.ZERO
        assert zero.is_zero()
        assert zero.slots == {}
        assert (zero.nvars, zero.degree) == (3, 4)

    def test_zero_times_a_family_is_zero_with_degrees_added(self):
        zero = self.ZERO
        for prod in (zero * self.OTHER, self.OTHER * zero):
            assert prod.is_zero()
            assert (prod.nvars, prod.degree) == (3, 8)

    def test_first_slot_fixes_the_shape_of_the_zero_family(self):
        zero = TParameterForm({0: Form.zero(3, 5), 2: Form.zero(3, 5)})
        assert zero.is_zero()
        assert (zero.nvars, zero.degree) == (3, 5)
        fam = TParameterForm({0: Form.zero(3, 4), 1: Form.monomial((4, 0, 0))})
        assert list(fam.slots) == [1]

    @pytest.mark.parametrize("slots", [
        {},
        {-1: Form.monomial((4, 0, 0))},
        {0: Form.zero(3, 5), 1: Form.monomial((4, 0, 0))},
        {0: Form.monomial((4, 0, 0)), 1: Form.monomial((3, 0))},
    ])
    def test_malformed_slots_rejected(self, slots):
        with pytest.raises(ValueError):
            TParameterForm(slots)

    def test_lowest_order_of_the_zero_family_raises(self):
        with pytest.raises(ValueError, match="zero family"):
            lowest_t_order(self.ZERO)


class TestSharedPartials:
    """Each form derives its second partials once, whichever kernel asks."""

    def test_one_derivation_per_form(self, monkeypatch):
        rng = random.Random(7)
        f, g = random_form(3, 4, rng), random_form(3, 4, rng)
        calls = []
        real = Form.diff
        monkeypatch.setattr(Form, "diff",
                            lambda self, i: calls.append(self) or real(self, i))
        h12(f), hess(f), h3(f, f, g), h12(f, g), h12(g)
        # three first partials and six second ones, for f and for g
        assert len(calls) == 2 * (3 + 6)
        assert sum(1 for form in calls if form is f) == 3
        assert sum(1 for form in calls if form is g) == 3

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_kept_matrix_is_a_fresh_derivation(self, nvars):
        f = random_form(nvars, 3, random.Random(nvars))
        fresh = [[f.diff(i).diff(j) for j in range(nvars)]
                 for i in range(nvars)]
        for _ in range(2):
            mat = f.second_partials()
            assert [list(row) for row in mat] == fresh
        assert f.second_partials() is mat

    def test_kept_matrix_cannot_be_changed(self):
        f = random_form(3, 3, random.Random(1))
        mat = f.second_partials()
        zero = Form.zero(3, 1)
        with pytest.raises(TypeError):
            mat[0][0] = zero
        with pytest.raises(TypeError):
            mat[0] = (zero,) * 3
        with pytest.raises(AttributeError):
            f._partials = ((zero,) * 3,) * 3
        assert f.second_partials() == mat and mat[0][0] == f.diff(0).diff(0)
