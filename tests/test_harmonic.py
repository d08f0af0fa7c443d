import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit.forms import Form, dim_sym, monomials_of_degree, random_form
from hesskit.harmonic import (QuadraticForm, bombieri_weyl, dim_harmonic,
                              harmonic_basis, harmonic_decompose, recompose)

from conftest import RATIONAL, SYMS, forms, to_sympy
from test_forms import ref_add, ref_diff, ref_mul, ref_scale

Q = QuadraticForm.canonical_hyperbolic(2)

# Nondegenerate quadrics of both signatures, in one to four variables, with
# integer and non-integer Gram entries.  Round trip plus harmonic slots
# characterise the unique decomposition, so the tests below need no second
# implementation to compare against.
QUADRICS = [
    QuadraticForm.canonical_hyperbolic(1),
    Q,
    QuadraticForm.canonical_hyperbolic(3),
    QuadraticForm.identity(2),
    QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 5]]),
    QuadraticForm([[1, Fraction(1, 3), 0, 0],
                   [Fraction(1, 3), -1, Fraction(1, 2), 0],
                   [0, Fraction(1, 2), 0, 1],
                   [0, 0, 1, Fraction(1, 3)]]),
    QuadraticForm([[3]]),
]


def slot_degrees(d):
    return list(range(d, -1, -2))


# Reference decomposition on plain dicts of exponent tuple -> Fraction: the
# Laplacian as a chain of scaled second partials and the closed formula's
# g-sum by Horner's rule in q, term by term through ``ref_*``.  It shares no
# arithmetic with ``Form``.

def ref_laplacian(a, q):
    total = {}
    for i in range(q.nvars):
        di = ref_diff(a, i)
        for j in range(q.nvars):
            c = q.dual[i][j]
            if c:
                total = ref_add(total, ref_scale(ref_diff(di, j), c))
    return total


def ref_decompose(a, degree, q):
    n = q.nvars
    qpoly = dict(q.polynomial().terms)
    slots = []
    cur = a
    for m in range(degree, 1, -2):
        laps = [cur]
        for _ in range(m // 2):
            laps.append(ref_laplacian(laps[-1], q))
        coeffs = [Fraction(1)]
        for j in range(1, m // 2 + 1):
            coeffs.append(-coeffs[-1] / (2 * j * (n + 2 * m - 2 - 2 * j)))
        acc = ref_scale(laps[-1], coeffs[-1])
        for j in range(m // 2 - 1, 0, -1):
            acc = ref_add(ref_mul(qpoly, acc), ref_scale(laps[j], coeffs[j]))
        g = ref_scale(acc, -1)
        slots.append(ref_add(cur, ref_scale(ref_mul(qpoly, g), -1)))
        cur = g
    slots.append(cur)
    return slots


def random_rational_form(nvars, degree, rng):
    terms = {e: Fraction(rng.randint(-6, 6), rng.choice(RATIONAL))
             for e in monomials_of_degree(nvars, degree)}
    return Form(nvars, degree, terms)


class TestAgainstReference:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["identity", "canonical_hyperbolic"])
    def test_decomposition_matches_the_reference(self, kind, r):
        q = getattr(QuadraticForm, kind)(r)
        rng = random.Random(f"{kind}{r}")
        for degree in range(9):
            f = random_rational_form(q.nvars, degree, rng)
            a = dict(f.terms)
            assert dict(q.laplacian(f).terms) == ref_laplacian(a, q)
            slots = harmonic_decompose(f, q)
            assert [dict(s.terms) for s in slots] == ref_decompose(a, degree, q)
            assert [s.degree for s in slots] == slot_degrees(degree)

    @pytest.mark.parametrize("q", [QuadraticForm.canonical_hyperbolic(r)
                                   for r in (1, 2, 3)]
                             + [QuadraticForm.identity(2)],
                             ids=["hyperbolic1", "hyperbolic2", "hyperbolic3",
                                  "identity2"])
    def test_laplacian_matches_sympy(self, q):
        n = q.nvars
        xs = SYMS[:n]
        # the Gram matrix is half the Hessian of the polynomial x^T A x
        gram = sympy.hessian(to_sympy(q.polynomial()), xs) / 2
        dual = gram.inv()

        @settings(max_examples=10, deadline=None)
        @given(f=forms(nvars=n, min_degree=0, max_degree=4,
                       denominators=RATIONAL))
        def check(f):
            expr = to_sympy(f)
            want = sum(dual[i, j] * sympy.diff(expr, xs[i], xs[j])
                       for i in range(n) for j in range(n))
            lap = q.laplacian(f)
            assert to_sympy(lap) == sympy.expand(want)
            assert lap.degree == max(f.degree - 2, 0)

        check()


class TestDecomposition:
    # Each example draws one form per quadric, so every quadric is covered
    # in every run.
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        for q in QUADRICS:
            f = data.draw(forms(nvars=q.nvars, min_degree=1, max_degree=7))
            slots = harmonic_decompose(f, q)
            assert recompose(slots, q) == f
            assert [s.degree for s in slots] == slot_degrees(f.degree)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_slot_is_harmonic(self, data):
        for q in QUADRICS:
            f = data.draw(forms(nvars=q.nvars, min_degree=1, max_degree=6))
            for s in harmonic_decompose(f, q):
                assert q.laplacian(s).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), j=st.integers(1, 2))
    def test_multiplying_by_q_shifts_slots(self, data, j):
        for q in QUADRICS:
            f = data.draw(forms(nvars=q.nvars, min_degree=1, max_degree=4))
            slots = harmonic_decompose(f, q)
            shifted = harmonic_decompose((q.polynomial() ** j) * f, q)
            assert [s.degree for s in shifted] \
                == slot_degrees(f.degree + 2 * j)
            assert all(s.is_zero() for s in shifted[:j])
            assert shifted[j:] == slots

    @settings(max_examples=20)
    @given(f=forms(min_degree=2, max_degree=5), g=forms(min_degree=2, max_degree=5))
    def test_decomposition_is_linear(self, f, g):
        if f.degree != g.degree:
            g = f
        sf = harmonic_decompose(f, Q)
        sg = harmonic_decompose(g, Q)
        sfg = harmonic_decompose(f + g, Q)
        assert sfg == [a + b for a, b in zip(sf, sg)]

    def test_decomposition_of_q_power_is_a_single_slot(self):
        for q in QUADRICS:
            slots = harmonic_decompose(q.polynomial() ** 3, q)
            assert [i for i, s in enumerate(slots) if not s.is_zero()] == [3]
            assert [s.degree for s in slots] == slot_degrees(6)
            assert slots[3] == Form.monomial((0,) * q.nvars, 1)

    @pytest.mark.parametrize("q", QUADRICS)
    def test_laplacian_of_q_power_times_harmonic(self, q):
        """lap_q(q**j h) = 2j (n + 2m + 2j - 2) q**(j-1) h for h harmonic
        of degree m in n variables."""
        n = q.nvars
        qpoly = q.polynomial()
        for m in range(5 if n < 4 else 3):
            for h in harmonic_basis(m, q):
                for j in (1, 2, 3):
                    assert q.laplacian(qpoly ** j * h) \
                        == (2 * j * (n + 2 * m + 2 * j - 2)) * qpoly ** (j - 1) * h


class TestDimensions:
    def test_ternary_harmonic_dimension_is_odd(self):
        for d in range(0, 9):
            assert dim_harmonic(3, d) == 2 * d + 1

    def test_harmonic_dimension_is_sym_difference(self):
        for nvars in (3, 4):
            for d in range(2, 7):
                assert dim_harmonic(nvars, d) \
                    == dim_sym(nvars, d) - dim_sym(nvars, d - 2)

    def test_basis_has_harmonic_dimension(self):
        for d in (1, 2, 3, 4, 5):
            basis = harmonic_basis(d, Q)
            assert len(basis) == dim_harmonic(3, d)
            for h in basis:
                assert Q.laplacian(h).is_zero()


class TestBombieriWeyl:
    def test_distinct_basis_vectors_are_orthogonal(self):
        for d in (2, 3, 4):
            basis = harmonic_basis(d, Q)
            for i, hi in enumerate(basis):
                assert bombieri_weyl(hi, hi) != 0
                for hj in basis[i + 1:]:
                    assert bombieri_weyl(hi, hj) == 0

    @settings(max_examples=20)
    @given(f=forms(min_degree=2, max_degree=4), g=forms(min_degree=2, max_degree=4))
    def test_pairing_is_symmetric(self, f, g):
        if f.degree != g.degree:
            g = f
        assert bombieri_weyl(f, g) == bombieri_weyl(g, f)

    def test_identity_summands_are_orthogonal(self):
        """The summands q**i * f_(d-2i) of the decomposition relative to the
        identity quadric are pairwise orthogonal, and some of the compared
        pairs share monomials, so the multinomial weights are exercised."""
        qid = QuadraticForm.identity(2)
        q = qid.polynomial()
        shared = 0
        for seed in range(40):
            rng = random.Random(seed)
            f = random_form(3, rng.randint(2, 6), rng)
            summands = [q ** i * h
                        for i, h in enumerate(harmonic_decompose(f, qid))]
            for i, a in enumerate(summands):
                for b in summands[i + 1:]:
                    shared += bool(set(a.terms) & set(b.terms))
                    assert bombieri_weyl(a, b) == 0
        assert shared > 0

    def test_pairing_on_monomials(self):
        """<x0^2, x0^2> at degree 2 carries weight 1 over the multinomial."""
        a = Form.monomial((2, 0, 0))
        assert bombieri_weyl(a, a) == Fraction(1)
        b = Form.monomial((1, 1, 0))
        assert bombieri_weyl(b, b) == Fraction(1, 2)


class TestQuadraticForm:
    def test_canonical_hyperbolic_polynomial(self):
        assert Q.polynomial() == Form.from_coeffs(
            3, 2, {(1, 1, 0): 1, (0, 0, 2): 1})

    def test_identity_laplacian_is_classical(self):
        qid = QuadraticForm.identity(2)
        f = Form.monomial((2, 0, 0))
        lap = qid.laplacian(f)
        assert lap == Form.monomial((0, 0, 0), 2)

    def test_variable_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            harmonic_decompose(Form.monomial((2, 0)), Q)

    def test_recompose_of_no_slots_rejected(self):
        with pytest.raises(ValueError, match="^no slots$"):
            recompose([], Q)

    @pytest.mark.parametrize("gram", [[[1, 1], [1, 1]],
                                      [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      [[1, Fraction(1, 2)], [Fraction(1, 2),
                                                             Fraction(1, 4)]]])
    def test_degenerate_gram_matrix_rejected(self, gram):
        with pytest.raises(ValueError, match="^Gram matrix is degenerate$"):
            QuadraticForm(gram)
