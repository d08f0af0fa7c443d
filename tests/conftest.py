from fractions import Fraction

import sympy
from hypothesis import strategies as st

from hesskit.errors import InputError
from hesskit.forms import Form, monomials_of_degree
from hesskit.hessians import adjugate_second_partials, adjugate_trace, hess
from hesskit.orbit_checks import SPECIAL_POINTS
from hesskit.rank_certificates import DifferentialMatrix, SpecialPoint

SYMS = sympy.symbols("x0 x1 x2 x3 x4")


def to_sympy(f: Form):
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in zip(SYMS, exps):
            if e:
                term *= v ** e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr, nvars: int, degree: int) -> Form:
    poly = sympy.Poly(sympy.expand(expr), *SYMS[:nvars])
    terms = {}
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(exps)] = Fraction(int(q.p), int(q.q))
    return Form.from_coeffs(nvars, degree, terms)


# Opt-in denominators for ``forms``: 2, 3, 4 and 6 share factors and 35 is
# coprime to them, so sums and products exercise the shared denominator and
# its gcd normalisation.
RATIONAL = (1, 2, 3, 4, 6, 35)


@st.composite
def forms(draw, nvars=3, min_degree=1, max_degree=4, coeff_bound=6,
          denominators=(1,), sparse=False):
    """Forms with coefficients c/q, c in [-coeff_bound, coeff_bound] and q
    drawn from ``denominators``; the default draws integer forms only.
    ``sparse`` zeroes about three coefficients in four."""
    d = draw(st.integers(min_degree, max_degree))
    monos = monomials_of_degree(nvars, d)
    coeffs = draw(st.lists(st.integers(-coeff_bound, coeff_bound),
                           min_size=len(monos), max_size=len(monos)))
    if sparse:
        keep = draw(st.lists(st.integers(0, 3), min_size=len(monos),
                             max_size=len(monos)))
        coeffs = [c if k == 0 else 0 for c, k in zip(coeffs, keep)]
    if all(c == 0 for c in coeffs):
        coeffs = list(coeffs)
        coeffs[0] = 1
    if denominators == (1,):
        dens = [1] * len(monos)
    else:
        dens = draw(st.lists(st.sampled_from(denominators),
                             min_size=len(monos), max_size=len(monos)))
    return Form.from_coeffs(
        nvars, d,
        {e: Fraction(c, q) for e, c, q in zip(monos, coeffs, dens) if c})


def form_route_matrix(f: Form) -> DifferentialMatrix:
    """The differential at f with no factor divided out, through ``Form``
    arithmetic: one ``adjugate_trace`` per monomial direction and ``hess``,
    over the monomials of degree nvars * (d - 2)."""
    n, d = f.nvars, f.degree
    rows = monomials_of_degree(n, n * (d - 2))
    row_of = {e: i for i, e in enumerate(rows)}

    def column(g):
        return {row_of[e]: v for e, v in g.numerators.items()}

    adj = adjugate_second_partials(f)
    cols = monomials_of_degree(n, d)
    return DifferentialMatrix(
        rows, cols, [column(adjugate_trace(adj, Form.monomial(e))) for e in cols],
        column(hess(f)), monomial=(0,) * n, q_power=0)


def special_points(degrees):
    """Every special point whose form has one of the given degrees."""
    for d in degrees:
        for kind in SPECIAL_POINTS:
            try:
                yield SpecialPoint.at_degree(kind, d)
            except InputError:  # wrong parity or below the kind's least degree
                pass
