"""Harmonic decomposition with respect to a nondegenerate quadratic form.

A quadratic form is carried by its symmetric Gram matrix A, as the polynomial
x^T A x.  Its dual differential operator is

    lap_q(f) = sum_ij (A**-1)_ij d2 f / dxi dxj,

normalized so that lap_q applied to the quadric itself gives 2*(r+1) in r+1
variables.  A form is harmonic when lap_q kills it.  Every degree-d form f
splits uniquely as f = sum_i q**i * f_{d-2i} with all f_{d-2i} harmonic.
``harmonic_decompose`` peels the top summand off by the closed Laplacian
formula, a short sum of q-powers times iterated Laplacians of f, and recurses
on the rest; it solves no linear system.  The Laplacian, the two sums of
each step and ``recompose`` are one ``forms.dot`` each.  ``harmonic_basis``
and the dual Gram matrix come from exact linear algebra in ``linalg``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, Sequence

from . import linalg
from .errors import require_int
from .forms import Form, _coerce, dim_sym, dot, monomials_of_degree, powers

_ONE_HALF = Fraction(1, 2)


class QuadraticForm:
    """Nondegenerate quadratic form given by its symmetric Gram matrix A;
    its polynomial x^T A x is one ``dot`` of the terms (A_ij, x_i, x_j)."""

    __slots__ = ("nvars", "dual", "_poly")

    def __init__(self, gram: Sequence[Sequence]):
        n = len(gram)
        require_int("nvars", n, 1)
        g = [[_coerce(x) for x in row] for row in gram]
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        try:
            dual = linalg.invert(g)
        except ValueError as err:
            raise ValueError("Gram matrix is degenerate") from err
        self.nvars = n
        self.dual = tuple(tuple(row) for row in dual)
        xs = [Form.variable(n, i) for i in range(n)]
        self._poly = dot(n, 2, [(g[i][j], xs[i], xs[j])
                                for i in range(n) for j in range(n)])

    @staticmethod
    def identity(r: int) -> "QuadraticForm":
        """Sum of squares x0**2 + ... + xr**2."""
        require_int("r", r, 0)
        n = r + 1
        return QuadraticForm([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def canonical_hyperbolic(r: int) -> "QuadraticForm":
        """The quadric x0*x1 + x2**2 + ... + xr**2 with isotropic x0."""
        require_int("r", r, 1)
        n = r + 1
        gram = [[Fraction(0)] * n for _ in range(n)]
        gram[0][1] = gram[1][0] = _ONE_HALF
        for i in range(2, n):
            gram[i][i] = Fraction(1)
        return QuadraticForm(gram)

    def polynomial(self) -> Form:
        return self._poly

    def laplacian(self, f: Form) -> Form:
        """The dual second-order operator sum_ij (A**-1)_ij d_i d_j f, one
        ``dot`` over the nonzero entries of A**-1."""
        if f.nvars != self.nvars:
            raise ValueError("form and quadric have different variable counts")
        firsts = [f.diff(i) for i in range(self.nvars)]
        one = f ** 0
        return dot(self.nvars, max(f.degree - 2, 0),
                   [(c, firsts[i].diff(j), one)
                    for i, row in enumerate(self.dual)
                    for j, c in enumerate(row) if c])

    def __repr__(self) -> str:
        return f"QuadraticForm({self.nvars} vars)"


def harmonic_decompose(f: Form, q: QuadraticForm) -> List[Form]:
    """Split f into [f_d, f_{d-2}, ..., f_{d mod 2}] with every slot harmonic.

    The returned list has d//2 + 1 entries and satisfies
    f == sum_i q**i * slots[i] exactly.  Each step writes the current form c
    of degree m as c = h + q*g with h harmonic, where

        h = sum_{j>=0} a_j q**j lap_q**j (c),
        g = -sum_{j>=1} a_j q**(j-1) lap_q**j (c),
        a_0 = 1,  a_j = -a_{j-1} / (2j (n + 2m - 2 - 2j)),

    (Axler-Bourdon-Ramey, Harmonic Function Theory, ch. 5), and recurses on
    g.  Each of h and g is one ``dot`` over the powers 1, q, q**2, ..., which
    are built once per call.  The formula rests on

        lap_q(q**j h) = 2j (n + 2m' + 2j - 2) q**(j-1) h

    for h harmonic of degree m', which holds for every nondegenerate q under
    the normalization lap_q(q) = 2n; no denominator vanishes for m >= 2.
    """
    if f.nvars != q.nvars:
        raise ValueError("form and quadric have different variable counts")
    n = f.nvars
    qpows = powers(q.polynomial(), f.degree // 2)
    slots: List[Form] = []
    cur = f
    for m in range(f.degree, 1, -2):
        laps = [cur]
        coeffs = [Fraction(1)]
        for j in range(1, m // 2 + 1):
            laps.append(q.laplacian(laps[-1]))
            coeffs.append(-coeffs[-1] / (2 * j * (n + 2 * m - 2 - 2 * j)))
        slots.append(dot(n, m, [(coeffs[j], qpows[j], laps[j])
                                for j in range(m // 2 + 1)]))
        cur = dot(n, m - 2, [(-coeffs[j], qpows[j - 1], laps[j])
                             for j in range(1, m // 2 + 1)])
    slots.append(cur)
    return slots


def recompose(slots: Sequence[Form], q: QuadraticForm) -> Form:
    """Inverse of harmonic_decompose: sum_i q**i * slots[i], one ``dot``."""
    if not slots:
        raise ValueError("no slots")
    qpows = powers(q.polynomial(), len(slots) - 1)
    return dot(q.nvars, slots[0].degree,
               [(1, qpow, s) for qpow, s in zip(qpows, slots)])


def dim_harmonic(nvars: int, degree: int) -> int:
    """Dimension of the harmonic subspace of degree-``degree`` forms."""
    require_int("degree", degree, 0)
    return dim_sym(nvars, degree) - dim_sym(nvars, degree - 2)


def harmonic_basis(degree: int, q: QuadraticForm) -> List[Form]:
    """Deterministic basis of the harmonic forms of the given degree.

    Computed as an exact nullspace of the Laplacian matrix on the monomial
    basis; order follows the canonical monomial order of the free columns.
    """
    require_int("degree", degree, 0)
    nvars = q.nvars
    monos = monomials_of_degree(nvars, degree)
    if degree <= 1:
        return [Form.monomial(m, 1) for m in monos]
    target = monomials_of_degree(nvars, degree - 2)
    tindex = {m: i for i, m in enumerate(target)}
    rows = [[Fraction(0)] * len(monos) for _ in range(len(target))]
    for j, m in enumerate(monos):
        image = q.laplacian(Form.monomial(m, 1))
        for e, c in image.terms.items():
            rows[tindex[e]][j] = c
    basis_vectors = linalg.nullspace(rows)
    out: List[Form] = []
    for v in basis_vectors:
        terms = {monos[i]: c for i, c in enumerate(v) if c != 0}
        out.append(Form(nvars, degree, terms))
    return out


def bombieri_weyl(f: Form, g: Form) -> Fraction:
    """The pairing sum_a f_a g_a a!/d! (relative to the identity quadric).

    Satisfies BW((v.x)**d, (w.x)**d) = (v.w)**d, and makes the harmonic
    summands relative to the identity quadric mutually orthogonal.
    """
    if f.nvars != g.nvars:
        raise ValueError("forms live in different variable counts")
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    if f.degree != g.degree:
        raise ValueError("pairing needs equal degrees")
    dfact = factorial(f.degree)
    total = Fraction(0)
    small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    for e, c in small.items():
        c2 = large.get(e)
        if c2 is None:
            continue
        weight = 1
        for k in e:
            weight *= factorial(k)
        total += c * c2 * Fraction(weight, dfact)
    return total
