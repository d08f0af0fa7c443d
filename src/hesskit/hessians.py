"""Hessian determinants, their first-order jets, and t-parameter families.

Every quantity here is a sum of products of forms, and each sum is one call
of ``forms.dot``: one dict over one common denominator, one ``_make``.
``hess`` is the exact Hessian determinant of a form, a Laplace expansion
with one ``dot`` per memoised row expansion.  The first-order jet of the
Hessian map at f in direction g, d/deps Hess(f + eps*g) at eps = 0, is read
off Jacobi's formula as trace(adj(D2 f) * D2 g):
``adjugate_second_partials`` builds adj(D2 f) once, through the generic
``adjugate`` of a symmetric matrix of forms, and ``adjugate_trace``
applies it to each direction; ``hess_from_adjugate`` reads Hess f itself off
the same adjugate.  Every kernel reads second partials through
``Form.second_partials``, which a form derives once and keeps, so ``hess``,
the adjugate, h12 and h3 on one form share a single derivation.

For three variables the polarized operators h12 and h3 are provided; h3 is
(1/3) * trace(A * M(B, C)) with M the polarized (mixed) adjugate, six
``dot``s for the entries of M and one to contract them with A.  ``hess``
keeps its Laplace expansion, so h3(f, f, f) == hess(f) compares two routes.

A family depending polynomially on a parameter t is a ``TParameterForm``;
its one operation is the product.  The family sum of products groups slot
products by t-exponent, one ``forms.dot`` per exponent, so ``hess_t`` runs
the same determinant expansion over families.  ``hess_t_leading`` runs it
with products taken modulo t**N, enough to read the lowest t-order of the
family Hessian, which is all a limit needs.  ``hessian_expansion`` is the
independent polarization route that cross-checks ``hess_t``; its sums run
over multisets of slots, since h12 and h3 are symmetric, and each
t-exponent is one ``forms.dot`` again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import require_int
from .forms import Form, dot

_ONE_HALF, _ONE_THIRD, _ONE_SIXTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)


# ---------------------------------------------------------------------------
# determinants of matrices with ring-element entries
# ---------------------------------------------------------------------------


def _form_dot(terms) -> Form:
    """``forms.dot`` with the degree read off the first (c, f, g) triple."""
    _, f, g = terms[0]
    return dot(f.nvars, f.degree + g.degree, terms)


def _det_by_expansion(mat, dot=_form_dot, sign=1):
    """sign * determinant, by first-row Laplace expansion with column-mask memo.

    Each row expansion is one call of ``dot`` on its (+-1, entry, minor)
    triples, which returns the sum of sign * entry * minor; the default
    sums forms.  ``sign`` multiplies the triples of the top row, so a signed
    cofactor costs no pass of its own; a 1x1 matrix has no row expansion
    and returns its entry unsigned.  Intended for the small matrices that
    show up here (at most 5x5).
    """
    n = len(mat)
    if not n:
        raise ValueError("the empty matrix has no entries to expand")
    memo: Dict[int, object] = {}

    def rec(row: int, mask: int):
        if row == n - 1:
            col = mask.bit_length() - 1  # only one bit left
            return mat[row][col]
        if mask in memo:
            return memo[mask]
        terms = []
        s = sign if row == 0 else 1
        m = mask
        while m:
            low = m & (-m)
            col = low.bit_length() - 1
            terms.append((s, mat[row][col], rec(row + 1, mask & ~low)))
            s = -s
            m &= m - 1
        memo[mask] = acc = dot(terms)
        return acc

    return rec(0, (1 << n) - 1)


def hess(f: Form) -> Form:
    """Exact Hessian determinant det(d2 f / dxi dxj).

    For f of degree d in n variables the result is homogeneous of degree
    n*(d-2); degree-<2 input gives the zero form of that (clamped) degree.
    """
    n = f.nvars
    target = max(n * (f.degree - 2), 0)
    if f.degree < 2 or f.is_zero():
        return Form.zero(n, target)
    return _det_by_expansion(f.second_partials())


def adjugate(mat: Sequence[Sequence[Form]]) -> List[List[Form]]:
    """Adjugate of a symmetric n x n matrix of forms.

    adj[i][j] is (-1)**(i+j) times the (j,i) minor, one expansion with the
    sign in its top row; since the matrix is symmetric the adjugate is
    symmetric too.  The adjugate of a 1x1 matrix is the constant 1, and of
    a 2x2 each cofactor is one entry.  Each cofactor is a minor of order
    n - 1, so adjugate(c * A) = c**(n - 1) * adjugate(A) for a form c.
    """
    n = len(mat)
    adj: List[List[Optional[Form]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            minor = [[mat[a][b] for b in range(n) if b != i] for a in range(n) if a != j]
            sign = -1 if (i + j) % 2 else 1
            if len(minor) > 1:
                entry = _det_by_expansion(minor, sign=sign)
            elif minor:
                entry = minor[0][0] if sign == 1 else -minor[0][0]
            else:
                entry = Form.monomial((0,) * mat[0][0].nvars)
            adj[i][j] = entry
            adj[j][i] = entry
    return adj  # type: ignore[return-value]


def adjugate_second_partials(f: Form) -> List[List[Form]]:
    """Adjugate of the (symmetric) matrix of second partials of f."""
    return adjugate(f.second_partials())


def adjugate_trace(adj: Sequence[Sequence[Form]], g: Form) -> Form:
    """trace(adj * D2 g) for a symmetric ``adj``, as the adjugate of a
    symmetric matrix is: the sum over i <= j of adj[i][j] * d_i d_j g, doubled
    off the diagonal, n (n + 1) / 2 products.

    With ``adj = adjugate_second_partials(f)`` this is the jet of Hess along
    g at f (Jacobi's formula); taking the adjugate as an argument lets a
    caller that needs many directions at one f build it once.  A zero result
    keeps the degree of adj * D2 g, nvars * (deg g - 2) when deg f = deg g.
    """
    n = g.nvars
    gm = g.second_partials()
    return dot(n, adj[0][0].degree + gm[0][0].degree,
               [(1 if i == j else 2, adj[i][j], gm[i][j])
                for i in range(n) for j in range(i, n)])


def hess_from_adjugate(f: Form, adj: Sequence[Sequence[Form]]) -> Form:
    """hess(f) as the first-row cofactor sum, sum over j of f_0j * adj[j][0].

    With ``adj = adjugate_second_partials(f)`` this is one ``dot`` of nvars
    products in place of a second determinant expansion.  The degree is read
    off the factors, so an adjugate with a common factor P divided out gives
    hess(f) / P.
    """
    n = f.nvars
    row = f.second_partials()[0]
    return dot(n, row[0].degree + adj[0][0].degree,
               [(1, row[j], adj[j][0]) for j in range(n)])


# ---------------------------------------------------------------------------
# polarized operators in three variables
# ---------------------------------------------------------------------------


def _require_ternary(*forms: Form) -> None:
    for f in forms:
        if f.nvars != 3:
            raise ValueError("this operator is defined for three variables only")


def _lower_partials(f: Form) -> Tuple[Form, Form, Form]:
    """(f11, f12, f22), read off the second-partial matrix of f."""
    mat = f.second_partials()
    return mat[1][1], mat[1][2], mat[2][2]


def h12(f: Form, g: Optional[Form] = None) -> Form:
    """Polarized 2x2 lower-right Hessian minor in three variables.

    h12(f, g) = (f11*g22 - 2*f12*g12 + f22*g11) / 2, and h12(f) is the
    diagonal f11*f22 - f12**2; either is one ``dot``.
    """
    if g is None:
        _require_ternary(f)
        f11, f12, f22 = _lower_partials(f)
        return dot(3, 2 * f11.degree, ((1, f11, f22), (-1, f12, f12)))
    _require_ternary(f, g)
    if f.degree != g.degree:
        raise ValueError("h12 arguments must have equal degree")
    f11, f12, f22 = _lower_partials(f)
    g11, g12, g22 = _lower_partials(g)
    return dot(3, 2 * f11.degree,
               ((_ONE_HALF, f11, g22), (-1, f12, g12), (_ONE_HALF, f22, g11)))


def h3(f: Form, g: Form, h: Form) -> Form:
    """Full polarization of the ternary Hessian determinant.

    Symmetric trilinear, normalized so that h3(f, f, f) == hess(f).  With
    A, B, C the second-partial matrices of f, g, h it is computed as
    (1/3) * trace(A * M(B, C)), where M(B, C) = (adj(B + C) - adj B - adj C)/2
    is the polarized adjugate.  Jacobi's formula gives h3(f, g, g) =
    (1/3) * trace(A * adj B); both sides are symmetric bilinear in (g, h)
    and agree for g = h, so they agree everywhere.  Each entry of twice M on
    and above the diagonal is one ``dot``: three products on the diagonal
    and four off it.  One outer ``dot`` of six products, with coefficients
    1/6 and 1/3, contracts them with A, so a call takes 21 + 6 products.
    When two arguments are the same object they fill the (g, h) slots, and
    then M = adj B takes two products per entry, 12 + 6 in all.
    """
    _require_ternary(f, g, h)
    if not (f.degree == g.degree == h.degree):
        raise ValueError("h3 arguments must have equal degree")
    if f is g:
        f, h = h, f
    elif f is h:
        f, g = g, f
    a, b, c = f.second_partials(), g.second_partials(), h.second_partials()
    e = a[0][0].degree

    def crossed(sign: int, x: Tuple[int, int], y: Tuple[int, int]):
        """The terms of sign * (B[x] C[y] + C[x] B[y])."""
        if g is h:
            return [(2 * sign, b[x[0]][x[1]], b[y[0]][y[1]])]
        return [(sign, b[x[0]][x[1]], c[y[0]][y[1]]),
                (sign, c[x[0]][x[1]], b[y[0]][y[1]])]

    # cofactor (i, j) of a symmetric 3 x 3 matrix X is
    # X[p][q] X[r][s] - X[p][s] X[r][q], with (p, r) and (q, s) the two
    # indices after i and after j in cyclic order
    outer = []
    for i in range(3):
        p, r = (i + 1) % 3, (i + 2) % 3
        mixed = crossed(1, (p, p), (r, r)) + [(-2, b[p][r], c[p][r])]
        outer.append((_ONE_SIXTH, a[i][i], dot(3, 2 * e, mixed)))
        for j in range(i + 1, 3):
            q, s = (j + 1) % 3, (j + 2) % 3
            mixed = crossed(1, (p, q), (r, s)) + crossed(-1, (p, s), (r, q))
            outer.append((_ONE_THIRD, a[i][j], dot(3, 2 * e, mixed)))
    return dot(3, 3 * e, outer)


# ---------------------------------------------------------------------------
# families depending polynomially on a parameter t
# ---------------------------------------------------------------------------


class TParameterForm:
    """A form whose coefficients are polynomials in a parameter t.

    Stored as {t_exponent: Form} with zero slots dropped; all slots share the
    variable count and degree of the first slot given, which may be a zero
    form, so the zero family (no slots) keeps its variable count and degree.
    Fractional parameter exponents are expected to be cleared to integers by
    the caller (substituting t -> t**N changes nothing that is checked here:
    orders scale, vanishing does not).
    """

    __slots__ = ("nvars", "degree", "slots")

    def __init__(self, slots: Mapping[int, Form]):
        if not slots:
            raise ValueError("a t-parameter family needs at least one slot")
        first = next(iter(slots.values()))
        for a, form in slots.items():
            require_int("t-exponent", a, 0)
            if form.nvars != first.nvars or (not form.is_zero()
                                             and form.degree != first.degree):
                raise ValueError("all slots must share variable count and degree")
        self._set(first.nvars, first.degree, slots)

    def _set(self, nvars: int, degree: int, slots: Mapping[int, Form]) -> None:
        self.nvars = nvars
        self.degree = degree
        self.slots = {a: f for a, f in slots.items() if not f.is_zero()}

    @staticmethod
    def _make(nvars: int, degree: int, slots: Mapping[int, Form]) -> "TParameterForm":
        """Trusted constructor: the caller guarantees matching slot forms."""
        family = object.__new__(TParameterForm)
        family._set(nvars, degree, slots)
        return family

    def is_zero(self) -> bool:
        return not self.slots

    def sorted_slots(self) -> List[Tuple[int, Form]]:
        return sorted(self.slots.items())

    def __mul__(self, other: "TParameterForm") -> "TParameterForm":
        return _family_dot(((1, self, other),))


def _family_dot(terms, below: Optional[int] = None) -> TParameterForm:
    """The family sum of c*F*G over (c, F, G) triples, modulo t**below when
    ``below`` is given.

    Slot products are grouped by t-exponent, one ``forms.dot`` per
    exponent; products of t-exponent >= below are never formed.  Reduction
    modulo t**below is a ring homomorphism, so a determinant expanded with
    this sum is the determinant modulo t**below.
    """
    _, first, second = terms[0]
    nvars, degree = first.nvars, first.degree + second.degree
    groups: Dict[int, list] = {}
    for c, F, G in terms:
        if F.nvars != nvars or G.nvars != nvars:
            raise ValueError("families live in different variable counts")
        for a1, f1 in F.slots.items():
            for a2, f2 in G.slots.items():
                key = a1 + a2
                if below is None or key < below:
                    groups.setdefault(key, []).append((c, f1, f2))
    return TParameterForm._make(nvars, degree, {
        key: dot(nvars, degree, group) for key, group in groups.items()})


def _hessian_cells(family: TParameterForm) -> List[List[TParameterForm]]:
    """The matrix of second partials of a family, one family per cell.

    Cell (i, j) holds d_i d_j of every slot, and is the zero family of degree
    d - 2 when all of them vanish.
    """
    n = family.nvars
    partials = {a: form.second_partials() for a, form in family.slots.items()}
    cell_degree = max(family.degree - 2, 0)
    return [[TParameterForm._make(n, cell_degree, {a: m[i][j] for a, m in partials.items()})
             for j in range(n)] for i in range(n)]


def hess_t(family: TParameterForm) -> TParameterForm:
    """Exact Hessian of a t-parameter family, as a family again.

    The determinant runs over cells that are families themselves.  A family
    of cones gives the zero family.
    """
    return _det_by_expansion(_hessian_cells(family), _family_dot)


def hess_t_leading(family: TParameterForm) -> TParameterForm:
    """hess_t(family) modulo t**N, for an N that keeps its lowest slot.

    The determinant is expanded with products modulo t**N, starting at
    N = 2*a + 1 for the smallest nonzero slot exponent a and doubling N
    while the result is zero.  A nonzero result is hess_t(family) modulo
    t**N, so its lowest slot is exactly the lowest slot of hess_t(family).
    Once N exceeds nvars times the largest slot exponent no product is
    dropped, so a zero result there means hess_t(family) is zero.  The
    start suits families whose t**0 slot has a second-partial matrix of
    rank at most one, such as x0**d: every term of their Hessian then takes
    at least two factors from the other slots.
    """
    cells = _hessian_cells(family)
    exponents = [a for a in family.slots if a]
    full = family.nvars * max(exponents, default=0) + 1
    below = min(2 * min(exponents, default=0) + 1, full)
    while True:
        H = _det_by_expansion(cells, partial(_family_dot, below=below))
        if below == full or not H.is_zero():
            return H
        below = min(2 * below, full)


def lowest_t_order(family: TParameterForm) -> Tuple[int, Form]:
    """Lowest t-exponent with a nonzero coefficient form, and that form."""
    if family.is_zero():
        raise ValueError("the zero family has no lowest t-order")
    a = min(family.slots)
    return a, family.slots[a]


def hessian_expansion(family: TParameterForm) -> TParameterForm:
    """Hessian of x0**d + sum_i t**a_i f_i via the polarized operators.

    Requires three variables and a t**0 slot equal to exactly x0**d:

        hess = d(d-1) x0**(d-2) * sum_{i,j} t**(a_i+a_j) h12(f_i, f_j)
             + sum_{i,j,k} t**(a_i+a_j+a_k) h3(f_i, f_j, f_k)

    h12 and h3 are symmetric, so each sum runs over multisets of slots,
    weighted by the number of orderings of the multiset (1, 2 for pairs;
    1, 3, 6 for triples).  Each t-exponent collects its h3 terms against the
    constant 1 and its h12 terms against d(d-1) x0**(d-2), and is one
    ``forms.dot``.  Returns the zero family when the result vanishes
    identically.  This is the dual route used to cross-check hess_t: it
    never expands a determinant over families.
    """
    if family.nvars != 3:
        raise ValueError("expansion route is defined for three variables only")
    d = family.degree
    lead = family.slots.get(0)
    expected = Form.monomial((d, 0, 0), 1)
    if lead is None or lead != expected:
        raise ValueError("expansion route expects the t**0 slot to be exactly x0**d")
    rest = [(a, f) for a, f in family.sorted_slots() if a != 0]
    factors = ((h3, 3, lead ** 0),
               (h12, 2, Form.monomial((d - 2, 0, 0), d * (d - 1))))
    groups: Dict[int, list] = {}
    for op, arity, factor in factors:
        for group in combinations_with_replacement(rest, arity):
            exps = tuple(a for a, _ in group)
            weight = len(set(permutations(exps)))
            groups.setdefault(sum(exps), []).append(
                (weight, op(*(f for _, f in group)), factor))
    degree = 3 * (d - 2)
    return TParameterForm._make(3, degree, {
        a: dot(3, degree, terms) for a, terms in groups.items()})
