"""Hessian determinants, their first-order jets, and t-parameter families.

``hess`` is the exact Hessian determinant of a form.  The first-order jet of
the Hessian map at f in direction g, d/deps Hess(f + eps*g) at eps = 0, is
read off Jacobi's formula as trace(adj(D2 f) * D2 g):
``adjugate_second_partials`` builds adj(D2 f) once and ``adjugate_trace``
applies it to each direction; ``hess_from_adjugate`` reads Hess f itself off
the same adjugate.

For three variables the polarized operators h12 and h3 are provided.  A
family depending polynomially on a parameter t is a ``TParameterForm``; the
families form a ring that contains the zero family, so ``hess_t`` runs the
same determinant expansion over them, and ``hessian_expansion`` is the
independent polarization route that cross-checks it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .forms import Form

# ---------------------------------------------------------------------------
# determinants of matrices with ring-element entries
# ---------------------------------------------------------------------------


def _det_by_expansion(mat):
    """Determinant by first-row Laplace expansion with column-mask memo.

    Entries only need +, -, * (commutative).  Intended for the small matrices
    that show up here (at most 5x5).
    """
    n = len(mat)
    memo: Dict[int, object] = {}

    def rec(row: int, mask: int):
        if row == n - 1:
            col = mask.bit_length() - 1  # only one bit left
            return mat[row][col]
        if mask in memo:
            return memo[mask]
        acc = None
        sign = 1
        m = mask
        while m:
            low = m & (-m)
            col = low.bit_length() - 1
            term = mat[row][col] * rec(row + 1, mask & ~low)
            if acc is None:
                acc = term if sign > 0 else -term
            else:
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
            m &= m - 1
        memo[mask] = acc
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


def adjugate_second_partials(f: Form) -> List[List[Form]]:
    """Adjugate of the matrix of second partials of f.

    adj[i][j] is (-1)**(i+j) times the (j,i) minor; since the matrix is
    symmetric the adjugate is symmetric too.
    """
    mat = f.second_partials()
    n = f.nvars
    adj: List[List[Optional[Form]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            minor = [[mat[a][b] for b in range(n) if b != i] for a in range(n) if a != j]
            entry = _det_by_expansion(minor)
            if (i + j) % 2:
                entry = -entry
            adj[i][j] = entry
            adj[j][i] = entry
    return adj  # type: ignore[return-value]


def adjugate_trace(adj: Sequence[Sequence[Form]], g: Form) -> Form:
    """trace(adj * D2 g), the sum over i, j of adj[i][j] * d_i d_j g.

    With ``adj = adjugate_second_partials(f)`` this is the jet of Hess along
    g at f (Jacobi's formula); taking the adjugate as an argument lets a
    caller that needs many directions at one f build it once.  A zero result
    keeps the degree nvars * (deg g - 2).
    """
    n = g.nvars
    total = Form.zero(n, max(n * (g.degree - 2), 0))
    gm = g.second_partials()
    for i in range(n):
        for j in range(n):
            if not gm[i][j].is_zero():
                total = total + adj[i][j] * gm[i][j]
    return total


def hess_from_adjugate(f: Form, adj: Sequence[Sequence[Form]]) -> Form:
    """hess(f) as the first-row cofactor sum, sum over j of f_0j * adj[j][0].

    With ``adj = adjugate_second_partials(f)`` this takes nvars products in
    place of a second determinant expansion.
    """
    n = f.nvars
    row = f.diff(0)
    total = Form.zero(n, max(n * (f.degree - 2), 0))
    for j in range(n):
        total = total + row.diff(j) * adj[j][0]
    return total


# ---------------------------------------------------------------------------
# polarized operators in three variables
# ---------------------------------------------------------------------------


def _require_ternary(*forms: Form) -> None:
    for f in forms:
        if f.nvars != 3:
            raise ValueError("this operator is defined for three variables only")


def h12(f: Form, g: Optional[Form] = None) -> Form:
    """Polarized 2x2 lower-right Hessian minor in three variables.

    h12(f, g) = (f11*g22 - 2*f12*g12 + f22*g11) / 2, and h12(f) is the
    diagonal f11*f22 - f12**2.
    """
    if g is None:
        _require_ternary(f)
        f11 = f.diff(1).diff(1)
        f22 = f.diff(2).diff(2)
        f12 = f.diff(1).diff(2)
        return f11 * f22 - f12 * f12
    _require_ternary(f, g)
    if f.degree != g.degree:
        raise ValueError("h12 arguments must have equal degree")
    f11, f12, f22 = f.diff(1).diff(1), f.diff(1).diff(2), f.diff(2).diff(2)
    g11, g12, g22 = g.diff(1).diff(1), g.diff(1).diff(2), g.diff(2).diff(2)
    return (f11 * g22 - (f12 * g12).scale(2) + f22 * g11).scale(Fraction(1, 2))


_PERM3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def h3(f: Form, g: Form, h: Form) -> Form:
    """Full polarization of the ternary Hessian determinant.

    Symmetric trilinear, normalized so that h3(f, f, f) == hess(f): six
    determinants whose rows are drawn from the three Hessian matrices, divided
    by 6.
    """
    _require_ternary(f, g, h)
    if not (f.degree == g.degree == h.degree):
        raise ValueError("h3 arguments must have equal degree")
    mats = (f.second_partials(), g.second_partials(), h.second_partials())
    total = None
    for perm in _PERM3:
        rows = [mats[perm[row]][row] for row in range(3)]
        d = _det_by_expansion(rows)
        total = d if total is None else total + d
    return total.scale(Fraction(1, 6))


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
            if not isinstance(a, int) or a < 0:
                raise ValueError("t-exponents must be nonnegative integers")
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

    def _check_compatible(self, other: "TParameterForm") -> None:
        if self.nvars != other.nvars:
            raise ValueError("families live in different variable counts")

    def __add__(self, other: "TParameterForm") -> "TParameterForm":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError(f"cannot add families of degrees {self.degree} and {other.degree}")
        merged: Dict[int, Form] = dict(self.slots)
        for a, form in other.slots.items():
            merged[a] = merged[a] + form if a in merged else form
        return TParameterForm._make(self.nvars, self.degree, merged)

    def __neg__(self) -> "TParameterForm":
        return TParameterForm._make(self.nvars, self.degree,
                                    {a: -f for a, f in self.slots.items()})

    def __sub__(self, other: "TParameterForm") -> "TParameterForm":
        return self + (-other)

    def __mul__(self, other: "TParameterForm") -> "TParameterForm":
        self._check_compatible(other)
        acc: Dict[int, Form] = {}
        for a1, f1 in self.slots.items():
            for a2, f2 in other.slots.items():
                key = a1 + a2
                prod = f1 * f2
                acc[key] = acc[key] + prod if key in acc else prod
        return TParameterForm._make(self.nvars, self.degree + other.degree, acc)


def hess_t(family: TParameterForm) -> TParameterForm:
    """Exact Hessian of a t-parameter family, as a family again.

    The determinant runs over cells that are families themselves: cell (i, j)
    holds d_i d_j of every slot, and is the zero family of degree d - 2 when
    all of them vanish.  A family of cones gives the zero family.
    """
    n = family.nvars
    partials = {a: form.second_partials() for a, form in family.slots.items()}
    cell_degree = max(family.degree - 2, 0)
    mat = [[TParameterForm._make(n, cell_degree, {a: m[i][j] for a, m in partials.items()})
            for j in range(n)] for i in range(n)]
    return _det_by_expansion(mat)


def lowest_t_order(family: TParameterForm) -> Tuple[int, Form]:
    """Lowest t-exponent with a nonzero coefficient form, and that form."""
    if family.is_zero():
        raise ValueError("the zero family has no lowest t-order")
    a = min(family.slots)
    return a, family.slots[a]


def hessian_expansion(family: TParameterForm) -> TParameterForm:
    """Hessian of x0**d + sum_i t**a_i f_i via the polarized operators.

    Requires three variables, a t**0 slot equal to exactly x0**d, and uses
    ordered pair/triple sums:

        hess = d(d-1) x0**(d-2) * sum_{i,j} t**(a_i+a_j) h12(f_i, f_j)
             + sum_{i,j,k} t**(a_i+a_j+a_k) h3(f_i, f_j, f_k)

    Returns the zero family when the result vanishes identically.  This is
    the slow dual route used to cross-check hess_t.
    """
    if family.nvars != 3:
        raise ValueError("expansion route is defined for three variables only")
    d = family.degree
    lead = family.slots.get(0)
    expected = Form.monomial((d, 0, 0), 1)
    if lead is None or lead != expected:
        raise ValueError("expansion route expects the t**0 slot to be exactly x0**d")
    rest = [(a, f) for a, f in family.sorted_slots() if a != 0]
    scale = Form.monomial((d - 2, 0, 0), d * (d - 1))
    acc: Dict[int, Form] = {}

    def put(a: int, form: Form) -> None:
        acc[a] = acc[a] + form if a in acc else form

    for ai, fi in rest:
        for aj, fj in rest:
            put(ai + aj, scale * h12(fi, fj))
    for ai, fi in rest:
        for aj, fj in rest:
            for ak, fk in rest:
                put(ai + aj + ak, h3(fi, fj, fk))
    return TParameterForm._make(3, 3 * (d - 2), acc)
