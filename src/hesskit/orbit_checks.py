"""Closed-form Hessians of q**k * l**h and first-order perturbation checks.

Throughout, q is the hyperbolic quadric x0 x1 + x2**2 + ... + xr**2 in r+1
variables and l = x0 spans an isotropic direction for it.  The Hessian of
q**k * l**h is again a monomial in (q, l):

    hess(q**k * l**h) = c(r, k, h) * q**((r+1)(k-1)) * l**((r+1)h)
    c(r, k, h) = -2**(r-1) * k**r * (k+h) * (2k+h-1)        (zero when k = 0)

For the perturbation checks, hess(f + eps*g) is taken to first order in eps:
its eps-part is the Jacobi trace of adj(D2 f) * D2 g and its constant part
the first-row cofactor sum over the same adjugate, and both jet components
are compared against predicted closed forms.  The scalar in front of each
component is also re-extracted from a single monomial coefficient, which pins
the normalization independently of the full-form comparison.  The base f,
its adjugate and its constant part do not depend on the direction, so
``verify_pairs`` builds them once per point and then loops over m, one
direction and one Jacobi trace each; ``verify_pair`` is its one-m case.

``SPECIAL_POINTS`` is the one table of the special points q**k, q**k l and
q**(k-1) l**2, one ``PointKind`` row of strings and ints each: the point, its
pair identity, integer condition and exclusion gate.  All of a pair's data
follow from its row and the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .curves import CONDITIONS, even_a, even_b, odd_c
from .errors import InputError, VerificationError, require_int
from .forms import Form
from .harmonic import QuadraticForm
from .hessians import (adjugate_second_partials, adjugate_trace, hess,
                       hess_from_adjugate)
from .records import json_dict


@lru_cache(maxsize=None, typed=True)
def hyperbolic_q(r: int) -> Form:
    """The quadric x0*x1 + x2**2 + ... + xr**2 in r+1 variables, the
    polynomial of ``QuadraticForm.canonical_hyperbolic(r)``.  Forms are
    immutable, so one is built per r and shared; the cache is typed, so
    ``True`` is refused rather than read as 1."""
    return QuadraticForm.canonical_hyperbolic(r).polynomial()


def power_product(r: int, k: int, h: int) -> Form:
    """q**k * l**h as an explicit form of degree 2k + h."""
    require_int("r", r, 1)
    require_int("k", k, 0)
    require_int("h", h, 0)
    out = Form.monomial((h,) + (0,) * r)
    if k:
        out = out * hyperbolic_q(r) ** k
    return out


def closed_form_constant(r: int, k: int, h: int) -> Fraction:
    require_int("r", r, 1)
    require_int("k", k, 0)
    require_int("h", h, 0)
    if k == 0:
        return Fraction(0)
    return Fraction(-(2 ** (r - 1)) * k ** r * (k + h) * (2 * k + h - 1))


@dataclass(frozen=True)
class ClosedFormReport:
    r: int
    k: int
    h: int
    constant: Fraction
    q_power: int
    l_power: int
    matches: bool

    def to_json_dict(self) -> dict:
        return json_dict(self)


def verify_closed_form(r: int, k: int, h: int) -> ClosedFormReport:
    """Expand hess(q**k l**h) and compare with the predicted monomial in q, l."""
    c = closed_form_constant(r, k, h)
    actual = hess(power_product(r, k, h))
    img = _hess_image(r, (k, h)) if k else (0, 0)
    return ClosedFormReport(r, k, h, c, *img,
                            actual == _predicted(r, c, img, actual.degree))


def _predicted(r: int, c: Fraction, img: Tuple[int, int], degree: int) -> Form:
    """The predicted c * q**a * l**b, img = (a, b), of the given degree; a
    zero c predicts the zero form whatever img is."""
    if c == 0:
        return Form.zero(r + 1, degree)
    qp, lp = img
    if qp < 0 or lp < 0:
        # A negative power can only be predicted alongside a vanishing
        # constant; reaching here means the closed form is wrong.
        raise VerificationError("nonzero constant with invalid power product")
    return c * power_product(r, qp, lp)


def _hess_image(r: int, powers: Tuple[int, int]) -> Tuple[int, int]:
    """The (q, l) powers of hess(q**k l**h), for k >= 1."""
    return ((r + 1) * (powers[0] - 1), (r + 1) * powers[1])


# ---------------------------------------------------------------------------
# the special points and their perturbation pairs
# ---------------------------------------------------------------------------


class PointKind(NamedTuple):
    """A row of ``SPECIAL_POINTS``: the point q**(k - q_shift) * l**l_power."""

    pair: str  # the perturbation pair kind taken at the point
    identity: str  # the number of the pair identity
    condition: str  # a key of curves.CONDITIONS, which holds the least m
    condition_id: str  # the number of that condition
    q_shift: int
    l_power: int
    k_min: int
    gate: str  # the exclusion gate of indeterminacy.exclusion_gate
    gate_k: int  # the least k at which that gate is stated available

    def powers(self, k: int) -> Tuple[int, int]:
        return (k - self.q_shift, self.l_power)

    @property
    def branch(self) -> str:  # the certificate's branch token
        return f"{self.condition}-via-{self.condition_id}"


SPECIAL_POINTS = {
    "qk": PointKind("even", "2.8", "evenA", "2.9", 0, 0, 1,
                    "hyperbolic-power", 2),
    "qkl": PointKind("odd", "2.15", "odd", "2.17", 0, 1, 1,
                     "quadric-line", 3),
    "qk1l2": PointKind("even2", "2.16", "evenB", "2.18", 1, 2, 2,
                       "quadric-double-line", 5),
}
_PAIR_ROWS = {row.pair: row for row in SPECIAL_POINTS.values()}

# A pair's base is its row's point, and m runs from its condition's least m
# to k.  With j = m - q_shift the direction is the base times (l**2/q)**j, and
# hess(base + eps dir) = c0 * A + eps * c1 * B + O(eps**2), where A is the
# closed-form image of the base and B = A * (l**2/q)**j.


def _predicted_constants(kind: str, r: int, k: int, m: int) -> Tuple[Fraction, Fraction]:
    # The even-case c1 carries 2**(r-1), pinned by re-deriving the determinant
    # expansion from the two-block matrix and confirmed by the jet expansion;
    # with this factor c1 degenerates to (r+1) c0 at m = 0 as scaling demands.
    if kind == "even":
        c1 = Fraction(2 ** (r - 1) * k ** r * (2 * k - 1) * even_a(r, k, m))
    elif kind == "odd":
        c1 = Fraction(2 ** r * k ** r * odd_c(r, k, m))
    elif kind == "even2":
        c1 = Fraction(2 ** (r - 1) * (k - 1) ** (r - 1) * (2 * k - 1)
                      * even_b(r, k, m))
    else:
        raise InputError(f"unknown pair kind {kind!r}")
    return closed_form_constant(r, *_PAIR_ROWS[kind].powers(k)), c1


def pair_m_range(kind: str, r: int, k: int) -> range:
    """The valid m of a pair kind at (r, k), after refusing a bad kind, r or k."""
    row = _PAIR_ROWS.get(kind)
    if row is None:
        raise InputError(f"unknown pair kind {kind!r}")
    require_int("r", r, 1)
    require_int("k", k, row.k_min)
    return range(CONDITIONS[row.condition][1], k + 1)


def _pair_data(kind: str, r: int, k: int, m: int):
    """Direction (q, l) powers and predicted (q, l) powers of the eps-part."""
    ms = pair_m_range(kind, r, k)
    require_int("m", m, ms.start)
    if m > k:
        raise InputError(f"m must lie in [{ms.start}, {k}], got {m!r}")
    row = _PAIR_ROWS[kind]
    base, j = row.powers(k), m - row.q_shift
    return tuple((a - j, b + 2 * j) for a, b in (base, _hess_image(r, base)))


@dataclass(frozen=True)
class PairReport:
    kind: str
    r: int
    k: int
    m: int
    c0: Fraction
    c1: Fraction
    c0_extracted: Fraction
    c1_extracted: Fraction
    base_matches: bool
    eps_matches: bool
    condition_value: int

    @property
    def matches(self) -> bool:
        return (self.base_matches and self.eps_matches
                and self.c0 == self.c0_extracted and self.c1 == self.c1_extracted)

    def to_json_dict(self) -> dict:
        return json_dict(self, matches=self.matches)


def _coefficient_at(form: Form, img: Tuple[int, int]) -> Fraction:
    """The coefficient of x0**(a+b) x1**a, which is one in q**a l**b."""
    a, b = img
    if a < 0 or b < 0:
        return Fraction(0)
    exps = (a + b, a) + (0,) * (form.nvars - 2)
    return form.terms.get(exps, Fraction(0))


def verify_pairs(kind: str, r: int, k: int,
                 ms: Optional[Iterable[int]] = None) -> List[PairReport]:
    """First-order jets of hess at one power product, against the closed forms.

    One report per m of ``ms`` (default: every valid m), in order.  Every m
    is checked before any work starts.  The base, its adjugate, its Hessian
    h0 and the base comparison do not depend on m, so they are built once;
    each m then costs one direction and one ``adjugate_trace``.  Both jet
    components are compared in full, and the leading constants are re-read
    off single monomial coefficients.  The x0-x1 extraction monomials carry
    coefficient one inside the relevant q-power, so the extracted value is
    the constant itself.  A vanishing predicted constant means the component
    must vanish identically; this covers the boundary values of m where the
    predicted q-power would otherwise be negative.
    """
    valid = pair_m_range(kind, r, k)
    pairs = [(m, _pair_data(kind, r, k, m))
             for m in (valid if ms is None else ms)]
    row = _PAIR_ROWS[kind]
    point = row.powers(k)

    base_img = _hess_image(r, point)
    base = power_product(r, *point)
    adj = adjugate_second_partials(base)
    h0 = hess_from_adjugate(base, adj)
    c0 = closed_form_constant(r, *point)
    base_ok = h0 == _predicted(r, c0, base_img, h0.degree)
    c0_extracted = _coefficient_at(h0, base_img)
    condition = CONDITIONS[row.condition][0]

    reports = []
    for m, ((dk, dh), eps_img) in pairs:
        c1 = _predicted_constants(kind, r, k, m)[1]
        h1 = adjugate_trace(adj, power_product(r, dk, dh))
        reports.append(PairReport(
            kind=kind, r=r, k=k, m=m,
            c0=c0, c1=c1,
            c0_extracted=c0_extracted,
            c1_extracted=_coefficient_at(h1, eps_img),
            base_matches=base_ok,
            eps_matches=h1 == _predicted(r, c1, eps_img, h1.degree),
            condition_value=condition(r, k, m),
        ))
    return reports


def verify_pair(kind: str, r: int, k: int, m: int) -> PairReport:
    """``verify_pairs`` at the one m."""
    return verify_pairs(kind, r, k, (m,))[0]
