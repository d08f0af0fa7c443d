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
the normalization independently of the full-form comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .curves import even_a, even_b, odd_c
from .errors import InputError, VerificationError, require_int
from .forms import Form
from .hessians import (adjugate_second_partials, adjugate_trace, hess,
                       hess_from_adjugate)


def hyperbolic_q(r: int) -> Form:
    """The quadric x0*x1 + x2**2 + ... + xr**2 in r+1 variables."""
    if r < 1:
        raise ValueError("need at least two variables")
    terms = {(1, 1) + (0,) * (r - 1): 1}
    for i in range(2, r + 1):
        terms[(0,) * i + (2,) + (0,) * (r - i)] = 1
    return Form.from_coeffs(r + 1, 2, terms)


def power_product(r: int, k: int, h: int) -> Form:
    """q**k * l**h as an explicit form of degree 2k + h."""
    if k < 0 or h < 0:
        raise ValueError("powers must be nonnegative")
    out = Form.monomial((h,) + (0,) * r, Fraction(1))
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
        return {
            "r": self.r,
            "k": self.k,
            "h": self.h,
            "constant": str(self.constant),
            "q_power": self.q_power,
            "l_power": self.l_power,
            "matches": self.matches,
        }


def verify_closed_form(r: int, k: int, h: int) -> ClosedFormReport:
    """Expand hess(q**k l**h) and compare with the predicted monomial in q, l."""
    c = closed_form_constant(r, k, h)
    actual = hess(power_product(r, k, h))
    qp = (r + 1) * (k - 1) if k else 0
    lp = (r + 1) * h if k else 0
    if c == 0:
        predicted = Form.zero(r + 1, actual.degree)
    else:
        predicted = c * power_product(r, qp, lp)
    return ClosedFormReport(r, k, h, c, qp, lp, actual == predicted)


# ---------------------------------------------------------------------------
# perturbation pairs
# ---------------------------------------------------------------------------
#
# kind "even":  base q**k,        direction q**(k-m) l**(2m),    1 <= m <= k
# kind "odd":   base q**k l,      direction q**(k-m) l**(2m+1),  0 <= m <= k
# kind "even2": base q**(k-1) l**2, direction q**(k-m) l**(2m),  0 <= m <= k
#
# In every case hess(base + eps dir) = c0 * A + eps * c1 * B + O(eps**2) with
# A, B explicit power products; the constants depend polynomially on (r,k,m).


def _predicted_constants(kind: str, r: int, k: int, m: int) -> Tuple[Fraction, Fraction]:
    # The even-case c1 carries 2**(r-1), pinned by re-deriving the determinant
    # expansion from the two-block matrix and confirmed by the jet expansion;
    # with this factor c1 degenerates to (r+1) c0 at m = 0 as scaling demands.
    if kind == "even":
        c0 = Fraction(2 ** (r - 1) * k ** (r + 1) * (1 - 2 * k))
        c1 = Fraction(2 ** (r - 1) * k ** r * (2 * k - 1) * even_a(r, k, m))
    elif kind == "odd":
        c0 = Fraction(-(2 ** r) * k ** (r + 1) * (k + 1))
        c1 = Fraction(2 ** r * k ** r * odd_c(r, k, m))
    elif kind == "even2":
        c0 = Fraction(-(2 ** (r - 1)) * (k - 1) ** r * (k + 1) * (2 * k - 1))
        c1 = Fraction(2 ** (r - 1) * (k - 1) ** (r - 1) * (2 * k - 1)
                      * even_b(r, k, m))
    else:
        raise ValueError(f"unknown pair kind {kind!r}")
    return c0, c1


_M_MIN = {"even": 1, "odd": 0, "even2": 0}


def pair_m_range(kind: str, r: int, k: int) -> range:
    """The valid m of a pair kind at (r, k), after refusing a bad kind, r or k."""
    if kind not in _M_MIN:
        raise InputError(f"unknown pair kind {kind!r}")
    require_int("r", r, 1)
    require_int("k", k, 2 if kind == "even2" else 1)
    return range(_M_MIN[kind], k + 1)


def _pair_data(kind: str, r: int, k: int, m: int):
    """Base form, direction form, predicted (q, l) powers, extraction slots."""
    ms = pair_m_range(kind, r, k)
    require_int("m", m, ms.start)
    if m > k:
        raise InputError(f"m must lie in [{ms.start}, {k}], got {m!r}")
    s = (r + 1) * (k - 1)
    if kind == "even":
        base = (k, 0)
        direction = (k - m, 2 * m)
        base_img = (s, 0)
        eps_img = (s - m, 2 * m)
        mono0 = (s, s)
        mono1 = (s + m, s - m)
    elif kind == "odd":
        base = (k, 1)
        direction = (k - m, 2 * m + 1)
        base_img = (s, r + 1)
        eps_img = (s - m, 2 * m + r + 1)
        mono0 = ((r + 1) * k, s)
        mono1 = ((r + 1) * k + m, s - m)
    else:
        t = (r + 1) * (k - 2)
        base = (k - 1, 2)
        direction = (k - m, 2 * m)
        base_img = (t, 2 * (r + 1))
        eps_img = (t + 1 - m, 2 * m + 2 * r)
        mono0 = ((r + 1) * k, t)
        mono1 = ((r + 1) * k + m - 1, t + 1 - m)
    return base, direction, base_img, eps_img, mono0, mono1


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
        return {
            "kind": self.kind,
            "r": self.r,
            "k": self.k,
            "m": self.m,
            "c0": str(self.c0),
            "c1": str(self.c1),
            "c0_extracted": str(self.c0_extracted),
            "c1_extracted": str(self.c1_extracted),
            "base_matches": self.base_matches,
            "eps_matches": self.eps_matches,
            "condition_value": self.condition_value,
            "matches": self.matches,
        }


def _coefficient_at(form: Form, e0: int, e1: int) -> Fraction:
    if e0 < 0 or e1 < 0:
        return Fraction(0)
    exps = (e0, e1) + (0,) * (form.nvars - 2)
    return form.terms.get(exps, Fraction(0))


def verify_pair(kind: str, r: int, k: int, m: int) -> PairReport:
    """First-order jet of hess at a power product, against the closed forms.

    Both jet components are compared in full, and the leading constants are
    re-read off single monomial coefficients.  The x0-x1 extraction monomials
    carry coefficient one inside the relevant q-power, so the extracted value
    is the constant itself.  A vanishing predicted constant means the
    component must vanish identically; this covers the boundary values of m
    where the predicted q-power would otherwise be negative.
    """
    (bk, bh), (dk, dh), base_img, eps_img, mono0, mono1 = _pair_data(kind, r, k, m)
    c0, c1 = _predicted_constants(kind, r, k, m)

    base = power_product(r, bk, bh)
    direction = power_product(r, dk, dh)
    adj = adjugate_second_partials(base)
    h0 = hess_from_adjugate(base, adj)
    h1 = adjugate_trace(adj, direction)

    def predicted(c: Fraction, img: Tuple[int, int], like: Form) -> Form:
        if c == 0:
            return Form.zero(r + 1, like.degree)
        qp, lp = img
        if qp < 0 or lp < 0:
            # A negative power can only be predicted alongside a vanishing
            # constant; reaching here means the closed form is wrong.
            raise VerificationError("nonzero constant with invalid power product")
        return c * power_product(r, qp, lp)

    base_ok = h0 == predicted(c0, base_img, h0)
    eps_ok = h1 == predicted(c1, eps_img, h1)

    cond = {"even": even_a, "odd": odd_c, "even2": even_b}[kind](r, k, m)

    return PairReport(
        kind=kind, r=r, k=k, m=m,
        c0=c0, c1=c1,
        c0_extracted=_coefficient_at(h0, *mono0),
        c1_extracted=_coefficient_at(h1, *mono1),
        base_matches=base_ok,
        eps_matches=eps_ok,
        condition_value=cond,
    )
