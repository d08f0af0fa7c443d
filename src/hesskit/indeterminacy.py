"""Divisibility properties of ternary Hessians near the cone locus.

Everything here is ternary (r = 2).  A form whose 2x2 lower Hessian block
h12(f) = f11 f22 - f12**2 vanishes identically has the normal shape

    f = x0**d + x0**(d-1) l(x1, x2) + sum_{i>=2} c_i x0**(d-i) m(x1, x2)**i

and its Hessian is divisible by x0**(2d-4), vanishing exactly when l is
proportional to m or every c_i is zero (either way f defines a cone).  The
gated checks push this to polarized combinations H(f,f,g), H(f,g,g)
(divisible by x0**(2d-4)) and H(f,g,h) (divisible by x0**(d-3)) under
vanishing hypotheses on the pairwise h12, and the limit check asserts that
the lowest-order coefficient of Hess(f(t)) along a one-parameter family
through x0**d is divisible by x0**(d-3).  All checks verify their gates
symbolically before asserting anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, Optional, Tuple, Union

from .errors import InputError, VerificationError, require_int
from .forms import (Form, _coerce, common_monomial, dot, monomials_of_degree,
                    powers)
from .hessians import (TParameterForm, h3, h12, hess, hess_t_leading,
                       lowest_t_order)
from .orbit_checks import SPECIAL_POINTS, PointKind, _hess_image
from .records import json_dict


# ---------------------------------------------------------------------------
# the normal form
# ---------------------------------------------------------------------------


def _linear(a, b) -> Form:
    """The linear form a x1 + b x2 in three variables."""
    return Form(3, 1, {(0, 1, 0): a, (0, 0, 1): b})


def _x12(u: Form) -> Tuple[Fraction, Fraction]:
    """The coefficients (a, b) of x1 and x2 in u; a zero form reads (0, 0)."""
    return u.coefficient((0, 1, 0)), u.coefficient((0, 0, 1))


@cache
def _x0_powers(top: int) -> Tuple[Form, ...]:
    """(1, x0, ..., x0**top) in three variables.  Forms are immutable, so
    one tuple is built per top and shared through the cache; callers only
    index it."""
    return tuple(powers(Form.variable(3, 0), top))


def _cone_form(d: int, l: Form, m: Form, cs) -> Form:
    """x0**d + x0**(d-1) l + sum_{i>=2} c_i x0**(d-i) m**i, cs = (c_2, ...)."""
    xs = _x0_powers(d - 1)
    ms = powers(m, len(cs) + 1)
    terms = [(1, xs[d - 1], xs[1]), (1, xs[d - 1], l)]
    terms += [(c, xs[d - i], ms[i]) for i, c in enumerate(cs, start=2)]
    return dot(3, d, terms)


@dataclass(frozen=True)
class ConeNormalForm:
    """Data (d, l, m, c2..cd) realizing the h12-degenerate normal shape."""

    d: int
    l: Form
    m: Form
    cs: Tuple[Union[int, Fraction], ...]  # c_2 ... c_d

    def __post_init__(self):
        require_int("d", self.d, 3)
        object.__setattr__(self, "cs", tuple(
            c if type(c) is int else _coerce(c) for c in self.cs))
        if len(self.cs) != self.d - 1:
            raise ValueError("need exactly d-1 coefficients c_2..c_d")
        for g in (self.l, self.m):
            if g.nvars != 3 or g.degree != 1 and not g.is_zero():
                raise ValueError("l and m must be linear in three variables")
            if any(e[0] for e in g.terms):
                raise ValueError("l and m must not involve x0")

    def build(self) -> Form:
        return _cone_form(self.d, self.l, self.m, self.cs)

    def degenerate(self) -> bool:
        """True when the construction forces a vanishing Hessian."""
        if all(c == 0 for c in self.cs):
            return True
        return _proportional(self.l, self.m)


def _proportional(u: Form, v: Form) -> bool:
    (ua, ub), (va, vb) = _x12(u), _x12(v)
    return ua * vb - ub * va == 0


@dataclass(frozen=True)
class NormalFormReport:
    d: int
    h12_vanishes: bool
    divisible: bool
    hess_zero: bool
    degenerate_data: bool
    iff_holds: bool

    def passed(self) -> bool:
        return self.h12_vanishes and self.divisible and self.iff_holds

    def to_json_dict(self) -> dict:
        out = json_dict(self, passed=self.passed())
        out["divisible_by_x0^(2d-4)"] = out.pop("divisible")
        return out


def normal_form_check(n: ConeNormalForm) -> NormalFormReport:
    """The three conclusions for a built normal form.

    The vanishing criterion is two-sided: the Hessian is zero exactly when
    the data is degenerate (l proportional to m, or all c_i zero; in both
    cases the curve is a cone).
    """
    f = n.build()
    H = hess(f)
    h12_ok = h12(f).is_zero()
    divisible = f_divisible_by_x0(H, 2 * n.d - 4)
    hess_zero = H.is_zero()
    deg = n.degenerate()
    return NormalFormReport(
        d=n.d,
        h12_vanishes=h12_ok,
        divisible=divisible,
        hess_zero=hess_zero,
        degenerate_data=deg,
        iff_holds=hess_zero == deg,
    )


def f_divisible_by_x0(f: Form, power: int) -> bool:
    """True when x0**power divides f, read off the x0 field of its packed
    keys; the zero form is divisible by every power."""
    return f.is_zero() or common_monomial((f,), f.nvars)[0] >= power


def multiplicity_profile(n: ConeNormalForm) -> dict:
    """Derivative orders of the built form at the point (0:0:1).

    For l = x2 and m = x1 the curve has a point of multiplicity d-1 there;
    every derivative of order <= d-2 vanishes and exactly one derivative of
    order d-1 survives.  The report names the surviving multi-indices so the
    caller can pin which one it is.  Each is read off a Taylor coefficient:
    for |a| < d, d^a f vanishes at (0:0:1) unless x0**a0 x1**a1 x2**(d-a0-a1)
    has a nonzero coefficient.
    """
    f, d = n.build(), n.d
    per_order = [[a for a in monomials_of_degree(3, o)
                  if f.coefficient((a[0], a[1], d - a[0] - a[1]))]
                 for o in range(d)]
    first = next((o for o, alive in enumerate(per_order) if alive), d)
    return {
        "d": d,
        "vanishing_through_order": first - 1,
        "nonzero_at_order_d_minus_1": per_order[d - 1],
    }


# ---------------------------------------------------------------------------
# gated divisibility checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateReport:
    name: str
    d: int
    case: str
    hypotheses_ok: bool
    applicable: bool
    divisible: Optional[bool]
    value_nonzero: Optional[bool]

    def passed(self) -> bool:
        return (not self.applicable) or bool(self.divisible)

    def to_json_dict(self) -> dict:
        out = json_dict(self, passed=self.passed())
        out["check"] = out.pop("name")
        return out


def pair_divisibility_check(f: Form, g: Form, case: str = "input") -> GateReport:
    """Gates h12(f,f) = h12(f,g) = 0 and hess(f) = 0, then x0-divisibility.

    Asserts x0**(2d-4) | H(f,f,g); when additionally h12(g,g) = 0, also
    x0**(2d-4) | H(f,g,g).  Gate failure yields a not-applicable verdict,
    never a pass or a fail.
    """
    d = f.degree
    gates = h12(f).is_zero() and h12(f, g).is_zero() and hess(f).is_zero()
    if not gates:
        return GateReport("pair-divisibility", d, case, False, False, None, None)
    values = [h3(f, f, g)]
    if h12(g).is_zero():
        values.append(h3(f, g, g))
    return _verdict("pair-divisibility", d, case, values, 2 * d - 4)


def triple_divisibility_check(f: Form, g: Form, h: Form,
                              case: str = "input") -> GateReport:
    """Five pairwise h12 gates plus hess(f) = 0, then x0**(d-3) | H(f,g,h).

    The gate list deliberately omits h12(h,h); the conclusion only needs
    degeneracy of f, g and their pairings with h.
    """
    d = f.degree
    gates = (h12(f).is_zero() and h12(f, g).is_zero() and h12(g).is_zero()
             and h12(f, h).is_zero() and h12(g, h).is_zero()
             and hess(f).is_zero())
    if not gates:
        return GateReport("triple-divisibility", d, case, False, False, None, None)
    return _verdict("triple-divisibility", d, case, [h3(f, g, h)], d - 3)


def _verdict(name: str, d: int, case: str, values, power: int) -> GateReport:
    """The report once the gates hold: divisible when x0**power divides every
    value, nonzero when some value is nonzero."""
    return GateReport(name, d, case, True, True,
                      all(f_divisible_by_x0(v, power) for v in values),
                      any(not v.is_zero() for v in values))


# ---------------------------------------------------------------------------
# samplers for the gated families
# ---------------------------------------------------------------------------


def _rand_coeff(rng: random.Random, nonzero: bool = False) -> int:
    while True:
        v = rng.randint(-9, 9)
        if v or not nonzero:
            return v


def _rand_binary(rng: random.Random, u: Form, degree: int) -> Form:
    """Random nonzero form of the given degree in the pencil of x0 and u."""
    xs, us = _x0_powers(degree), powers(u, degree)
    out = dot(3, degree, [(_rand_coeff(rng), xs[degree - i], us[i])
                          for i in range(degree + 1)])
    return xs[degree] if out.is_zero() else out


def _off_cone(rng: random.Random, u: Form, d: int) -> Form:
    """g0 + v g1 with g0, g1 random in the pencil of x0 and u and v spanning
    the kernel of u on the (x1, x2) plane; its h12 pairing with any cone
    along u vanishes."""
    a, b = _x12(u)
    g0 = _rand_binary(rng, u, d)
    return g0 + _linear(b, -a) * _rand_binary(rng, u, d - 1)


def sample_cone(d: int, rng: random.Random,
                x2_free: bool = False) -> Tuple[Form, Form]:
    """A binary-in-(x0, u) cone of degree d with monic x0**d; returns (f, u).

    Cones of this shape satisfy h12(f) = 0 and hess(f) = 0 for every choice
    of the direction u = a x1 + b x2.  With c_1..c_d drawn in order, f is
    the normal shape with l = c_1 u and m = u.
    """
    a = _rand_coeff(rng, nonzero=True)
    b = 0 if x2_free else _rand_coeff(rng)
    u = _linear(a, b)
    cs = [_rand_coeff(rng) for _ in range(d)]
    return _cone_form(d, cs[0] * u, u, cs[1:]), u


def _linear_tail(d: int, rng: random.Random) -> Form:
    """x0**d + c x0**(d-1) u with c nonzero and u = a x1 + b x2, a nonzero."""
    u = _linear(_rand_coeff(rng, nonzero=True), _rand_coeff(rng))
    return _cone_form(d, _rand_coeff(rng, nonzero=True) * u, u, ())


def sample_gated_pair(d: int, rng: random.Random) -> Tuple[Form, Form, str]:
    """(f, g) passing the first-clause gates, tagged by proof branch.

    Branch "f11-zero": f = x0**d + c1 x0**(d-1) u, any g.
    Branch "directional-g": general binary cone f, g of degree <= 1 along
    the u-transverse direction (kills h12(f, g)).
    Branch "shared-direction": x2-free cone f and a full normal form g with
    m = x1; all mixed h12 pairings vanish term by term.
    """
    require_int("d", d, 4)
    branch = rng.choice(["f11-zero", "directional-g", "shared-direction"])
    if branch == "f11-zero":
        return _linear_tail(d, rng), _rand_dense(rng, d), branch
    if branch == "directional-g":
        f, u = sample_cone(d, rng)
        return f, _off_cone(rng, u, d), branch
    f, _ = sample_cone(d, rng, x2_free=True)
    g = _normal_form_sample(d, rng).build()
    return f, g, branch


def _rand_terms(rng: random.Random, d: int, monos, thin: bool) -> Form:
    """A degree-d ternary form with a coefficient in [-9, 9] drawn per
    monomial of ``monos`` and kept when nonzero and, if ``thin``, when one
    more draw falls below 0.6; x0**d when none is kept."""
    terms = {}
    for exps in monos:
        c = rng.randint(-9, 9)
        if c and (not thin or rng.random() < 0.6):
            terms[exps] = c
    return Form(3, d, terms or {(d, 0, 0): 1})


def _rand_dense(rng: random.Random, d: int) -> Form:
    return _rand_terms(rng, d, monomials_of_degree(3, d), True)


def _normal_form_sample(d: int, rng: random.Random) -> ConeNormalForm:
    """A random normal form with the direction m = x1."""
    l = _linear(_rand_coeff(rng), _rand_coeff(rng))
    cs = tuple(_rand_coeff(rng) for _ in range(d - 1))
    return ConeNormalForm(d, l, _linear(1, 0), cs)


def sample_gated_triple(d: int, rng: random.Random) -> Tuple[Form, Form, Form, str]:
    """(f, g, h) passing all six triple gates, tagged by proof branch.

    Branch "g11-zero": linear-tail g = x0**d + x0**(d-1) l; f a general
    binary cone; h of degree <= 1 along the transverse direction of f.
    Branch "b-zero-h22": x2-free cone f, shared-direction normal form g,
    h with no x2**2 part.
    Branch "c-zero": f = x0**d + c1 x0**(d-1) u with arbitrary direction,
    shared-direction normal form g, h with no x2**2 part.
    """
    require_int("d", d, 4)
    branch = rng.choice(["g11-zero", "b-zero-h22", "c-zero"])
    if branch == "g11-zero":
        f, u = sample_cone(d, rng)
        l = _linear(_rand_coeff(rng), _rand_coeff(rng))
        g = _cone_form(d, l, u, ())
        return f, g, _off_cone(rng, u, d), branch
    if branch == "b-zero-h22":
        f, _ = sample_cone(d, rng, x2_free=True)
    else:
        f = _linear_tail(d, rng)
    g = _normal_form_sample(d, rng).build()
    h = _no_x2sq_sample(d, rng)
    return f, g, h, branch


def _no_x2sq_sample(d: int, rng: random.Random) -> Form:
    """Random ternary form of degree d with x2-degree at most one."""
    monos = [e for e in monomials_of_degree(3, d) if e[2] <= 1]
    return _rand_terms(rng, d, monos, False)


# ---------------------------------------------------------------------------
# limits along one-parameter families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitReport:
    d: int
    status: str  # divisible | not-divisible | inconclusive-limit
    lowest_order: Optional[int]
    required_power: int

    def passed(self) -> bool:
        return self.status != "not-divisible"

    def to_json_dict(self) -> dict:
        return json_dict(self)


def limit_divisibility_check(family: TParameterForm) -> LimitReport:
    """Lowest-order coefficient of hess along the family, x0-divisibility.

    The family must start at x0**d (slot at t-order zero).  Only the lowest
    t-order of the family Hessian is needed, so it is read off
    ``hess_t_leading``, the Hessian modulo a power of t.  A family whose
    Hessian vanishes identically in t has no limit to test.
    """
    slots = family.slots
    d = family.degree
    base = slots.get(0)
    x0d = Form.monomial((d, 0, 0))
    if base != x0d:
        raise InputError("family must have x0**d as its order-zero slot")
    require_int("d", d, 4)
    H = hess_t_leading(family)
    if H.is_zero():
        return LimitReport(d, "inconclusive-limit", None, d - 3)
    order, lead = lowest_t_order(H)
    ok = f_divisible_by_x0(lead, d - 3)
    return LimitReport(d, "divisible" if ok else "not-divisible", order, d - 3)


def sample_family(d: int, rng: random.Random, max_slots: int = 3,
                  max_exponent: int = 4) -> TParameterForm:
    """Random truncated family x0**d + sum of t-weighted random forms."""
    require_int("d", d, 0)
    slots: Dict[int, Form] = {0: _x0_powers(d)[d]}
    nslots = rng.randint(1, max_slots)
    exps = rng.sample(range(1, max_exponent + 1), min(nslots, max_exponent))
    for a in exps:
        g = _rand_dense(rng, d)
        slots[a] = g
    return TParameterForm(slots)


NAMED_FAMILIES = {
    "quartic-powers": lambda: TParameterForm({
        0: Form.monomial((4, 0, 0)),
        1: Form.from_coeffs(3, 4, {(0, 4, 0): 1, (0, 0, 4): 1}),
    }),
    "quartic-quadric": lambda: TParameterForm({
        0: Form.monomial((4, 0, 0)),
        1: (Form.from_coeffs(3, 2, {(1, 1, 0): 1, (0, 0, 2): 1}) ** 2),
    }),
    "quintic-mixed": lambda: TParameterForm({
        0: Form.monomial((5, 0, 0)),
        1: Form.from_coeffs(3, 5, {(0, 5, 0): 1, (0, 0, 5): 1}),
        2: Form.from_coeffs(3, 5, {(0, 3, 2): 1, (1, 2, 2): -2}),
    }),
    "sextic-staircase": lambda: TParameterForm({
        0: Form.monomial((6, 0, 0)),
        1: Form.from_coeffs(3, 6, {(0, 6, 0): 1}),
        2: Form.from_coeffs(3, 6, {(0, 0, 6): 1, (2, 2, 2): 3}),
        3: Form.from_coeffs(3, 6, {(1, 1, 4): -1}),
    }),
}


# ---------------------------------------------------------------------------
# exclusion bookkeeping for the certificate
# ---------------------------------------------------------------------------


def exclusion_gate(d: int) -> dict:
    """Which special values the limit-divisibility bound can exclude.

    One record per row of ``orbit_checks.SPECIAL_POINTS`` whose l-power h has
    the parity of d.  The Hessian there has x0-adic valuation 3h, the l-power
    (r+1)h of the closed form at r = 2.  A value can be excluded from the
    indeterminacy limits exactly when its valuation is smaller than d-3, the
    guaranteed divisibility order of every limit.  The row states its own
    least k for the gate, and a ``VerificationError`` is raised where the two
    statements disagree.
    """
    require_int("d", d, 4)
    k, odd = divmod(d, 2)
    gates = {row.gate: _gate_record(row, d) for row in SPECIAL_POINTS.values()
             if row.l_power % 2 == odd}
    return {"d": d, "k": k, "odd": bool(odd), "gates": gates}


def _gate_record(row: PointKind, d: int) -> dict:
    """The exclusion gate of a special-point row at degree d."""
    k = d // 2
    qp, lp = row.powers(k)
    valuation = _hess_image(2, (qp, lp))[1]
    lpart = "" if lp == 0 else "*l" if lp == 1 else f"*l^{lp}"
    rec = {"point": f"q^{qp}{lpart}", "valuation": valuation,
           "excluded": d - 3 > valuation, "needs": f"k >= {row.gate_k}",
           "available": k >= row.gate_k}
    if rec["excluded"] != rec["available"]:
        raise VerificationError(
            f"gate {row.gate} at degree {d}: valuation bound and "
            f"'{rec['needs']}' disagree")
    return rec
