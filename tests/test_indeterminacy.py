import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hesskit.hessians
from hesskit import indeterminacy
from hesskit.forms import Form, dot, monomials_of_degree, powers, random_form
from hesskit.hessians import (TParameterForm, hess, hess_t, hess_t_leading,
                              lowest_t_order)
from hesskit.indeterminacy import (ConeNormalForm, NAMED_FAMILIES,
                                   _gate_record, _linear, exclusion_gate,
                                   f_divisible_by_x0,
                                   limit_divisibility_check,
                                   multiplicity_profile, normal_form_check,
                                   pair_divisibility_check, sample_cone,
                                   sample_family, sample_gated_pair,
                                   sample_gated_triple,
                                   triple_divisibility_check)
from hesskit.orbit_checks import SPECIAL_POINTS, hyperbolic_q
from hesskit.rank_certificates import SpecialPoint

X1 = _linear(Fraction(1), Fraction(0))
X2 = _linear(Fraction(0), Fraction(1))


def standard_form(d, cs=None):
    cs = cs if cs is not None else tuple(Fraction(i) for i in range(1, d))
    return ConeNormalForm(d, X2, X1, cs)


_small = st.integers(-3, 3)


@st.composite
def cone_normal_forms(draw):
    """Cone data of degree 3..7 with small coefficients, so zero and
    proportional (degenerate) data are drawn too."""
    d = draw(st.integers(3, 7))
    l, m = (_linear(draw(_small), draw(_small)) for _ in range(2))
    return ConeNormalForm(d, l, m, draw(st.lists(_small, min_size=d - 1,
                                                 max_size=d - 1)))


def profile_by_differentiation(n):
    """``multiplicity_profile`` by its former route: each derivative by
    repeated ``diff``, then evaluated at (0:0:1)."""
    f, d = n.build(), n.d
    point = (Fraction(0), Fraction(0), Fraction(1))

    def survives(exps):
        g = f
        for var, cnt in enumerate(exps):
            for _ in range(cnt):
                g = g.diff(var)
        return g.evaluate(point) != 0

    per_order = [[a for a in monomials_of_degree(3, o) if survives(a)]
                 for o in range(d)]
    first = next((o for o, alive in enumerate(per_order) if alive), d)
    return {"d": d, "vanishing_through_order": first - 1,
            "nonzero_at_order_d_minus_1": per_order[d - 1]}


class TestNormalForms:
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_standard_shape_passes(self, d):
        rep = normal_form_check(standard_form(d))
        assert rep.passed()
        assert not rep.hess_zero and not rep.degenerate_data

    def test_all_zero_coefficients_give_a_cone(self):
        n = standard_form(5, cs=(Fraction(0),) * 4)
        rep = normal_form_check(n)
        assert rep.hess_zero and rep.degenerate_data and rep.iff_holds

    def test_proportional_linear_parts_give_a_cone(self):
        n = ConeNormalForm(5, X1, 3 * X1,
                           tuple(Fraction(i) for i in (2, -1, 1, 4)))
        rep = normal_form_check(n)
        assert rep.hess_zero and rep.degenerate_data and rep.iff_holds

    @pytest.mark.parametrize("seed", range(8))
    def test_random_data_keeps_the_equivalence(self, seed):
        rng = random.Random(seed)
        d = rng.randint(4, 6)
        l = _linear(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        cs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d - 1))
        rep = normal_form_check(ConeNormalForm(d, l, X1, cs))
        assert rep.h12_vanishes and rep.divisible and rep.iff_holds

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_multiplicity_profile(self, d):
        prof = multiplicity_profile(standard_form(d))
        assert prof["vanishing_through_order"] == d - 2
        assert prof["nonzero_at_order_d_minus_1"] == [(d - 1, 0, 0)]

    @settings(max_examples=40, deadline=None)
    @given(n=cone_normal_forms())
    def test_multiplicity_profile_matches_differentiation(self, n):
        assert multiplicity_profile(n) == profile_by_differentiation(n)

    @pytest.mark.parametrize("l,m,cs", [
        (X2, X1, (0, 0, 0, 0)),  # every c zero: a cone
        (X1, 3 * X1, (2, -1, 1, 4)),  # l and m proportional
        (_linear(0, 0), X2, (1, 0, 2, 0)),  # l zero, m through (0:0:1)
        (X2, _linear(0, 0), (1, 2, 3, 4)),  # m zero
    ])
    def test_multiplicity_profile_of_degenerate_data(self, l, m, cs):
        n = ConeNormalForm(5, l, m, cs)
        assert multiplicity_profile(n) == profile_by_differentiation(n)

    @pytest.mark.parametrize("slot", ["l", "m"])
    def test_a_constant_linear_part_is_refused(self, slot):
        """A nonzero form of degree 0 (or 2) in l or m is refused when the
        data is made, not later inside ``build``."""
        for bad in (Form.from_coeffs(3, 0, {(0, 0, 0): 5}),
                    Form.from_coeffs(3, 2, {(0, 1, 1): 1})):
            data = {"d": 4, "l": X2, "m": X1, "cs": (1, 1, 1), slot: bad}
            with pytest.raises(ValueError,
                               match="l and m must be linear in three"):
                ConeNormalForm(**data)

    @pytest.mark.parametrize("slot", ["l", "m"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_a_zero_linear_part_of_any_degree_is_accepted(self, slot, degree):
        """A zero l or m builds the same form whatever its degree."""
        n, same = (ConeNormalForm(**{"d": 4, "l": X2, "m": X1,
                                     "cs": (1, 2, 3), slot: zero})
                   for zero in (Form.zero(3, degree), _linear(0, 0)))
        assert n.build() == same.build()
        assert normal_form_check(n).iff_holds

    def test_surviving_derivative_value(self):
        """The one order-(d-1) derivative at (0:0:1) evaluates to (d-1)!."""
        d = 5
        f = standard_form(d).build()
        g = f
        for _ in range(d - 1):
            g = g.diff(0)
        assert g.evaluate((Fraction(0), Fraction(0), Fraction(1))) \
            == math.factorial(d - 1)

    def test_divisibility_helper(self):
        f = Form.from_coeffs(3, 4, {(3, 1, 0): 1, (4, 0, 0): 2})
        assert f_divisible_by_x0(f, 3)
        assert not f_divisible_by_x0(f, 4)
        assert f_divisible_by_x0(Form.zero(3, 4), 10)
        rng = random.Random(5)
        for _ in range(40):
            g = Form.variable(3, 0) ** rng.randint(0, 3) * random_form(
                3, rng.randint(0, 4), rng, coeff_bound=2, density=0.4)
            for power in range(-1, 8):
                assert f_divisible_by_x0(g, power) \
                    == all(e[0] >= power for e in g.terms)


class TestGatedPairs:
    @pytest.mark.parametrize("seed", range(12))
    def test_sampled_pairs_divide(self, seed):
        rng = random.Random(seed)
        d = rng.randint(4, 7)
        f, g, case = sample_gated_pair(d, rng)
        rep = pair_divisibility_check(f, g, case)
        assert rep.hypotheses_ok and rep.applicable
        assert rep.passed() and rep.divisible

    def test_all_pair_branches_appear(self):
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            seen.add(sample_gated_pair(5, rng)[2])
        assert seen == {"f11-zero", "directional-g", "shared-direction"}

    def test_gate_violation_is_not_applicable(self):
        # h12(f, g) != 0 here, so the conclusion is not claimed
        f = Form.monomial((0, 4, 0))
        g = Form.monomial((0, 0, 4))
        rep = pair_divisibility_check(f, g, "manual")
        assert not rep.applicable
        assert rep.passed()

    def test_every_value_must_divide(self, monkeypatch):
        # f = x0**4 and g = x1**4 pass every gate, h12(g, g) included, so
        # both H(f,f,g) and H(f,g,g) are read; one indivisible value fails
        f, g = Form.monomial((4, 0, 0)), Form.monomial((0, 4, 0))
        for values in ([f, g], [g, f]):
            it = iter(values)
            monkeypatch.setattr(indeterminacy, "h3", lambda *forms: next(it))
            rep = pair_divisibility_check(f, g, "manual")
            assert rep.applicable and rep.value_nonzero
            assert not rep.divisible and not rep.passed()


class TestGatedTriples:
    @pytest.mark.parametrize("seed", range(12))
    def test_sampled_triples_divide(self, seed):
        rng = random.Random(seed)
        d = rng.randint(4, 6)
        f, g, h, case = sample_gated_triple(d, rng)
        rep = triple_divisibility_check(f, g, h, case)
        assert rep.hypotheses_ok and rep.applicable
        assert rep.passed() and rep.divisible

    def test_all_triple_branches_appear(self):
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            seen.add(sample_gated_triple(5, rng)[3])
        assert seen == {"g11-zero", "b-zero-h22", "c-zero"}


# The samplers' draws taken as Fraction coefficients, each form built
# through ``Form.from_coeffs``, so that the oracle does not share the int
# path that the library samplers take.

def reference_coeff(rng, nonzero=False):
    while True:
        v = rng.randint(-9, 9)
        if v or not nonzero:
            return Fraction(v)


def reference_linear(a, b):
    return Form.from_coeffs(3, 1, {(0, 1, 0): a, (0, 0, 1): b})


def reference_dense(rng, d):
    terms = {}
    for exps in monomials_of_degree(3, d):
        c = rng.randint(-9, 9)
        if c and rng.random() < 0.6:
            terms[exps] = Fraction(c)
    if not terms:
        terms[(d, 0, 0)] = Fraction(1)
    return Form.from_coeffs(3, d, terms)


def reference_no_x2sq(d, rng):
    terms = {}
    for exps in monomials_of_degree(3, d):
        if exps[2] > 1:
            continue
        c = rng.randint(-9, 9)
        if c:
            terms[exps] = Fraction(c)
    if not terms:
        terms[(d, 0, 0)] = Fraction(1)
    return Form.from_coeffs(3, d, terms)


def reference_normal_form(d, rng):
    l = reference_linear(reference_coeff(rng), reference_coeff(rng))
    cs = tuple(reference_coeff(rng) for _ in range(d - 1))
    return ConeNormalForm(d, l, reference_linear(Fraction(1), Fraction(0)), cs)


def reference_build(n):
    """``ConeNormalForm.build`` by its former route: one ``dot`` over the
    nonzero c_i, with every power of m up to m**d."""
    d = n.d
    xs = powers(Form.variable(3, 0), d - 1)
    ms = powers(n.m, d)
    terms = [(1, xs[d - 1], xs[1]), (1, xs[d - 1], n.l)]
    terms += [(c, xs[d - i], ms[i]) for i, c in enumerate(n.cs, start=2) if c]
    return dot(3, d, terms)


def reference_binary(rng, x, u, degree, monic_x=False):
    """The pencil sampler with its former monic switch."""
    xs, us = powers(x, degree), powers(u, degree)
    terms = [(1, xs[degree], us[0])] if monic_x else []
    for i in range(1 if monic_x else 0, degree + 1):
        terms.append((reference_coeff(rng), xs[degree - i], us[i]))
    out = dot(3, degree, terms)
    return xs[degree] if out.is_zero() else out


def reference_cone(d, rng, x2_free=False):
    a = reference_coeff(rng, nonzero=True)
    b = Fraction(0) if x2_free else reference_coeff(rng)
    u = reference_linear(a, b)
    return reference_binary(rng, Form.variable(3, 0), u, d, monic_x=True), u


def reference_transverse_direction(u):
    a = u.terms.get((0, 1, 0), Fraction(0))
    b = u.terms.get((0, 0, 1), Fraction(0))
    return (b, -a)


def reference_pair(d, rng):
    """``sample_gated_pair`` with each shape written out inline."""
    branch = rng.choice(["f11-zero", "directional-g", "shared-direction"])
    x0 = Form.variable(3, 0)
    if branch == "f11-zero":
        u = reference_linear(reference_coeff(rng, nonzero=True),
                             reference_coeff(rng))
        f = x0 ** d + reference_coeff(rng, nonzero=True) * (x0 ** (d - 1)) * u
        return f, reference_dense(rng, d), branch
    if branch == "directional-g":
        f, u = reference_cone(d, rng)
        v = reference_linear(*reference_transverse_direction(u))
        g0 = reference_binary(rng, x0, u, d)
        g1 = reference_binary(rng, x0, u, d - 1)
        return f, g0 + v * g1, branch
    f, _ = reference_cone(d, rng, x2_free=True)
    return f, reference_build(reference_normal_form(d, rng)), branch


def reference_triple(d, rng):
    """``sample_gated_triple`` with each shape written out inline."""
    branch = rng.choice(["g11-zero", "b-zero-h22", "c-zero"])
    x0 = Form.variable(3, 0)
    if branch == "g11-zero":
        f, u = reference_cone(d, rng)
        l = reference_linear(reference_coeff(rng), reference_coeff(rng))
        g = x0 ** d + (x0 ** (d - 1)) * l
        v = reference_linear(*reference_transverse_direction(u))
        h = (reference_binary(rng, x0, u, d)
             + v * reference_binary(rng, x0, u, d - 1))
        return f, g, h, branch
    if branch == "b-zero-h22":
        f, _ = reference_cone(d, rng, x2_free=True)
    else:
        u = reference_linear(reference_coeff(rng, nonzero=True),
                             reference_coeff(rng))
        f = x0 ** d + reference_coeff(rng, nonzero=True) * (x0 ** (d - 1)) * u
    g = reference_build(reference_normal_form(d, rng))
    return f, g, reference_no_x2sq(d, rng), branch


def reference_family(d, rng):
    """``sample_family`` at its default slot counts."""
    slots = {0: Form.monomial((d, 0, 0))}
    nslots = rng.randint(1, 3)
    for a in rng.sample(range(1, 5), min(nslots, 4)):
        slots[a] = reference_dense(rng, d)
    return TParameterForm(slots)


class TestSamplersAgainstReference:
    """Each sampler returns the forms of its inline reference and leaves the
    generator in the same state, for every branch it takes."""

    PER_BRANCH = 200

    def assert_same_draws(self, sample, reference, d, branches):
        seen = {}
        seed = 0
        while len(seen) < branches or min(seen.values()) < self.PER_BRANCH:
            ours, theirs = (random.Random(f"{d}:{seed}") for _ in range(2))
            got, want = sample(d, ours), reference(d, theirs)
            assert got == want, (d, seed)
            assert ours.getstate() == theirs.getstate(), (d, seed)
            seen[got[-1]] = seen.get(got[-1], 0) + 1
            seed += 1
        assert len(seen) == branches

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_pair_sampler(self, d):
        self.assert_same_draws(sample_gated_pair, reference_pair, d, 3)

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_triple_sampler(self, d):
        self.assert_same_draws(sample_gated_triple, reference_triple, d, 3)

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    @pytest.mark.parametrize("x2_free", [False, True])
    def test_cone_sampler(self, d, x2_free):
        def tagged(sample):
            return lambda d, rng: (*sample(d, rng, x2_free), "cone")
        self.assert_same_draws(tagged(sample_cone), tagged(reference_cone),
                               d, 1)

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_family_sampler(self, d):
        def tagged(sample):
            return lambda d, rng: (sample(d, rng).slots, "family")
        self.assert_same_draws(tagged(sample_family),
                               tagged(reference_family), d, 1)

    def test_the_shared_x0_powers_cannot_be_changed(self):
        # one sequence per top is shared by every caller, so it is a tuple
        xs = indeterminacy._x0_powers(5)
        assert type(xs) is tuple and xs is indeterminacy._x0_powers(5)
        assert list(xs) == powers(Form.variable(3, 0), 5)

    @settings(max_examples=60, deadline=None)
    @given(n=cone_normal_forms())
    def test_build_matches_the_reference(self, n):
        assert n.build() == reference_build(n)


class TestLimits:
    @pytest.mark.parametrize("name", sorted(NAMED_FAMILIES))
    def test_named_families_pass(self, name):
        rep = limit_divisibility_check(NAMED_FAMILIES[name]())
        assert rep.passed()
        assert rep.status == "divisible"
        assert rep.required_power == rep.d - 3

    @pytest.mark.parametrize("seed", range(20))
    def test_random_families_never_fail(self, seed):
        rng = random.Random(seed)
        d = rng.choice([4, 5])
        rep = limit_divisibility_check(sample_family(d, rng))
        assert rep.status != "not-divisible"

    def test_family_with_identically_zero_hessian(self):
        fam = TParameterForm({0: Form.monomial((4, 0, 0)),
                              1: Form.monomial((4, 0, 0))})
        rep = limit_divisibility_check(fam)
        assert rep.status == "inconclusive-limit"
        assert rep.passed() and rep.lowest_order is None

    def test_slot_scaling_does_not_change_the_verdict(self):
        rng = random.Random(3)
        fam = sample_family(5, rng)
        scaled = TParameterForm({a: (Fraction(7) * s if a else s)
                                 for a, s in fam.slots.items()})
        assert (limit_divisibility_check(fam).status
                == limit_divisibility_check(scaled).status)

    def test_base_slot_is_mandatory(self):
        fam = TParameterForm({0: Form.monomial((3, 1, 0)),
                              1: Form.monomial((0, 4, 0))})
        with pytest.raises(ValueError):
            limit_divisibility_check(fam)

    def test_low_degree_rejected(self):
        fam = TParameterForm({0: Form.monomial((3, 0, 0))})
        with pytest.raises(ValueError):
            limit_divisibility_check(fam)


def assert_leading_matches_full(fam):
    """hess_t_leading agrees with hess_t below its top slot, so its lowest
    slot is the lowest slot of hess_t, or both are zero."""
    lead, full = hess_t_leading(fam), hess_t(fam)
    if full.is_zero():
        assert lead.is_zero()
        return
    assert lowest_t_order(lead) == lowest_t_order(full)
    top = max(lead.slots)
    assert lead.slots == {a: f for a, f in full.slots.items() if a <= top}


def truncation_bounds(monkeypatch, fam):
    """The moduli t**N that hess_t_leading tries on ``fam``, in order."""
    seen = []
    det = hesskit.hessians._det_by_expansion

    def spy(mat, mul):
        seen.append(mul.keywords["below"])
        return det(mat, mul)

    monkeypatch.setattr(hesskit.hessians, "_det_by_expansion", spy)
    result = hess_t_leading(fam)
    monkeypatch.undo()
    return seen, result


class TestTruncatedLimitHessian:
    """The lowest-order Hessian modulo t**N against the full hess_t."""

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(4, 7), slots=st.integers(1, 3),
           seed=st.integers(0, 10 ** 6))
    def test_sampled_families(self, d, slots, seed):
        fam = sample_family(d, random.Random(seed), max_slots=slots,
                            max_exponent=4)
        assert_leading_matches_full(fam)

    @pytest.mark.parametrize("name", sorted(NAMED_FAMILIES))
    def test_named_families(self, name):
        assert_leading_matches_full(NAMED_FAMILIES[name]())

    def test_cleared_family(self):
        fam = sample_family(6, random.Random(11))
        cleared = TParameterForm({3 * a: f for a, f in fam.slots.items()})
        assert_leading_matches_full(cleared)
        assert (lowest_t_order(hess_t_leading(cleared))[0]
                == 3 * lowest_t_order(hess_t_leading(fam))[0])
        assert (limit_divisibility_check(cleared).status
                == limit_divisibility_check(fam).status)

    def test_cone_family_is_inconclusive_after_the_full_modulus(self, monkeypatch):
        cone = TParameterForm({0: Form.monomial((4, 0, 0)),
                               1: Form.from_coeffs(3, 4, {(0, 4, 0): 1})})
        seen, lead = truncation_bounds(monkeypatch, cone)
        assert seen == [3, 4]
        assert lead.is_zero() and hess_t(cone).is_zero()
        rep = limit_divisibility_check(cone)
        assert rep.status == "inconclusive-limit" and rep.lowest_order is None

    def test_zero_first_truncation_doubles_the_modulus(self, monkeypatch):
        # h12(x1**4) = 0, so the t**2 term vanishes; the t**3 term is
        # 12 x0**2 * 2 h12(x1**4, g) = 144 x0**2 x1**2 * g22, nonzero here
        g = Form.from_coeffs(3, 4, {(0, 2, 2): 1, (1, 0, 3): -2, (2, 1, 1): 3})
        fam = TParameterForm({0: Form.monomial((4, 0, 0)),
                              1: Form.monomial((0, 4, 0)), 2: g})
        seen, lead = truncation_bounds(monkeypatch, fam)
        assert seen == [3, 6]
        assert lowest_t_order(lead)[0] == 3
        assert_leading_matches_full(fam)
        rep = limit_divisibility_check(fam)
        assert rep.lowest_order == 3 and rep.status == "divisible"

    def test_base_slot_alone(self, monkeypatch):
        seen, lead = truncation_bounds(
            monkeypatch, TParameterForm({0: Form.monomial((5, 0, 0))}))
        assert seen == [1] and lead.is_zero()


def x0_valuation(f):
    return min(e[0] for e in f.terms)


def _reference_exclusion_gate(d):
    """The gate records written out by hand, one per special point."""
    if d < 4:
        raise ValueError("need d >= 4")
    k, odd = divmod(d, 2)
    gates = {}
    if not odd:
        gates["hyperbolic-power"] = {
            "point": f"q^{k}",
            "valuation": 0,
            "excluded": d - 3 > 0,
            "needs": "k >= 2",
            "available": k >= 2,
        }
        gates["quadric-double-line"] = {
            "point": f"q^{k - 1}*l^2",
            "valuation": 6,
            "excluded": d - 3 > 6,
            "needs": "k >= 5",
            "available": k >= 5,
        }
    else:
        gates["quadric-line"] = {
            "point": f"q^{k}*l",
            "valuation": 3,
            "excluded": d - 3 > 3,
            "needs": "k >= 3",
            "available": k >= 3,
        }
    return {"d": d, "k": k, "odd": bool(odd), "gates": gates}


class TestExclusionGates:
    @pytest.mark.parametrize("d", range(4, 41))
    def test_gates_match_the_hand_written_records(self, d):
        assert exclusion_gate(d) == _reference_exclusion_gate(d)

    @pytest.mark.parametrize("kind", list(SPECIAL_POINTS))
    def test_gate_valuation_is_that_of_the_hessian(self, kind):
        row = SPECIAL_POINTS[kind]
        for k in range(row.k_min, row.k_min + 4):
            point = SpecialPoint(kind, k)
            rec = _gate_record(row, point.degree)
            assert rec["valuation"] == x0_valuation(hess(point.form(2)))

    def test_special_point_valuations(self):
        q, l = hyperbolic_q(2), Form.variable(3, 0)
        assert x0_valuation(hess(q ** 2)) == 0
        assert x0_valuation(hess(q ** 2 * l)) == 3
        assert x0_valuation(hess(q ** 2 * l * l)) == 6

    def test_even_degree_gates(self):
        g = exclusion_gate(10)["gates"]
        assert g["hyperbolic-power"]["excluded"]
        assert g["hyperbolic-power"]["available"]
        assert g["quadric-double-line"]["excluded"]
        assert g["quadric-double-line"]["available"]
        g8 = exclusion_gate(8)["gates"]
        assert not g8["quadric-double-line"]["excluded"]
        assert not g8["quadric-double-line"]["available"]

    def test_odd_degree_gates(self):
        g = exclusion_gate(7)["gates"]
        assert g["quadric-line"]["excluded"] and g["quadric-line"]["available"]
        g5 = exclusion_gate(5)["gates"]
        assert not g5["quadric-line"]["excluded"]
        assert not g5["quadric-line"]["available"]

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            exclusion_gate(3)
