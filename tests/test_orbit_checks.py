from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesskit import orbit_checks
from hesskit.curves import even_a, even_b, odd_c
from hesskit.errors import InputError, VerificationError
from hesskit.forms import Form
from hesskit.harmonic import QuadraticForm
from hesskit.hessians import adjugate_second_partials, adjugate_trace, hess
from hesskit.orbit_checks import (SPECIAL_POINTS, _coefficient_at,
                                  _pair_data, _predicted_constants,
                                  closed_form_constant, hyperbolic_q,
                                  pair_m_range, power_product,
                                  verify_closed_form, verify_pair,
                                  verify_pairs)

# Spot values computed once by expanding the Hessians directly; they pin the
# sign and scaling conventions.
FROZEN_CLOSED = {
    (2, 1, 0): Fraction(-2),
    (2, 1, 1): Fraction(-8),
    (2, 2, 0): Fraction(-48),
    (2, 2, 1): Fraction(-96),
    (3, 1, 0): Fraction(-4),
    (3, 2, 1): Fraction(-384),
}

FROZEN_PAIRS = {
    ("even", 2, 2, 1): (Fraction(-48), Fraction(-72)),
    ("odd", 2, 2, 1): (Fraction(-96), Fraction(-144)),
    ("even2", 2, 3, 1): (Fraction(-160), Fraction(-480)),
    ("odd", 2, 1, 0): (Fraction(-8), Fraction(-24)),
    ("even2", 2, 2, 1): (Fraction(-18), Fraction(-54)),
}


class TestClosedForms:
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_whole_grid_matches(self, r, k, h):
        assert verify_closed_form(r, k, h).matches

    @pytest.mark.parametrize("key,expected", sorted(FROZEN_CLOSED.items()))
    def test_frozen_constants(self, key, expected):
        r, k, h = key
        assert closed_form_constant(r, k, h) == expected

    def test_constant_vanishes_without_quadric_factor(self):
        assert closed_form_constant(2, 0, 3) == 0
        rep = verify_closed_form(2, 0, 3)
        assert rep.matches

    def test_hessian_of_quadric_power_is_scaled_power(self):
        """hess(q**2) = -48 q**3 for three variables, checked literally."""
        q = hyperbolic_q(2)
        assert hess(q ** 2) == Fraction(-48) * q ** 3

    @pytest.mark.parametrize("r", range(1, 6))
    def test_hyperbolic_q_is_the_canonical_quadric(self, r):
        # the quadric's terms written out one by one, independently of the
        # Gram matrix that hyperbolic_q builds it from
        terms = {(1, 1) + (0,) * (r - 1): 1}
        for i in range(2, r + 1):
            terms[(0,) * i + (2,) + (0,) * (r - i)] = 1
        assert hyperbolic_q(r) == Form(r + 1, 2, terms)
        assert hyperbolic_q(r) is hyperbolic_q(r)

    def test_a_cached_r_does_not_let_a_bool_through(self):
        # True == 1 and hash(True) == hash(1), so an untyped cache would
        # hand back the quadric of r = 1.  A lone positional int is its own
        # cache key, which keeps True apart by accident; the keyword calls
        # are keyed by (name, value) and meet.
        hyperbolic_q(1)
        hyperbolic_q(r=1)
        for build in (hyperbolic_q, QuadraticForm.canonical_hyperbolic):
            with pytest.raises(InputError, match="r must be an int"):
                build(True)
            with pytest.raises(InputError, match="r must be an int"):
                build(r=True)

    def test_hyperbolic_q_needs_two_variables(self):
        with pytest.raises(ValueError):
            hyperbolic_q(0)

    def test_power_product_layout(self):
        f = power_product(2, 2, 1)
        q, l = hyperbolic_q(2), Form.variable(3, 0)
        assert f == q * q * l


class TestPerturbationPairs:
    @pytest.mark.parametrize("kind", ["even", "odd", "even2"])
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_valid_m_matches(self, kind, r, k):
        if kind == "even2" and k < 2:
            pytest.skip("base needs a quadric factor")
        lo = 1 if kind == "even" else 0
        for m in range(lo, k + 1):
            assert verify_pair(kind, r, k, m).matches

    @pytest.mark.parametrize("key,expected", sorted(FROZEN_PAIRS.items()))
    def test_frozen_leading_pairs(self, key, expected):
        kind, r, k, m = key
        rep = verify_pair(kind, r, k, m)
        assert (rep.c0, rep.c1) == expected
        assert (rep.c0_extracted, rep.c1_extracted) == expected

    def test_even_first_order_term_read_off_directly(self):
        """The eps-part at the even k=2, m=1 pair is exactly -72 q**2 l**2."""
        q, l = hyperbolic_q(2), Form.variable(3, 0)
        base = q ** 2
        h0 = hess(base)
        h1 = adjugate_trace(adjugate_second_partials(base), q * l ** 2)
        assert h1 == Fraction(-72) * q * q * l * l
        assert h0 == Fraction(-48) * q ** 3

    @pytest.mark.parametrize("kind,k,m", [("even", 1, 1), ("odd", 1, 1),
                                          ("even2", 2, 2)])
    def test_boundary_values_vanish_identically(self, kind, k, m):
        rep = verify_pair(kind, 2, k, m)
        assert rep.c1 == 0 and rep.matches

    def test_nonzero_constant_at_a_negative_power_is_a_verification_error(
            self, monkeypatch):
        real = orbit_checks._pair_data

        def negative_eps_power(*args):
            direction, eps_img = real(*args)
            return direction, (-1, 0)

        monkeypatch.setattr(orbit_checks, "_pair_data", negative_eps_power)
        with pytest.raises(VerificationError, match="invalid power product"):
            verify_pair("even", 2, 2, 1)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_scaling_consistency_along_the_base(self, r, k):
        """When the direction equals the base the jet is a pure rescaling."""
        rep = verify_pair("odd", r, k, 0)
        assert rep.c1 == (r + 1) * rep.c0
        if k >= 2:
            rep2 = verify_pair("even2", r, k, 1)
            assert rep2.c1 == (r + 1) * rep2.c0

    def test_condition_value_reports_the_scan_polynomial(self):
        rep = verify_pair("even", 2, 7, 3)
        assert rep.condition_value == 0
        assert rep.matches


class TestPairsAtOnePoint:
    @pytest.mark.parametrize("kind", ["even", "odd", "even2"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_every_m_at_once_matches_one_at_a_time(self, kind, r):
        for k in range(orbit_checks._PAIR_ROWS[kind].k_min, 6):
            ms = pair_m_range(kind, r, k)
            assert verify_pairs(kind, r, k) == [verify_pair(kind, r, k, m)
                                                for m in ms]
            assert verify_pairs(kind, r, k, reversed(ms)) == \
                verify_pairs(kind, r, k)[::-1]

    def test_one_adjugate_per_point(self, monkeypatch):
        built = []
        real = orbit_checks.adjugate_second_partials
        monkeypatch.setattr(orbit_checks, "adjugate_second_partials",
                            lambda f: built.append(f) or real(f))
        reports = verify_pairs("odd", 3, 4)
        assert [rep.m for rep in reports] == list(pair_m_range("odd", 3, 4))
        assert len(reports) == 5 and len(built) == 1

    def test_a_bad_m_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(orbit_checks, "adjugate_second_partials",
                            lambda f: pytest.fail("built before every m"))
        with pytest.raises(ValueError, match="m must lie in"):
            verify_pairs("even", 2, 3, [1, 2, 4])


class TestValidation:
    def test_bad_r_rejected(self):
        with pytest.raises(ValueError):
            verify_closed_form(0, 1, 0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            verify_pair("even", 2, 0, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify_pair("sideways", 2, 2, 1)


# The pair data as once written out per kind, kept as an independent
# statement that the table and the closed form reproduce.
def _reference_pair_data(kind, r, k, m):
    s = (r + 1) * (k - 1)
    if kind == "even":
        return ((k, 0), (k - m, 2 * m), (s, 0), (s - m, 2 * m), (s, s),
                (s + m, s - m))
    if kind == "odd":
        return ((k, 1), (k - m, 2 * m + 1), (s, r + 1), (s - m, 2 * m + r + 1),
                ((r + 1) * k, s), ((r + 1) * k + m, s - m))
    t = (r + 1) * (k - 2)
    return ((k - 1, 2), (k - m, 2 * m), (t, 2 * (r + 1)),
            (t + 1 - m, 2 * m + 2 * r), ((r + 1) * k, t),
            ((r + 1) * k + m - 1, t + 1 - m))


def _reference_constants(kind, r, k, m):
    if kind == "even":
        return (Fraction(2 ** (r - 1) * k ** (r + 1) * (1 - 2 * k)),
                Fraction(2 ** (r - 1) * k ** r * (2 * k - 1) * even_a(r, k, m)))
    if kind == "odd":
        return (Fraction(-(2 ** r) * k ** (r + 1) * (k + 1)),
                Fraction(2 ** r * k ** r * odd_c(r, k, m)))
    return (Fraction(-(2 ** (r - 1)) * (k - 1) ** r * (k + 1) * (2 * k - 1)),
            Fraction(2 ** (r - 1) * (k - 1) ** (r - 1) * (2 * k - 1)
                     * even_b(r, k, m)))


class _SlotProbe:
    """Stands in for a form: records which monomial ``_coefficient_at`` reads."""

    def __init__(self, nvars):
        self.nvars, self.terms, self.read = nvars, self, None

    def get(self, exps, default):
        self.read = exps
        return default


def _extraction_monomial(img, r):
    probe = _SlotProbe(r + 1)
    _coefficient_at(probe, img)
    return probe.read


def _padded(mono, r):
    """The old extraction slot as a full exponent, or None when never read."""
    return tuple(mono) + (0,) * (r - 1) if min(mono) >= 0 else None


def test_pair_data_follows_from_the_table_and_the_closed_form():
    cases = 0
    for row in SPECIAL_POINTS.values():
        kind = row.pair
        for r in range(1, 6):
            for k in range(row.k_min, 12):
                for m in pair_m_range(kind, r, k):
                    (base, direction, base_img, eps_img,
                     mono0, mono1) = _reference_pair_data(kind, r, k, m)
                    a, b = row.powers(k)
                    assert (a, b) == base
                    assert _pair_data(kind, r, k, m) == (direction, eps_img)
                    assert ((r + 1) * (a - 1), (r + 1) * b) == base_img
                    assert _extraction_monomial(base_img, r) == _padded(mono0, r)
                    assert _extraction_monomial(eps_img, r) == _padded(mono1, r)
                    assert _predicted_constants(kind, r, k, m) == \
                        _reference_constants(kind, r, k, m)
                    cases += 1
    assert cases == 1090
