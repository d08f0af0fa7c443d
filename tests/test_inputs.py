"""Every public entry refuses a bad integer argument with ``InputError``."""

import random
from fractions import Fraction

import pytest

from hesskit import (ConeNormalForm, Form, QuadraticForm, SpecialPoint,
                     TParameterForm, block_structure_check, certify,
                     closed_form_constant, dim_harmonic, dim_sym,
                     fiber_recover, harmonic_basis, monomials_of_degree,
                     pijk_injectivity, random_form, run_suite,
                     sample_gated_pair, sample_gated_triple, scan_condition,
                     verify_closed_form, verify_family, verify_pair,
                     verify_pairs, verify_special_point_rank)
from hesskit.curves import FAMILIES, rho1, rho2
from hesskit.errors import InputError
from hesskit.indeterminacy import exclusion_gate
from hesskit.orbit_checks import hyperbolic_q, power_product

X1, X2 = Form.variable(3, 1), Form.variable(3, 2)
W1, W2 = FAMILIES[1].weierstrass, FAMILIES[2].weierstrass

# (entry, callable, valid keyword arguments, {argument: least valid value}).
# The entry names follow hesskit.__all__, "Class.method" for a method, so the
# coverage guard in test_source.py can check that no int parameter of the
# API is missing here.  A least value of None means any int is valid.
ENTRIES = [
    ("monomials_of_degree", monomials_of_degree, dict(nvars=2, degree=2),
     dict(nvars=1, degree=0)),
    ("dim_sym", dim_sym, dict(nvars=2, degree=2), dict(nvars=1, degree=None)),
    ("dim_harmonic", dim_harmonic, dict(nvars=3, degree=2),
     dict(nvars=1, degree=0)),
    ("random_form", random_form,
     dict(nvars=2, degree=2, rng=random.Random(0), coeff_bound=9),
     dict(nvars=1, degree=0, coeff_bound=1)),
    ("harmonic_basis", harmonic_basis,
     dict(degree=2, q=QuadraticForm.canonical_hyperbolic(2)), dict(degree=0)),
    ("QuadraticForm.identity", QuadraticForm.identity, dict(r=2), dict(r=0)),
    ("QuadraticForm.canonical_hyperbolic", QuadraticForm.canonical_hyperbolic,
     dict(r=2), dict(r=1)),
    ("closed_form_constant", closed_form_constant, dict(r=2, k=2, h=1),
     dict(r=1, k=0, h=0)),
    ("verify_closed_form", verify_closed_form, dict(r=2, k=2, h=1),
     dict(r=1, k=0, h=0)),
    ("verify_pair", verify_pair, dict(kind="even", r=2, k=2, m=1),
     dict(r=1, k=1, m=1)),
    ("verify_pair", verify_pair, dict(kind="odd", r=2, k=2, m=0), dict(m=0)),
    ("verify_pair", verify_pair, dict(kind="even2", r=2, k=2, m=0), dict(k=2)),
    ("verify_pairs", verify_pairs, dict(kind="even", r=2, k=2, ms=(1, 2)),
     dict(r=1, k=1)),
    ("verify_pairs", verify_pairs, dict(kind="even2", r=2, k=2), dict(k=2)),
    ("SpecialPoint", SpecialPoint, dict(kind="qk", k=2), dict(k=1)),
    ("SpecialPoint", SpecialPoint, dict(kind="qk1l2", k=2), dict(k=2)),
    ("SpecialPoint.form", SpecialPoint("qk", 2).form, dict(r=2), dict(r=1)),
    ("SpecialPoint.at_degree", SpecialPoint.at_degree, dict(kind="qk", d=4),
     dict(d=2)),
    ("SpecialPoint.at_degree", SpecialPoint.at_degree, dict(kind="qkl", d=5),
     dict(d=3)),
    ("SpecialPoint.at_degree", SpecialPoint.at_degree,
     dict(kind="qk1l2", d=6), dict(d=4)),
    ("verify_special_point_rank", verify_special_point_rank,
     dict(point=SpecialPoint("qk", 2), r=2), dict(r=1)),
    ("block_structure_check", block_structure_check, dict(k=2, r=2),
     dict(k=1, r=1)),
    ("pijk_injectivity", pijk_injectivity, dict(i=1, k=1, r=2),
     dict(i=0, k=1, r=1)),
    ("scan_condition", scan_condition,
     dict(condition="evenA", r=2, kmin=2, kmax=5), dict(r=1, kmin=0, kmax=2)),
    ("verify_family", verify_family, dict(family=1, bound=100),
     dict(family=1, bound=10)),
    ("fiber_recover", fiber_recover, dict(family=1, a=0, b=0), dict(family=1)),
    ("ConeNormalForm", ConeNormalForm, dict(d=4, l=X2, m=X1, cs=(1, 1, 1)),
     dict(d=3)),
    ("sample_gated_pair", sample_gated_pair, dict(d=4, rng=random.Random(0)),
     dict(d=4)),
    ("sample_gated_triple", sample_gated_triple,
     dict(d=4, rng=random.Random(0)), dict(d=4)),
    ("certify", certify, dict(d=4), dict(d=4)),
    ("run_suite", run_suite,
     dict(name_filter="closed-forms", jobs=1, bound=10 ** 6),
     dict(jobs=1, bound=10)),
]

CASES = [pytest.param(fn, kwargs, arg, least,
                      id="-".join(filter(None, [name, arg, kwargs.get("kind")])))
         for name, fn, kwargs, leasts in ENTRIES
         for arg, least in leasts.items()]


@pytest.mark.parametrize("fn,kwargs,arg,least", CASES)
def test_bad_int_argument_is_an_input_error(fn, kwargs, arg, least):
    bad = [True, 2.0, "2", None] + ([] if least is None else [least - 1])
    for value in bad:
        with pytest.raises(InputError, match=f"^{arg} must be an int"):
            fn(**dict(kwargs, **{arg: value}))


# Module-level entries outside hesskit.__all__ refuse a bad int the same way.
@pytest.mark.parametrize("call", [
    lambda: exclusion_gate(7.0),
    lambda: exclusion_gate(3),
    lambda: power_product(0, 0, 2),
    lambda: power_product(2, -1, 0),
    lambda: power_product(2, 1, True),
    lambda: hyperbolic_q(True),
    lambda: hyperbolic_q(0),
], ids=["float-gate-d", "gate-d-3", "power-r-0", "negative-power-k",
        "bool-power-h", "bool-quadric-r", "quadric-r-0"])
def test_internal_int_entries_are_checked(call):
    with pytest.raises(InputError, match="must be an int"):
        call()


@pytest.mark.parametrize("call", [
    lambda: verify_special_point_rank(SpecialPoint("qk", 2), True),
    lambda: scan_condition("evenA", 2, 5, 2),
    lambda: closed_form_constant(-3, 10 ** 20, 0),
    lambda: monomials_of_degree(1, -1),
    lambda: block_structure_check(2, True),
    lambda: certify(6.0),
    lambda: verify_pair("even", 2, 2, 3),
    lambda: verify_pair("sideways", 2, 2, 1),
    lambda: verify_pairs("even", 2, 2, [1, 3]),
    lambda: verify_pairs("even", 2, 2, [2, True]),
    lambda: verify_pairs("sideways", 2, 2, []),
    lambda: verify_family(3, 100),
    lambda: fiber_recover(3, 0, 0),
    lambda: SpecialPoint("qq", 2),
    lambda: run_suite(name_filter="closed-froms"),
    # Form checks its int arguments in its constructor, ``variable`` and
    # ``**``, as TParameterForm checks its slot keys; the products and
    # ``diff`` stay unchecked, since they run on forms already built
    lambda: Form(2, 2.0, {(1, 1): 1}),
    lambda: Form(True, 1, {(1,): 1}),
    lambda: Form.variable(3, True),
    lambda: Form.variable(3, 3),
    lambda: X1 ** True,
    lambda: X1 ** 2.0,
    lambda: TParameterForm({True: X1}),
    lambda: TParameterForm({1.0: X1}),
    # an exponent entry is packed into an int key, so it must be an int
    lambda: Form(2, 2, {(1.0, 1): 1}),
    lambda: Form.monomial((True, 1)),
    lambda: Form(2, 2, {(1.0, 1): 0}),
], ids=["bool-r", "empty-window", "negative-r", "negative-degree",
        "bool-block-r", "float-degree", "m-above-k", "unknown-kind",
        "pairs-m-above-k", "pairs-bool-m", "pairs-unknown-kind",
        "family-3", "fiber-family-3", "unknown-point", "empty-filter",
        "float-form-degree", "bool-form-nvars", "bool-variable-index",
        "variable-index-too-big", "bool-power", "float-power", "bool-t",
        "float-t", "float-exponent", "bool-exponent",
        "float-exponent-zero-coefficient"])
def test_inputs_once_accepted_are_refused(call):
    with pytest.raises(InputError):
        call()


# Exact inputs take an int, a Fraction or a numeric string, as Form does; a
# float would enter as its binary expansion, 0.1 as 3602879701896397/2**55,
# and a bool, an int subclass, is no coefficient either.
@pytest.mark.parametrize("call", [
    lambda: QuadraticForm([[0.1]]),
    lambda: fiber_recover(2, 0.1, 0),
    lambda: fiber_recover(2, 0, 0.1),
    lambda: ConeNormalForm(4, X2, X1, (0.1, 1, 1)),
    lambda: Form(1, 2, {(2,): True}),
    lambda: QuadraticForm([[True]]),
    lambda: fiber_recover(2, True, 0),
    lambda: ConeNormalForm(4, X2, X1, (True, 1, 1)),
    lambda: rho1(1, 0.5, 1),
    lambda: rho1(1, 1, True),
    lambda: rho2(1, 0.1, 1),
    lambda: rho2(1, 1, True),
    lambda: W1.rhs(0.5),
    lambda: W1.rhs(True),
    lambda: W1.on_curve(1, 0.5),
    lambda: W1.on_curve(1, True),
], ids=["gram", "fiber-a", "fiber-b", "cone-cs", "bool-form", "bool-gram",
        "bool-fiber-a", "bool-cone-cs", "rho1-x", "bool-rho1-y", "rho2-x",
        "bool-rho2-y", "rhs", "bool-rhs", "on-curve-y", "bool-on-curve-y"])
def test_floats_in_exact_inputs_are_refused(call):
    with pytest.raises(TypeError, match="must be int, Fraction or string"):
        call()


def test_exact_inputs_still_take_fractions_and_strings():
    assert QuadraticForm([["1/10"]]).polynomial() == Form(
        1, 2, {(2,): Fraction(1, 10)})
    assert fiber_recover(2, "1/2", 0) == fiber_recover(2, Fraction(1, 2), 0)
    cone = ConeNormalForm(4, X2, X1, ("1/2", 1, Fraction(3)))
    assert cone.cs == (Fraction(1, 2), Fraction(1), Fraction(3))
    # as in Form.scale, only a non-int is coerced; the built form is the same
    assert [type(c) for c in cone.cs] == [Fraction, int, Fraction]
    assert cone.build() == ConeNormalForm(
        4, X2, X1, (Fraction(1, 2), Fraction(1), Fraction(3))).build()
    # the curve maps take an int, a Fraction and a numeric string alike
    half = Fraction(1, 2)
    assert rho1(1, 1, "1/2") == rho1(1, Fraction(1), half) == rho1(1, 1, half)
    assert rho2(1, 1, "1/2") == rho2(1, Fraction(1), half) == (2 ** 12,
                                                               2 ** 17)
    assert W1.rhs(1) == W1.rhs(Fraction(1)) == W1.rhs("1") == Fraction(17, 64)
    assert W1.on_curve(0, Fraction(3, 8)) and W1.on_curve("0", "3/8")
    assert W2.on_curve(-6, 6) and W2.on_curve(Fraction(-6), "6")
