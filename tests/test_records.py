"""Every report record's JSON is pinned, one literal per record class.

Some records reach the suite bytes only when a check fails (closed forms,
pairs, gates) or never (normal forms), so the suite digests cannot catch a
changed key there.  Each literal below is the record's ``to_json_dict`` as
it serializes under ``canonical_json``: key names, values and nesting.
"""

import json

import pytest

from hesskit.curves import scan_condition, verify_family
from hesskit.forms import Form
from hesskit.indeterminacy import (ConeNormalForm, NAMED_FAMILIES, _linear,
                                   limit_divisibility_check,
                                   normal_form_check, pair_divisibility_check)
from hesskit.orbit_checks import verify_closed_form, verify_pair
from hesskit.rank_certificates import (SpecialPoint, block_structure_check,
                                       pijk_injectivity,
                                       verify_special_point_rank)
from hesskit.reports import canonical_json, certify, versions

X0, X1, X2 = (Form.variable(3, i) for i in range(3))

_SCOPE = ("certified degrees are 4 and every degree from 6 on; even degrees "
          "up to 12 certify at the hyperbolic power point, even degrees from "
          "14 on at the double-line point, odd degrees at the single-line "
          "point")
_POINTS_2 = [[-1, 1], [-1, 2], [0, 0], [1, -1], [1, 1], [2, 2], [9, -3]]


def _closed_form():
    return verify_closed_form(2, 2, 1)


def _pair():
    return verify_pair("odd", 2, 2, 1)


def _normal_form():
    n = ConeNormalForm(4, _linear(0, 1), _linear(1, 0), (1, 1, 1))
    return normal_form_check(n)


def _gate_applicable():
    # f is a binary cone with f11 = f12 = f22 = 0, so every gate holds
    return pair_divisibility_check(X0 ** 4 + X0 ** 3 * X1,
                                   X2 ** 4 + X0 * X1 * X2 ** 2, "manual")


def _gate_failing():
    # h12(f, g) != 0: the gate fails and nothing is claimed
    return pair_divisibility_check(Form.monomial((0, 4, 0)),
                                   Form.monomial((0, 0, 4)), "manual")


def _limit():
    return limit_divisibility_check(NAMED_FAMILIES["quartic-powers"]())


RECORDS = {
    "closed-form": ("ClosedFormReport", _closed_form, {
        "r": 2, "k": 2, "h": 1, "constant": "-96", "q_power": 3,
        "l_power": 3, "matches": True}),
    "pair": ("PairReport", _pair, {
        "kind": "odd", "r": 2, "k": 2, "m": 1, "c0": "-96", "c1": "-144",
        "c0_extracted": "-96", "c1_extracted": "-144", "base_matches": True,
        "eps_matches": True, "condition_value": -9, "matches": True}),
    "normal-form": ("NormalFormReport", _normal_form, {
        "d": 4, "h12_vanishes": True, "divisible_by_x0^(2d-4)": True,
        "hess_zero": False, "degenerate_data": False, "iff_holds": True,
        "passed": True}),
    "gate-applicable": ("GateReport", _gate_applicable, {
        "check": "pair-divisibility", "d": 4, "case": "manual",
        "hypotheses_ok": True, "applicable": True, "divisible": True,
        "value_nonzero": True, "passed": True}),
    "gate-failing": ("GateReport", _gate_failing, {
        "check": "pair-divisibility", "d": 4, "case": "manual",
        "hypotheses_ok": False, "applicable": False, "divisible": None,
        "value_nonzero": None, "passed": True}),
    "limit": ("LimitReport", _limit, {
        "d": 4, "status": "divisible", "lowest_order": 2,
        "required_power": 1}),
    "scan-clean": ("ScanReport", lambda: scan_condition("odd", 2, 2, 30), {
        "condition": "odd", "r": 2, "kmin": 2, "kmax": 30, "violations": [],
        "clean": True}),
    "scan-violations": (
        "ScanReport", lambda: scan_condition("evenA", 2, 1, 30), {
            "condition": "evenA", "r": 2, "kmin": 1, "kmax": 30,
            "violations": [[1, 1], [7, 3], [12, 4], [26, 6]],
            "clean": False}),
    "family": ("FamilyReport", lambda: verify_family(2, 1000), {
        "family": 2, "weierstrass_points_ok": True,
        "s_integral_support_ok": True, "rescale_model_ok": True,
        "rescaled_points_ok": True,
        "fiber_cases": {"contracted-line": 1, "empty": 1, "linear": 10},
        "integer_candidates": _POINTS_2, "recovered_set": _POINTS_2,
        "expected_set": _POINTS_2, "brute_force_set": _POINTS_2,
        "omega_match": True, "passed": True}),
    "block": ("BlockReport", lambda: block_structure_check(2, 2), {
        "k": 2, "r": 2,
        "blocks": [
            {"i": 0, "block_dim": 1, "scalar": "-144", "scalar_holds": True,
             "single_slot": True, "target_slot": 3},
            {"i": 1, "block_dim": 5, "scalar": "-72", "scalar_holds": True,
             "single_slot": True, "target_slot": 2},
            {"i": 2, "block_dim": 9, "scalar": "96", "scalar_holds": True,
             "single_slot": True, "target_slot": 1}],
        "all_single_slot": True, "all_scalar": True, "scalars_match": True,
        "passed": True}),
    "rank-with-precondition": (
        "RankReport",
        lambda: verify_special_point_rank(SpecialPoint("qkl", 1), 2), {
            "point": "q*l", "r": 2, "d": 3, "domain_dim": 9,
            "matrix_shape": [10, 10], "rank": 5, "injective": False,
            "method": "bareiss", "probe_primes": [2147483647, 2147483629],
            "claim": "no-claim", "complement_checked": False,
            "precondition": {"condition": "odd", "holds": False, "k": 1,
                             "m_range": [0, 1], "violations": [1]}}),
    "rank-without-precondition": (
        "RankReport", lambda: pijk_injectivity(1, 1, 2), {
            "point": "P(i=1,k=1)", "r": 2, "d": 1, "domain_dim": 3,
            "matrix_shape": [6, 3], "rank": 3, "injective": True,
            "method": "modular-full-rank",
            "probe_primes": [2147483647, 2147483629], "claim": "injective",
            "complement_checked": False}),
    "certificate-excluded": ("Certificate", lambda: certify(5), {
        "d": 5, "branch": "excluded", "pass": True, "excluded": True,
        "reason": ("degree 5 sits outside the certified range: the "
                   "guaranteed divisibility order d-3 = 2 does not exceed "
                   "the x0-valuation 3 of the Hessian at the single-line "
                   "point, so no exclusion gate is available"),
        "point": None, "scan": None, "rank": None,
        "gates": {"d": 5, "k": 2, "odd": True, "gates": {
            "quadric-line": {"available": False, "excluded": False,
                             "needs": "k >= 3", "point": "q^2*l",
                             "valuation": 3}}},
        "trusted": [], "notes": [_SCOPE]}),
    "certificate": ("Certificate", lambda: certify(6), {
        "d": 6, "branch": "evenA-via-2.9", "pass": True, "excluded": False,
        "reason": None, "point": "q^3",
        "scan": {"condition": "evenA", "r": 2, "kmin": 2, "kmax": 3,
                 "violations": [], "violations_at_k": [], "clean": True},
        "rank": {"point": "q^3", "r": 2, "d": 6, "domain_dim": 27,
                 "matrix_shape": [91, 28], "rank": 27, "injective": True,
                 "method": "modular-full-rank",
                 "probe_primes": [2147483647, 2147483629],
                 "claim": "injective", "complement_checked": False,
                 "precondition": {"condition": "evenA", "holds": True,
                                  "k": 3, "m_range": [1, 3],
                                  "violations": []}},
        "gates": {"d": 6, "k": 3, "odd": False, "gates": {
            "hyperbolic-power": {"available": True, "excluded": True,
                                 "needs": "k >= 2", "point": "q^3",
                                 "valuation": 0},
            "quadric-double-line": {"available": False, "excluded": False,
                                    "needs": "k >= 5", "point": "q^2*l^2",
                                    "valuation": 6}}},
        "trusted": [], "notes": [_SCOPE]}),
}


@pytest.mark.parametrize("case", sorted(RECORDS))
def test_record_json_is_pinned(case):
    cls, build, expected = RECORDS[case]
    rep = build()
    assert type(rep).__name__ == cls
    doc = rep.to_json_dict()
    assert json.loads(canonical_json(doc)) == doc  # plain JSON values only
    if cls == "Certificate":
        assert doc.pop("versions") == versions()
    assert canonical_json(doc) == canonical_json(expected)


def test_every_record_class_is_pinned():
    assert {cls for cls, _, _ in RECORDS.values()} == {
        "ScanReport", "FamilyReport", "ClosedFormReport", "PairReport",
        "RankReport", "BlockReport", "NormalFormReport", "GateReport",
        "LimitReport", "Certificate"}
