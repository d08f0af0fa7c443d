"""Acceptance battery: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Each criterion calls the library's registered suite entries
directly with the canonical context (seed 0, search bound 10**6) and holds
them to a wall-clock budget.
"""

import time

from hesskit.reports import (REGISTRY, canonical_json, run_suite)

CTX = {"seed": 0, "bound": 10 ** 6}
ENTRIES = dict(REGISTRY)


def run_entries(names):
    docs = [ENTRIES[n](dict(CTX)) for n in names]
    return all(doc["passed"] for doc in docs), docs


def report(num, label, budget, fn):
    t0 = time.perf_counter()
    try:
        ok = fn()
    except Exception:
        print(f"criterion {num:02d}: FAIL ({label}: raised)")
        raise
    took = time.perf_counter() - t0
    verdict = "PASS" if ok and took <= budget else "FAIL"
    print(f"criterion {num:02d}: {verdict} in {took:.1f}s "
          f"(budget {budget}s, {label})")
    assert ok, f"criterion {num:02d} checks failed"
    assert took <= budget, f"criterion {num:02d} exceeded {budget}s"


def test_criterion_01_closed_form_grid():
    report(1, "closed-form hessian grid", 30,
           lambda: run_entries(["closed-forms"])[0])


def test_criterion_02_perturbation_pairs():
    report(2, "first-order pair expansions and scaling checks", 120,
           lambda: run_entries(["pair-expansions"])[0])


def test_criterion_03_rank_certificates():
    def body():
        ok, (doc,) = run_entries(["rank-certificates"])
        claims = {p["point"]: p["claim"] for p in doc["points"]}
        negatives = [c for c in claims.values() if c == "no-claim"]
        return ok and len(claims) == 8 and len(negatives) == 1

    report(3, "injectivity at seven points plus one negative", 300, body)


def test_criterion_04_condition_scans():
    report(4, "integer-condition windows and curve bridges", 10,
           lambda: run_entries(["condition-scans"])[0])


def test_criterion_05_curve_families():
    def body():
        ok, (doc,) = run_entries(["curve-families"])
        return (ok and doc["family1"]["omega_match"]
                and doc["family2"]["omega_match"])

    report(5, "integer points, transport, fiber recovery to bound 10^6",
           60, body)


def test_criterion_06_multilinear_identities():
    def body():
        ok, (doc,) = run_entries(["multilinear-identities"])
        return ok and doc["total"] >= 100

    report(6, "trilinear hessian identities on random forms", 120, body)


def test_criterion_07_indeterminacy_divisibility():
    def body():
        ok, docs = run_entries(["cone-normal-forms", "gated-divisibility",
                                "limit-divisibility"])
        gated = docs[1]
        enough = (sum(gated["pair_cases"].values()) >= 100
                  and sum(gated["triple_cases"].values()) >= 100
                  and not gated["failures"]
                  and sum(docs[2]["random_statuses"].values()) >= 100)
        return ok and enough

    report(7, "normal forms, gated divisibility, limit divisibility", 300,
           body)


def test_criterion_08_harmonic_structure():
    report(8, "harmonic decomposition round trips and pairings", 60,
           lambda: run_entries(["harmonic-structure"])[0])


def test_criterion_09_certificates():
    def body():
        ok, (doc,) = run_entries(["certificates"])
        five = doc["certificates"]["5"]
        return (ok and doc["branch_logic"]
                and five["excluded"] and five["pass"])

    report(9, "per-degree certificates with branch logic", 600, body)


def test_criterion_10_suite_determinism():
    def body():
        a = run_suite(seed=0, bound=CTX["bound"])
        b = run_suite(seed=0, bound=CTX["bound"])
        same = canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())
        return a.passed() and b.passed() and same

    report(10, "two full suite runs, byte-identical reports", 600, body)
