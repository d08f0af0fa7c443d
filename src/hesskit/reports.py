"""Degree-level certificates and the merged verification suite.

A certificate for degree d bundles the three computable ingredients behind
the recovery statement at that degree: a clean integer-condition scan at the
relevant k, an injectivity rank at the matching special point (one rank
rule, ``linalg.rank_with_certificate``, with no route option), and the
availability of the x0-divisibility gate that excludes the special orbits
from the indeterminacy limits.  Branch selection:

    d even, d <= 12   scan evenA, rank at q**k        (k = d/2)
    d even, d >= 14   scan evenB, rank at q**(k-1) l**2
    d odd,  d >= 7    scan odd,   rank at q**k l      (k = (d-1)/2)
    d == 5            explicit exclusion record, no certificate
    d < 4             out of range

The suite runs every registered verification with a fixed seed and merges
the reports into one JSON document.  Canonical suite output contains no
timings, so two runs with the same seed produce identical bytes; timings are
collected separately for logging.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import platform
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ._version import __version__
from .errors import InputError, VerificationError, require_int
from .forms import Form, random_form
from .harmonic import (QuadraticForm, bombieri_weyl, dim_harmonic,
                       harmonic_basis, harmonic_decompose, recompose)
from .hessians import TParameterForm, h3, hess, hess_t, hessian_expansion
from .curves import (CONDITION_FAMILIES, CONDITIONS, condition_matches_curve,
                     fixture_bytes, scan_condition, verify_family)
from .indeterminacy import (ConeNormalForm, NAMED_FAMILIES, _linear,
                            exclusion_gate, limit_divisibility_check,
                            multiplicity_profile, normal_form_check,
                            pair_divisibility_check, sample_family,
                            sample_gated_pair, sample_gated_triple,
                            triple_divisibility_check)
from .orbit_checks import (SPECIAL_POINTS, _predicted_constants,
                           pair_m_range, verify_closed_form, verify_pairs)
from .rank_certificates import (SpecialPoint, block_structure_check,
                                pijk_injectivity, verify_special_point_rank)
from .records import json_dict

EXPECTED_FIXTURE_DIGEST = (
    "c6dc3b94233d4f5bf0f0aab3f82a6f6ebfc0f92940058def7696f74a6256e32a")


class FixtureError(RuntimeError):
    """The packaged point-list fixture does not match its pinned digest."""


def fixture_digest() -> str:
    return hashlib.sha256(fixture_bytes()).hexdigest()


def check_fixtures() -> str:
    digest = fixture_digest()
    if digest != EXPECTED_FIXTURE_DIGEST:
        raise FixtureError(
            f"point-list fixture digest {digest} does not match the pinned "
            f"value {EXPECTED_FIXTURE_DIGEST}")
    return digest


def versions() -> Dict[str, str]:
    return {"hesskit": __version__, "python": platform.python_version()}


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, fixed separators, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# degree certificates
# ---------------------------------------------------------------------------

BRANCH_EVEN_A = "evenA-via-2.9"
BRANCH_EVEN_B = "evenB-via-2.18"
BRANCH_ODD = "odd-via-2.17"
BRANCH_EXCLUDED = "excluded"

_TRUST_NOTE = (
    "completeness of the stored {curve} integer point list: membership, the "
    "scan window, and the transport through the birational map are verified "
    "exactly here; finiteness of the full list is an external input")


@dataclass
class Certificate:
    d: int
    branch: str
    ok: bool
    point: Optional[str] = None
    scan: Optional[dict] = None
    rank: Optional[dict] = None
    gates: Optional[dict] = None
    trusted: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    excluded: bool = False
    reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = json_dict(self, versions=versions())
        out["pass"] = out.pop("ok")
        return out


_SCOPE_NOTE = ("certified degrees are 4 and every degree from 6 on; even "
               "degrees up to 12 certify at the hyperbolic power point, even "
               "degrees from 14 on at the double-line point, odd degrees at "
               "the single-line point")


def certify(d: int) -> Certificate:
    """Assemble the full verification certificate for one degree; the branch
    token and the exclusion gate are read off the point's table row."""
    require_int("d", d, 4)
    if d == 5:
        gates = exclusion_gate(5)
        return Certificate(
            d=5, branch=BRANCH_EXCLUDED, ok=True, excluded=True,
            gates=gates,
            reason=("degree 5 sits outside the certified range: the "
                    "guaranteed divisibility order d-3 = 2 does not exceed "
                    "the x0-valuation 3 of the Hessian at the single-line "
                    "point, so no exclusion gate is available"),
            notes=[_SCOPE_NOTE])

    kind = "qkl" if d % 2 else "qk" if d <= 12 else "qk1l2"
    spec = SPECIAL_POINTS[kind]
    point = SpecialPoint.at_degree(kind, d)
    k = point.k
    row = CONDITION_FAMILIES.get(point.condition)
    trusted = [_TRUST_NOTE.format(curve=row.curve.name)] if row else []

    scan = scan_condition(point.condition, 2, 2, max(2, k))
    at_k = [v for v in scan.violations if v[0] == k]
    scan_ok = not at_k

    notes = [_SCOPE_NOTE]
    rank_dict: Optional[dict] = None
    rank_ok = False
    try:
        rank = verify_special_point_rank(point, r=2)
        rank_dict = rank.to_json_dict()
        rank_ok = rank.claim == "injective" and rank.injective
    except VerificationError as exc:
        notes.append(f"rank verification failed: {exc}")

    gates = exclusion_gate(d)
    gate_ok = bool(gates["gates"][spec.gate]["excluded"])
    if not gate_ok:
        notes.append(f"exclusion gate {spec.gate} unavailable at degree {d}")

    return Certificate(
        d=d, branch=spec.branch, ok=scan_ok and rank_ok and gate_ok,
        point=point.label(),
        scan=dict(scan.to_json_dict(), violations_at_k=[list(v) for v in at_k]),
        rank=rank_dict, gates=gates, trusted=trusted, notes=notes)


CERTIFIED_DEGREES: Tuple[int, ...] = tuple(
    d for d in range(4, 17) if d != 5)


# ---------------------------------------------------------------------------
# suite entries
# ---------------------------------------------------------------------------
#
# Every entry is a module-level function taking the context dict (seed,
# bound) and returning a JSON-ready report with a "passed" key.
# Entries must be deterministic functions of the context.


def _rng_for(ctx: dict, name: str) -> random.Random:
    return random.Random(f"{ctx['seed']}:{name}")


def _entry_closed_forms(ctx: dict) -> dict:
    checks = []
    ok = True
    for r in (2, 3):
        for k in range(0, 5):
            for h in range(0, 4):
                rep = verify_closed_form(r, k, h)
                ok = ok and rep.matches
                checks.append(rep.to_json_dict())
    return {"passed": ok, "grid": "r in {2,3}, k in [0,4], h in [0,3]",
            "count": len(checks), "failures": [c for c in checks if not c["matches"]]}


def _entry_pair_expansions(ctx: dict) -> dict:
    failures = []
    count = 0
    for r in (2, 3):
        for k in range(1, 5):
            for row in SPECIAL_POINTS.values():
                if k < row.k_min:
                    continue
                for rep in verify_pairs(row.pair, r, k):
                    count += 1
                    if not rep.matches:
                        failures.append(rep.to_json_dict())
    # at m = q_shift the direction is the base, so c1 = (r + 1) * c0
    scaling_ok = all(
        c1 == (r + 1) * c0
        for r in (2, 3) for k in range(1, 6) for row in SPECIAL_POINTS.values()
        if k >= row.k_min and row.q_shift in pair_m_range(row.pair, r, k)
        for c0, c1 in [_predicted_constants(row.pair, r, k, row.q_shift)])
    return {"passed": not failures and scaling_ok, "count": count,
            "scaling_consistency": scaling_ok, "failures": failures}


_RANK_POINTS: Tuple[Tuple[str, int, bool], ...] = (
    # (kind, k, expect injective)
    ("qk", 2, True), ("qk", 3, True), ("qk", 4, True),
    ("qkl", 2, True), ("qkl", 3, True),
    ("qk1l2", 3, True), ("qk1l2", 4, True),
    ("qkl", 1, False),
)


def _entry_rank_certificates(ctx: dict) -> dict:
    rng = _rng_for(ctx, "rank-certificates")
    reports = []
    ok = True
    for kind, k, expect in _RANK_POINTS:
        point = SpecialPoint(kind, k)
        rep = verify_special_point_rank(point, r=2, rng=rng)
        good = (rep.claim == "injective") == expect
        if not expect:
            good = good and rep.claim == "no-claim" and not rep.injective
        ok = ok and good
        reports.append(rep.to_json_dict())
    return {"passed": ok, "points": reports}


def _entry_block_structure(ctx: dict) -> dict:
    blocks = [block_structure_check(k, 2).to_json_dict() for k in (2, 3)]
    ok = all(b["passed"] for b in blocks)
    pijk = []
    for (i, k, r, expected) in ((1, 1, 2, 3), (0, 3, 2, 1), (2, 2, 3, 9)):
        rep = pijk_injectivity(i, k, r)
        good = rep.rank == expected == rep.domain_dim and rep.injective
        ok = ok and good
        pijk.append(dict(rep.to_json_dict(), expected_rank=expected,
                         matches=good))
    return {"passed": ok, "blocks": blocks, "pijk": pijk}


def _entry_condition_scans(ctx: dict) -> dict:
    a6 = scan_condition("evenA", 2, 2, 6)
    a20 = scan_condition("evenA", 2, 2, 20)
    odd100 = scan_condition("odd", 2, 2, 100)
    b100 = scan_condition("evenB", 2, 2, 100)
    expected_a20 = [[7, 3], [12, 4]]
    expected_b100 = [[2, 2]]

    # the r=2 conditions agree with the curve polynomials on a sample grid
    grid = [(k, m) for k in range(0, 12) for m in range(-6, 12)]
    bridge_ok = all(condition_matches_curve(cond, row.curve, grid)
                    for cond, row in CONDITION_FAMILIES.items())

    # scan violations must be exactly the stored curve points in window
    def matches_window(scan) -> bool:
        m_min = CONDITIONS[scan.condition][1]
        window = [list(p) for p in CONDITION_FAMILIES[scan.condition].omega
                  if scan.kmin <= p[0] <= scan.kmax and m_min <= p[1] <= p[0]]
        return sorted([list(v) for v in scan.violations]) == sorted(window)

    consistency = matches_window(odd100) and matches_window(b100)

    ok = (a6.clean and [list(v) for v in a20.violations] == expected_a20
          and odd100.clean and [list(v) for v in b100.violations] == expected_b100
          and bridge_ok and consistency)
    return {"passed": ok,
            "evenA_2_6": a6.to_json_dict(), "evenA_2_20": a20.to_json_dict(),
            "odd_2_100": odd100.to_json_dict(), "evenB_2_100": b100.to_json_dict(),
            "curve_bridge": bridge_ok, "window_consistency": consistency}


def _entry_curve_families(ctx: dict) -> dict:
    r1 = verify_family(1, bound=ctx["bound"])
    r2 = verify_family(2, bound=ctx["bound"])
    return {"passed": r1.passed() and r2.passed(),
            "family1": r1.to_json_dict(), "family2": r2.to_json_dict()}


def _entry_multilinear_identities(ctx: dict) -> dict:
    rng = _rng_for(ctx, "multilinear-identities")
    sym_ok = 0
    for _ in range(70):
        d = rng.choice([2, 3, 4, 5])
        f = random_form(3, d, rng, coeff_bound=7, density=0.8)
        if h3(f, f, f) == hess(f):
            sym_ok += 1
    fam_ok = 0
    fam_total = 40
    for _ in range(fam_total):
        d = rng.choice([3, 4, 5])
        fam = sample_family(d, rng, max_slots=2, max_exponent=3)
        a = hess_t(fam)
        b = hessian_expansion(fam)
        if a.slots == b.slots:
            fam_ok += 1
    ok = sym_ok == 70 and fam_ok == fam_total
    return {"passed": ok, "hessian_as_triple": sym_ok,
            "expansion_matches": fam_ok, "total": 70 + fam_total}


def _entry_harmonic_structure(ctx: dict) -> dict:
    rng = _rng_for(ctx, "harmonic-structure")
    q = QuadraticForm.canonical_hyperbolic(2)
    round_trip = harmonicity = shift_ok = True
    for d in range(1, 9):
        f = random_form(3, d, rng, coeff_bound=9, density=0.9)
        slots = harmonic_decompose(f, q)
        round_trip = round_trip and recompose(slots, q) == f
        harmonicity = harmonicity and all(
            q.laplacian(s).is_zero() for s in slots if not s.is_zero())
        j = rng.randint(1, 2)
        shifted = harmonic_decompose((q.polynomial() ** j) * f, q)
        expect = [Form.zero(3, (d + 2 * j) - 2 * i) for i in range(j)] + slots
        shift_ok = shift_ok and len(shifted) == len(expect) and all(
            a == b for a, b in zip(shifted, expect))
    dims_ok = all(dim_harmonic(3, d) == 2 * d + 1 for d in range(0, 9))
    ortho_ok = True
    for d in (2, 3, 4):
        basis = harmonic_basis(d, q)
        dims_ok = dims_ok and len(basis) == dim_harmonic(3, d)
        for i, hi in enumerate(basis):
            for hj in basis[i + 1:]:
                ortho_ok = ortho_ok and bombieri_weyl(hi, hj) == 0
    ok = round_trip and harmonicity and shift_ok and dims_ok and ortho_ok
    return {"passed": ok, "round_trip": round_trip, "harmonicity": harmonicity,
            "q_shift": shift_ok, "dimensions": dims_ok,
            "bw_orthogonality": ortho_ok}


def _entry_cone_normal_forms(ctx: dict) -> dict:
    rng = _rng_for(ctx, "cone-normal-forms")
    x1, x2 = _linear(1, 0), _linear(0, 1)
    fixtures = [
        ConeNormalForm(4, x2, x1, tuple(Fraction(1) for _ in range(3))),
        ConeNormalForm(4, x1, x1, (Fraction(1), Fraction(2), Fraction(3))),
        ConeNormalForm(5, x2, x1, (Fraction(0),) * 4),
    ]
    ok = all(normal_form_check(n).passed() for n in fixtures)
    iff_hits = 0
    trials = 60
    for _ in range(trials):
        d = rng.randint(3, 6)
        l = _linear(rng.randint(-4, 4), rng.randint(-4, 4))
        m = _linear(rng.randint(-4, 4), rng.randint(-4, 4))
        cs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d - 1))
        rep = normal_form_check(ConeNormalForm(d, l, m, cs))
        if rep.passed():
            iff_hits += 1
    profiles_ok = True
    for d in (4, 5, 6):
        prof = multiplicity_profile(
            ConeNormalForm(d, x2, x1, tuple(Fraction(1) for _ in range(d - 1))))
        profiles_ok = (profiles_ok
                       and prof["vanishing_through_order"] == d - 2
                       and prof["nonzero_at_order_d_minus_1"] == [(d - 1, 0, 0)])
    ok = ok and iff_hits == trials and profiles_ok
    return {"passed": ok, "fixtures": len(fixtures), "random_iff": iff_hits,
            "trials": trials, "multiplicity_profiles": profiles_ok}


def _entry_gated_divisibility(ctx: dict) -> dict:
    counts: Dict[str, object] = {}
    failures = []
    covered = True
    for row, degrees, sample, check, least_nonzero in (
            ("pair", (4, 5, 6), sample_gated_pair,
             pair_divisibility_check, 30),
            ("triple", (4, 5), sample_gated_triple,
             triple_divisibility_check, 60)):
        cases: Dict[str, int] = {}
        nonzero = 0
        for seed in range(100):
            rng = random.Random(f"{ctx['seed']}:{row}:{seed}")
            *forms, case = sample(rng.choice(degrees), rng)
            rep = check(*forms, case)
            if not (rep.hypotheses_ok and rep.divisible):
                failures.append(rep.to_json_dict())
            cases[case] = cases.get(case, 0) + 1
            nonzero += 1 if rep.value_nonzero else 0
        covered = covered and len(cases) == 3 and nonzero > least_nonzero
        counts[row + "_cases"] = dict(sorted(cases.items()))
        counts[row + "_nonzero"] = nonzero
    return {"passed": covered and not failures, **counts, "failures": failures}


def _entry_limit_divisibility(ctx: dict) -> dict:
    named = {}
    ok = True
    for name, make in sorted(NAMED_FAMILIES.items()):
        rep = limit_divisibility_check(make())
        named[name] = rep.to_json_dict()
        ok = ok and rep.status == "divisible"
    statuses: Dict[str, int] = {}
    for seed in range(100):
        rng = random.Random(f"{ctx['seed']}:limit:{seed}")
        d = rng.choice([4, 5, 6, 7])
        rep = limit_divisibility_check(sample_family(d, rng))
        ok = ok and rep.passed()
        statuses[rep.status] = statuses.get(rep.status, 0) + 1
    # substituting t -> t**3 must not change any verdict
    rng = random.Random(f"{ctx['seed']}:limit:clearing")
    fam = sample_family(6, rng)
    cleared = TParameterForm({3 * a: f for a, f in fam.slots.items()})
    ok = ok and (limit_divisibility_check(fam).status
                 == limit_divisibility_check(cleared).status)
    cone = TParameterForm({0: Form.monomial((4, 0, 0)),
                           1: Form.from_coeffs(3, 4, {(0, 4, 0): 1})})
    ok = ok and limit_divisibility_check(cone).status == "inconclusive-limit"
    gates_ok = all(exclusion_gate(d)["d"] == d for d in range(4, 31))
    return {"passed": ok and gates_ok, "named": named,
            "random_statuses": dict(sorted(statuses.items())),
            "gates_table_consistent": gates_ok}


def expected_branch(d: int) -> str:
    if d == 5:
        return BRANCH_EXCLUDED
    if d % 2:
        return BRANCH_ODD
    return BRANCH_EVEN_A if d <= 12 else BRANCH_EVEN_B


_SUITE_CERT_DEGREES: Tuple[int, ...] = tuple(sorted((5,) + CERTIFIED_DEGREES))


def _entry_certificates(ctx: dict) -> dict:
    per_degree = {}
    ok = branch_ok = True
    for d in _SUITE_CERT_DEGREES:
        cert = certify(d)
        per_degree[str(d)] = cert.to_json_dict()
        if d == 5:
            ok = ok and cert.excluded and cert.ok
        else:
            ok = ok and cert.ok and not cert.excluded
        branch_ok = branch_ok and cert.branch == expected_branch(d)
    return {"passed": ok and branch_ok, "degrees": list(_SUITE_CERT_DEGREES),
            "branch_logic": branch_ok, "certificates": per_degree}


REGISTRY: Tuple[Tuple[str, Callable[[dict], dict]], ...] = (
    ("closed-forms", _entry_closed_forms),
    ("pair-expansions", _entry_pair_expansions),
    ("rank-certificates", _entry_rank_certificates),
    ("block-structure", _entry_block_structure),
    ("condition-scans", _entry_condition_scans),
    ("curve-families", _entry_curve_families),
    ("multilinear-identities", _entry_multilinear_identities),
    ("harmonic-structure", _entry_harmonic_structure),
    ("cone-normal-forms", _entry_cone_normal_forms),
    ("gated-divisibility", _entry_gated_divisibility),
    ("limit-divisibility", _entry_limit_divisibility),
    ("certificates", _entry_certificates),
)


def _run_one(args: Tuple[str, dict]) -> Tuple[str, dict, float]:
    name, ctx = args
    fn = dict(REGISTRY)[name]
    t0 = time.perf_counter()
    report = fn(ctx)
    return name, report, time.perf_counter() - t0


@dataclass
class SuiteResult:
    seed: int
    bound: int
    name_filter: Optional[str]
    fixture_sha256: str
    entries: Dict[str, dict]
    timings: Dict[str, float] = field(default_factory=dict)

    def passed(self) -> bool:
        return all(rep.get("passed") for rep in self.entries.values())

    def counts(self) -> Dict[str, int]:
        total = len(self.entries)
        good = sum(1 for rep in self.entries.values() if rep.get("passed"))
        return {"total": total, "passed": good, "failed": total - good}

    def to_json_dict(self) -> dict:
        # timings are deliberately left out: canonical output must be
        # byte-identical across runs with the same seed
        return {
            "suite": {
                "seed": self.seed,
                "bound": self.bound,
                "filter": self.name_filter,
                "fixture_sha256": self.fixture_sha256,
                "counts": self.counts(),
                "passed": self.passed(),
                "versions": versions(),
            },
            "entries": {name: rep for name, rep in sorted(self.entries.items())},
        }


def run_suite(name_filter: Optional[str] = None, jobs: int = 1,
              seed: int = 0, bound: int = 10 ** 6) -> SuiteResult:
    """Run the registered verifications and merge their reports.

    ``name_filter`` keeps entries whose name contains the string; one that
    keeps none raises ``InputError``, naming the known entries.  ``jobs``
    must be at least 1; more than one distributes entries over processes.
    ``bound`` must be an int of at least 10, as on the command line: below
    that the curve-family check fails for want of range, a failure that
    says nothing about the curves.  Reports come in registration order, as
    ``Executor.map`` returns them whatever the completion order.
    """
    require_int("jobs", jobs, 1)
    require_int("bound", bound, 10)
    selected = [(name, fn) for name, fn in REGISTRY
                if not name_filter or name_filter in name]
    if not selected:
        raise InputError(f"no suite entry matches {name_filter!r}; known: "
                         + ", ".join(name for name, _ in REGISTRY))
    digest = check_fixtures()
    ctx = {"seed": seed, "bound": bound}
    tasks = [(name, ctx) for name, _ in selected]
    if jobs > 1 and len(selected) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(task) for task in tasks]
    return SuiteResult(seed=seed, bound=bound, name_filter=name_filter,
                       fixture_sha256=digest,
                       entries={name: report for name, report, _ in results},
                       timings={name: took for name, _, took in results})
