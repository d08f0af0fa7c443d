"""One benchmark sample, run in a fresh interpreter.

Usage: python3 perfbench/worker.py SPAWN_TIME JOB_JSON

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is system-wide, so set-up time here covers
interpreter start, importing hesskit and ``reports.check_fixtures()``.
JOB_JSON names the work:

    {"kind": "setup"}                           set-up only
    {"kind": "suite", "seed": 3, "bound": N}    reports.run_suite(seed=3, bound=N)
    {"kind": "certify", "degrees": [17, 18]}    reports.certify(d) per degree
    {"kind": "curves", "bound": N}              curves.verify_family(1|2, N)

An optional ``"trace": true`` installs the timing wrappers of ``tracing.py``
after set-up.  The last line of stdout is one JSON object with the timings,
a summary of the outputs for the parent to check, the sha256 of the
canonical JSON of the outputs and, when traced, the trace summary.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cert_summary(reports, cert: dict) -> dict:
    return {"d": cert["d"], "pass": cert["pass"], "branch": cert["branch"],
            "expected_branch": reports.expected_branch(cert["d"])}


def _family_summary(rep: dict) -> dict:
    return {"family": rep["family"], "passed": rep["passed"],
            "omega_match": rep["omega_match"]}


def run_suite(job: dict):
    from hesskit import reports
    doc = reports.run_suite(seed=job["seed"], bound=job["bound"],
                            jobs=1).to_json_dict()
    entries = doc["entries"]
    certs = entries["certificates"]["certificates"].values()
    return doc, {
        "entries": {name: rep["passed"] for name, rep in entries.items()},
        "certificates": [_cert_summary(reports, c) for c in certs],
        "families": [_family_summary(entries["curve-families"][key])
                     for key in ("family1", "family2")],
    }


def run_certify(job: dict):
    from hesskit import reports
    docs = [reports.certify(d).to_json_dict() for d in job["degrees"]]
    return docs, {"certificates": [_cert_summary(reports, c) for c in docs]}


def run_curves(job: dict):
    from hesskit import curves
    docs = [curves.verify_family(fam, job["bound"]).to_json_dict()
            for fam in (1, 2)]
    return docs, {"families": [_family_summary(rep) for rep in docs]}


KINDS = {"suite": run_suite, "certify": run_certify, "curves": run_curves}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    spawn = float(sys.argv[1])
    job = json.loads(sys.argv[2])
    sys.path.insert(0, SRC)
    import hesskit
    from hesskit import reports
    reports.check_fixtures()
    out = {"setup_s": time.monotonic() - spawn}
    out["context"] = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "hesskit": hesskit.__version__,
        "hesskit_from_checkout": os.path.dirname(
            os.path.abspath(hesskit.__file__)) == os.path.join(SRC, "hesskit"),
    }
    if job["kind"] != "setup":
        tracer = None
        if job.get("trace"):
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        work = KINDS[job["kind"]]
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        doc, summary = work(job)
        digest = hashlib.sha256(
            reports.canonical_json(doc).encode()).hexdigest()
        wall = time.perf_counter() - t0
        out.update(wall_s=wall, cpu_s=_cpu_s() - cpu0, summary=summary,
                   digest=digest)
        if tracer is not None:
            out["trace"] = tracer.summary()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
