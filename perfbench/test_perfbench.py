"""Small-size tests of the benchmark itself (not of hesskit).

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import run
import tracing

PY = "3.11.7"
SEED0 = "4ff6ad9bfa80d0995c4684a26b813f13619500020f6f7f941328d8825541fed5"


def _sample(kind_summary, digest="d" * 64):
    return {"context": {"python": PY, "hesskit_from_checkout": True},
            "summary": kind_summary, "digest": digest, "wall_s": 1.5,
            "cpu_s": 1.4, "setup_s": 0.3, "peak_rss_mb": 40.0}


def _cert(d, passed=True, branch=None):
    expected = "odd-via-2.17" if d % 2 else "evenB-via-2.18"
    return {"d": d, "pass": passed, "branch": branch or expected,
            "expected_branch": expected}


def _suite_sample(digest):
    return _sample({
        "entries": {name: True for name in tracing.SUITE_ENTRIES},
        "certificates": [_cert(d) for d in (17, 18)],
        "families": [{"family": f, "passed": True, "omega_match": True}
                     for f in (1, 2)]}, digest)


def _failed(checks):
    return [label for label, ok in checks if not ok]


def test_seed0_digest_is_pinned():
    with open(run.DIGESTS) as fh:
        assert json.load(fh)[PY]["0"] == SEED0


def test_tampered_digest_fails_the_suite_check():
    job = run.job_for("suite", 10)
    assert job == {"kind": "suite", "seed": 0, "bound": 10 ** 6}
    digests = {PY: {"0": SEED0}}
    assert _failed(run.sample_checks(job, _suite_sample(SEED0), digests)) == []
    tampered = {PY: {"0": "0" * 64}}
    failed = _failed(run.sample_checks(job, _suite_sample(SEED0), tampered))
    assert failed == ["canonical digest of suite seed 0"]
    assert _failed(run.sample_checks(job, _suite_sample(SEED0), {})) == [
        "canonical digest of suite seed 0 (none pinned for Python 3.11.7)"]


@pytest.mark.parametrize("cert, label", [
    (_cert(19, passed=False), "certificate d=19"),
    (_cert(19, branch="excluded"), "certificate d=19"),
])
def test_failed_certificate_fails_its_check(cert, label):
    job = {"kind": "certify", "degrees": [17, 18, 19]}
    sample = _sample({"certificates": [_cert(17), _cert(18), cert]})
    assert _failed(run.sample_checks(job, sample, {})) == [label]


def test_missing_output_fails():
    job = {"kind": "certify", "degrees": [17, 18]}
    assert _failed(run.sample_checks(job, _sample({"certificates": [
        _cert(17)]}), {})) == ["certificate degrees"]
    assert _failed(run.sample_checks(job, None, {})) == ["worker finished"]
    curves = {"kind": "curves", "bound": 10}
    assert _failed(run.sample_checks(curves, _sample({"families": []}), {})) \
        == ["families 1 and 2"]


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_exit_code_and_fail_ratio(monkeypatch, capsys, passed, code):
    def fake_spawn(job, timeout):
        if job["kind"] == "setup":
            return {"context": {"python": PY}, "setup_s": 0.25,
                    "peak_rss_mb": 30.0}
        return _sample({"certificates": [
            _cert(d, passed=passed or d != 18) for d in job["degrees"]]})

    monkeypatch.setattr(run, "spawn", fake_spawn)
    argv = ["--workload", "certify-deep", "--seed", "0", "--seconds", "0"]
    assert run.main(argv) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is passed
    assert result["failed"] == (0 if passed else 1)
    assert result["attempted"] == len(run.CERTIFY_DEGREES) + 2 + run.SETUP_SPAWNS
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def _worker(job):
    out = subprocess.run(
        [sys.executable, run.WORKER, repr(time.monotonic()), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_traced_run_covers_bindings_and_keeps_output():
    job = {"kind": "certify", "degrees": [6, 7]}
    plain = _worker(job)
    traced = _worker(dict(job, trace=True))
    trace = traced["trace"]
    assert trace["uncovered"] == []
    assert traced["digest"] == plain["digest"]
    assert 0 < trace["self_sum_s"] <= traced["wall_s"]
    assert sum(trace["layers"].values()) == pytest.approx(trace["self_sum_s"])
    assert trace["metrics"]["reports.certify.total_s"] <= traced["wall_s"]
    assert trace["metrics"]["linalg.rank_mod_p.calls"] > 0
    assert set(trace["metrics"]) == {
        name for name, _, _ in tracing.METRICS} - {"trace.overhead_s"}
    assert run.sample_checks(job, traced, {}) and not _failed(
        run.sample_checks(job, traced, {}))


def test_coverage_check_reports_unwrapped_bindings():
    mod = types.ModuleType("hesskit.fake")

    def public():
        pass

    public.__module__ = mod.__name__
    mod.alias = public
    mod.table = {"key": (public, 1)}
    mod.factory = lambda: None
    missed = tracing._uncovered([mod])
    assert missed == ["hesskit.%s (not loaded)" % layer
                      for layer in tracing.LAYERS] + [
        "hesskit.fake.alias", "hesskit.fake.table"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.METRICS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.dirname(run.WORKER), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
