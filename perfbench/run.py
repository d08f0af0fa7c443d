"""hesskit benchmark: drives the library from outside, one process per sample.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    suite          reports.run_suite(seed=seed % 10, jobs=1), bound 10**6
    certify-deep   reports.certify(d) for d in 17..20; the seed changes nothing
    curves-deep    curves.verify_family(1 and 2, 1_500_000); the seed changes
                   nothing

Each timed sample is a fresh interpreter running ``worker.py`` with
``jobs=1``: users pay the import, the fixture check and the cold harmonic
solver cache on every CLI call, so in-process repeats would understate the
wall time.  Set-up (interpreter start to hesskit imported and
``reports.check_fixtures()`` passed) is timed apart as ``setup_s``, from
extra set-up-only processes and from every sample.  Samples run back to back
until the next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: medians of ``wall_s``,
``cpu_s`` (user + system time of the work), ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of ``tracing.METRICS`` from the traced ones,
plus ``trace.overhead_s``, traced minus untraced median wall time.

Every output is checked; the failed and attempted check counts are the last
line's ``failed`` and ``attempted`` (fail_ratio = failed / attempted), and
the exit code is 1 when any check failed.  The last line of stdout is the
result object; the lines before it are a readable report with quartiles,
sample counts, the run context and, when traced, the top three layers.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("suite", "certify-deep", "curves-deep")
SUITE_SEEDS = 10          # suite seed = --seed mod 10; digests.json pins each
SUITE_BOUND = 10 ** 6
CERTIFY_DEGREES = (17, 18, 19, 20)
CURVES_BOUND = 1_500_000
SETUP_SPAWNS = 7          # set-up-only processes before the timed samples
RUN_LIMIT_S = 170.0       # a run must end within 180 s
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def job_for(workload: str, seed: int) -> dict:
    if workload == "suite":
        return {"kind": "suite", "seed": seed % SUITE_SEEDS,
                "bound": SUITE_BOUND}
    if workload == "certify-deep":
        return {"kind": "certify", "degrees": list(CERTIFY_DEGREES)}
    return {"kind": "curves", "bound": CURVES_BOUND}


def spawn(job: dict, timeout: float):
    """Run one worker process; its result dict, or None if it failed."""
    t = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, repr(t), json.dumps(job)],
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("worker timed out: %s" % json.dumps(job), file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    print("worker failed (exit %d): %s" % (proc.returncode, json.dumps(job)),
          file=sys.stderr)
    return None


def sample_checks(job: dict, sample, digests: dict) -> list:
    """(label, passed) for every output check of one sample."""
    if sample is None:
        return [("worker finished", False)]
    checks = [("hesskit imported from the checkout",
               sample["context"]["hesskit_from_checkout"] is True)]
    summary = sample["summary"]
    for name, passed in summary.get("entries", {}).items():
        checks.append(("suite entry " + name, passed is True))
    certs = summary.get("certificates", [])
    for c in certs:
        checks.append(("certificate d=%d" % c["d"], c["pass"] is True
                       and c["branch"] == c["expected_branch"]))
    families = summary.get("families", [])
    for f in families:
        checks.append(("family %d" % f["family"],
                       f["passed"] is True and f["omega_match"] is True))
    kind = job["kind"]
    if kind == "certify":
        checks.append(("certificate degrees",
                       [c["d"] for c in certs] == job["degrees"]))
    if kind in ("suite", "curves"):
        checks.append(("families 1 and 2",
                       [f["family"] for f in families] == [1, 2]))
    if kind == "suite":
        python = sample["context"]["python"]
        pinned = digests.get(python, {}).get(str(job["seed"]))
        checks.append(("canonical digest of suite seed %d%s" % (
            job["seed"], "" if pinned else " (none pinned for Python %s)"
            % python), sample["digest"] == pinned))
    trace = sample.get("trace")
    if trace is not None:
        checks.append(("trace covers every binding", not trace["uncovered"]))
        checks.append(("trace self times within wall time",
                       trace["self_sum_s"] <= sample["wall_s"]))
    return checks


def run_checks(job: dict, samples: list, digests: dict) -> list:
    """Per-sample checks plus: every sample reproduces the first's output."""
    checks = []
    first = next((s for s in samples if s is not None), None)
    for s in samples:
        checks += sample_checks(job, s, digests)
        if s is not None and s is not first:
            checks.append(("output identical across samples%s"
                           % (" (traced)" if "trace" in s else ""),
                           s["digest"] == first["digest"]))
    return checks


def stats(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def source_context() -> dict:
    """Commit (when the tree is a git checkout) and a digest of the sources."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hesskit")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {"commit": _git_head(), "source_sha256": h.hexdigest()}


def _git_head():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def measure(job: dict, seconds: float, trace: bool, started: float):
    """Timed samples: plain ones, or untraced/traced pairs when tracing."""
    kinds = [dict(job), dict(job, trace=True)] if trace else [job]
    samples, took = [], []
    t_start = time.monotonic()
    while True:
        t = time.monotonic()
        for j in kinds:
            samples.append(spawn(j, RUN_LIMIT_S - (time.monotonic() - started)))
        took.append(time.monotonic() - t)
        if None in samples[-len(kinds):] or (time.monotonic() - t_start
                                   + statistics.median(took) > seconds):
            return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "hesskit", "__init__.py")):
        print("no hesskit sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    job = job_for(args.workload, args.seed)

    setups = [spawn({"kind": "setup"}, RUN_LIMIT_S) for _ in range(SETUP_SPAWNS)]
    samples = measure(job, args.seconds, bool(args.trace), started)
    checks = run_checks(job, samples, digests)
    checks += [("set-up process finished", s is not None) for s in setups]
    failed = [label for label, ok in checks if not ok]
    good = [s for s in samples if s is not None]
    plain = [s for s in good if "trace" not in s]
    traced = [s for s in good if "trace" in s]

    figures = {}
    if args.trace:
        for name, unit, _ in tracing.METRICS:
            if name == "trace.overhead_s":
                values = ([statistics.median(s["wall_s"] for s in traced)
                           - statistics.median(s["wall_s"] for s in plain)]
                          if traced and plain else [])
            else:
                values = [s["trace"]["metrics"][name] for s in traced]
            if values:
                figures[name] = (unit, stats(values))
    elif plain:
        for name, unit in END_TO_END:
            values = [s[name] for s in plain]
            if name == "setup_s":
                values += [s["setup_s"] for s in setups if s is not None]
            figures[name] = (unit, stats(values))

    context = dict(good[0]["context"] if good else {},
                   nproc=os.cpu_count(), jobs=1, workload=args.workload,
                   seed=args.seed, seconds=args.seconds, trace=args.trace,
                   job=job, **source_context())
    if job["kind"] != "curves":
        # run_suite certifies degrees 4..16 (reports.CERTIFIED_DEGREES)
        degrees = job.get("degrees", [4, 16])
        context["degree_window"] = [degrees[0], degrees[-1]]

    print("context " + json.dumps(context, sort_keys=True))
    for name, (unit, st) in figures.items():
        print("%-46s median %.6g %s  q1 %.6g  q3 %.6g  n %d  [%s]"
              % (name, st["median"], unit, st["q1"], st["q3"], st["n"],
                 " ".join("%.4g" % v for v in st["values"])))
    for s in traced:
        print("top layers by self time: " + ", ".join(
            "%s %.3f s" % (layer, t) for layer, t in s["trace"]["top_layers"]))
    print("checks %d attempted, %d failed, fail_ratio %.6g"
          % (len(checks), len(failed), len(failed) / len(checks)))
    for label in failed:
        print("FAILED " + label)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": st["median"], "unit": unit}
                    for name, (unit, st) in figures.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
