import hashlib
import json
import os
import pathlib
import platform
import random
import subprocess
import sys

import pytest

import hesskit.cli
import hesskit.reports
from hesskit.cli import main
from hesskit.errors import VerificationError

# argv (space-joined) -> exit code and sha256 of stdout, plus of stderr for a
# refused input; the stderr bytes are argparse's, so the table is per Python
CLI_DIGESTS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "cli_digests.json").read_text()
).get(platform.python_version(), {})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_command_bytes_are_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    got = {"exit": code, "stdout": _sha256(out)}
    if code == 2:
        got["stderr"] = _sha256(err)
    assert got == CLI_DIGESTS[command]


@pytest.mark.parametrize("argv, usage", [
    ("curves verify --family 3", "hesskit curves verify"),  # argparse
    ("curves verify --family 1 --bound 9", "hesskit curves verify"),  # library
    ("limit", "hesskit limit"),  # handler
    ("verify prop --id 2.7 --r 2 --k 2 --m 1", "hesskit verify prop"),
    ("suite --jobs 0", "hesskit suite"),
])
def test_refused_input_prints_the_verbs_usage_line(argv, usage, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {usage} [-h]")
    assert f"\n{usage}: error: " in err


class TestVerifyProp:
    def test_closed_form_id(self, capsys):
        code, doc = run(capsys, "verify", "prop", "--id", "2.7",
                        "--r", "2", "--k", "2", "--h", "1")
        assert code == 0
        assert doc["matches"] and doc["constant"] == "-96"

    def test_pair_id_scans_all_m_by_default(self, capsys):
        code, doc = run(capsys, "verify", "prop", "--id", "2.8",
                        "--r", "2", "--k", "2")
        assert code == 0
        assert doc["passed"] and len(doc["reports"]) == 2

    # sha256 of the all-m JSON document at r = 3, k = 4, one point per kind,
    # as printed before the jets at one point shared their adjugate
    @pytest.mark.parametrize("pid,digest", [
        ("2.8", "1b82ef4886d99755c5788ccc40a55586dd5df05f7ead997a9405e1623eb3a9be"),
        ("2.15", "3d1b13efb0f03fb913252a362e654714c319b2cd8bf204ec35f847524ae26e70"),
        ("2.16", "90948bed4c0ccb88b8763911861b31630944e02d96c8c1227590aa8d7beaaa4b"),
    ])
    def test_all_m_document_is_pinned(self, capsys, pid, digest):
        assert main(["verify", "prop", "--id", pid, "--r", "3", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_single_m(self, capsys):
        code, doc = run(capsys, "verify", "prop", "--id", "2.15",
                        "--r", "2", "--k", "2", "--m", "1")
        assert code == 0
        assert doc["c1"] == "-144"

    def test_m_rejected_for_closed_form(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prop", "--id", "2.7", "--r", "2", "--k", "2",
                  "--m", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("pid", ["2.8", "2.15", "2.16"])
    def test_h_rejected_for_pair_ids(self, pid):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prop", "--id", pid, "--r", "2", "--k", "2",
                  "--h", "1"])
        assert exc.value.code == 2

    def test_empty_m_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prop", "--id", "2.8", "--r", "2", "--k", "0"])
        assert exc.value.code == 2
        assert "k must be an int >= 1, got 0" in capsys.readouterr().err

    def test_double_line_needs_two_quadric_factors(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prop", "--id", "2.16", "--r", "2", "--k", "1"])
        assert exc.value.code == 2


class TestRank:
    def test_injective_point(self, capsys):
        code, doc = run(capsys, "rank", "--point", "qk", "--d", "4")
        assert code == 0
        assert doc["passed"] and doc["claim"] == "injective"
        assert doc["rank"] == 14

    def test_no_claim_point(self, capsys):
        code, doc = run(capsys, "rank", "--point", "qkl", "--d", "3")
        assert code == 0
        assert doc["claim"] == "no-claim" and not doc["injective"]

    def test_parity_mismatch(self):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--point", "qk", "--d", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_r_is_a_usage_error(self, r):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--point", "qk", "--d", "4", "--r", r])
        assert exc.value.code == 2

    @pytest.mark.parametrize("config,seed", [(None, 0), ("seed = 5\n", 5)])
    def test_the_recheck_is_seeded_without_seed(self, config, seed, tmp_path,
                                                capsys, monkeypatch):
        """Without --seed the complement re-check is seeded with 0, or with
        the config file's seed, never from OS entropy."""
        states = []
        real = hesskit.cli.verify_special_point_rank

        def recording(point, r, rng=None):
            states.append(rng.getstate())
            return real(point, r=r, rng=rng)

        monkeypatch.setattr(hesskit.cli, "verify_special_point_rank", recording)
        argv = ["rank", "--point", "qk", "--d", "4"]
        if config:
            cfg = tmp_path / "rank.cfg"
            cfg.write_text(config)
            argv = ["--config", str(cfg)] + argv
        code, doc = run(capsys, *argv)
        assert code == 0 and doc["passed"] and doc["complement_checked"]
        assert states == [random.Random(seed).getstate()]

    def test_failed_verification_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(hesskit.cli, "verify_special_point_rank",
                            raising(VerificationError("rank 13 < 14")))
        code, doc = run(capsys, "rank", "--point", "qk", "--d", "4")
        assert code == 1
        assert doc["passed"] is False and doc["error"] == "rank 13 < 14"

    def test_genuine_bug_is_not_a_failed_verification(self, monkeypatch):
        monkeypatch.setattr(hesskit.cli, "verify_special_point_rank",
                            raising(AssertionError("bug")))
        with pytest.raises(AssertionError):
            main(["rank", "--point", "qk", "--d", "4"])


class TestScan:
    def test_default_window(self, capsys):
        code, doc = run(capsys, "scan", "--condition", "evenA")
        assert code == 0
        assert doc["violations"] == [[7, 3], [12, 4]]
        assert "curve_bridge" not in doc

    def test_curve_bridge_reported(self, capsys):
        code, doc = run(capsys, "scan", "--condition", "odd")
        assert code == 0
        assert doc["clean"]
        assert doc["curve_bridge"] == {"curve": "curve-one",
                                       "consistent": True}
        code, doc = run(capsys, "scan", "--condition", "evenB",
                        "--kmin", "2", "--kmax", "50")
        assert code == 0
        assert doc["violations"] == [[2, 2]]
        assert doc["curve_bridge"]["curve"] == "curve-two"

    def test_window_validation(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--condition", "odd", "--kmin", "5", "--kmax", "2"])
        assert exc.value.code == 2


class TestCurvesAndLimits:
    def test_family_verify(self, capsys):
        code, doc = run(capsys, "curves", "verify", "--family", "2",
                        "--bound", "500")
        assert code == 0
        assert doc["passed"] and doc["omega_match"]

    def test_tiny_bound_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["curves", "verify", "--family", "1", "--bound", "5"])
        assert exc.value.code == 2

    def test_named_fixture(self, capsys):
        code, doc = run(capsys, "limit", "--fixture", "quartic-powers")
        assert code == 0
        assert doc["status"] == "divisible"

    def test_unknown_fixture(self, capsys):
        assert main(["limit", "--fixture", "no-such-family"]) == 3

    def test_random_family(self, capsys):
        code, doc = run(capsys, "limit", "--d", "5", "--seed", "4")
        assert code == 0
        assert doc["status"] != "not-divisible"

    @pytest.mark.parametrize("d", ["3", "-2"])
    def test_low_random_degree_is_one_usage_error(self, d, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--d", d])
        assert exc.value.code == 2
        assert "d must be an int >= " in capsys.readouterr().err

    def test_fixture_and_degree_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--fixture", "quartic-powers", "--d", "5"])
        assert exc.value.code == 2


class TestCertify:
    def test_even_low_degree(self, capsys):
        code, doc = run(capsys, "certify", "--d", "4")
        assert code == 0
        assert doc["pass"] and doc["branch"] == "evenA-via-2.9"
        assert not doc["excluded"]

    def test_excluded_degree(self, capsys):
        code, doc = run(capsys, "certify", "--d", "5")
        assert code == 0
        assert doc["pass"] and doc["excluded"]
        assert doc["branch"] == "excluded" and doc["reason"]

    def test_degree_floor(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--d", "3"])
        assert exc.value.code == 2

    def test_failed_rank_is_a_failed_certificate(self, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "verify_special_point_rank",
                            raising(VerificationError("rank 13 < 14")))
        cert = hesskit.reports.certify(4)
        assert not cert.ok and cert.rank is None
        assert "rank verification failed: rank 13 < 14" in cert.notes

    def test_genuine_bug_is_not_a_failed_certificate(self, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "verify_special_point_rank",
                            raising(AssertionError("bug")))
        with pytest.raises(AssertionError):
            hesskit.reports.certify(4)


class TestSuiteAndConfig:
    def test_filtered_run_is_deterministic(self, capsys):
        code = main(["suite", "--filter", "closed-forms"])
        first = capsys.readouterr().out
        assert code == 0
        assert main(["suite", "--filter", "closed-forms"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert list(doc["entries"]) == ["closed-forms"]
        assert doc["entries"]["closed-forms"]["passed"]
        assert "timings" not in doc and "jobs" not in doc["suite"]

    def test_out_file_is_written_and_an_unwritable_one_is_a_usage_error(
            self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert main(["suite", "--filter", "closed-forms", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        missing = tmp_path / "no-such-dir" / "suite.json"
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--filter", "closed-forms", "--out", str(missing)])
        assert exc.value.code == 2
        assert f"cannot write --out file: [Errno 2] No such file or directory: " \
            f"'{missing}'" in capsys.readouterr().err

    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("kmax = 6\n# comment line\nseed = 1\n")
        code, doc = run(capsys, "--config", str(cfg), "scan",
                        "--condition", "evenA")
        assert code == 0
        assert doc["kmax"] == 6 and doc["clean"]
        code, doc = run(capsys, "--config", str(cfg), "scan",
                        "--condition", "evenA", "--kmax", "20")
        assert doc["kmax"] == 20 and not doc["clean"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bond = 12\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "scan", "--condition", "odd"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--bound", "0"], ["--bound", "-3"], ["--bound", "9"],
        ["--jobs", "0"], ["--jobs", "-2"]])
    def test_meaningless_bound_or_jobs_is_a_usage_error(self, flags, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            raising(AssertionError("suite must not run")))
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--filter", "closed-forms"] + flags)
        assert exc.value.code == 2

    @pytest.mark.parametrize("line", [
        "bound = 0", "jobs = 0", "force_exact = ture", "force_exact = on",
        "force_exact = 2", "force_exact =", "force_exact = 1"])
    def test_meaningless_config_value_is_a_usage_error(self, line, tmp_path,
                                                        monkeypatch):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            raising(AssertionError("suite must not run")))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "suite", "--filter", "closed-forms"])
        assert exc.value.code == 2

    def test_unmatched_filter_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            raising(AssertionError("suite must not run")))
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--filter", "closed-froms"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no suite entry matches 'closed-froms'" in captured.err
        assert "closed-forms" in captured.err

    @pytest.mark.parametrize("argv", [
        ["rank", "--point", "qk", "--d", "4"], ["certify", "--d", "4"],
        ["suite", "--filter", "closed-forms"]], ids=["rank", "certify", "suite"])
    def test_force_exact_is_an_unknown_flag(self, argv, capsys, monkeypatch):
        # a full column rank mod p is the proof; no flag adds a second route
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            raising(AssertionError("suite must not run")))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--force-exact"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --force-exact" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_refused_before_the_suite_runs(
            self, where, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            raising(AssertionError("suite must not run")))
        out = tmp_path / "no-such-dir" / "suite.json"
        if where == "directory":
            out = tmp_path
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--filter", "closed-forms", "--out", str(out)])
        assert exc.value.code == 2
        assert f"cannot write --out file: [Errno" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_run_suite_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            hesskit.reports.run_suite(name_filter="closed-forms", jobs=jobs)

    @pytest.mark.parametrize("bound", [0, 9, -3, True, 10.0])
    def test_run_suite_rejects_a_meaningless_bound(self, bound, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            raising(AssertionError("suite must not run")))
        with pytest.raises(ValueError, match="bound"):
            hesskit.reports.run_suite(name_filter="curve-families", bound=bound)

    def test_two_jobs_give_the_one_job_bytes(self):
        # "co" keeps condition-scans and cone-normal-forms, so the pool runs
        one = hesskit.reports.run_suite(name_filter="co", jobs=1)
        two = hesskit.reports.run_suite(name_filter="co", jobs=2)
        assert list(two.entries) == ["condition-scans", "cone-normal-forms"]
        assert (hesskit.reports.canonical_json(two.to_json_dict())
                == hesskit.reports.canonical_json(one.to_json_dict()))

    @pytest.mark.parametrize("jobs,width", [(64, 6), (2, 2)])
    def test_the_pool_is_no_wider_than_the_entries(self, jobs, width,
                                                    monkeypatch):
        # a stand-in executor records the width asked for and runs the tasks
        # in this process, so no worker is ever started
        widths = []

        class RecordingPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(hesskit.reports.concurrent.futures,
                            "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(hesskit.reports, "_run_one",
                            lambda task: (task[0], {"passed": True}, 0.0))
        # "o" keeps six entries: closed-forms, pair-expansions,
        # block-structure, condition-scans, harmonic-structure and
        # cone-normal-forms
        result = hesskit.reports.run_suite(name_filter="o", jobs=jobs, bound=10)
        assert len(result.entries) == 6
        assert widths == [width]

    def test_start_up_leaves_the_process_pool_unloaded(self):
        src = str(pathlib.Path(hesskit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, hesskit.cli; "
                 "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_corrupted_fixture_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(hesskit.reports, "EXPECTED_FIXTURE_DIGEST",
                            "0" * 64)
        assert main(["suite", "--filter", "closed-forms"]) == 3
