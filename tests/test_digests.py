"""The canonical bytes are pinned: the suite at seed 0 must hash to the value
in ``perfbench/digests.json``, ``certify(d)`` for d = 4..30 to the values in
``tests/certify_digests.json`` and for d = 31..64 to those in
``tests/certify_deep_digests.json``, for the running Python version (the
documents carry it).  A re-pin is a deliberate change of canonical output."""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import hesskit
from hesskit.reports import REGISTRY, canonical_json, certify, run_suite

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE.parent / "perfbench" / "digests.json"
CERTIFY_DIGESTS = HERE / "certify_digests.json"
CERTIFY_DEEP_DIGESTS = HERE / "certify_deep_digests.json"


def _pinned(path):
    table = json.loads(path.read_text()).get(platform.python_version())
    if table is None:
        pytest.skip(f"no digest pinned for Python {platform.python_version()}")
    return table


def _sha256(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def test_suite_seed_zero_matches_the_pinned_digest():
    pinned = _pinned(DIGESTS).get("0")
    if pinned is None:
        pytest.skip(f"no digest pinned for Python {platform.python_version()}")
    assert _sha256(run_suite(seed=0).to_json_dict()) == pinned


def test_certificates_match_the_pinned_digests():
    pinned = _pinned(CERTIFY_DIGESTS)
    assert sorted(map(int, pinned)) == list(range(4, 31))
    got = {str(d): _sha256(certify(d).to_json_dict()) for d in range(4, 31)}
    assert got == pinned


def test_deep_certificates_match_the_pinned_digests():
    pinned = _pinned(CERTIFY_DEEP_DIGESTS)
    assert sorted(map(int, pinned)) == list(range(31, 65))
    got = {str(d): _sha256(certify(d).to_json_dict()) for d in range(31, 65)}
    assert got == pinned


# Run in a fresh interpreter, so that no earlier test has filled a cache or
# derived a shared form's partials: the order below is the only history.
_ORDER_PROBE = """
import hashlib, json
from hesskit.reports import (REGISTRY, SuiteResult, _run_one, canonical_json,
                             certify, check_fixtures)
def sha(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()
certs = {str(d): sha(certify(d).to_json_dict()) for d in range(4, 31)}
ctx = {"seed": 0, "bound": 10 ** 6}
results = [_run_one((name, ctx)) for name, _ in reversed(REGISTRY)]
suite = SuiteResult(seed=0, bound=10 ** 6, name_filter=None,
                    fixture_sha256=check_fixtures(),
                    entries={name: report for name, report, _ in results})
print(json.dumps({"certify": certs, "entries": len(suite.entries),
                  "suite": sha(suite.to_json_dict())}))
"""


def test_call_order_does_not_move_the_bytes():
    """The caches and shared forms must not make the bytes depend on what
    ran before: in one process, ``certify(4..30)`` first, then the suite's
    entries in reverse order through ``_run_one``, still give every pinned
    digest."""
    pinned = _pinned(CERTIFY_DIGESTS)
    suite_pin = _pinned(DIGESTS).get("0")
    if suite_pin is None:
        pytest.skip(f"no digest pinned for Python {platform.python_version()}")
    src = str(pathlib.Path(hesskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _ORDER_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["certify"] == pinned
    assert got["entries"] == len(REGISTRY) == 12
    assert got["suite"] == suite_pin
