"""The canonical bytes are pinned: the suite at seed 0 must hash to the value
in ``perfbench/digests.json``, ``certify(d)`` for d = 4..30 to the values in
``tests/certify_digests.json`` and for d = 31..64 to those in
``tests/certify_deep_digests.json``, for the running Python version (the
documents carry it).  A re-pin is a deliberate change of canonical output."""

import hashlib
import json
import pathlib
import platform

import pytest

from hesskit.reports import canonical_json, certify, run_suite

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
