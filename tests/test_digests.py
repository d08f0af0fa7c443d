"""The canonical suite bytes are pinned: seed 0 must hash to the value in
``perfbench/digests.json`` for the running Python version."""

import hashlib
import json
import pathlib
import platform

import pytest

from hesskit.reports import canonical_json, run_suite

DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_suite_seed_zero_matches_the_pinned_digest():
    pinned = json.loads(DIGESTS.read_text()).get(
        platform.python_version(), {}).get("0")
    if pinned is None:
        pytest.skip(f"no digest pinned for Python {platform.python_version()}")
    doc = run_suite(seed=0).to_json_dict()
    assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == pinned
