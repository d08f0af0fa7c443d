"""``import hesskit`` holds numpy's OpenBLAS to one thread and leaves the
caller's environment as it found it.  numpy reads OPENBLAS_NUM_THREADS once,
when it is first imported, so each case runs in a fresh interpreter; the
cases start side by side, since each pays numpy's import (about 0.3 s)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import hesskit

VAR = "OPENBLAS_NUM_THREADS"
SRC = str(pathlib.Path(hesskit.__file__).resolve().parent.parent)

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="no /proc/self/task to count threads")

# Prints [OS threads, the variable] before the first import and after each.
_PROBE = """
import importlib, json, os, sys
def state():
    return [len(os.listdir("/proc/self/task")), os.environ.get(%r)]
seen = [state()]
for name in sys.argv[1:]:
    importlib.import_module(name)
    seen.append(state())
print(json.dumps(seen))
""" % VAR

# case: (modules imported in order, the caller's value of the variable)
CASES = {"unset": (["hesskit"], None),
         "caller-set": (["hesskit"], "2"),
         "numpy-first": (["numpy", "hesskit"], None)}


@pytest.fixture(scope="module")
def seen():
    """Each case's states, from interpreters that see no BLAS thread
    variable but the case's own."""
    base = {k: v for k, v in os.environ.items()
            if k not in (VAR, "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = SRC
    procs = {}
    for case, (modules, value) in CASES.items():
        env = dict(base, **({VAR: value} if value is not None else {}))
        procs[case] = subprocess.Popen(
            [sys.executable, "-c", _PROBE, *modules], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out = {}
    for case, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
        out[case] = json.loads(stdout)
    return out


def test_import_leaves_one_thread_and_the_variable_unset(seen):
    assert seen["unset"] == [[1, None], [1, None]]


def test_import_keeps_the_callers_value(seen):
    assert [value for _, value in seen["caller-set"]] == ["2", "2"]


def test_import_after_numpy_changes_nothing(seen):
    _, after_numpy, after_hesskit = seen["numpy-first"]
    assert after_hesskit == after_numpy
    assert after_hesskit[1] is None
