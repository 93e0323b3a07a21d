"""The library surface that the benchmark harness in bench/ relies on.

bench/tracer.py wraps the engine's functions and methods by name, times a
TraceCache pass with one MNContext per element, and bench/run.py samples
rank-30 traces with no limits given.  A library change that breaks any of
these would surface only when the benchmark runs, so this runs each of
them once, in a fresh interpreter that writes no bytecode.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import almostchar

ROOT = Path(almostchar.__file__).resolve().parents[2]

SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from oracles import char_at_1, eval_terms

tracer = Tracer()
tracer.install()
patches = len(tracer._patches)
tracer.uninstall()

from almostchar.hecke import MNContext, TraceCache, br_from_cycles, mn_trace
from almostchar.shapes import BiPartition

# tracer.cache_pass: one context per element, a fresh store, cold then warm
br = br_from_cycles("B", (-1, 2, 3))
lams = [BiPartition((3, 1), (2,)), BiPartition((2,), (2, 1, 1))]
store = TraceCache(sys.argv[2])
passes = []
for _ in ("cold", "warm"):
    context = MNContext(br)
    passes.append([mn_trace("B", lam, br, context=context, cache_store=store) for lam in lams])
plain = [mn_trace("B", lam, br) for lam in lams]

# run.check_trace_sample: rank 30, no config, compared at u = 1
cycles = (-2, 12, 16)
sample = []
for alpha, beta in (((14,), (16,)), ((13, 1), (15, 1))):
    value = mn_trace("B", BiPartition(alpha, beta), br_from_cycles("B", cycles))
    sample.append([str(eval_terms(value.to_json_obj(), 1)), char_at_1(alpha, beta, cycles)])

print(json.dumps({
    "patches": patches,
    "cache_agrees": passes[0] == passes[1] == plain,
    "sample": sample,
}))
"""


def _listing() -> list:
    """The checkout's top level, and everything under bench, src and tests."""
    paths = list(ROOT.iterdir())
    for d in ("bench", "src", "tests"):
        paths.extend((ROOT / d).rglob("*"))
    return sorted(map(str, paths))


def test_tracer_and_trace_calls_the_benchmark_makes(tmp_path):
    before = _listing()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "bench"), str(tmp_path / "cache")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    # the number of call sites the tracer wraps: a fall means a per-layer
    # metric silently stops counting (orthogonality_check is bound both in
    # hecke, which defines it, and in almost, where the tracer looks it up)
    assert got["patches"] == 33
    assert got["cache_agrees"]
    assert got["sample"] == [["1", 1], ["1", 1]]
    assert list((tmp_path / "cache").glob("*.json"))
    assert _listing() == before
