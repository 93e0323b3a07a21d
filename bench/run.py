"""Benchmark of the almostchar command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's `python -m almostchar ...` calls run as
subprocesses, one at a time, in whole rounds until S seconds have passed;
the end-to-end metrics are reported.  With --trace 1 the same calls are
mirrored in-process through almostchar.cli.main (see tracer.py), once with
timing wrappers and once without, and the per-layer metrics are reported.
Every output is checked (see workloads.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the same object
is also written under .bench_out/.

Run it from anywhere: the checkout is the parent of this file's directory,
and the program is taken from its src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import ROOT, char_at_1, eval_terms  # noqa: E402
from workloads import HELP, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: --help runs per benchmark run; setup_s is their median
SETUP_REPEATS = 15
#: traces per run checked at u = 1 through the library
SAMPLE = 40
#: no call is started after this many seconds, and a running one is killed
HARD_LIMIT_S = 160.0


def program_env() -> dict:
    """The environment a user runs the CLI with: defaults, no worker override."""
    env = dict(os.environ)
    env.pop("ALMOSTCHAR_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Finished(NamedTuple):
    code: int  # exit code; -1 when the call was killed at the time limit
    out: str
    err: str
    wall_s: float
    cpu_s: float


class Runner:
    """Starts one subprocess at a time and takes its wall time and rusage."""

    def __init__(self, started: float):
        self.env = program_env()
        self.deadline = started + HARD_LIMIT_S
        self.peak_rss_kb = 0
        OUT.mkdir(exist_ok=True)
        self.out_path = OUT / f"stdout.{os.getpid()}"
        self.err_path = OUT / f"stderr.{os.getpid()}"

    def run(self, argv: list) -> Finished:
        with open(self.out_path, "w+b") as fout, open(self.err_path, "w+b") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            out = fout.read().decode("utf-8", "replace")
            err = ferr.read().decode("utf-8", "replace")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        code = -1 if proc.returncode < 0 else proc.returncode
        return Finished(code, out, err, wall, usage.ru_utime + usage.ru_stime)

    def cli(self, argv: tuple) -> Finished:
        return self.run([sys.executable, "-m", "almostchar", *argv])

    def cleanup(self) -> None:
        for path in (self.out_path, self.err_path):
            path.unlink(missing_ok=True)


class Tally:
    """Operations attempted and failed, and the problems found in the
    results of the operations that did not fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.problems: list = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, argv, code: int, out: str, err: str, check) -> None:
        """A call fails when it gives no result (a crash, bad input, a guard,
        the time limit); a result is checked."""
        self.attempted += 1
        if code not in (0, 1):
            self.failures.append(f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
        else:
            self.problems.extend(f"{' '.join(argv)}: {p}" for p in check(code, out))


def check_trace_sample(workload, seed: int, tally: Tally) -> None:
    """A seeded sample of the traces the workload sums, from the library,
    against the hyperoctahedral Murnaghan-Nakayama rule at u = 1."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from almostchar.hecke import br_from_cycles, mn_trace
    from almostchar.shapes import BiPartition

    rng = random.Random(seed)
    for kind, alpha, beta, cycles in rng.sample(workload.traces, min(SAMPLE, len(workload.traces))):
        value = mn_trace(kind, BiPartition(alpha, beta), br_from_cycles(kind, cycles))
        got = eval_terms(value.to_json_obj(), 1)
        want = char_at_1(alpha, beta, cycles)
        if got != want:
            tally.problems.append(
                f"trace {kind} {alpha},{beta} at {list(cycles)}: {got} at u=1, reference {want}")


def setup_time(runner: Runner, tally: Tally) -> tuple:
    """Median CPU and wall time of `almostchar --help`: interpreter start,
    package import and parser build.  One unmeasured call first writes
    bytecode."""
    runs = []
    for i in range(SETUP_REPEATS + 1):
        done = runner.cli(HELP.argv)
        tally.record(HELP.argv, done.code, done.out, done.err, HELP.check)
        if i:
            runs.append(done)
    return statistics.median(d.cpu_s for d in runs), statistics.median(d.wall_s for d in runs)


def run_end_to_end(workload, seed: int, seconds: float, started: float) -> tuple:
    tally = Tally()
    runner = Runner(started)
    try:
        setup_s, setup_wall_s = setup_time(runner, tally)
        check_trace_sample(workload, seed, tally)
        round_wall, round_cpu, call_wall = [], [], []
        stop = time.monotonic() + seconds
        while True:
            wall = cpu = 0.0
            for call in workload.calls:
                done = runner.cli(call.argv)
                tally.record(call.argv, done.code, done.out, done.err, call.check)
                wall += done.wall_s
                cpu += done.cpu_s
                call_wall.append(done.wall_s)
            round_wall.append(wall)
            round_cpu.append(cpu)
            if time.monotonic() >= stop or time.monotonic() >= runner.deadline:
                break
    finally:
        runner.cleanup()
    metrics = {
        "cpu_s": (statistics.median(round_cpu), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
    }
    # Wall times are recorded but not reported as metrics: on a shared
    # virtual machine they follow the host's preemption, which the GIL-bound
    # thread pool amplifies, and spread between runs by more than a bound may allow.
    wall = {"wall_s": statistics.median(round_wall), "call_p50_s": statistics.median(call_wall),
            "setup_wall_s": setup_wall_s, "round_wall_s": round_wall, "round_cpu_s": round_cpu}
    return tally, metrics, wall


def run_traced(workload, seed: int, seconds: float, started: float) -> tuple:
    """Pairs of fresh in-process runs, untraced then traced, in whole pairs
    until `seconds` have passed.  Per-layer figures are medians over the
    traced runs; trace.overhead_s is the difference of the median walls."""
    tally = Tally()
    runner = Runner(started)
    child = [sys.executable, str(Path(__file__).resolve().parent / "tracer.py"),
             "--workload", workload.name, "--seed", str(seed)]
    plain_walls, layers = [], []
    try:
        check_trace_sample(workload, seed, tally)
        stop = time.monotonic() + seconds
        while True:
            for mode in ("plain", "traced"):
                done = runner.run(child + ["--mode", mode])
                try:
                    doc = json.loads(done.out.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    tally.attempted += 1
                    tally.failures.append(f"tracer {mode}: exit {done.code}: {done.err[-300:]}")
                    break
                for (argv, code, out, err), call in zip(doc["calls"], workload.calls):
                    tally.record(argv, code, out, err, call.check)
                if mode == "plain":
                    plain_walls.append(doc["wall_s"])
                else:
                    layers.append(doc["layers"])
            if time.monotonic() >= stop or time.monotonic() >= runner.deadline or not layers:
                break
    finally:
        runner.cleanup()
    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            metrics[name] = (statistics.median(x[name][0] for x in layers), unit)
        traced_wall = statistics.median(x["trace.wall_s"][0] for x in layers)
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain_walls), "s")
        del metrics["trace.wall_s"]
    return tally, metrics, {"traced_runs": len(layers)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    missing = [p for p in (SRC / "almostchar" / "cli.py", ROOT / "tests" / "seminormal.py")
               if not p.is_file()]
    if missing:
        print(f"bench: the checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_end_to_end
    tally, metrics, extra = run(workload, args.seed, args.seconds, started)
    doc = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    problems = tally.failures + tally.problems
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**doc, **extra, "problems": problems, "workload": args.workload,
                                  "seed": args.seed}, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
