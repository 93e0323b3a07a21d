"""Per-layer tracing of almostchar from outside the program.

    python3 bench/tracer.py --workload NAME --seed N --mode plain|traced

Runs one round of the workload's CLI calls in this process through
almostchar.cli.main(argv), with stdout and stderr captured, and prints one
JSON line: each call's (argv, exit code, stdout, stderr), the wall time of
the round and, with --mode traced, the per-layer metrics.

Tracing installs timing wrappers over the public functions of each module
wherever the function is looked up: a name imported into another module
(hecke binds delta and the strip enumerators, almost binds mn_trace, cli
binds almost and symbols names) is replaced there too, since patching only
the defining module misses those calls.  Methods are replaced on their
class.  Each thread keeps its own span stack, because the default path runs
traces in a thread pool; busy time is summed over threads.  A span's self
time is its duration minus that of the spans it encloses on its thread.
Generators are timed across their next() calls.  The time spent in the
tracer's own bookkeeping hooks is kept out of every self time.

After the round, the distinct traces it computed go through a TraceCache in
a scratch directory, once cold and once warm, to time the cache's get and
put against recomputation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import threading
import traceback
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: spans recorded one by one (the rest are only summed)
COARSE = {"cli.main", "almost.report", "almost.f_ab", "almost.f_lambda", "hecke.mn_trace"}


class _ThreadStats:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list = []  # frames [time in enclosed spans, name]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans: list = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list = []
        self._lock = threading.Lock()
        self._patches: list = []
        self._seen = weakref.WeakKeyDictionary()  # MNContext -> {(outer, k)}
        self.trace_calls: dict = {}  # (kind, lam, br) -> None, in first-call order

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadStats(threading.get_ident())
            with self._lock:
                self._threads.append(st)
        return st

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, before=None, after=None):
        """fn inside a span called `name`; hooks run outside every span."""
        stats = self._stats
        coarse = name in COARSE

        def wrapper(*args, **kwargs):
            st = stats()
            stack = st.stack
            hook = 0.0
            if before is not None:
                h0 = perf_counter()
                before(st, args)
                hook = perf_counter() - h0
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = t1 - t0
                stack.pop()
                st.calls[name] += 1
                st.incl[name] += d
                st.self_[name] += d - frame[0]
                if coarse:
                    st.spans.append((name, st.ident, t0, t1, stack[-1][1] if stack else None))
                if stack:
                    stack[-1][0] += d
            if after is not None:
                h0 = perf_counter()
                after(st, out)
                hook += perf_counter() - h0
            if stack:
                stack[-1][0] += hook
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, name: str, count: str, fn):
        """A generator function whose next() calls are spans called `name`;
        `count` counts the items it yields."""
        stats = self._stats
        end = object()

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                st = stats()
                stack = st.stack
                frame = [0.0, name]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it, end)
                finally:
                    d = perf_counter() - t0
                    stack.pop()
                    st.incl[name] += d
                    st.self_[name] += d - frame[0]
                    if stack:
                        stack[-1][0] += d
                if item is end:
                    return
                st.counts[count] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def replace_function(self, original, wrapper) -> None:
        """Replace `original` in every almostchar module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "almostchar" and not modname.startswith("almostchar."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def install(self) -> None:
        from almostchar import almost, cli, halflaurent, hecke, shapes, symbols

        def poly_stats(st, value):
            terms = value.terms
            if len(terms) > st.maxima["terms"]:
                st.maxima["terms"] = len(terms)
            for c in terms.values():
                den = getattr(c, "denominator", 1)
                if den > st.maxima["den"]:
                    st.maxima["den"] = den

        def nonzero(counter):
            def after(st, value):
                if value:
                    st.counts[counter] += 1

            return after

        HL = halflaurent.HalfLaurent
        mul = self.timed("halflaurent.mul", HL.__dict__["__mul__"], after=poly_stats)
        self.replace_method(HL, "__mul__", mul)
        self.replace_method(HL, "__rmul__", mul)
        self.replace_method(HL, "__add__",
                            self.timed("halflaurent.add", HL.__dict__["__add__"], after=poly_stats))
        f = halflaurent.hl_exact_div
        self.replace_function(f, self.timed("halflaurent.exact_div", f, after=poly_stats))

        for fname, counter in (("delta", "shapes.delta.nonzero"),
                               ("delta_bar", "shapes.delta_bar.nonzero")):
            f = getattr(shapes, fname)
            self.replace_function(f, self.timed(f"shapes.{fname}", f, after=nonzero(counter)))
        for fname, counter in (("broken_strip_removals", "shapes.broken.candidates"),
                               ("single_strip_removals", "shapes.single.candidates")):
            f = getattr(shapes, fname)
            self.replace_function(f, self.timed_generator("shapes.enum", counter, f))

        seen, lock = self._seen, self._lock

        def memo_lookup(st, args):
            ctx, outer, k = args
            if k == 0:  # the base case is not memoized
                return
            with lock:
                keys = seen.setdefault(ctx, set())
                hit = (outer, k) in keys
                keys.add((outer, k))
            st.counts["hecke.memo.lookups"] += 1
            if hit:
                st.counts["hecke.memo.hits"] += 1

        C = hecke.MNContext
        self.replace_method(C, "chain_sum",
                            self.timed("hecke.chain_sum", C.__dict__["chain_sum"], before=memo_lookup))
        calls = self.trace_calls

        def record_trace(st, args):
            calls.setdefault(tuple(args[:3]), None)

        f = hecke.mn_trace
        self.replace_function(f, self.timed("hecke.mn_trace", f, before=record_trace))

        for fname in ("f_ab", "f_lambda"):
            f = getattr(almost, fname)
            self.replace_function(f, self.timed(f"almost.{fname}", f))
        for fname in ("verify_nonvanishing", "recursion_check", "orthogonality_check",
                      "involution_check", "m2_check", "d_swap_diagnostic"):
            f = getattr(almost, fname)
            self.replace_function(f, self.timed("almost.report", f))
        for fname in ("family_decompose", "pairing", "enumerate_symbols", "family_members",
                      "enumerate_P_ab"):
            f = getattr(symbols, fname)
            self.replace_function(f, self.timed(f"symbols.{fname}", f))
        self.replace_function(cli.main, self.timed("cli.main", cli.main))

    # -- results ----------------------------------------------------------

    def merged(self):
        calls, incl, self_, counts = (defaultdict(int), defaultdict(float),
                                      defaultdict(float), defaultdict(int))
        maxima = defaultdict(int)
        for st in self._threads:
            for src, dst in ((st.calls, calls), (st.incl, incl), (st.self_, self_),
                             (st.counts, counts)):
                for k, v in src.items():
                    dst[k] += v
            for k, v in st.maxima.items():
                maxima[k] = max(maxima[k], v)
        return calls, incl, self_, counts, maxima

    def spans(self) -> list:
        return sorted((s for st in self._threads for s in st.spans), key=lambda s: s[2])

    def metrics(self) -> dict:
        calls, incl, self_, counts, maxima = self.merged()

        def ratio(a, b):
            return a / b if b else 0.0

        lookups = counts["hecke.memo.lookups"]
        hits = counts["hecke.memo.hits"]
        return {
            "halflaurent.mul.calls": (calls["halflaurent.mul"], "count"),
            "halflaurent.mul.s": (incl["halflaurent.mul"], "s"),
            "halflaurent.add.calls": (calls["halflaurent.add"], "count"),
            "halflaurent.add.s": (incl["halflaurent.add"], "s"),
            "halflaurent.exact_div.s": (incl["halflaurent.exact_div"], "s"),
            "halflaurent.terms_max": (maxima["terms"], "count"),
            "halflaurent.den_max": (max(maxima["den"], 1), "1"),
            "shapes.broken.candidates": (counts["shapes.broken.candidates"], "count"),
            "shapes.single.candidates": (counts["shapes.single.candidates"], "count"),
            "shapes.enum.s": (incl["shapes.enum"], "s"),
            "shapes.delta.calls": (calls["shapes.delta"], "count"),
            "shapes.delta.s": (incl["shapes.delta"], "s"),
            "shapes.delta.nonzero_ratio": (
                ratio(counts["shapes.delta.nonzero"], calls["shapes.delta"]), "ratio"),
            "shapes.delta_bar.calls": (calls["shapes.delta_bar"], "count"),
            "shapes.delta_bar.s": (incl["shapes.delta_bar"], "s"),
            "shapes.delta_bar.nonzero_ratio": (
                ratio(counts["shapes.delta_bar.nonzero"], calls["shapes.delta_bar"]), "ratio"),
            "hecke.chain_sum.calls": (calls["hecke.chain_sum"], "count"),
            "hecke.chain_sum.self_s": (self_["hecke.chain_sum"], "s"),
            "hecke.memo.entries": (lookups - hits, "count"),
            "hecke.memo.hit_ratio": (ratio(hits, lookups), "ratio"),
            "hecke.mn_trace.calls": (calls["hecke.mn_trace"], "count"),
            "hecke.mn_trace.s": (incl["hecke.mn_trace"], "s"),
            "almost.f_ab.calls": (calls["almost.f_ab"], "count"),
            "almost.f_ab.self_s": (self_["almost.f_ab"], "s"),
            "almost.f_lambda.calls": (calls["almost.f_lambda"], "count"),
            "almost.f_lambda.self_s": (self_["almost.f_lambda"], "s"),
            "almost.report.self_s": (self_["almost.report"], "s"),
            "symbols.family_decompose.calls": (calls["symbols.family_decompose"], "count"),
            "symbols.family_decompose.s": (incl["symbols.family_decompose"], "s"),
            "symbols.pairing.calls": (calls["symbols.pairing"], "count"),
            "symbols.pairing.s": (incl["symbols.pairing"], "s"),
            "symbols.enumerate_symbols.s": (incl["symbols.enumerate_symbols"], "s"),
            "symbols.family_members.s": (incl["symbols.family_members"], "s"),
            "symbols.enumerate_P_ab.s": (incl["symbols.enumerate_P_ab"], "s"),
            "cli.main.self_s": (self_["cli.main"], "s"),
        }


def mirror(calls) -> list:
    """Each call through almostchar.cli.main, looked up at call time."""
    import almostchar.cli

    done = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = almostchar.cli.main(list(call.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # recorded as a failed operation, as a crash would be
                traceback.print_exc(file=err)
                code = -2
        done.append((list(call.argv), code, out.getvalue(), err.getvalue()))
    return done


def cache_pass(trace_calls) -> dict:
    """The traces through a fresh TraceCache: a cold pass (miss, compute,
    put) and then a warm pass (hits), one memo context per element."""
    from almostchar.hecke import MNContext, TraceCache, mn_trace

    tracer = Tracer()
    for attr in ("get", "put"):
        tracer.replace_method(TraceCache, attr,
                              tracer.timed(f"hecke.cache.{attr}", TraceCache.__dict__[attr]))
    directory = OUT / f"cache.{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        store = TraceCache(directory)
        for _ in ("cold", "warm"):
            contexts: dict = {}
            for kind, lam, br in trace_calls:
                context = contexts.get(br)
                if context is None:
                    context = contexts[br] = MNContext(br)
                mn_trace(kind, lam, br, context=context, cache_store=store)
    finally:
        tracer.uninstall()
        shutil.rmtree(directory, ignore_errors=True)
    _, incl, _, _, _ = tracer.merged()
    return {
        "hecke.cache.get_s": (incl["hecke.cache.get"], "s"),
        "hecke.cache.put_s": (incl["hecke.cache.put"], "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = parser.parse_args(argv)
    os.environ.pop("ALMOSTCHAR_WORKERS", None)
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import almostchar.cli  # noqa: F401

    import_s = perf_counter() - t0
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    if args.mode == "traced":
        tracer.install()
    t0 = perf_counter()
    try:
        done = mirror(workload.calls)
    finally:
        wall_s = perf_counter() - t0
        tracer.uninstall()
    doc = {"calls": done, "wall_s": wall_s}
    if args.mode == "traced":
        layers = tracer.metrics()
        layers.update(cache_pass(list(tracer.trace_calls)))
        layers["cli.import_s"] = (import_s, "s")
        layers["trace.wall_s"] = (wall_s, "s")
        doc["layers"] = layers
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "thread", "start_s", "end_s", "parent"], "spans": tracer.spans()}))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
