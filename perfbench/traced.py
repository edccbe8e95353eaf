"""Run one unitgraph CLI invocation in process, with spans around each layer.

    PYTHONPATH=src python3 perfbench/traced.py verify --q 2 --format json

runs `python -m unitgraph.cli verify --q 2 --format json` in this process
and prints one JSON object: the CLI's exit code and stdout, and per span
name its self time and call count, the work counters, and the wrapped
names that no longer exist.

A span wraps a public function at every site it was imported to (the
module that defines it, modules that import it by name, the package
namespace), so `cli.field` is traced as well as `fields.field`. Self time
is a span's time minus the time of the spans it encloses; the root span
`cli` is the whole CLI run, so its self time is argument parsing, output
and any library code that has no span of its own. Counters are derived
from arguments and results, outside the timed interval.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import runpy
import sys
import time
from collections import defaultdict


def _pairs_built(counts, bound, graph):
    counts["graph.pairs"] += graph.order * (graph.order - 1) // 2


def _labels_verified(counts, bound, result):
    counts["graph.labels_verified"] += 1


def _enumerated(counts, bound, census):
    counts["matrices.enumerated"] += sum(census)


def _pairs_scanned(counts, bound, witness):
    xs, ys = bound.arguments["xs"], bound.arguments["ys"]
    counts["gap.queries"] += 1
    if witness is None:
        counts["gap.pairs_scanned"] += len(xs) * len(ys)
        return
    a, b = witness
    i = next(k for k, m in enumerate(xs) if m is a)
    j = next(k for k, m in enumerate(ys) if m is b)
    counts["gap.pairs_scanned"] += i * len(ys) + j + 1
    counts["gap.witnesses"] += 1


# module, function, counter hook and the counters it feeds
SPANS = [
    ("fields", "field", None, ()),
    ("matrices", "rank_census", _enumerated, ("matrices.enumerated",)),
    ("spectra", "eigenvalue_charsum", None, ()),
    ("spectra", "count_invertible_corner", None, ()),
    ("spectra", "count_invertible_diag_pair", None, ()),
    ("graph", "build_graph", _pairs_built, ("graph.pairs",)),
    ("graph", "is_simple", None, ()),
    ("graph", "spectrum_from_graph", None, ()),
    ("graph", "verify_eigenvector", _labels_verified, ("graph.labels_verified",)),
    ("gap", "check_spectral_gap", None, ()),
    ("gap", "find_invertible_difference", _pairs_scanned,
     ("gap.queries", "gap.pairs_scanned", "gap.witnesses")),
    ("gap", "random_subset", None, ()),
]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []  # per open span: time covered by its child spans

    def span(self, name, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0.0]
            self._stack.append(covered)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.self_s[name] += t1 - t0 - covered[0]
                self.calls[name] += 1
            if hook:
                hook(self.counts, sig.bind(*args, **kwargs), result)
            if self._stack:
                self._stack[-1][0] += time.perf_counter() - t0
            return result

        return wrapper

    def install(self, package):
        """Wrap every SPANS entry at each of its import sites."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, fn_name, hook, counters in SPANS:
            name = f"{mod_name}.{fn_name}"
            try:
                original = getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                self.absent += [name, *counters]
                continue
            for c in counters:
                self.counts[c] = 0
            wrapper = self.span(name, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def count_constructions(self, package, mod_name, cls_name):
        """Count instances of a class built anywhere, without a span."""
        name = f"{mod_name}.objects"
        try:
            cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        original = cls.__init__
        counts = self.counts
        counts[name] = 0

        def init(obj, *args, **kwargs):
            counts[name] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = init


def main(argv):
    import unitgraph  # loads every module but the CLI

    tracer = Tracer()
    tracer.install("unitgraph")
    tracer.count_constructions("unitgraph", "cyclotomic", "Cyclotomic")

    def run_cli():
        sys.argv = ["unitgraph", *argv]
        try:
            runpy.run_module("unitgraph.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            return 0 if exc.code is None else exc.code
        return 0

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tracer.span("cli", run_cli)()
    json.dump(
        {
            "rc": rc,
            "stdout": out.getvalue(),
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "absent": tracer.absent,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
