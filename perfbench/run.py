"""The unitgraph benchmark: one workload of CLI invocations, checked by value.

    python3 perfbench/run.py --workload graph-verify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it runs the package from
`src/` and needs nothing built. A pass runs each invocation of the workload
in turn, every one as a fresh `python -m unitgraph.cli` process, so the
cold field tables and GL caches are paid as a user pays them. The load is
one child process at a time and no threads.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median wall time of a pass, over the passes that fit in
               --seconds;
  peak_rss_mb  median over passes of the largest child peak RSS in a pass
               (from os.wait4);
  setup_s      median time of fresh interpreters that import unitgraph,
               build the workload's fields and exit, started between the
               invocations of the passes.
--trace 1 runs passes for --seconds as above, then one pass with every
invocation under perfbench/traced.py, and reports the per-layer metrics
(self time per span, work counts, and the traced minus untraced wall time).

Every output is checked by value (perfbench/checks.py). A nonzero exit,
unparsable JSON, a wrong number or a check skipped that should run makes
the invocation fail; traced runs also compare the exact work counts below.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Without `src/unitgraph` the script exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A child still running at this point is killed and counts as failed, so a
# hung program still gives a result within 180 s.
DEADLINE = time.monotonic() + 170
SETUP_STARTS_PER_CHILD = 3
SETUP_CODE = "import sys, unitgraph\nfor q in sys.argv[1:]: unitgraph.field_of_order(int(q))"


class Child(NamedTuple):
    wall_s: float
    rss_mb: float
    rc: int
    stdout: str


def run_child(argv: list[str], out: Path) -> Child:
    """Run one process to completion, timing it and reading its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(DEADLINE - time.monotonic(), 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode, out.read_text(encoding="utf-8"))


def problems_of(inv, rc: int, stdout: str) -> list[str]:
    name = " ".join(inv.argv)
    if rc != 0:
        return [f"{name}: exit code {rc}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"{name}: output is not JSON"]
    return inv.check(doc)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAIL {p}", file=sys.stderr)


def setup_start(fields: tuple[int, ...], work: Path) -> float:
    child = run_child([sys.executable, "-c", SETUP_CODE, *map(str, fields)], work / "setup.out")
    if child.rc != 0:
        raise RuntimeError(f"set-up start exited {child.rc}")
    return child.wall_s


def run_passes(w, seconds: float, rng: random.Random, work: Path, tally: Tally):
    """Untraced passes until `seconds` have elapsed: pass walls, peak RSS
    and set-up times.

    SETUP_STARTS_PER_CHILD set-up starts follow each invocation. Spread over
    the whole run, they see the same machine as the passes, not one burst.
    """
    walls, rss, setup = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        order = rng.sample(w.invocations, len(w.invocations))
        children = []
        for inv in order:
            child = run_child([sys.executable, "-m", "unitgraph.cli", *inv.argv, "--format", "json"],
                              work / "cli.out")
            children.append(child)
            tally.record(problems_of(inv, child.rc, child.stdout))
            setup += [setup_start(w.fields, work) for _ in range(SETUP_STARTS_PER_CHILD)]
        walls.append(sum(c.wall_s for c in children))
        rss.append(max(c.rss_mb for c in children))
    return walls, rss, setup


def traced_pass(w, work: Path, tally: Tally):
    """One pass under the tracer: summed spans and counts, and its wall time."""
    self_s, calls, counts, absent, wall = {}, {}, {}, set(), 0.0
    for inv in w.invocations:
        argv = [sys.executable, str(Path(__file__).with_name("traced.py")), *inv.argv, "--format", "json"]
        child = run_child(argv, work / "traced.out")
        wall += child.wall_s
        try:
            trace = json.loads(child.stdout)
        except ValueError:
            tally.record([f"traced {' '.join(inv.argv)}: exit code {child.rc}, no trace"])
            continue
        problems = problems_of(inv, trace["rc"], trace["stdout"])
        absent.update(trace["absent"])
        problems += [
            f"traced {' '.join(inv.argv)}: {name} = {trace['counts'].get(name)}, expected {want}"
            for name, want in inv.counts.items()
            if name not in absent and trace["counts"].get(name) != want
        ]
        tally.record(problems)
        for total, part in ((self_s, trace["self_s"]), (calls, trace["calls"]), (counts, trace["counts"])):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
    return self_s, calls, counts, sorted(absent), wall


def layer_metrics(self_s: dict, calls: dict, counts: dict, overhead_s: float) -> dict:
    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    queries = counts.get("gap.queries", 0)
    return {
        "graph.verify_eigenvector.self_s": own("graph.verify_eigenvector"),
        "graph.labels_verified": counts.get("graph.labels_verified", 0),
        "cyclotomic.objects": counts.get("cyclotomic.objects", 0),
        "graph.build_graph.self_s": own("graph.build_graph"),
        "graph.is_simple.self_s": own("graph.is_simple"),
        "graph.pairs": counts.get("graph.pairs", 0),
        "graph.spectrum_from_graph.self_s": own("graph.spectrum_from_graph"),
        "matrices.rank_census.self_s": own("matrices.rank_census"),
        "matrices.enumerated": counts.get("matrices.enumerated", 0),
        "spectra.pinned_count.self_s": own("spectra.count_invertible_corner",
                                           "spectra.count_invertible_diag_pair"),
        "spectra.eigenvalue_charsum.self_s": own("spectra.eigenvalue_charsum"),
        "spectra.eigenvalue_charsum.calls": calls.get("spectra.eigenvalue_charsum", 0),
        "gap.find_invertible_difference.self_s": own("gap.find_invertible_difference"),
        "gap.pairs_scanned": counts.get("gap.pairs_scanned", 0),
        "gap.witness_hit_ratio": counts.get("gap.witnesses", 0) / queries if queries else 0.0,
        "gap.random_subset.self_s": own("gap.random_subset"),
        "gap.check_spectral_gap.self_s": own("gap.check_spectral_gap"),
        "cli.self_s": own("cli"),
        "fields.field.self_s": own("fields.field"),
        "trace.overhead_s": overhead_s,
    }


def context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="unitgraph benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "unitgraph" / "__init__.py").is_file():
        print(f"error: no unitgraph package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    import unitgraph
    import workloads

    if Path(unitgraph.__file__).resolve().parent != SRC / "unitgraph":
        print(f"error: unitgraph imported from {unitgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    ctx = context()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, work)
        print("context " + json.dumps(ctx))
        rng = random.Random(args.seed)
        tally = Tally()
        setup_start(w.fields, work)  # warms the bytecode cache
        walls, rss, setup = run_passes(w, args.seconds, rng, work, tally)
        if args.trace:
            self_s, calls, counts, absent, traced_wall = traced_pass(w, work, tally)
            values = layer_metrics(self_s, calls, counts, traced_wall - statistics.median(walls))
            notes = {"trace.overhead_s": f"traced pass {traced_wall:.3f} s vs median of {len(walls)}"}
            if absent:
                print("absent " + json.dumps(absent))
        else:
            values = {
                "wall_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(rss),
                "setup_s": statistics.median(setup),
            }
            notes = {
                "wall_s": f"median of {len(walls)} passes, max {max(walls):.3f}",
                "peak_rss_mb": f"median of {len(rss)} passes",
                "setup_s": f"median of {len(setup)} starts",
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json lists {[m['name'] for m in listed]}")
    for m in listed:
        print(f"{m['name']} = {values[m['name']]} {m['unit']}  {notes.get(m['name'], '')}".rstrip())
    print(f"error_rate = {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} invocations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
