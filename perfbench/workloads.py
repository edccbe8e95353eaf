"""The benchmark's workloads: CLI invocations, their checks and exact counts.

Each workload is built from the seed and a scratch directory for generated
inputs. `graph-verify` and `enum-census` are fixed exhaustive computations;
their seed only shuffles the order of invocations within a pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

import checks
import inputs


class Invocation(NamedTuple):
    argv: list[str]
    check: Callable[[dict], list[str]]
    counts: dict[str, int]  # exact work counts the traced run must report


class Workload(NamedTuple):
    fields: tuple[int, ...]  # field orders the set-up starts build
    invocations: list[Invocation]


def graph_verify(seed: int, work: Path) -> Workload:
    """The ground-truth graph route: 1393 labels verified over 358456 pairs."""
    return Workload((2, 4, 5), [
        Invocation(["verify", "--q", "2"], checks.verify(2, 3),
                   {"graph.labels_verified": 512, "graph.pairs": 130816, "matrices.enumerated": 512}),
        Invocation(["verify", "--q", "4", "--n", "2"], checks.verify(4, 2),
                   {"graph.labels_verified": 256, "graph.pairs": 32640, "matrices.enumerated": 256}),
        Invocation(["verify", "--q", "5", "--n", "2"], checks.verify(5, 2),
                   {"graph.labels_verified": 625, "graph.pairs": 195000, "matrices.enumerated": 625}),
    ])


def enum_census(seed: int, work: Path) -> Workload:
    """Exhaustive enumeration and the GL cache; the graph is skipped by cap."""
    return Workload((5, 4), [
        Invocation(["census", "--q", "5"], checks.census_q5, {"matrices.enumerated": 1953125}),
        Invocation(["charsum", "--q", "5"], checks.charsum_q5, {"matrices.enumerated": 0}),
        Invocation(["verify", "--q", "4"], checks.verify(4, 3),
                   {"matrices.enumerated": 262144, "graph.labels_verified": 0, "graph.pairs": 0}),
    ])


def gap_scan(seed: int, work: Path) -> Workload:
    """One full witness scan that finds nothing, and 300 scans that exit early."""
    x, y = map(str, inputs.write_gap_inputs(seed, work))
    hit_seed = seed + 1
    return Workload((inputs.MISS_Q, inputs.HIT_Q), [
        Invocation(["gap", "--q", str(inputs.MISS_Q), "--subset-file", x, "--subset-file-y", y],
                   checks.gap_miss(inputs.MISS_Q, inputs.MISS_SIZE),
                   {"gap.queries": 1, "gap.witnesses": 0,
                    "gap.pairs_scanned": inputs.MISS_SIZE * inputs.MISS_SIZE}),
        Invocation(["gap", "--q", str(inputs.HIT_Q), "--random-size", str(inputs.HIT_SIZE),
                    "--trials", str(inputs.HIT_TRIALS), "--seed", str(hit_seed)],
                   checks.gap_hit(inputs.HIT_Q, inputs.HIT_SIZE, inputs.HIT_TRIALS, hit_seed),
                   {"gap.queries": inputs.HIT_TRIALS, "gap.witnesses": inputs.HIT_TRIALS}),
    ])


WORKLOADS = {"graph-verify": graph_verify, "enum-census": enum_census, "gap-scan": gap_scan}
