"""Seeded inputs for the gap-scan workload, built from unitgraph's public API.

    PYTHONPATH=src python3 perfbench/inputs.py --seed 7 --out DIR

writes DIR/gap-x.idx and DIR/gap-y.idx, the subset files of the miss-heavy
query. Both hold 2048 distinct matrices drawn from the kernel subspace
{B in Mat_3(F_4) : B v = 0} of one seeded nonzero vector v. Every difference
b - a also sends v to 0, so it is singular: the witness scan visits all
|X||Y| pairs and finds nothing. 2048^2 does not exceed 4162^2, so the
spectral-gap bound promises no witness and the theorem's tripwire stays
quiet. The hit-heavy run draws its own subsets inside the CLI from a seed;
its sizes are checked here to clear the bound for q = 3.
"""

from __future__ import annotations

import argparse
import itertools
import random
from pathlib import Path

from unitgraph import Matrix, field_of_order, matrix_to_index

MISS_Q = 4
MISS_SIZE = 2048
HIT_Q = 3
HIT_SIZE = 759
HIT_TRIALS = 300


def gap_bound(q: int) -> int:
    """The integer subset bound q^6 + q^3 + 2, written out independently."""
    return q**6 + q**3 + 2


def _dot(row, v, zero):
    acc = zero
    for a, b in zip(row, v):
        acc = acc + a * b
    return acc


def write_gap_inputs(seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write the two miss-heavy subset files for this seed; return their paths."""
    rng = random.Random(seed)
    ctx = field_of_order(MISS_Q)
    elems = list(ctx.elements())
    zero = ctx.zero()
    v = [zero] * 3
    while all(x.is_zero() for x in v):
        v = [rng.choice(elems) for _ in range(3)]
    rows = [r for r in itertools.product(elems, repeat=3) if _dot(r, v, zero).is_zero()]
    k = len(rows)
    if k != MISS_Q**2:
        raise RuntimeError(f"expected {MISS_Q**2} rows orthogonal to v, got {k}")
    column = Matrix.from_rows(ctx, [[x, zero, zero] for x in v])
    null = Matrix.zero(ctx, 3)

    paths = []
    for name in ("x", "y"):
        lines = []
        for t in rng.sample(range(k**3), MISS_SIZE):
            b = Matrix.from_rows(ctx, [rows[t % k], rows[t // k % k], rows[t // (k * k)]])
            if b @ column != null:
                raise RuntimeError(f"generated matrix {b!r} does not have v in its kernel")
            lines.append(str(matrix_to_index(b)))
        path = out_dir / f"gap-{name}.idx"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)

    if MISS_SIZE * MISS_SIZE > gap_bound(MISS_Q) ** 2:
        raise RuntimeError("the miss-heavy query clears the bound, so a witness would be promised")
    if HIT_SIZE * HIT_SIZE <= gap_bound(HIT_Q) ** 2:
        raise RuntimeError("the hit-heavy queries do not clear the bound")
    return paths[0], paths[1]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for p in write_gap_inputs(args.seed, args.out):
        print(p)
