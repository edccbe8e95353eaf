"""Value checks of the CLI's JSON output against numbers kept here.

Each check takes the parsed JSON document and returns a list of problems;
an empty list means the output is right. Checks read only the fields they
need, so new JSON fields never count as a failure. The expected numbers are
the paper's closed forms and Landsberg's rank counts evaluated by hand, not
outputs of the program.
"""

from __future__ import annotations

import re

from unitgraph import Matrix, field_of_order

# (q, n) -> the checks `verify` must report, in order: name, status, and the
# integers its detail must contain as a subsequence (eigenvalues by rank,
# census and formula counts, graph order and degree, (eigenvalue,
# multiplicity) pairs). `graph-checks` is skipped only at q=4, n=3, where
# 4^9 vertices exceed the default graph cap.
VERIFY = {
    (2, 3): [
        ("eigenvalues-closed-vs-charsum", "pass", [0, 168, 1, -24, 2, 8, 3, -8]),
        ("multiplicities-formula-vs-census", "pass", [1, 49, 294, 168] * 2),
        ("trace-identity", "pass", [0]),
        ("graph-structure", "pass", [512, 168]),
        ("graph-eigenvectors", "pass", [168, 1, -24, 49, 8, 294, -8, 168]),
    ],
    (4, 2): [
        ("multiplicities-formula-vs-census", "pass", [1, 75, 180] * 2),
        ("trace-identity", "pass", [0]),
        ("graph-structure", "pass", [256, 180]),
        ("graph-eigenvectors", "pass", [180, 1, -12, 75, 4, 180]),
    ],
    (5, 2): [
        ("multiplicities-formula-vs-census", "pass", [1, 144, 480] * 2),
        ("trace-identity", "pass", [0]),
        ("graph-structure", "pass", [625, 480]),
        ("graph-eigenvectors", "pass", [480, 1, -20, 144, 5, 480]),
    ],
    (4, 3): [
        ("eigenvalues-closed-vs-charsum", "pass", [0, 181440, 1, -2880, 2, 192, 3, -64]),
        ("multiplicities-formula-vs-census", "pass", [1, 1323, 79380, 181440] * 2),
        ("trace-identity", "pass", [0]),
        ("graph-checks", "skipped", [262144]),
    ],
}

# n = 3, q = 5: eigenvalue by label rank, matrices by rank, invertible
# matrices with B[0,0] pinned (zero / nonzero), and with B[0,0], B[1,1]
# pinned, keyed by how many of the two are zero.
CHARSUM_Q5 = [1488000, -12000, 500, -125]
CENSUS_Q5 = [1, 3844, 461280, 1488000]
CORNER_Q5 = {True: 288000, False: 300000}
DIAG_PAIR_Q5 = {2: 56000, 1: 58000, 0: 60500}

_INT = re.compile(r"-?\d+")


def _is_subsequence(needle: list[int], hay: list[int]) -> bool:
    it = iter(hay)
    return all(any(x == y for y in it) for x in needle)


def verify(q: int, n: int):
    expected = VERIFY[(q, n)]

    def check(doc: dict) -> list[str]:
        problems = []
        if (doc.get("q"), doc.get("n"), doc.get("passed")) != (q, n, True):
            problems.append(f"verify q={q} n={n}: header {doc.get('q')}, {doc.get('n')}, passed={doc.get('passed')}")
        reported = {c.get("name"): c for c in doc.get("checks", [])}
        for name, status, ints in expected:
            c = reported.get(name)
            if c is None:
                problems.append(f"verify q={q} n={n}: check {name} not run")
            elif c.get("status") != status:
                problems.append(f"verify q={q} n={n}: {name} is {c.get('status')}, expected {status}")
            elif not _is_subsequence(ints, [int(s) for s in _INT.findall(str(c.get("detail", "")))]):
                problems.append(f"verify q={q} n={n}: {name} detail {c.get('detail')!r} lacks {ints}")
        problems += [
            f"verify q={q} n={n}: extra check {name} failed"
            for name, c in reported.items()
            if c.get("status") == "fail"
        ]
        return problems

    return check


def charsum_q5(doc: dict) -> list[str]:
    got = {r.get("rank"): r.get("eigenvalue") for r in doc.get("results", [])}
    want = dict(enumerate(CHARSUM_Q5))
    return [] if got == want else [f"charsum q=5: eigenvalues {got}, expected {want}"]


def census_q5(doc: dict) -> list[str]:
    problems = []
    ranks = [r.get("census") for r in sorted(doc.get("ranks", []), key=lambda r: r.get("rank"))]
    if ranks != CENSUS_Q5:
        problems.append(f"census q=5: rank counts {ranks}, expected {CENSUS_Q5}")
    corner = doc.get("corner", [])
    if len(corner) != 5 or any(
        r.get("census") != CORNER_Q5[not any(r.get("alpha", [1]))] for r in corner
    ):
        problems.append(f"census q=5: corner counts {[r.get('census') for r in corner]}")
    pairs = doc.get("diag_pairs", [])
    if len(pairs) != 25 or any(
        r.get("census")
        != DIAG_PAIR_Q5[(not any(r.get("alpha", [1]))) + (not any(r.get("beta", [1])))]
        for r in pairs
    ):
        problems.append(f"census q=5: diagonal-pair counts {[r.get('census') for r in pairs]}")
    return problems


def _gap_header(doc, q, sizes, guaranteed, count) -> list[str]:
    reports = doc.get("reports", [])
    if len(reports) != count:
        return [f"gap q={q}: {len(reports)} reports, expected {count}"]
    bound = q**6 + q**3 + 2
    return [
        f"gap q={q} report {t}: {r.get('q')}, bound {r.get('integer_bound')}, "
        f"sizes {r.get('set_sizes')}, guaranteed {r.get('guaranteed')}"
        for t, r in enumerate(reports)
        if (r.get("q"), r.get("integer_bound"), r.get("set_sizes"), r.get("guaranteed"))
        != (q, bound, list(sizes), guaranteed)
    ]


def gap_miss(q: int, size: int):
    def check(doc: dict) -> list[str]:
        problems = _gap_header(doc, q, (size, size), False, 1)
        if not problems and doc["reports"][0].get("witness") is not None:
            problems.append(f"gap q={q}: a witness was reported for a kernel subspace")
        return problems

    return check


def _matrix(ctx, d: dict) -> Matrix:
    return Matrix.from_rows(ctx, [[ctx.element(c) for c in row] for row in d["entries"]])


def gap_hit(q: int, size: int, trials: int, seed: int):
    ctx = field_of_order(q)

    def check(doc: dict) -> list[str]:
        problems = _gap_header(doc, q, (size, size), True, trials)
        for t, r in enumerate(doc.get("reports", []) if not problems else []):
            w = r.get("witness")
            if r.get("seed") != seed + t:
                problems.append(f"gap q={q} report {t}: seed {r.get('seed')}, expected {seed + t}")
            if w is None:
                problems.append(f"gap q={q} report {t}: guaranteed but no witness")
            elif not (_matrix(ctx, w["b"]) - _matrix(ctx, w["a"])).is_invertible():
                problems.append(f"gap q={q} report {t}: witness b - a is singular")
        return problems

    return check
