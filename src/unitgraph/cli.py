"""Command-line front end.

One binary, subcommand style; every number in a report comes from the
library, the CLI only formats.  ``--format json`` and ``csv`` are stable
contracts (identical configs and seeds give byte-identical output); the
text format is human-oriented and may change.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 size cap hit.
Caps may also be set via UNITGRAPH_MAX_ENUM / UNITGRAPH_MAX_GRAPH; the
command-line flags win over the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional, Sequence

from . import gap as gap_mod
from . import graph as graph_mod
from . import matrices, spectra
from .errors import EigenvectorMismatchError, SizeTooLargeError, TheoremViolationError
from .fields import FieldContext, field, is_prime, load_modulus_table, prime_power

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} is not an integer: {raw!r}")


def _add_field_options(parser: argparse.ArgumentParser, with_n: bool = True) -> None:
    parser.add_argument("--q", type=int, help="field order (a prime power)")
    parser.add_argument("--p", type=int, help="field characteristic (alternative to --q)")
    parser.add_argument("--k", type=int, default=1, help="extension degree (with --p)")
    parser.add_argument(
        "--modulus",
        help="comma-separated modulus coefficients, constant term first",
    )
    parser.add_argument(
        "--modulus-file", help="modulus table file overriding the packaged one"
    )
    if with_n:
        parser.add_argument("--n", type=int, default=3, help="matrix size (default 3)")


def _add_cap_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-enum",
        type=int,
        default=None,
        help=f"matrix enumeration cap (default {matrices.DEFAULT_ENUM_CAP})",
    )
    parser.add_argument(
        "--max-graph",
        type=int,
        default=None,
        help=f"graph order cap (default {graph_mod.DEFAULT_MAX_ORDER})",
    )


def _caps(args) -> tuple[int, int]:
    enum_cap = args.max_enum
    if enum_cap is None:
        enum_cap = _env_cap("UNITGRAPH_MAX_ENUM", matrices.DEFAULT_ENUM_CAP)
    graph_cap = getattr(args, "max_graph", None)
    if graph_cap is None:
        graph_cap = _env_cap("UNITGRAPH_MAX_GRAPH", graph_mod.DEFAULT_MAX_ORDER)
    return enum_cap, graph_cap


def _resolve_pk(args) -> tuple[int, int]:
    if args.q is not None and args.p is not None:
        raise UsageError("give either --q or --p/--k, not both")
    if args.q is not None:
        pk = prime_power(args.q)
        if pk is None:
            raise UsageError(f"{args.q} is not a prime power")
        return pk
    if args.p is not None:
        if not is_prime(args.p):
            raise UsageError(f"--p {args.p} is not a prime")
        return (args.p, args.k)
    raise UsageError("a field is required: pass --q or --p (with optional --k)")


def _resolve_context(args) -> FieldContext:
    p, k = _resolve_pk(args)
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    table = None
    if args.modulus_file:
        try:
            table = load_modulus_table(args.modulus_file)
        except OSError as exc:
            raise UsageError(f"cannot read modulus file {args.modulus_file}: {exc}")
    return field(p, k, modulus=modulus, modulus_table=table)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# spectrum


def _cmd_spectrum(args) -> int:
    enum_cap, _ = _caps(args)
    if args.n == 3:
        # closed forms need no field, but given modulus options must be valid
        if args.modulus or args.modulus_file:
            q = _resolve_context(args).q
        else:
            p, k = _resolve_pk(args)
            q = p**k
        spectrum = spectra.spectrum_closed_form(q)
    else:
        ctx = _resolve_context(args)
        spectrum = spectra.spectrum_brute_force(ctx, args.n, cap=enum_cap)
    if args.format == "json":
        _print_json(spectrum.to_json_dict())
    elif args.format == "csv":
        print(spectrum.to_csv(), end="")
    else:
        print(f"spectrum, q={spectrum.q}, n={spectrum.n} ({spectrum.q ** (spectrum.n * spectrum.n)} vertices)")
        for line in spectrum.lines:
            print(
                f"  rank {line.rank}: eigenvalue {line.eigenvalue}, "
                f"multiplicity {line.multiplicity}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_checks(ctx: FieldContext, n: int, enum_cap: int, graph_cap: int) -> list[dict]:
    q = ctx.q
    checks: list[dict] = []

    def record(name: str, status: str, detail: str) -> None:
        checks.append({"name": name, "status": status, "detail": detail})

    order = matrices.matrix_count(ctx, n)

    # closed-form eigenvalues vs exhaustive character sums (n = 3 only)
    if n == 3:
        if order > enum_cap:
            record("eigenvalues-closed-vs-charsum", "skipped", f"{order} matrices over cap {enum_cap}")
        else:
            bad = []
            values = []
            for r in range(4):
                closed = spectra.eigenvalue_closed_form(q, r)
                brute = spectra.eigenvalue_charsum_rank(ctx, n, r, cap=enum_cap)
                values.append(f"rank {r}: {brute}")
                if closed != brute:
                    bad.append(f"rank {r}: closed {closed} != charsum {brute}")
            record(
                "eigenvalues-closed-vs-charsum",
                "fail" if bad else "pass",
                "; ".join(bad or values),
            )

    # rank-count formula vs exhaustive census
    if order > enum_cap:
        record("multiplicities-formula-vs-census", "skipped", f"{order} matrices over cap {enum_cap}")
    else:
        census = matrices.rank_census(ctx, n, cap=enum_cap)
        formula = [spectra.rank_count(q, n, r) for r in range(n + 1)]
        ok = census == formula
        record(
            "multiplicities-formula-vs-census",
            "pass" if ok else "fail",
            f"census {census} vs formula {formula}",
        )

    # zero-trace identity on the assembled spectrum
    try:
        spectrum = (
            spectra.spectrum_closed_form(q)
            if n == 3
            else spectra.spectrum_brute_force(ctx, n, cap=enum_cap)
        )
        weighted = sum(l.multiplicity * l.eigenvalue for l in spectrum.lines)
        record(
            "trace-identity",
            "pass" if weighted == 0 else "fail",
            f"weighted eigenvalue sum = {weighted}",
        )
    except SizeTooLargeError:
        spectrum = None
        record("trace-identity", "skipped", f"{order} matrices over cap {enum_cap}")

    # ground-truth graph checks; the graph route raises on a failed identity
    if order > graph_cap:
        record("graph-checks", "skipped", f"order {order} over graph cap {graph_cap}")
        return checks
    try:
        g = graph_mod.build_graph(ctx, n, max_order=graph_cap)
    except AssertionError as exc:
        record("graph-structure", "fail", str(exc))
        return checks
    simple = graph_mod.is_simple(g)
    record(
        "graph-structure",
        "pass" if simple and g.degree == matrices.gl_order(q, n) else "fail",
        f"{g.order} vertices, degree {g.degree}, simple={simple}",
    )
    try:
        graph_spectrum = graph_mod.spectrum_from_graph(g)
    except (EigenvectorMismatchError, AssertionError) as exc:
        record("graph-eigenvectors", "fail", str(exc))
        return checks
    ok = spectrum is not None and graph_spectrum.lines == spectrum.lines
    record(
        "graph-eigenvectors",
        "pass" if ok else "fail",
        f"graph spectrum {[ (l.eigenvalue, l.multiplicity) for l in graph_spectrum.lines ]}",
    )
    return checks


def _cmd_verify(args) -> int:
    enum_cap, graph_cap = _caps(args)
    ctx = _resolve_context(args)
    checks = _verify_checks(ctx, args.n, enum_cap, graph_cap)
    failed = [c for c in checks if c["status"] == "fail"]
    if args.format == "json":
        _print_json(
            {"q": ctx.q, "n": args.n, "passed": not failed, "checks": checks}
        )
    else:
        print(f"verification, q={ctx.q}, n={args.n}")
        for c in checks:
            tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c["status"]]
            print(f"  [{tag}] {c['name']}: {c['detail']}")
        if failed:
            print(f"failed at: {failed[0]['name']}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# charsum


def _cmd_charsum(args) -> int:
    enum_cap, _ = _caps(args)
    ctx = _resolve_context(args)
    n = args.n
    if args.label_index is not None:
        labels = [matrices.matrix_from_index(ctx, n, args.label_index)]
    else:
        ranks = [args.rank] if args.rank is not None else list(range(n + 1))
        labels = [matrices.rank_representative(ctx, n, r) for r in ranks]
    results = [
        {
            "label_index": matrices.matrix_to_index(label),
            "rank": label.rank(),
            "eigenvalue": spectra.eigenvalue_charsum(label, cap=enum_cap),
        }
        for label in labels
    ]
    if args.format == "json":
        _print_json({"q": ctx.q, "n": n, "results": results})
    else:
        print(f"character sums over invertible matrices, q={ctx.q}, n={n}")
        for r in results:
            print(
                f"  label {r['label_index']} (rank {r['rank']}): {r['eigenvalue']}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# census


def _census_row(census: int, closed: int, **key) -> dict:
    return {**key, "census": census, "closed_form": closed, "equal": census == closed}


def _census_line(label: str, row: dict) -> str:
    flag = "ok" if row["equal"] else "MISMATCH"
    return f"  {label}: census {row['census']}, closed form {row['closed_form']} [{flag}]"


def _cmd_census(args) -> int:
    enum_cap, _ = _caps(args)
    ctx = _resolve_context(args)
    n = args.n
    q = ctx.q
    census = matrices.rank_census(ctx, n, cap=enum_cap)
    ranks = [_census_row(census[r], spectra.rank_count(q, n, r), rank=r) for r in range(n + 1)]
    payload: dict = {"q": q, "n": n, "ranks": ranks}

    if n == 3:
        grid = spectra.count_invertible_pinned(ctx, n=n, cap=enum_cap)
        elements = list(ctx.elements())
        payload["corner"] = [
            _census_row(
                sum(grid[a.index]),
                spectra.corner_count_closed_form(q, a.is_zero()),
                alpha=list(a.coeffs),
            )
            for a in elements
        ]
        payload["diag_pairs"] = [
            _census_row(
                grid[a.index][b.index],
                spectra.diag_pair_count_closed_form(q, a.is_zero(), b.is_zero()),
                alpha=list(a.coeffs),
                beta=list(b.coeffs),
            )
            for a in elements
            for b in elements
        ]

    if args.format == "json":
        _print_json(payload)
    else:
        print(f"rank census, q={q}, n={n}")
        for row in ranks:
            print(_census_line(f"rank {row['rank']}", row))
        if n == 3:
            print("invertible counts with pinned (0,0) entry:")
            for row in payload["corner"]:
                print(_census_line(f"alpha={row['alpha']}", row))
    rows = ranks + payload.get("corner", []) + payload.get("diag_pairs", [])
    return EXIT_OK if all(row["equal"] for row in rows) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# gap


def _read_subset(path: str, ctx: FieldContext, n: int) -> list[matrices.Matrix]:
    try:
        with open(path, encoding="utf-8") as fh:
            return matrices.matrices_from_index_file(ctx, n, fh)
    except OSError as exc:
        raise UsageError(f"cannot read subset file {path}: {exc}")
    except ValueError as exc:
        raise UsageError(f"bad subset file {path}: {exc}")


def _cmd_gap(args) -> int:
    ctx = _resolve_context(args)
    n = 3
    reports = []
    if args.subset_file_y and not args.subset_file:
        raise UsageError("--subset-file-y needs --subset-file")
    if args.subset_file:
        xs = _read_subset(args.subset_file, ctx, n)
        ys = _read_subset(args.subset_file_y, ctx, n) if args.subset_file_y else xs
        reports.append(gap_mod.check_spectral_gap(xs, ys))
    elif args.random_size is not None:
        trials = args.trials
        if trials < 1:
            raise UsageError("--trials must be >= 1")
        for t in range(trials):
            trial_seed = args.seed + t
            rng = random.Random(trial_seed)
            xs = gap_mod.random_subset(ctx, n, args.random_size, rng)
            ys = gap_mod.random_subset(ctx, n, args.random_size, rng)
            reports.append(gap_mod.check_spectral_gap(xs, ys, seed=trial_seed))
    else:
        raise UsageError("pass --subset-file or --random-size")

    if args.format == "json":
        _print_json({"q": ctx.q, "n": n, "reports": [r.to_json_dict() for r in reports]})
    else:
        for r in reports:
            witness = "witness found" if r.witness else "no witness"
            print(
                f"q={r.q} sizes=({r.size_x},{r.size_y}) "
                f"threshold={r.n_star_num}/{r.n_star_den} bound={r.integer_bound} "
                f"guaranteed={r.guaranteed} {witness}"
                + (f" seed={r.seed}" if r.seed is not None else "")
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-graph


def _cmd_export_graph(args) -> int:
    _, graph_cap = _caps(args)
    ctx = _resolve_context(args)
    g = graph_mod.build_graph(ctx, args.n, max_order=graph_cap)
    if args.output and args.output != "-":
        try:
            fh = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}")
        with fh:
            count = graph_mod.export_edges(g, fh)
        print(f"wrote {count} edges ({g.order} vertices) to {args.output}", file=sys.stderr)
    else:
        graph_mod.export_edges(g, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitgraph",
        description=(
            "Exact spectra and spectral-gap checks for the invertibility "
            "graph on n x n matrices over a finite field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues and multiplicities")
    _add_field_options(sp)
    _add_cap_options(sp)
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sp.set_defaults(func=_cmd_spectrum)

    vf = sub.add_parser("verify", help="cross-check closed forms against brute force")
    _add_field_options(vf)
    _add_cap_options(vf)
    vf.add_argument("--format", choices=("json", "text"), default="text")
    vf.set_defaults(func=_cmd_verify)

    cs = sub.add_parser("charsum", help="character sums over invertible matrices")
    _add_field_options(cs)
    _add_cap_options(cs)
    cs.add_argument("--rank", type=int, help="use the canonical label of this rank")
    cs.add_argument("--label-index", type=int, help="use the label at this enumeration index")
    cs.add_argument("--format", choices=("json", "text"), default="text")
    cs.set_defaults(func=_cmd_charsum)

    ce = sub.add_parser("census", help="exhaustive rank and pinned-entry counts")
    _add_field_options(ce)
    _add_cap_options(ce)
    ce.add_argument("--format", choices=("json", "text"), default="text")
    ce.set_defaults(func=_cmd_census)

    gp = sub.add_parser("gap", help="subset edge-existence reports")
    _add_field_options(gp, with_n=False)
    gp.add_argument("--subset-file", help="newline-separated enumeration indices for X")
    gp.add_argument("--subset-file-y", help="indices for Y (defaults to the X file)")
    gp.add_argument("--random-size", type=int, help="draw random subsets of this size")
    gp.add_argument("--trials", type=int, default=1)
    gp.add_argument("--seed", type=int, default=0, help="base seed; trial t uses seed+t")
    gp.add_argument("--format", choices=("json", "text"), default="text")
    gp.set_defaults(func=_cmd_gap)

    eg = sub.add_parser("export-graph", help="write the adjacency edge list")
    _add_field_options(eg)
    _add_cap_options(eg)
    eg.add_argument("--output", default="-", help="output path, or - for stdout")
    eg.set_defaults(func=_cmd_export_graph)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        # bad numeric input (non-prime p, reducible modulus, bad rank, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
