"""Command-line front end.

One binary, subcommand style; every number in a report comes from the
library, the CLI only formats.  ``--format json`` and ``csv`` are stable
contracts (identical configs and seeds give byte-identical output); the
text format is human-oriented and may change.

Exit codes: 0 success, 1 check failure, 2 usage error or failed write,
3 size cap hit; ``EXIT_CODES`` maps exceptions to them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

# the package registers these modules lazily: each one loads on first use
from . import gap as gap_mod, graph as graph_mod, matrices, spectra
from .errors import CheckFailedError, SizeTooLargeError, TheoremViolationError
from .fields import FieldContext, _over_cap, _power, field, field_modulus, is_prime, prime_power

# (exception class, exit code, stderr prefix): an exception leaving a
# subcommand is reported through the first row it is an instance of
EXIT_CODES = (
    (SizeTooLargeError, 3, "error: "),
    (TheoremViolationError, 1, "THEOREM VIOLATION: "),
    (CheckFailedError, 1, "check failed: "),
    (ValueError, 2, "error: "),
)


def _resolve_pk(args) -> tuple[int, int]:
    """(p, k) of the field options, once they, ``--n`` and the caps are checked."""
    if args.q is not None and (args.p is not None or args.k is not None):
        raise ValueError("give either --q or --p/--k, not both")
    if args.q is not None:
        pk = prime_power(args.q)
        if pk is None:
            raise ValueError(f"{args.q} is not a prime power")
    elif args.p is not None:
        if not is_prime(args.p):
            raise ValueError(f"--p {args.p} is not a prime")
        k = 1 if args.k is None else args.k
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        pk = (args.p, k)
    else:
        raise ValueError("a field is required: pass --q or --p (with optional --k)")
    if getattr(args, "n", 1) < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    for flag in ("--max-enum", "--max-graph"):
        cap = getattr(args, flag[2:].replace("-", "_"), 0)
        if cap < 0:
            raise ValueError(f"{flag} must be >= 0, got {cap}")
    return pk


def _resolve_field(args, cap: int | None = None) -> tuple[int, int, tuple[int, ...]]:
    """(p, k, modulus) of the field options, checked as ``field`` checks
    them but with no table built; q^(n^2) is held to ``cap`` (if given)
    first."""
    p, k = _resolve_pk(args)
    if cap is not None and _over_cap(p, k * args.n**2, cap):
        q = _power(p, k)  # bracketed where Python cannot print it: (2^20000)^4
        q = q if q.isdigit() else f"({q})"
        raise SizeTooLargeError(f"{q}^{args.n**2} matrices exceed the cap {cap}")
    try:
        modulus = None if args.modulus is None else [int(c) for c in args.modulus.split(",")]
    except ValueError:
        raise ValueError(
            f"--modulus {args.modulus!r} is not a comma-separated list of integers"
        ) from None
    return p, k, field_modulus(p, k, modulus=modulus)


def _resolve_context(args, cap: int | None = None) -> FieldContext:
    """The field of the options, built after ``_resolve_field``'s checks."""
    p, k, modulus = _resolve_field(args, cap)
    return field(p, k, modulus=modulus)


# Each subcommand returns (json payload, text lines, verdict).  main prints
# the report and then raises the verdict, if any, through EXIT_CODES; a
# failure the report already shows is a verdict without a message.


# ---------------------------------------------------------------------------
# spectrum


def _closed_spectrum(p: int, k: int, n: int) -> spectra.Spectrum:
    """The closed-form spectrum over F_(p^k), refused (as a size cap) when
    its numbers are past Python's limit for integer string conversion."""
    vertices = _power(p, k * n * n)  # no number in the report is larger
    if not vertices.isdigit():
        raise SizeTooLargeError(
            f"{vertices} vertices: the report's numbers exceed Python's limit for "
            "integer string conversion"
        )
    return spectra.spectrum_closed_form(p**k, n)


def _cmd_spectrum(args):
    # closed forms need no field, but a given modulus must be valid
    p, k = _resolve_field(args)[:2] if args.modulus is not None else _resolve_pk(args)
    spectrum = _closed_spectrum(p, k, args.n)
    if args.format == "csv":
        lines = spectrum.to_csv().splitlines()
    else:
        q, n = spectrum.q, spectrum.n
        lines = [f"spectrum, q={q}, n={n} ({q ** (n * n)} vertices)"]
        lines += [
            f"  rank {line.rank}: eigenvalue {line.eigenvalue}, multiplicity {line.multiplicity}"
            for line in spectrum.lines
        ]
    return spectrum.to_json_dict(), lines, None


# ---------------------------------------------------------------------------
# verify


def _verify_checks(
    p: int, k: int, ctx: FieldContext | None, n: int, enum_cap: int, graph_cap: int
) -> list[dict]:
    """The checks of ``verify``; ``ctx`` is read only by checks under a cap."""
    q = p**k
    over_graph = _over_cap(q, n * n, graph_cap)
    checks: list[dict] = []
    spectrum = graph = None

    def run(name: str, check) -> str:
        """Record ``check() -> (ok, detail)``; a cap skips the check and a
        failed internal identity fails it.  Returns the status."""
        try:
            ok, detail = check()
            status = "pass" if ok else "fail"
        except SizeTooLargeError as exc:
            status, detail = "skipped", str(exc)
        except CheckFailedError as exc:
            status, detail = "fail", str(exc)
        checks.append({"name": name, "status": status, "detail": detail})
        return status

    def enumerable() -> None:
        if _over_cap(q, n * n, enum_cap):
            raise SizeTooLargeError(f"{_power(q, n * n)} matrices over cap {enum_cap}")

    def eigenvalues():
        # closed-form eigenvalues vs exhaustive character sums
        enumerable()
        closed = [spectra.eigenvalue_closed_form(q, r, n) for r in range(n + 1)]
        charsum = [spectra.eigenvalue_charsum_rank(ctx, n, r, cap=enum_cap) for r in range(n + 1)]
        bad = [
            f"rank {r}: closed {c} != charsum {b}"
            for r, (c, b) in enumerate(zip(closed, charsum))
            if c != b
        ]
        return not bad, "; ".join(bad or [f"rank {r}: {b}" for r, b in enumerate(charsum)])

    def multiplicities():
        # rank-count formula vs exhaustive census
        enumerable()
        census = matrices.rank_census(ctx, n, cap=enum_cap)
        formula = [spectra.rank_count(q, n, r) for r in range(n + 1)]
        return census == formula, f"census {census} vs formula {formula}"

    def trace():
        # zero-trace identity on the closed-form spectrum
        nonlocal spectrum
        spectrum = _closed_spectrum(p, k, n)
        weighted = sum(l.multiplicity * l.eigenvalue for l in spectrum.lines)
        return weighted == 0, f"weighted eigenvalue sum = {weighted}"

    def structure():
        # the ground-truth graph; its build raises on a failed invariant
        nonlocal graph
        if over_graph:
            raise SizeTooLargeError(f"order {_power(q, n * n)} over graph cap {graph_cap}")
        graph = graph_mod.build_graph(ctx, n, max_order=graph_cap)
        return True, f"{graph.order} vertices, degree {graph.degree}, simple=True"

    def eigenvectors():
        lines = graph_mod.spectrum_from_graph(graph).lines
        # a failed trace check leaves no spectrum to compare
        return (
            spectrum is not None and lines == spectrum.lines,
            f"graph spectrum {[(l.eigenvalue, l.multiplicity) for l in lines]}",
        )

    run("eigenvalues-closed-vs-charsum", eigenvalues)
    run("multiplicities-formula-vs-census", multiplicities)
    run("trace-identity", trace)
    # the graph checks stop at the first that does not pass; a cap skips both
    if run("graph-checks" if over_graph else "graph-structure", structure) == "pass":
        run("graph-eigenvectors", eigenvectors)
    return checks


def _cmd_verify(args):
    p, k, modulus = _resolve_field(args)
    q, n = p**k, args.n
    # over both caps every check is skipped or reads only q: build no table
    over_both = _over_cap(q, n * n, max(args.max_enum, args.max_graph))
    ctx = None if over_both else field(p, k, modulus=modulus)
    checks = _verify_checks(p, k, ctx, n, args.max_enum, args.max_graph)
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    tags = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}
    lines = [f"verification, q={q}, n={n}"]
    lines += [f"  [{tags[c['status']]}] {c['name']}: {c['detail']}" for c in checks]
    verdict = None
    if failed:
        lines.append(f"failed at: {failed[0]}")
        verdict = CheckFailedError()
    elif all(c["status"] == "skipped" for c in checks):
        verdict = SizeTooLargeError("no check ran: every check is over a size cap")
    payload = {"q": q, "n": n, "passed": not failed, "checks": checks}
    return payload, lines, verdict


# ---------------------------------------------------------------------------
# charsum


def _cmd_charsum(args):
    if args.rank is not None and args.label_index is not None:
        raise ValueError("give either --rank or --label-index, not both")
    ctx = _resolve_context(args, args.max_enum)
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
            "eigenvalue": spectra.eigenvalue_charsum(label, cap=args.max_enum),
        }
        for label in labels
    ]
    lines = [f"character sums over invertible matrices, q={ctx.q}, n={n}"]
    lines += [f"  label {r['label_index']} (rank {r['rank']}): {r['eigenvalue']}" for r in results]
    return {"q": ctx.q, "n": n, "results": results}, lines, None


# ---------------------------------------------------------------------------
# census


def _cmd_census(args):
    ctx = _resolve_context(args, args.max_enum)
    n, q = args.n, ctx.q
    lines = [f"rank census, q={q}, n={n}"]
    rows: list[dict] = []

    def row(label: str | None, census: int, closed: int, **key) -> dict:
        rows.append({**key, "census": census, "closed_form": closed, "equal": census == closed})
        if label:
            flag = "ok" if census == closed else "MISMATCH"
            lines.append(f"  {label}: census {census}, closed form {closed} [{flag}]")
        return rows[-1]

    census = matrices.rank_census(ctx, n, cap=args.max_enum)
    payload: dict = {"q": q, "n": n}
    payload["ranks"] = [
        row(f"rank {r}", census[r], spectra.rank_count(q, n, r), rank=r) for r in range(n + 1)
    ]
    if n == 3:
        grid = spectra.count_invertible_pinned(ctx, n=n, cap=args.max_enum)
        elements = list(ctx.elements())
        lines.append("invertible counts with pinned (0,0) entry:")
        payload["corner"] = [
            row(
                f"alpha={list(a.coeffs)}",
                sum(grid[a.index]),
                spectra.corner_count_closed_form(q, a.is_zero()),
                alpha=list(a.coeffs),
            )
            for a in elements
        ]
        payload["diag_pairs"] = [
            row(
                None,
                grid[a.index][b.index],
                spectra.diag_pair_count_closed_form(q, a.is_zero(), b.is_zero()),
                alpha=list(a.coeffs),
                beta=list(b.coeffs),
            )
            for a in elements
            for b in elements
        ]
    verdict = None if all(r["equal"] for r in rows) else CheckFailedError()
    return payload, lines, verdict


# ---------------------------------------------------------------------------
# gap


def _read_subset(path: str, ctx: FieldContext, n: int) -> gap_mod.IndexSubset:
    try:
        with open(path, encoding="utf-8") as fh:
            return gap_mod.IndexSubset(ctx, n, matrices.indices_from_index_file(ctx, n, fh))
    except OSError as exc:
        raise ValueError(f"cannot read subset file {path}: {exc}")
    except ValueError as exc:
        raise ValueError(f"bad subset file {path}: {exc}")


def _cmd_gap(args):
    # the options and the sample size are checked before any field table is built
    if args.subset_file:
        if args.random_size is not None:
            raise ValueError("give either --subset-file or --random-size, not both")
        if args.trials is not None or args.seed is not None:
            raise ValueError("give either --subset-file or --trials/--seed, not both")
    elif args.subset_file_y:
        raise ValueError("--subset-file-y needs --subset-file")
    elif args.random_size is None:
        raise ValueError("pass --subset-file or --random-size")
    elif args.random_size < 1:
        raise ValueError("--random-size must be >= 1")
    elif args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be >= 1")
    else:
        gap_mod._require_sample(args.random_size, *_resolve_pk(args), 3)
    ctx = _resolve_context(args)
    n = 3
    reports = []
    if args.subset_file:
        xs = _read_subset(args.subset_file, ctx, n)
        ys = _read_subset(args.subset_file_y, ctx, n) if args.subset_file_y else xs
        reports.append(gap_mod.check_spectral_gap(xs, ys))
    else:
        import random  # here, so that no other subcommand loads it
        for t in range(args.trials or 1):  # --trials 0 was refused above
            trial_seed = (args.seed or 0) + t
            xs, ys = gap_mod._random_pair(ctx, n, args.random_size, random.Random(trial_seed))
            reports.append(gap_mod.check_spectral_gap(xs, ys, seed=trial_seed))

    lines = [
        f"q={r.q} sizes=({r.size_x},{r.size_y}) "
        f"threshold={r.n_star_num}/{r.n_star_den} bound={r.integer_bound} "
        f"guaranteed={r.guaranteed} {'witness found' if r.witness else 'no witness'}"
        + (f" seed={r.seed}" if r.seed is not None else "")
        for r in reports
    ]
    payload = {"q": ctx.q, "n": n, "reports": [r.to_json_dict() for r in reports]}
    return payload, lines, None


# ---------------------------------------------------------------------------
# export-graph


def _cmd_export_graph(args):
    ctx = _resolve_context(args, args.max_graph)
    g = graph_mod.build_graph(ctx, args.n, max_order=args.max_graph)
    if args.output and args.output != "-":
        try:  # a failed open, write or close
            with open(args.output, "w", encoding="utf-8") as fh:
                count = graph_mod.export_edges(g, fh)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}")
        print(f"wrote {count} edges ({g.order} vertices) to {args.output}", file=sys.stderr)
    else:
        graph_mod.export_edges(g, sys.stdout)
    return None, [], None  # the edges are streamed, not a report


# ---------------------------------------------------------------------------
# parser


# (flag, type, default, help) of the options every subcommand takes, then
# of the matrix size and of each cap
_FIELD_OPTIONS = (
    ("--q", int, None, "field order (a prime power)"),
    ("--p", int, None, "field characteristic (alternative to --q)"),
    ("--k", int, None, "extension degree (with --p)"),
    ("--modulus", None, None, "comma-separated modulus coefficients, constant term first"),
)
_N = ("--n", int, 3, "matrix size (default 3)")
_MAX_ENUM = ("--max-enum", int, matrices.DEFAULT_ENUM_CAP,
             "matrix enumeration cap (default %(default)s)")
_MAX_GRAPH = ("--max-graph", int, matrices.DEFAULT_MAX_ORDER,
              "graph order cap (default %(default)s)")

# name, handler, help, --format choices ("" for no --format), options after the field options
_COMMANDS = (
    ("spectrum", _cmd_spectrum, "eigenvalues and multiplicities", "json csv text", (_N,)),
    ("verify", _cmd_verify, "cross-check closed forms against brute force", "json text",
     (_N, _MAX_ENUM, _MAX_GRAPH)),
    ("charsum", _cmd_charsum, "character sums over invertible matrices", "json text", (
        _N, _MAX_ENUM,
        ("--rank", int, None, "use the canonical label of this rank"),
        ("--label-index", int, None, "use the label at this enumeration index"),
    )),
    ("census", _cmd_census, "exhaustive rank and pinned-entry counts", "json text",
     (_N, _MAX_ENUM)),
    ("gap", _cmd_gap, "subset edge-existence reports", "json text", (
        ("--subset-file", None, None, "newline-separated enumeration indices for X"),
        ("--subset-file-y", None, None, "indices for Y (defaults to the X file)"),
        ("--random-size", int, None, "draw random subsets of this size"),
        ("--trials", int, None, "random subset pairs to draw (default 1)"),
        ("--seed", int, None, "base seed; trial t uses seed+t"),
    )),
    ("export-graph", _cmd_export_graph, "write the adjacency edge list", "", (
        _N, _MAX_GRAPH,
        ("--output", None, "-", "output path, or - for stdout"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitgraph",
        description=(
            "Exact spectra and spectral-gap checks for the invertibility "
            "graph on n x n matrices over a finite field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, formats, options in _COMMANDS:
        sp = sub.add_parser(name, help=summary)
        for flag, kind, default, text in _FIELD_OPTIONS + options:
            sp.add_argument(flag, type=kind, default=default, help=text)
        if formats:
            sp.add_argument("--format", choices=tuple(formats.split()), default="text")
        sp.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, verdict = args.func(args)
        if getattr(args, "format", "text") == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        if verdict is not None:
            raise verdict
        return 0
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        _, code, prefix = next(row for row in EXIT_CODES if isinstance(exc, row[0]))
        if str(exc):  # a failure the report shows needs no stderr line
            print(f"{prefix}{exc}", file=sys.stderr)
        return code
    except OSError as exc:
        # stdout failed, as when its reader is gone (``| head``) or its
        # device is full: it now points at devnull, so the interpreter's
        # flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
