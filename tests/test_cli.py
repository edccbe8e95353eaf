"""CLI behavior: output schemas, exit codes, determinism, caps."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from unitgraph import enumerate_matrices, field, gl_order, matrix_to_index
from unitgraph import cli
from unitgraph.cli import main

F2 = field(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 3 and payload["n"] == 3
    assert len(payload["lines"]) == 4
    assert sum(l["multiplicity"] for l in payload["lines"]) == 19683


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,eigenvalue,multiplicity"
    assert lines[1:] == ["0,168,1", "1,-24,49", "2,8,294", "3,-8,168"]


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "2")
    assert code == 0
    assert "rank 3: eigenvalue -8, multiplicity 168" in out


def test_spectrum_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "spectrum", "--q", "6")
    assert code == 2
    assert "not a prime power" in err


def test_spectrum_brute_force_n2(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "2", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [(l["eigenvalue"], l["multiplicity"]) for l in payload["lines"]] == [
        (6, 1),
        (-2, 9),
        (2, 6),
    ]


def test_spectrum_cap_exit(capsys):
    # the spectrum is closed-form at every n; the enumeration cap binds census
    code, out, _ = run(capsys, "spectrum", "--q", "2", "--n", "5")
    assert code == 0 and "(33554432 vertices)" in out
    code, _, err = run(capsys, "census", "--q", "2", "--n", "5")
    assert code == 3
    assert "cap" in err


def test_json_output_is_deterministic(capsys):
    args = ("gap", "--q", "2", "--random-size", "75", "--trials", "2", "--seed", "7", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_q2_passes(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2")
    assert code == 0
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


def test_verify_n2_json(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "graph-eigenvectors" in names


def test_verify_graph_route_passes_when_the_enumeration_is_skipped(capsys):
    # a graph within its cap is still checked when the enumeration cap is lower
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "2", "--max-enum", "10")
    assert code == 0
    assert "[SKIP] eigenvalues-closed-vs-charsum: 16 matrices over cap 10" in out
    assert "[PASS] trace-identity" in out
    assert "[PASS] graph-eigenvectors" in out

def test_verify_reports_graph_route_failures(capsys, monkeypatch):
    from unitgraph import graph as graph_mod
    from unitgraph.errors import EigenvectorMismatchError

    def mismatch(graph, label):
        raise EigenvectorMismatchError("A v != lambda v at vertex 3", coordinate=3)

    monkeypatch.setattr(graph_mod, "verify_eigenvector", mismatch)
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2")
    assert code == 1
    assert "[FAIL] graph-eigenvectors: A v != lambda v at vertex 3\n" in out
    assert out.endswith("failed at: graph-eigenvectors\n")
    assert err == ""

    monkeypatch.setattr(graph_mod, "is_simple", lambda graph: False)
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][-1] == {
        "name": "graph-structure",
        "status": "fail",
        "detail": "freshly built graph failed the simplicity scan",
    }
    assert err == ""


def test_verify_fails_on_one_wrong_transform_eigenvalue(capsys, monkeypatch):
    from unitgraph import graph as graph_mod

    sums = graph_mod._character_sums

    def off_by_one(indicator, p):
        values = sums(indicator, p)
        values[5] += 1
        return values

    monkeypatch.setattr(graph_mod, "_character_sums", off_by_one)
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2")
    assert code == 1 and err == ""
    assert "  [FAIL] graph-eigenvectors: A v != lambda v at vertex 0 for label index 3:" in out
    assert out.endswith("failed at: graph-eigenvectors\n")


def test_verify_reports_an_irrational_transform_entry_as_a_check_failure(capsys, monkeypatch):
    from unitgraph import characters

    transform = characters._transform

    def unequal(indicator, p, width):
        records = bytearray(transform(indicator, p, width))
        records[7 * p * width + width] += 1  # exponent 1 of entry 7
        return bytes(records)

    monkeypatch.setattr(characters, "_transform", unequal)
    code, out, err = run(capsys, "verify", "--q", "3", "--n", "2")
    assert code == 1 and err == ""
    assert out.splitlines()[-2:] == [
        "  [FAIL] graph-eigenvectors: character sum 7 did not collapse to an integer:"
        " exponent counts [12, 19, 18]",
        "failed at: graph-eigenvectors",
    ]


def test_verify_reads_the_closed_forms_at_every_n(capsys, monkeypatch):
    from unitgraph import spectra

    closed_form = spectra.eigenvalue_closed_form
    monkeypatch.setattr(spectra, "eigenvalue_closed_form", lambda *a: closed_form(*a) + 1)
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2")
    assert code == 1 and err == ""
    assert "  [FAIL] eigenvalues-closed-vs-charsum: rank 0: closed 7 != charsum 6;" in out
    assert "  [FAIL] graph-eigenvectors: graph spectrum [(6, 1), (-2, 9), (2, 6)]\n" in out
    assert out.endswith("failed at: eigenvalues-closed-vs-charsum\n")


def test_prime_field_past_byte_exponents(capsys):
    # p = 257: the trace exponents no longer fit a byte
    code, out, _ = run(capsys, "spectrum", "--q", "257", "--n", "1")
    assert code == 0
    assert out.splitlines()[1:] == [
        "  rank 0: eigenvalue 256, multiplicity 1",
        "  rank 1: eigenvalue -1, multiplicity 256",
    ]
    code, out, _ = run(capsys, "charsum", "--q", "257", "--n", "1", "--format", "json")
    assert code == 0
    assert [r["eigenvalue"] for r in json.loads(out)["results"]] == [256, -1]


def test_verify_past_byte_exponents_skips_the_graph_eigenvectors(capsys):
    code, out, _ = run(capsys, "verify", "--q", "257", "--n", "1")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "  [PASS] graph-structure: 257 vertices, degree 256, simple=True",
        "  [SKIP] graph-eigenvectors: eigenvector checks at p = 257 are past the byte-exponent"
        " limit p <= 256",
    ]


def test_charsum_all_ranks(capsys):
    code, out, _ = run(capsys, "charsum", "--q", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["eigenvalue"] for r in payload["results"]] == [168, -24, 8, -8]


def test_charsum_by_label_index(capsys):
    # index 511 is the all-ones matrix over F_2: rank 1, eigenvalue -24
    code, out, _ = run(capsys, "charsum", "--q", "2", "--label-index", "511", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == [{"label_index": 511, "rank": 1, "eigenvalue": -24}]


def test_census_q2(capsys):
    code, out, _ = run(capsys, "census", "--q", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["census"] for r in payload["ranks"]] == [1, 49, 294, 168]
    assert all(r["equal"] for r in payload["ranks"])
    corner = {tuple(r["alpha"]): r["census"] for r in payload["corner"]}
    assert corner[(0,)] == 72 and corner[(1,)] == 96
    assert all(r["equal"] for r in payload["corner"])
    assert all(r["equal"] for r in payload["diag_pairs"])


def test_gap_random_reports(capsys):
    code, out, _ = run(
        capsys, "gap", "--q", "2", "--random-size", "75", "--trials", "3", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 3
    for i, rep in enumerate(payload["reports"]):
        assert rep["guaranteed"] is True
        assert rep["witness"] is not None
        assert rep["seed"] == 7 + i


def test_gap_subset_file_negative_control(capsys, tmp_path):
    idx_file = tmp_path / "zero_row.idx"
    indices = [
        matrix_to_index(m)
        for m in enumerate_matrices(F2, 3)
        if all(d == 0 for d in m.flat[6:])
    ]
    idx_file.write_text("\n".join(str(i) for i in indices) + "\n")
    code, out, _ = run(capsys, "gap", "--q", "2", "--subset-file", str(idx_file), "--format", "json")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["set_sizes"] == [64, 64]
    assert rep["guaranteed"] is False
    assert rep["witness"] is None


def test_gap_bad_subset_file(capsys, tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_text("7\nnot-a-number\n")
    code, _, err = run(capsys, "gap", "--q", "2", "--subset-file", str(bad))
    assert code == 2
    assert "bad subset file" in err


@pytest.mark.parametrize("index", ["512", "-1"])
def test_gap_subset_file_index_out_of_range(capsys, tmp_path, index):
    bad = tmp_path / "bad.idx"
    bad.write_text(f"7\n{index}\n")
    code, out, err = run(capsys, "gap", "--q", "2", "--subset-file", str(bad))
    assert code == 2 and out == ""
    assert "bad subset file" in err and "line 2" in err and len(err.splitlines()) == 1


def test_gap_cli_index_path_matches_the_list_path(capsys):
    # the CLI scans the views random_subset draws; plain lists of the same
    # matrices must give the same reports
    from unitgraph import check_spectral_gap, field_of_order, random_subset

    code, out, _ = run(
        capsys, "gap", "--q", "3", "--random-size", "759", "--trials", "5", "--seed", "2",
        "--format", "json",
    )
    assert code == 0
    ctx, reports = field_of_order(3), []
    for seed in range(2, 7):
        rng = random.Random(seed)
        xs, ys = list(random_subset(ctx, 3, 759, rng)), list(random_subset(ctx, 3, 759, rng))
        reports.append(check_spectral_gap(xs, ys, seed=seed).to_json_dict())
    assert json.loads(out) == {"q": 3, "n": 3, "reports": reports}


def test_gap_cli_draws_through_random_subset(capsys, monkeypatch):
    # X through random_subset, read in full; Y from the same trial generator,
    # drawn only as far as the scan reads it
    from unitgraph import gap as gap_mod

    draws, samples = [], []
    draw, sample = gap_mod.random_subset, gap_mod._lazy_sample

    def spy(*args):
        draws.append(args)
        return draw(*args)

    def sample_spy(rng, total, k):
        samples.append((rng, sample(rng, total, k)))
        return samples[-1][1]

    monkeypatch.setattr(gap_mod, "random_subset", spy)
    monkeypatch.setattr(gap_mod, "_lazy_sample", sample_spy)
    code, out, _ = run(capsys, "gap", "--q", "2", "--random-size", "75", "--trials", "3")
    assert code == 0 and len(out.splitlines()) == 3
    assert len(draws) == 3 and len(samples) == 6  # X of each trial; X and Y
    for (_, _, _, rng), (x_rng, _), (y_rng, ys) in zip(draws, samples[::2], samples[1::2]):
        assert x_rng is y_rng is rng
        assert type(ys) is gap_mod._LazySample and len(ys) == 75 and len(ys._picks) < 75


def _gap_reports_of_sampled_lists(q, size, seeds):
    """The reports of check_spectral_gap on matrix lists from two
    rng.sample draws per seed, and the witness positions (i, j)."""
    from unitgraph import check_spectral_gap, field_of_order, matrix_from_index

    ctx, reports, hits = field_of_order(q), [], []
    for seed in seeds:
        rng = random.Random(seed)
        xs, ys = ([matrix_from_index(ctx, 3, i) for i in rng.sample(range(q**9), size)]
                  for _ in "xy")
        report = check_spectral_gap(xs, ys, seed=seed)
        reports.append(report.to_json_dict())
        if report.witness:
            a, b = report.witness
            hits.append((next(i for i, m in enumerate(xs) if m is a),
                         next(j for j, m in enumerate(ys) if m is b)))
    return reports, hits


@pytest.mark.parametrize("size, trials", [(2, 60), (12, 40)])
def test_gap_cli_random_reports_match_sampled_lists(capsys, size, trials):
    # Y is drawn only as far as the scan reads it: at size 2, 16 trials read
    # Y in full and find nothing, and 18 read it for a later a; at size 12,
    # 3 witnesses lie past Y's first 8 matrices
    code, out, _ = run(capsys, "gap", "--q", "2", "--random-size", str(size),
                       "--trials", str(trials), "--seed", "1", "--format", "json")
    assert code == 0
    reports, hits = _gap_reports_of_sampled_lists(2, size, range(1, trials + 1))
    assert json.loads(out) == {"q": 2, "n": 3, "reports": reports}
    late = (trials - len(hits), sum(i >= 1 for i, _ in hits), sum(j >= 8 for _, j in hits))
    assert late == {2: (16, 18, 0), 12: (0, 0, 3)}[size]


@pytest.mark.parametrize("size, trials", [(50, 3), (117995, 1)])
def test_gap_cli_pairwise_reports_match_sampled_lists(capsys, size, trials):
    # at q = 7 a row (343 values) is past a byte: the pairwise route reads a drawn Y,
    # and 117995 is the least size the bound 117994 guarantees
    code, out, _ = run(capsys, "gap", "--q", "7", "--random-size", str(size),
                       "--trials", str(trials), "--seed", "1", "--format", "json")
    assert code == 0
    reports, _ = _gap_reports_of_sampled_lists(7, size, range(1, trials + 1))
    assert json.loads(out) == {"q": 7, "n": 3, "reports": reports}
    assert reports[0]["guaranteed"] is (size == 117995)


def test_gap_cli_random_query_trips_the_theorem_check(capsys, monkeypatch):
    # a guaranteed random query whose scan finds nothing is a violation
    from unitgraph import gap as gap_mod

    monkeypatch.setattr(gap_mod, "_table_scan", lambda *args: None)
    code, out, err = run(capsys, "gap", "--q", "2", "--random-size", "75", "--trials", "3")
    assert code == 1 and out == ""
    assert err.startswith("THEOREM VIOLATION: ") and len(err.splitlines()) == 1


def test_gap_requires_input(capsys):
    code, _, err = run(capsys, "gap", "--q", "2")
    assert code == 2
    assert "--subset-file or --random-size" in err


def test_export_graph(capsys, tmp_path):
    out_path = tmp_path / "edges.txt"
    code, _, err = run(capsys, "export-graph", "--q", "2", "--n", "2", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 48  # 16 vertices of degree 6
    i, j = map(int, lines[0].split())
    assert 0 <= i < j < 16


def test_export_graph_stdout(capsys):
    code, out, _ = run(capsys, "export-graph", "--q", "2", "--n", "2")
    assert code == 0
    assert len(out.splitlines()) == 48


def test_field_option_validation(capsys):
    code, _, err = run(capsys, "charsum")
    assert code == 2
    assert "--q or --p" in err
    code, _, err = run(capsys, "charsum", "--q", "4", "--p", "2", "--k", "2")
    assert code == 2


def test_spectrum_rejects_non_prime_p(capsys):
    for argv in (["--p", "6", "--k", "2"], ["--p", "4"], ["--p", "4", "--n", "2"]):
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == 2, argv
        assert out == ""
        assert "not a prime" in err and len(err.splitlines()) == 1


def test_modulus_file_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "4", "--n", "1", "--modulus-file", "moduli.txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modulus-file" in capsys.readouterr().err


# (subcommand, cap flag) of every cap a subcommand declares
DECLARED_CAPS = [
    (name, flag)
    for name, _, _, _, options in cli._COMMANDS
    for flag, *_ in options
    if flag in ("--max-enum", "--max-graph")
]


@pytest.mark.parametrize("command, flag", DECLARED_CAPS)
def test_every_declared_cap_can_stop_its_subcommand(capsys, command, flag):
    code, out, err = run(capsys, command, "--q", "2", "--n", "2", flag, "1")
    if command != "verify":
        assert code == 3 and out == ""
        assert err == "error: 2^4 matrices exceed the cap 1\n"
        return
    assert code == 0 and err == ""
    skipped = {line.split()[1].rstrip(":") for line in out.splitlines() if "[SKIP]" in line}
    assert skipped == {
        "--max-enum": {"eigenvalues-closed-vs-charsum", "multiplicities-formula-vs-census"},
        "--max-graph": {"graph-checks"},
    }[flag]


@pytest.mark.parametrize("command, flag", DECLARED_CAPS)
def test_a_negative_cap_is_a_usage_error_before_field_tables(capsys, monkeypatch, command, flag):
    from unitgraph import fields

    def no_tables(self):
        raise AssertionError("field tables built for a usage error")

    monkeypatch.setattr(fields, "_cached_context", fields.FieldContext)
    monkeypatch.setattr(fields.FieldContext, "_build_tables", no_tables)
    code, out, err = run(capsys, command, "--q", "2", "--n", "2", flag, "-1")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "command, flag",
    [
        ("spectrum", "--max-enum"),
        ("spectrum", "--max-graph"),
        ("charsum", "--max-graph"),
        ("census", "--max-graph"),
        ("export-graph", "--max-enum"),
    ],
)
def test_cap_option_a_subcommand_does_not_read_is_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "2", "--n", "2", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_modulus_of_any_degree_under_the_table_limit(capsys):
    for argv in (["--q", "32", "--modulus", "1,0,1,0,0,1"],
                 ["--q", "64", "--modulus", "1,1,0,0,0,0,1"],
                 ["--q", "243", "--modulus", "1,2,0,0,0,1"]):
        code, out, _ = run(capsys, "verify", "--n", "1", *argv, "--format", "json")
        assert code == 0, argv
        assert [c["status"] for c in json.loads(out)["checks"]] == ["pass"] * 5, argv
    code, out, _ = run(capsys, "spectrum", "--q", "32", "--n", "2", "--modulus", "1,0,1,0,0,1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1014816,1", "1,-992,33759", "2,32,1014816"]
    code, out, err = run(capsys, "spectrum", "--q", "32", "--n", "2", "--modulus", "1,1,0,0,0,1")
    assert code == 2 and out == ""
    assert err == "error: modulus [1, 1, 0, 0, 0, 1] is divisible by [1, 1, 1] over F_2\n"


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("value", ["", "1,,1", "1,a", "1,0,1,"])
def test_malformed_modulus_is_a_usage_error_naming_the_flag(capsys, command, value):
    # an empty value is not "no modulus": it must not fall back to the default
    code, out, err = run(capsys, command, "--q", "9", "--n", "1", "--modulus", value)
    assert code == 2 and out == ""
    assert err == f"error: --modulus {value!r} is not a comma-separated list of integers\n"


def test_modulus_past_the_table_limit_hits_a_cap(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--p", "2", "--k", "40",
                         "--modulus", ",".join(["1"] * 40 + ["1"]))
    assert code == 3 and out == ""
    assert err == f"error: field order {2**40} exceeds the table limit 4096\n"
    assert time.perf_counter() - start < 1


def test_every_extension_order_under_the_table_limit_has_a_default(capsys):
    code, out, err = run(capsys, "verify", "--p", "7", "--k", "2", "--n", "1")
    assert code == 0 and err == "" and "[PASS] graph-eigenvectors" in out
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--p", "2", "--k", "13", "--n", "1")
    assert code == 3 and out == ""
    assert err == "error: field order 8192 exceeds the table limit 4096\n"
    assert time.perf_counter() - start < 1


def test_spectrum_past_the_digit_limit_hits_a_cap(capsys):
    # (2^1587)^9 has 4300 digits, Python's default limit; (2^1588)^9 has 4303
    for fmt in ("json", "csv", "text"):
        code, out, err = run(capsys, "spectrum", "--p", "2", "--k", "1587", "--format", fmt)
        assert code == 0 and err == "" and str(gl_order(2**1587, 3)) in out  # rank-0 eigenvalue
        code, out, err = run(capsys, "spectrum", "--p", "2", "--k", "1588", "--format", fmt)
        assert code == 3 and out == ""
        assert err == (
            "error: 2^14292 vertices: the report's numbers exceed Python's limit for "
            "integer string conversion\n"
        )


def test_unwritable_export_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x"
    code, _, err = run(capsys, "export-graph", "--q", "2", "--n", "2", "--output", str(target))
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_export_write_is_one_line(capsys):
    # the edges fit the write buffer, so the write fails when the file closes
    code, out, err = run(capsys, "export-graph", "--q", "2", "--n", "2", "--output", "/dev/full")
    assert code == 2 and out == ""
    assert err == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["spectrum", "--q", "2"], ["export-graph", "--q", "2", "--n", "2"]]
)
def test_a_full_stdout_is_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "unitgraph.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: [Errno 28] No space left on device\n"


def test_export_to_a_closed_stdout_ends_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "unitgraph.cli", "export-graph", "--q", "2", "--n", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert proc.stdout.readline() == b"0 84\n"
    proc.stdout.close()  # 43008 edges do not fit the pipe, so the writer sees it closed
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_gap_empty_subset_file_reaches_the_library(capsys, tmp_path):
    empty = tmp_path / "empty.idx"
    empty.write_text("# no indices\n")
    code, out, err = run(capsys, "gap", "--q", "2", "--subset-file", str(empty))
    assert code == 2
    assert out == "" and err == "error: subsets must be nonempty\n"


def test_gap_random_subsets_past_the_sampler_limit_hit_a_cap(capsys):
    # 131^9 > sys.maxsize: random.sample cannot take len() of the index range
    code, out, err = run(capsys, "gap", "--q", "131", "--random-size", "5")
    assert code == 3
    assert out == "" and "cannot sample from" in err and len(err.splitlines()) == 1

def test_gap_rejects_repeated_matrices(capsys, tmp_path):
    # 75 copies of one matrix clear the size bound but are one matrix, not 75
    dup = tmp_path / "dup.idx"
    dup.write_text("0\n" * 75)
    code, out, err = run(capsys, "gap", "--q", "2", "--subset-file", str(dup))
    assert code == 2
    assert out == ""
    assert "lists a matrix twice" in err and len(err.splitlines()) == 1
    assert "THEOREM VIOLATION" not in err


def test_gap_subset_file_y_needs_subset_file(capsys, tmp_path):
    missing = tmp_path / "no-such.idx"
    code, out, err = run(
        capsys, "gap", "--q", "2", "--subset-file-y", str(missing), "--random-size", "75"
    )
    assert code == 2
    assert out == ""
    assert "--subset-file-y needs --subset-file" in err and len(err.splitlines()) == 1


def test_spectrum_n3_validates_modulus_options(capsys):
    for n in ("2", "3"):
        code, out, err = run(capsys, "spectrum", "--q", "4", "--n", n, "--modulus", "1,1,1,1")
        assert code == 2, n
        assert out == "" and len(err.splitlines()) == 1
    # a valid modulus leaves the closed forms as they are
    _, plain, _ = run(capsys, "spectrum", "--q", "4", "--format", "json")
    code, out, _ = run(capsys, "spectrum", "--q", "4", "--modulus", "1,1,1", "--format", "json")
    assert code == 0 and out == plain



def test_verify_reports_inexact_division_as_failures(capsys, monkeypatch):
    from unitgraph import spectra
    from unitgraph.errors import InexactDivisionError

    def inexact(q, n, r):
        raise InexactDivisionError(f"rank count division left remainder 1 (q={q}, n={n}, r={r})")

    monkeypatch.setattr(spectra, "rank_count", inexact)
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2")
    assert code == 1
    assert "[FAIL] multiplicities-formula-vs-census: rank count division left remainder 1" in out
    assert "[FAIL] trace-identity: rank count division left remainder 1" in out
    assert "[FAIL] graph-eigenvectors: graph spectrum" in out  # no spectrum to compare with
    assert out.endswith("failed at: multiplicities-formula-vs-census\n")
    assert err == ""


def test_verify_reports_failed_validation_as_a_check_failure(capsys, monkeypatch):
    from unitgraph import spectra

    monkeypatch.setattr(spectra, "trace_identity_holds", lambda spectrum: False)
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["trace-identity"] == {
        "name": "trace-identity",
        "status": "fail",
        "detail": "weighted eigenvalue sum is nonzero",
    }
    assert checks["graph-eigenvectors"]["status"] == "fail"
    assert err == ""


def test_charsum_not_rational_is_a_check_failure(capsys, monkeypatch):
    from unitgraph import Cyclotomic
    from unitgraph.errors import NotRationalError

    def not_rational(self):
        raise NotRationalError("character sum did not collapse to an integer")

    monkeypatch.setattr(Cyclotomic, "to_int", not_rational)
    code, out, err = run(capsys, "charsum", "--q", "3", "--n", "2", "--rank", "1")
    assert code == 1
    assert out == ""
    assert err == "check failed: character sum did not collapse to an integer\n"


@pytest.mark.parametrize("command", ["spectrum", "verify", "charsum", "census", "export-graph"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_nonpositive_n_is_a_usage_error(capsys, command, n):
    code, out, err = run(capsys, command, "--q", "2", "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: --n must be >= 1, got {n}\n"


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--n", "3"], ["spectrum", "--n", "1"], ["verify"], ["gap", "--random-size", "3"]],
)
@pytest.mark.parametrize("k", ["0", "-1"])
def test_nonpositive_k_is_a_usage_error(capsys, argv, k):
    code, out, err = run(capsys, *argv, "--p", "5", "--k", k)
    assert code == 2
    assert out == ""
    assert err == f"error: extension degree must be >= 1, got {k}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["charsum", "--p", "1021", "--n", "2"],
        ["census", "--p", "1021", "--n", "2"],
        ["export-graph", "--p", "1021", "--n", "2"],
    ],
)
def test_size_cap_is_checked_before_field_tables(capsys, monkeypatch, argv):
    from unitgraph import fields

    def no_tables(self):
        raise AssertionError("field tables built for an over-cap request")

    monkeypatch.setattr(fields, "_cached_context", fields.FieldContext)
    monkeypatch.setattr(fields.FieldContext, "_build_tables", no_tables)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "cap" in err and len(err.splitlines()) == 1
    # a bad field is still a usage error, whatever the size
    code, _, err = run(capsys, argv[0], "--q", "1022", "--n", "2")
    assert code == 2
    assert "not a prime power" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--subset-file-y", "missing.idx"], "--subset-file-y needs --subset-file"),
        ([], "pass --subset-file or --random-size"),
        (["--random-size", "5", "--trials", "0"], "--trials must be >= 1"),
        (["--random-size", "0"], "--random-size must be >= 1"),
        (["--random-size", "-3", "--trials", "0"], "--random-size must be >= 1"),
        (
            ["--random-size", str(1021**9 + 1)],
            f"cannot sample {1021**9 + 1} distinct matrices from {1021**9}",
        ),
    ],
)
def test_gap_options_are_checked_before_field_tables(capsys, monkeypatch, extra, message):
    from unitgraph import fields

    def no_tables(self):
        raise AssertionError("field tables built for a usage error")

    monkeypatch.setattr(fields, "_cached_context", fields.FieldContext)
    monkeypatch.setattr(fields.FieldContext, "_build_tables", no_tables)
    code, out, err = run(capsys, "gap", "--p", "1021", *extra)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_gap_sampler_limit_is_checked_before_field_tables(capsys, monkeypatch):
    from unitgraph import fields

    def no_tables(self):
        raise AssertionError("field tables built for a sample past the sampler's limit")

    monkeypatch.setattr(fields, "_cached_context", fields.FieldContext)
    monkeypatch.setattr(fields.FieldContext, "_build_tables", no_tables)
    code, out, err = run(capsys, "gap", "--p", "1021", "--random-size", "5")
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and "cannot sample from" in err


@pytest.mark.parametrize(
    "argv, q",
    [
        (["--q", "1000000000000000003"], 10**18 + 3),
        (["--p", "1000000000000000003"], 10**18 + 3),
        (["--q", "1000000000078000000001521"], (10**12 + 39) ** 2),
        (["--p", "1021", "--n", "2"], 1021),  # over the enumeration cap, which spectrum ignores
    ],
)
def test_spectrum_of_a_large_field_needs_only_p_and_k(capsys, monkeypatch, argv, q):
    from unitgraph import fields

    def no_tables(self):
        raise AssertionError("field tables built for a closed-form spectrum")

    monkeypatch.setattr(fields, "_cached_context", fields.FieldContext)
    monkeypatch.setattr(fields.FieldContext, "_build_tables", no_tables)
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", *argv, "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out)["q"] == q


def test_primality_past_the_exact_bound_is_a_size_cap(capsys):
    code, out, err = run(capsys, "spectrum", "--q", "3317044064679887385961987")
    assert code == 3 and out == ""
    assert err == "error: primality past 3317044064679887385961981 is not decided exactly\n"


@pytest.mark.parametrize("q", ["2", "6"])  # at q = 6 the field would be the error
@pytest.mark.parametrize(
    "argv, message",
    [
        (["charsum", "--rank", "1", "--label-index", "511"], "--rank or --label-index"),
        (
            ["gap", "--subset-file", str(Path(__file__).parent / "golden" / "my.idx"),
             "--random-size", "5"],
            "--subset-file or --random-size",
        ),
        (
            ["gap", "--subset-file", str(Path(__file__).parent / "golden" / "my.idx"),
             "--trials", "5", "--seed", "3"],
            "--subset-file or --trials/--seed",
        ),
        (
            ["gap", "--subset-file", str(Path(__file__).parent / "golden" / "my.idx"),
             "--seed", "0"],
            "--subset-file or --trials/--seed",
        ),
        (["spectrum", "--k", "2"], "--q or --p/--k"),
        (["verify", "--k", "2"], "--q or --p/--k"),
        (["gap", "--random-size", "5", "--k", "2"], "--q or --p/--k"),
    ],
    ids=["charsum", "gap", "gap-trials", "gap-seed", "spectrum-k", "verify-k", "gap-k"],
)
def test_conflicting_options_are_usage_errors_before_the_field(capsys, argv, q, message):
    code, out, err = run(capsys, *argv, "--q", q)
    assert code == 2
    assert out == "" and err == f"error: give either {message}, not both\n"


def test_verify_scans_simplicity_once(capsys, monkeypatch):
    # build_graph runs the scan; the structure check reads its result
    from unitgraph import graph as graph_mod

    calls = []
    scan = graph_mod.is_simple
    monkeypatch.setattr(graph_mod, "is_simple", lambda graph: calls.append(1) or scan(graph))
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "2")
    assert code == 0
    assert "[PASS] graph-structure: 16 vertices, degree 6, simple=True" in out
    assert len(calls) == 1


def test_verify_with_every_check_skipped_exits_3(capsys):
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "1000", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [c["status"] for c in payload["checks"]] == ["skipped"] * 4
    assert len(err.splitlines()) == 1 and "no check ran" in err
    # over both caps the closed-form trace check still runs
    code, out, err = run(capsys, "verify", "--p", "509", "--n", "2", "--format", "json")
    assert code == 0 and err == ""
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses.pop("trace-identity") == "pass"
    assert set(statuses.values()) == {"skipped"}
    # skipping only the graph checks still passes
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "2", "--max-graph", "10")
    assert code == 0 and err == ""
    assert "[SKIP] graph-checks" in out


def test_verify_decides_an_all_skip_report_before_field_tables(capsys, monkeypatch):
    from unitgraph import fields

    def no_tables(self):
        raise AssertionError("field tables built for a verify that runs no check")

    monkeypatch.setattr(fields, "_cached_context", fields.FieldContext)
    monkeypatch.setattr(fields.FieldContext, "_build_tables", no_tables)
    code, out, err = run(capsys, "verify", "--p", "4093", "--n", "1000")
    assert code == 3
    assert out == (
        "verification, q=4093, n=1000\n"
        "  [SKIP] eigenvalues-closed-vs-charsum: 4093^1000000 matrices over cap 16777216\n"
        "  [SKIP] multiplicities-formula-vs-census: 4093^1000000 matrices over cap 16777216\n"
        "  [SKIP] trace-identity: 4093^1000000 vertices: the report's numbers exceed Python's"
        " limit for integer string conversion\n"
        "  [SKIP] graph-checks: order 4093^1000000 over graph cap 4096\n"
    )
    assert err == "error: no check ran: every check is over a size cap\n"
    code, out, err = run(capsys, "verify", "--p", "4093", "--n", "2")
    assert code == 0 and err == ""  # the trace check runs on closed forms alone
    assert "  [PASS] trace-identity: weighted eigenvalue sum = 0\n" in out
    code, out, _ = run(capsys, "verify", "--p", "7", "--k", "2", "--modulus", "1,0,1", "--format", "json")
    assert code == 0
    assert [c["status"] for c in json.loads(out)["checks"]] == ["skipped"] * 2 + ["pass", "skipped"]
    # the field options are still checked in full
    for extra, message in (
        (["--modulus", "1,2"], "placeholder modulus"),
        (["--k", "2", "--modulus", "1,1,1"], "has root"),
    ):
        code, out, err = run(capsys, "verify", "--p", "7", "--n", "9", *extra)
        assert code == 2 and out == "" and message in err
    code, _, err = run(capsys, "verify", "--p", "4099", "--n", "2")
    assert code == 3 and "exceeds the table limit" in err


def test_a_huge_n_hits_the_caps_at_once(capsys):
    # q^(n^2) is far past every cap: it is neither built nor printed in decimal
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "1000")
    assert code == 3
    assert out == (
        "verification, q=2, n=1000\n"
        "  [SKIP] eigenvalues-closed-vs-charsum: 2^1000000 matrices over cap 16777216\n"
        "  [SKIP] multiplicities-formula-vs-census: 2^1000000 matrices over cap 16777216\n"
        "  [SKIP] trace-identity: 2^1000000 vertices: the report's numbers exceed Python's limit"
        " for integer string conversion\n"
        "  [SKIP] graph-checks: order 2^1000000 over graph cap 4096\n"
    )
    assert err == "error: no check ran: every check is over a size cap\n"
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--q", "3", "--n", "3000")
    assert code == 3 and out == ""
    assert err == (
        "error: 3^9000000 vertices: the report's numbers exceed Python's limit for integer"
        " string conversion\n"
    )
    for command, cap in (("census", 16777216), ("charsum", 16777216), ("export-graph", 4096)):
        code, out, err = run(capsys, command, "--q", "3", "--n", "3000")
        assert code == 3 and out == ""
        assert err == f"error: 3^9000000 matrices exceed the cap {cap}\n"
    code, out, _ = run(capsys, "verify", "--q", "3", "--n", "6000")
    assert code == 3 and out.count(" 3^36000000 ") == 4
    assert time.perf_counter() - start < 2  # building 3^9000000 alone takes seconds


def test_cap_comparison_and_printed_count_match_the_power():
    from unitgraph.cli import _over_cap, _power

    for q in (2, 3, 4, 7, 8, 9, 4093):
        for e in range(12):
            for cap in (-(q**e), -1, 0, 1, q**e - 1, q**e, q**e + 1, 4096, 2**24):
                assert _over_cap(q, e, cap) == (q**e > cap), (q, e, cap)
    for q, e in ((2, 14161), (2, 14300), (3, 8934), (3, 9100), (4093, 25), (5, 6)):
        try:
            decimal = str(q**e)
        except ValueError:  # over the interpreter's int-to-str digit limit
            decimal = f"{q}^{e}"
        assert _power(q, e) == decimal


GOLDEN = Path(__file__).parent / "golden"

# stdout of the README examples (plus JSON reports: gap_q3_random.json pins the
# seeded draws through their witnesses, gap_q2_random_reads.json pins witnesses
# past Y's first 8 matrices; verify_q3_n2.txt and verify_q5_n2.json pin the
# odd-p graph route); these bytes are part of the CLI contract, so any
# difference is a regression
GOLDEN_RUNS = {
    "spectrum_q2.txt": ["spectrum", "--q", "2"],
    "spectrum_q3.json": ["spectrum", "--q", "3", "--format", "json"],
    "spectrum_q2_n2.txt": ["spectrum", "--q", "2", "--n", "2"],
    "verify_q2.txt": ["verify", "--q", "2"],
    "verify_q4.txt": ["verify", "--q", "4"],
    "verify_q2_n2.txt": ["verify", "--q", "2", "--n", "2"],
    "verify_q3_n2.txt": ["verify", "--q", "3", "--n", "2"],
    "verify_q5_n2.json": ["verify", "--q", "5", "--n", "2", "--format", "json"],
    "charsum_q2_rank1.txt": ["charsum", "--q", "2", "--rank", "1"],
    "charsum_q2_label511.txt": ["charsum", "--q", "2", "--label-index", "511"],
    "census_q2.txt": ["census", "--q", "2"],
    "gap_q2_random.txt": ["gap", "--q", "2", "--random-size", "75", "--trials", "1000", "--seed", "7"],
    "gap_q2_subset.txt": ["gap", "--q", "2", "--subset-file", str(GOLDEN / "my.idx")],
    "gap_q3_random.json": [
        "gap", "--q", "3", "--random-size", "759", "--trials", "3", "--seed", "2", "--format", "json"
    ],
    "gap_q2_random_reads.json": [
        "gap", "--q", "2", "--random-size", "12", "--trials", "40", "--seed", "1", "--format", "json"
    ],
    "export_graph_q2_n2.txt": ["export-graph", "--q", "2", "--n", "2"],
    "census_q3.json": ["census", "--q", "3", "--format", "json"],
    "charsum_q3.json": ["charsum", "--q", "3", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_stdout(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
