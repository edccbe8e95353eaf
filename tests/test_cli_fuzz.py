"""Property test of the CLI contract over drawn invocations.

Whatever the options, the CLI exits 0, 1, 2 or 3 without a traceback; a
usage error or a cap says so in one stderr line; a successful JSON report
parses.  Small caps keep every drawn case fast.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph.cli import _COMMANDS, main

HERE = Path(__file__).parent
EXISTING_SUBSET = str(HERE / "golden" / "my.idx")
MISSING = str(HERE / "no-such-file.txt")

# valid choices are repeated so that most draws get past input checking
FIELDS = [["--q", q] for q in ("2", "2", "3", "3", "4", "5", "8", "9")] + [
    ["--p", "2", "--k", "2"],
    ["--p", "3", "--k", "2"],
    ["--p", "2", "--k", "3"],
    ["--q", "1021"],
    ["--p", "1021"],
    ["--q", "6"],
    ["--q", "1"],
    ["--q", "0"],
    ["--q", "-3"],
    ["--p", "4"],
    ["--p", "2", "--k", "0"],
    ["--p", "5", "--k", "-1"],
    ["--q", "2", "--p", "2"],
    [],
]
MODULI = [[]] * 16 + [
    ["--modulus=1,1,1"],
    ["--modulus=1,1,0,1"],
    ["--modulus=0,1"],
    ["--modulus=-1,1"],
    ["--modulus=1,,1"],
    ["--modulus=x"],
]


def numbers(values):
    return st.sampled_from(values).map(str)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


SIZE_VALUES = {
    "--n": numbers(["1", "2", "2", "3", "3", "4", "0", "-1", "1000"]),
    "--max-enum": st.one_of(st.just(10**4), st.integers(0, 10**4)).map(str),
    "--max-graph": st.one_of(st.just(700), st.integers(0, 700)).map(str),
}
# the size options each subcommand declares, in the order it declares them
SIZE_OPTIONS = {
    name: [flag for flag, *_ in options if flag in SIZE_VALUES]
    for name, _, _, _, options in _COMMANDS
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["spectrum", "verify", "charsum", "census", "gap", "export-graph"]))
    argv = [command] + draw(st.sampled_from(FIELDS)) + draw(st.sampled_from(MODULI))
    for flag in SIZE_OPTIONS[command]:
        argv += [flag, draw(SIZE_VALUES[flag])]
    if command == "charsum":
        argv += draw(optional("--rank", numbers(range(-1, 5))))
        argv += draw(optional("--label-index", numbers(range(-1, 600))))
    if command == "gap":
        argv += draw(
            st.one_of(
                st.sampled_from([EXISTING_SUBSET, MISSING]).map(lambda f: ["--subset-file", f]),
                st.tuples(numbers(range(0, 81)), numbers(range(0, 3))).map(
                    lambda t: ["--random-size", t[0], "--trials", t[1]]
                ),
                st.just(["--subset-file-y", MISSING]),
            )
        )
    formats = {"spectrum": ["json", "csv", "text"], "export-graph": []}.get(command, ["json", "text"])
    if formats:
        argv += ["--format", draw(st.sampled_from(formats))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_cli_contract_holds_for_drawn_invocations(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    if code == 0 and "json" in argv:
        json.loads(out.getvalue())
