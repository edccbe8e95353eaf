"""Start-up loads only what runs, and the package namespace is the same as
when ``import unitgraph`` executed every module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitgraph

SRC = Path(__file__).parents[1] / "src"

# Run with -S, so the interpreter's own start-up loads neither typing nor
# dataclasses.  A module counts as loaded once it has been executed; the
# package registers its library modules up front as lazy placeholders.
PROBE = """
import atexit, runpy, sys, types
bare = set(sys.modules)
atexit.register(lambda: print(*sorted(
    k for k, m in sys.modules.items() if k not in bare and type(m) is types.ModuleType
), file=sys.stderr))
"""


def _loaded(code: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE + code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return set(proc.stderr.splitlines()[-1].split())


def _cli(*argv: str) -> str:
    return (
        f"sys.argv = ['unitgraph', *{list(argv)!r}]\n"
        "runpy.run_module('unitgraph.cli', run_name='__main__', alter_sys=True)"
    )


@pytest.mark.parametrize(
    "code, present, absent",
    [
        (
            "import unitgraph; unitgraph.field_of_order(5)",
            {"unitgraph.fields"},
            {"dataclasses", "typing", "unitgraph.matrices", "unitgraph.graph", "unitgraph.gap"},
        ),
        (
            _cli("census", "--q", "2", "--n", "2"),
            {"unitgraph.matrices", "unitgraph.spectra"},
            {"dataclasses", "typing", "random", "unitgraph.graph", "unitgraph.gap"},
        ),
        (
            _cli("charsum", "--q", "2", "--n", "2"),
            {"unitgraph.spectra"},
            {"dataclasses", "unitgraph.graph", "unitgraph.gap"},
        ),
        (
            _cli("verify", "--q", "2", "--n", "2"),
            {"unitgraph.graph"},
            {"dataclasses", "unitgraph.gap", "fractions"},
        ),
        (
            _cli("gap", "--q", "2", "--random-size", "3", "--seed", "1"),
            {"unitgraph.gap", "unitgraph.spectra"},
            {"dataclasses", "unitgraph.graph", "unitgraph.characters", "unitgraph.cyclotomic"},
        ),
    ],
    ids=["import", "census", "charsum", "verify", "gap"],
)
def test_a_start_loads_only_the_modules_it_runs(code, present, absent):
    loaded = _loaded(code)
    assert present <= loaded
    assert not absent & loaded


# the names the package exported when it imported every module, by module
EXPORTS = {
    "Cyclotomic": "cyclotomic",
    **dict.fromkeys(
        [
            "CheckFailedError", "ContextMismatchError", "EigenvectorMismatchError",
            "InexactDivisionError", "NonPrimeError", "NotRationalError",
            "ReducibleModulusError", "SizeTooLargeError", "TheoremViolationError",
        ],
        "errors",
    ),
    **dict.fromkeys(
        ["FieldContext", "FieldElement", "field", "field_of_order", "prime_power"], "fields"
    ),
    **dict.fromkeys(
        ["char_exponents", "char_vector", "field_char", "matrix_char", "matrix_trace_exponent"],
        "characters",
    ),
    **dict.fromkeys(
        [
            "Matrix", "enumerate_invertible", "enumerate_matrices", "gl_order", "matrix_count",
            "matrix_from_index", "matrix_to_index", "rank_census", "rank_representative",
        ],
        "matrices",
    ),
    **dict.fromkeys(
        [
            "Spectrum", "SpectrumLine", "corner_count_closed_form", "count_invertible_pinned",
            "diag_pair_count_closed_form", "eigenvalue_charsum", "eigenvalue_charsum_rank",
            "eigenvalue_closed_form", "rank_count", "spectrum_brute_force",
            "spectrum_closed_form", "trace_identity_holds",
        ],
        "spectra",
    ),
    **dict.fromkeys(
        [
            "CayleyGraph", "build_graph", "export_edges", "is_simple", "spectrum_from_graph",
            "verify_eigenvector",
        ],
        "graph",
    ),
    **dict.fromkeys(
        [
            "GapReport", "GapThreshold", "check_spectral_gap", "find_invertible_difference",
            "max_nontrivial_eigenvalue", "random_subset", "spectral_threshold",
        ],
        "gap",
    ),
}


def test_the_public_names_are_unchanged():
    assert len(EXPORTS) == 54
    assert unitgraph.__all__ == list(EXPORTS)
    assert unitgraph.__version__ == "0.1.0"
    assert set(EXPORTS) | {"__version__"} <= set(dir(unitgraph))
    star: dict = {}
    exec("from unitgraph import *", star)
    assert set(star) - {"__builtins__"} == set(EXPORTS)
    for name, module in EXPORTS.items():
        defined = getattr(importlib.import_module(f"unitgraph.{module}"), name)
        assert getattr(unitgraph, name) is defined and star[name] is defined, name
        imported: dict = {}
        exec(f"from unitgraph import {name}", imported)
        assert imported[name] is defined, name
        # the module is also an attribute of the package, as when it was imported eagerly
        assert getattr(unitgraph, module) is sys.modules[f"unitgraph.{module}"]


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="nope"):
        unitgraph.nope
    with pytest.raises(ImportError, match="nope"):
        exec("from unitgraph import nope", {})
