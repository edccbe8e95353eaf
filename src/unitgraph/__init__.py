"""Exact adjacency spectra of invertibility graphs on matrix rings.

The library computes, in exact integer and cyclotomic arithmetic, the
eigenvalues and multiplicities of the graph whose vertices are the n x n
matrices over a finite field and whose edges join matrices with an
invertible difference.  Closed forms (for every n) and exhaustive
brute-force oracles are kept as separate routes so each can check the
other, and a spectral-gap bound turns the spectrum into edge-existence
guarantees for large vertex subsets.  Importing the package runs none of
its modules: each is registered in ``sys.modules`` and on the package, and
runs on first attribute access.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the public names by the module that defines them, in the order of __all__
_EXPORTS = {
    "cyclotomic": "Cyclotomic",
    "errors": "CheckFailedError ContextMismatchError EigenvectorMismatchError InexactDivisionError"
    " NonPrimeError NotRationalError ReducibleModulusError SizeTooLargeError TheoremViolationError",
    "fields": "FieldContext FieldElement field field_of_order prime_power",
    "characters": "char_exponents char_vector field_char matrix_char matrix_trace_exponent",
    "matrices": "Matrix enumerate_invertible enumerate_matrices gl_order matrix_count"
    " matrix_from_index matrix_to_index rank_census rank_representative",
    "spectra": "Spectrum SpectrumLine corner_count_closed_form count_invertible_pinned"
    " diag_pair_count_closed_form eigenvalue_charsum eigenvalue_charsum_rank eigenvalue_closed_form"
    " rank_count spectrum_brute_force spectrum_closed_form trace_identity_holds",
    "graph": "CayleyGraph build_graph export_edges is_simple spectrum_from_graph"
    " verify_eigenvector",
    "gap": "GapReport GapThreshold check_spectral_gap find_invertible_difference"
    " max_nontrivial_eigenvalue random_subset spectral_threshold",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])  # defers the module's code to first use
del _module, _spec


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_MODULE_OF[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
