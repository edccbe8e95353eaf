"""Exact adjacency spectra of invertibility graphs on matrix rings.

The library computes, in exact integer and cyclotomic arithmetic, the
eigenvalues and multiplicities of the graph whose vertices are the n x n
matrices over a finite field and whose edges join matrices with an
invertible difference.  Closed forms (for every n) and exhaustive
brute-force oracles are kept as separate routes so each can check the
other, and a spectral-gap bound turns the spectrum into edge-existence
guarantees for large vertex subsets.
"""

from .cyclotomic import Cyclotomic
from .errors import (
    CheckFailedError,
    ContextMismatchError,
    EigenvectorMismatchError,
    InexactDivisionError,
    NonPrimeError,
    NotRationalError,
    ReducibleModulusError,
    SizeTooLargeError,
    TheoremViolationError,
)
from .fields import (
    FieldContext,
    FieldElement,
    field,
    field_of_order,
    prime_power,
)
from .characters import char_exponents, char_vector, field_char, matrix_char, matrix_trace_exponent
from .matrices import (
    Matrix,
    enumerate_invertible,
    enumerate_matrices,
    gl_order,
    matrix_count,
    matrix_from_index,
    matrix_to_index,
    rank_census,
    rank_representative,
)
from .spectra import (
    Spectrum,
    SpectrumLine,
    corner_count_closed_form,
    count_invertible_pinned,
    diag_pair_count_closed_form,
    eigenvalue_charsum,
    eigenvalue_charsum_rank,
    eigenvalue_closed_form,
    rank_count,
    spectrum_brute_force,
    spectrum_closed_form,
    trace_identity_holds,
)
from .graph import (
    CayleyGraph,
    build_graph,
    export_edges,
    is_simple,
    spectrum_from_graph,
    verify_eigenvector,
)
from .gap import (
    GapReport,
    GapThreshold,
    check_spectral_gap,
    find_invertible_difference,
    max_nontrivial_eigenvalue,
    random_subset,
    spectral_threshold,
)

__version__ = "0.1.0"
