"""Bruhat intervals, parabolic cosets, and coset maxima in Coxeter groups.

The package computes, for a lower Bruhat interval [e, w] and a coset x W_J
of a standard parabolic subgroup, the unique maximal element of their
intersection, together with everything downstream of that fact: shift
tables, Poincare-polynomial decompositions, Billey-Postnikov
factorisations, and relative (two-subset) analogues.  Brute-force oracles
live in :mod:`coxbruhat.oracle` and exist so the fast paths never have to
be taken on faith.
"""

from .bruhat import Interval, covers, leq, lower_interval
from .bruhat import poincare as poincare_polynomial
from .core import (
    CoxeterSystem,
    Element,
    demazure,
    demazure_word,
    element_from_permutation,
    is_type_a,
)
from .coset_max import (
    CosetMaxResult,
    ShiftedMaxSet,
    TraceStep,
    coset_shift,
    max_in_coset,
    max_in_parabolic,
    max_in_relative_coset,
    relative_shift,
    shifted_max_set,
)
from .dot import hasse_dot
from .errors import (
    BadSubsetChain,
    CoxeterError,
    EmptyIntersection,
    InternalAssertionFailed,
    IntervalTooLarge,
    InvalidMatrix,
    LengthCapExceeded,
    NotMinimalRep,
    NotUnique,
    SearchBudgetExceeded,
)
from .oracle import coset_max_candidates
from .parabolic import (
    ParabolicDecomposition,
    coset_rep,
    decompose,
    is_min_rep,
    min_reps_leq,
    relative_rep,
)
from .poincare import (
    BPReport,
    PoincareDecomposition,
    Term,
    bp_report,
    decompose_poincare,
    relative_decompose_poincare,
    relative_poincare,
)
from .polynomial import IntPolynomial
from .presets import coxeter_matrix, coxeter_system, load_matrix_file

__version__ = "0.1.0"

__all__ = [
    "BPReport",
    "BadSubsetChain",
    "CosetMaxResult",
    "CoxeterError",
    "CoxeterSystem",
    "Element",
    "EmptyIntersection",
    "IntPolynomial",
    "InternalAssertionFailed",
    "Interval",
    "IntervalTooLarge",
    "InvalidMatrix",
    "LengthCapExceeded",
    "NotMinimalRep",
    "NotUnique",
    "ParabolicDecomposition",
    "PoincareDecomposition",
    "SearchBudgetExceeded",
    "ShiftedMaxSet",
    "Term",
    "TraceStep",
    "bp_report",
    "coset_max_candidates",
    "coset_rep",
    "coset_shift",
    "covers",
    "coxeter_matrix",
    "coxeter_system",
    "decompose",
    "decompose_poincare",
    "demazure",
    "demazure_word",
    "element_from_permutation",
    "hasse_dot",
    "is_min_rep",
    "is_type_a",
    "leq",
    "load_matrix_file",
    "lower_interval",
    "max_in_coset",
    "max_in_parabolic",
    "max_in_relative_coset",
    "min_reps_leq",
    "poincare_polynomial",
    "relative_decompose_poincare",
    "relative_poincare",
    "relative_rep",
    "relative_shift",
    "shifted_max_set",
]
