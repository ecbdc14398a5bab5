"""Greedy lexicographic 0/1 matrices and the projective spaces inside them.

The package generates the unique entry-wise greedy matrix of type (k, r),
provides nim arithmetic (xor addition, Conway multiplication) with Fermat
fields, builds canonical PG(n, q) models, and verifies that the generated
rows reproduce their point-line designs.
"""

from .errors import (InputRangeError, InvalidParameterError, PreconditionError,
                     ResourceLimitError, RowIncompleteError)
from .geometry import (CanonicalGeometry, IncidenceStructure, PgCounts, build_pg,
                       check_design, check_veblen_young, expected_counts, pg_lines)
from .greedy import GenParams, NaiveMatrixGenerator, generate
from .nimber import (FermatField, field_check, greediness_lemma_holds,
                     is_fermat_two_power, nim_add, nim_mul, nim_mul_table)
from .report import Check, VerificationReport
from .verify import (lemma_exhaustive, verify_general_q, verify_proof_invariants,
                     verify_theorem_q2, verify_zero_blocks_and_periodicity)

__version__ = "0.1.0"

__all__ = [
    "CanonicalGeometry",
    "Check",
    "FermatField",
    "GenParams",
    "IncidenceStructure",
    "InputRangeError",
    "InvalidParameterError",
    "NaiveMatrixGenerator",
    "PgCounts",
    "PreconditionError",
    "ResourceLimitError",
    "RowIncompleteError",
    "VerificationReport",
    "build_pg",
    "check_design",
    "check_veblen_young",
    "expected_counts",
    "field_check",
    "generate",
    "greediness_lemma_holds",
    "is_fermat_two_power",
    "lemma_exhaustive",
    "nim_add",
    "nim_mul",
    "nim_mul_table",
    "pg_lines",
    "verify_general_q",
    "verify_proof_invariants",
    "verify_theorem_q2",
    "verify_zero_blocks_and_periodicity",
]
