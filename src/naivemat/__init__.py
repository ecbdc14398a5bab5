"""Greedy lexicographic 0/1 matrices and the projective spaces inside them.

The package generates the unique entry-wise greedy matrix of type (k, r),
provides nim arithmetic (xor addition, Conway multiplication) with Fermat
fields, builds canonical PG(n, q) models, and verifies that the generated
rows reproduce their point-line designs.  The names live in the
submodules (greedy, nimber, geometry, verify, report, errors, cli); this
module holds only the version.
"""

__version__ = "0.1.0"
