"""Neutral-signature metrics built over a polynomial connection.

Two constructions on R^{2m}: the deformed extension (base connection plus
an optional symmetric perturbation) and the modified extension (adds the
rank-one fiber form y_i y_j).  Both get their stated spectral behavior
checked at rational points with exact arithmetic where possible.
"""

from affinecurv import (
    check_extension_theorems,
    deformed_extension,
    flat_connection,
    plane_wave_connection,
)
from affinecurv.polynomials import polynomial_to_string

# deformed extension over the wave-type base: every Jacobi operator of the
# 6-dimensional metric is nilpotent, certified in exact rational arithmetic
base = plane_wave_connection()
g = deformed_extension(base)
print("deformed extension, dim %d, nonzero top-left block entries:" % g.dim)
for key, p in sorted(g.top_block.items()):
    print("   B%s = %s" % (key, polynomial_to_string(p, base.dim, base.dim)))

report = check_extension_theorems(base, n_vectors=3)
print("clauses:", report.clauses)
for rec in report.records[:4]:
    print("  %s vector, method=%s, nilpotent=%s, max |eigenvalue| = %g"
          % (rec.character, rec.method, rec.nilpotent, rec.max_abs_eigenvalue))

# modified extension over the flat plane: unit spacelike vectors see the
# eigenvalues {0, 1, 1/4} with multiplicities (1, 1, 2); timelike vectors
# see their negatives
report = check_extension_theorems(flat_connection(2), which="modified",
                                  n_vectors=4)
print("\nmodified extension clauses:", report.clauses)
sample = next(r for r in report.records if r.character == "spacelike")
print("one spacelike spectrum:",
      sorted((round(v.real, 10), k) for v, k in sample.spectrum.items))
print("report passed:", report.passed)
