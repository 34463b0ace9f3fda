"""Surfaces: definiteness of the symmetric Ricci part decides everything.

In dimension 2 the reduced Jacobi operator is a single number,
rho_s(X, X), so the model has direction-independent spectrum up to
positive rescaling exactly when rho_s is definite.  The degenerate case
is the interesting one: the spectrum collapses only on the null line of
rho_s, which random probe directions almost surely miss.  The sampled
classifier sees it anyway, because its verdict must pass the exact
Ricci-form gate: rho_s(X, X) is the trace of the Jacobi operator.
"""

from fractions import Fraction

from affinecurv import (
    connection_from_symbols,
    curvature_homogeneous_connection,
    surface_projective_osserman,
)
from affinecurv.polynomials import Polynomial

# definite: the constant-entry family at eps = 0
verdict = surface_projective_osserman(curvature_homogeneous_connection(2), [0, 0])
print("definite case: rho_s =", verdict.ricci_symmetric)
print("  definite=%s  sampled=%s  agrees=%s"
      % (verdict.definite, verdict.sampled_status, verdict.agrees))

# degenerate with an axis-aligned null line
C = connection_from_symbols(2, {(0, 0, 1): Polynomial.variable(1, 2)})
verdict = surface_projective_osserman(C, [Fraction(0), Fraction(0)])
print("\ndegenerate, null line on an axis: rho_s =", verdict.ricci_symmetric)
print("  definite=%s  sampled=%s  agrees=%s"
      % (verdict.definite, verdict.sampled_status, verdict.agrees))

# degenerate with the null line spanned by (1, -1): no probe hits it, the
# Ricci-form gate makes the collapse visible anyway
C = connection_from_symbols(2, {
    (0, 1, 0): Polynomial.constant(-1, 2),
    (0, 1, 1): Polynomial.constant(1, 2),
})
verdict = surface_projective_osserman(C, [0, 0])
print("\ndegenerate, hidden null line: rho_s =", verdict.ricci_symmetric)
print("  definite=%s  sampled=%s  agrees=%s"
      % (verdict.definite, verdict.sampled_status, verdict.agrees))
