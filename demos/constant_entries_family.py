"""A connection with position-dependent symbols but constant curvature
entries.

The family lives on R^m.  Its two linear symbols G_11^1 = eps (x1 + x2)
and G_22^2 = -eps (x1 + x2) cancel out of the curvature, which equals a
fixed integer tensor at every point, yet the covariant derivative of the
curvature still sees them.  Along the way: the exact entry table, a
defective Jacobi operator, and a geodesic that leaves every compact set
in finite time.
"""

import numpy as np

from affinecurv import (
    curvature,
    curvature_at,
    curvature_homogeneous_connection,
    geodesic_integrate,
    is_projective_affine_osserman,
    jordan_profile,
    nabla_R,
    reduced_jacobi,
    ricci_split,
    spectrum,
)
from affinecurv.polynomials import polynomial_to_string

m, eps = 3, 1
C = curvature_homogeneous_connection(m, eps=eps)

# exact rational curvature: every entry is a constant polynomial; the map
# holds the nonzero ones
R = curvature(C).riemann
print("nonzero curvature entries (all constant):")
for key, p in sorted(R.items()):
    print("  R%s = %s" % (key, polynomial_to_string(p, m)))

# the same tensor at two different points, hence "curvature homogeneous"
A0 = curvature_at(C, [0.0, 0.0, 0.0])
A1 = curvature_at(C, [2.0, -1.0, 5.0])
same = all(np.array_equal(a, b) for a, b in zip(A0.nonzero(), A1.nonzero()))
print("\nentries agree across points:", same)
print("sampled verdict:", is_projective_affine_osserman(A0, tol=1e-6).status)

# the Ricci tensor splits into a constant symmetric part and a constant
# alternating part proportional to eps
sym, alt = ricci_split(C)
print("\nricci symmetric diagonal:",
      [polynomial_to_string(sym[i, i], m) for i in range(m)])
print("ricci alternating (0, 1):", polynomial_to_string(alt[0, 1], m))

# at X = (e1+e3)/sqrt(2) the Jacobi operator is defective: one eigenvalue,
# one Jordan block of size 2
X = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
J = reduced_jacobi(A0, X)
S = spectrum(J, cluster_tol=1e-6)
value = S.items[0][0]
prof = jordan_profile(J, value, tol=1e-8)
print("\nJacobi spectrum at (e1+e3)/sqrt(2):", S.items)
print("Jordan blocks at %.3f: sizes %s" % (value.real, prof.block_sizes))

# nabla R keeps the position dependence the curvature dropped
nb = nabla_R(C)
print("\nnabla R slot (1, 0, 0, 0) components:",
      [polynomial_to_string(nb[1, 0, 0, 0, l], m) for l in range(m)])
print("its d2-component vanishes exactly on the plane x1 + x2 = 0")

# with eps = 0 the geodesic from the origin with velocity -e3/2 satisfies
# a closed-form blow-up at t = 1
res = geodesic_integrate(curvature_homogeneous_connection(m),
                         [0.0, 0.0, 0.0], [0.0, 0.0, -0.5], 2.0)
print("\ngeodesic blow-up detected:", res.blew_up, "at t = %.4f" % res.blow_up_time)
