"""Tour of the reduced-spectrum taxonomy.

Every admissible multiplicity structure has a constructor; here we realize
a few, push them through the sampled classifier, and confirm the round
trip recovers the case label, the multiplicity vector, and an admissible
eigenbundle partition.
"""

import numpy as np

from affinecurv import (
    StructureSpec,
    adams_admissible,
    bundle_partition,
    classify,
    is_projective_affine_osserman,
    realize,
    reduced_jacobi,
    spectrum,
)

# a sample of cases: real eigenvalues only, then mixtures with conjugate pairs
PICKS = [
    ("1", 5, (2.0,), ()),
    ("2-b", 6, (4.0, 1.0), ()),
    ("2-c", 10, (4.0,), (1 + 2j,)),
    ("3-d", 12, (3.0, 5.0, 7.0, 1.0), ()),
    ("3-g", 12, (6.0, 4.0, 2.0), (1 + 1j,)),
]

for case, m, lams, nus in PICKS:
    A = realize(StructureSpec(case, lams, nus), m)

    verdict = is_projective_affine_osserman(A, n_samples=32)
    print("case %-4s  m=%-2d  status=%s" % (case, m, verdict.status))
    print("  mu = %s  kinds = %s" % (verdict.mu.entries, verdict.mu.kinds))
    print("  worst projective residual over all sample pairs: %.3g"
          % verdict.worst_residual)

    # the classifier inverts the constructor: same case label comes back
    fitted = classify(A).structure
    assert fitted.case == case
    print("  recovered StructureSpec: %s" % (fitted.to_json_dict(),))

    # eigenbundle ranks along one direction, checked against the sphere
    # bound for the ambient dimension
    S = spectrum(reduced_jacobi(A, np.eye(m)[0]))
    part = bundle_partition(S, m)
    gate = adams_admissible(m, part)
    print("  partition dims=%s kinds=%s -> %s" % (part.dims, part.kinds, gate.status))
    print()

print("all picks round-tripped")
