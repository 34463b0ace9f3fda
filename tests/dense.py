"""The dense m x m x m x m array of a curvature tensor, for tests that
build or check a model entry by entry.  The package stores only the
sorted nonzero list."""

import numpy as np

from affinecurv.tensor_core import CurvatureTensor


def to_dense(A):
    """The array e with e[i, j, k, l] the entry of A, zero off its list."""
    e = np.zeros((A.dim,) * 4)
    idx, vals = A.nonzero()
    e[tuple(idx.T)] = vals
    return e


def from_dense(e, notes=()):
    """The tensor whose entries are those of the m x m x m x m array e."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 4 or len(set(e.shape)) != 1:
        raise ValueError("entries must be an m x m x m x m array")
    keys = np.flatnonzero(e)
    return CurvatureTensor(e.shape[0], keys, e.flat[keys], notes)
