"""Dense rank-4 curvature tensors and their Jacobi operators.

A model lives on R^m with the standard basis.  The array convention is

    A(e_i, e_j) e_k = sum_l  entries[i, j, k, l] e_l,

and a well-formed model satisfies the two curvature identities

    A(X, Y)Z = -A(Y, X)Z,
    A(X, Y)Z + A(Y, Z)X + A(Z, X)Y = 0.

The Jacobi operator of a direction X is the matrix of Y -> A(Y, X)X; its
reduction to the quotient by the line through X is what classification
works with, since J_X X = 0 always.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvatureTensor",
    "SymmetryReport",
    "evaluate",
    "check_affine_symmetries",
    "jacobi",
    "jacobi_batch",
    "reduced_jacobi",
    "reduced_jacobi_batch",
    "perp_basis",
    "perp_basis_batch",
    "model_to_json_dict",
    "model_from_json_dict",
    "save_model",
    "load_model",
]


class CurvatureTensor:
    """Immutable dense rank-4 tensor on R^m.

    `notes` carries non-fatal flags set by constructors (for example an
    empty spectral slot at the minimum admissible dimension).
    """

    __slots__ = ("dim", "entries", "notes")

    def __init__(self, entries, notes=()):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError("entries must be an m x m x m x m array")
        arr.setflags(write=False)
        object.__setattr__(self, "dim", arr.shape[0])
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "notes", tuple(notes))

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    def __repr__(self):
        nnz = int(np.count_nonzero(self.entries))
        return "CurvatureTensor(dim=%d, nonzero=%d)" % (self.dim, nnz)


@dataclass(frozen=True)
class SymmetryReport:
    antisymmetry_defect: float
    bianchi_defect: float
    tol: float
    passed: bool


def _check_vector(A, X, name="X"):
    X = np.asarray(X, dtype=float)
    if X.shape != (A.dim,):
        raise ValueError("%s has shape %r, expected (%d,)" % (name, X.shape, A.dim))
    return X


def evaluate(A, X, Y, Z):
    """Component vector of A(X, Y)Z."""
    X = _check_vector(A, X, "X")
    Y = _check_vector(A, Y, "Y")
    Z = _check_vector(A, Z, "Z")
    return np.einsum("ijkl,i,j,k->l", A.entries, X, Y, Z)


def check_affine_symmetries(A, tol=1e-10):
    """Max-abs defect of antisymmetry and of the first curvature identity."""
    e = A.entries
    anti = float(np.max(np.abs(e + e.transpose(1, 0, 2, 3)))) if A.dim else 0.0
    cyc = e + e.transpose(1, 2, 0, 3) + e.transpose(2, 0, 1, 3)
    bianchi = float(np.max(np.abs(cyc))) if A.dim else 0.0
    return SymmetryReport(anti, bianchi, tol, anti <= tol and bianchi <= tol)


def _check_directions(A, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise ValueError("directions have shape %r, expected (n, %d)" % (X.shape, A.dim))
    return X


def jacobi_batch(A, X):
    """Jacobi operators of the n directions in the rows of X, shape (n, m, m).

    One matmul of the (n, m^2) outer products X (x) X against the entries
    viewed as m stacked (m^2, m) blocks, A[i, (j, k), l]; the view is not
    copied, so no O(m^4) temporary is made.
    """
    X = _check_directions(A, X)
    n, m = X.shape
    XX = (X[:, :, None] * X[:, None, :]).reshape(n, m * m)
    # R[i, s, l] = sum_jk A[i, j, k, l] X_s^j X_s^k = J_s[l, i]
    R = np.matmul(XX, A.entries.reshape(m, m * m, m))
    return R.transpose(1, 2, 0)


def jacobi(A, X):
    """Matrix of Y -> A(Y, X)X; column i is the image of e_i.

    Homogeneous of degree two in X, and always kills X itself.  X may be
    zero, in which case the result is the zero matrix.
    """
    X = _check_vector(A, X)
    return jacobi_batch(A, X[None])[0]


def perp_basis_batch(X):
    """Orthonormal bases of the hyperplanes orthogonal to the rows of X,
    shape (n, m, m - 1), one basis per row as columns.

    Each basis is the columns j != p of the Householder reflector
    H = I - 2 v v^T / v^T v with v = X/|X| + sign(x_p) e_p, where p is the
    axis of the largest |x_i| (lowest index on ties).  H maps X/|X| to
    -sign(x_p) e_p, so the kept columns span the complement; the choice
    of p keeps v away from cancellation (Golub & Van Loan, section 5.1).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("directions must be an (n, m) array")
    n, m = X.shape
    nrm = np.linalg.norm(X, axis=1)
    if np.any(nrm == 0.0):
        raise ValueError("cannot build a complement of the zero vector")
    rows = np.arange(n)
    drop = np.argmax(np.abs(X), axis=1)
    v = X / nrm[:, None]
    v[rows, drop] += np.sign(v[rows, drop])
    H = np.eye(m) - (2.0 / np.sum(v * v, axis=1))[:, None, None] * (v[:, :, None] * v[:, None, :])
    keep = np.ones((n, m), dtype=bool)
    keep[rows, drop] = False
    # H is symmetric, so its kept rows are the kept columns.
    return H[keep].reshape(n, m - 1, m).transpose(0, 2, 1)


def perp_basis(X):
    """Orthonormal basis of the hyperplane orthogonal to X, as columns.

    The single-direction case of perp_basis_batch: the standard basis
    vectors other than e_p, for p the axis of the largest |X^i|, reflected
    into the complement.  Deterministic bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 1:
        raise ValueError("X must be a vector")
    return perp_basis_batch(X[None])[0]


def reduced_jacobi_batch(A, X):
    """Reduced Jacobi operators Q^T J_X Q of the rows of X, shape
    (n, m - 1, m - 1), with Q from perp_basis_batch."""
    X = _check_directions(A, X)
    Q = perp_basis_batch(X)
    return np.matmul(np.matmul(Q.transpose(0, 2, 1), jacobi_batch(A, X)), Q)


def reduced_jacobi(A, X):
    """Jacobi operator on the quotient by the line through X.

    Concretely Q^T J_X Q for Q = perp_basis(X); because J_X X = 0 the full
    spectrum is the reduced spectrum plus one extra zero.
    """
    X = _check_vector(A, X)
    if np.linalg.norm(X) == 0.0:
        raise ValueError("reduced Jacobi operator needs a nonzero direction")
    return reduced_jacobi_batch(A, X[None])[0]


# -- JSON model files -----------------------------------------------------


def model_to_json_dict(A):
    """{"dim": m, "entries": [[i, j, k, l, value], ...]} with 0-based
    indices, zeros omitted, entries sorted lexicographically."""
    entries = []
    nz = np.argwhere(A.entries != 0.0)
    for i, j, k, l in sorted(map(tuple, nz)):
        entries.append([int(i), int(j), int(k), int(l), float(A.entries[i, j, k, l])])
    return {"dim": int(A.dim), "entries": entries}


def model_from_json_dict(data):
    try:
        dim = int(data["dim"])
        rows = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("model JSON needs 'dim' and 'entries'") from exc
    if dim <= 0:
        raise ValueError("dim must be positive")
    arr = np.zeros((dim, dim, dim, dim))
    seen = set()
    for row in rows:
        if len(row) != 5:
            raise ValueError("entry row %r is not [i, j, k, l, value]" % (row,))
        i, j, k, l = (int(v) for v in row[:4])
        for idx in (i, j, k, l):
            if not 0 <= idx < dim:
                raise ValueError("index %d out of range for dim=%d" % (idx, dim))
        if (i, j, k, l) in seen:
            raise ValueError("duplicate entry at (%d, %d, %d, %d)" % (i, j, k, l))
        seen.add((i, j, k, l))
        arr[i, j, k, l] = float(row[4])
    return CurvatureTensor(arr)


def save_model(A, path):
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(A), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))
