"""Curvature tensors as sorted nonzero lists, and their Jacobi operators.

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

import itertools
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
    "model_to_json_text",
    "model_from_json_dict",
    "save_model",
    "load_model",
]


class CurvatureTensor:
    """Immutable rank-4 tensor on R^m, stored only as its sorted nonzero
    entries: raveled C-order keys and their values, O(m^2) of them for
    every realized model.  `entries` is a read-only dense m x m x m x m
    view, made on first read and kept, for callers that want the array;
    nothing in the package reads it.  A dense array given to the
    constructor is scanned once.

    `notes` carries non-fatal flags set by constructors (for example an
    empty spectral slot at the minimum admissible dimension).
    """

    __slots__ = ("dim", "notes", "_dense", "_keys", "_values")

    def __init__(self, entries, notes=()):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError("entries must be an m x m x m x m array")
        keys = np.flatnonzero(arr)
        self._keep(dim=arr.shape[0], notes=tuple(notes), _dense=None, _keys=keys,
                   _values=arr.flat[keys])

    @classmethod
    def _from_nonzero(cls, m, keys, values, notes=()):
        """Take ownership of a nonzero list: raveled C-order keys into an
        m x m x m x m array, sorted and unique, and the nonzero values."""
        out = cls.__new__(cls)
        out._keep(dim=m, notes=tuple(notes), _dense=None, _keys=keys, _values=values)
        return out

    def _keep(self, **fields):
        """Set fields past the immutability guard, arrays read-only."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return CurvatureTensor._from_nonzero, (self.dim, self._keys, self._values, self.notes)

    @property
    def entries(self):
        """The dense array, entries[i, j, k, l]; read-only."""
        if self._dense is None:
            dense = np.zeros((self.dim,) * 4)
            dense.reshape(-1)[self._keys] = self._values
            self._keep(_dense=dense)
        return self._dense

    def nonzero(self):
        """Indices (n, 4) and values (n,) of the nonzero entries, in
        lexicographic order of (i, j, k, l), which is numpy's C order."""
        return np.stack(np.unravel_index(self._keys, (self.dim,) * 4), axis=1), self._values

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    def __repr__(self):
        return "CurvatureTensor(dim=%d, nonzero=%d)" % (self.dim, len(self._values))


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
    """Component vector of A(X, Y)Z: the sum over the nonzero entries of
    v X^i Y^j Z^k into slot l."""
    X = _check_vector(A, X, "X")
    Y = _check_vector(A, Y, "Y")
    Z = _check_vector(A, Z, "Z")
    i, j, k, l = np.unravel_index(A._keys, (A.dim,) * 4)
    out = np.bincount(l, weights=A._values * X[i] * Y[j] * Z[k], minlength=A.dim)
    return out.astype(float, copy=False)  # an empty list gives ints


def check_affine_symmetries(A, tol=1e-10):
    """Max-abs defect of antisymmetry and of the first curvature identity.

    Bit for bit the max-abs of e + e.transpose(1, 0, 2, 3) and of
    e + e.transpose(1, 2, 0, 3) + e.transpose(2, 0, 1, 3), with no m^4
    array: each sum is taken at the nonzero keys, its terms added in the
    dense order and looked up in the sorted keys.  A sum elsewhere is zero
    or, its own term being zero, equal to the sum at a partner key.  The
    partner keys come from the key ((i m + j) m + k) m + l by arithmetic.
    """
    m = A.dim
    ij, kl = np.divmod(A._keys, m * m)
    i, j = np.divmod(ij, m)
    k, l = np.divmod(kl, m)
    # a key past every index ends the list, so each lookup lands in it
    keys = np.append(A._keys, m ** 4)
    values = np.append(A._values, 0.0)

    def at(q):
        pos = np.searchsorted(keys, q)
        return np.where(keys[pos] == q, values[pos], 0.0)

    v = A._values
    anti = float(np.max(np.abs(v + at((j * m + i) * m * m + kl)), initial=0.0))
    bianchi = float(np.max(np.abs((v + at(((k * m + i) * m + j) * m + l))
                                  + at(((j * m + k) * m + i) * m + l)), initial=0.0))
    return SymmetryReport(anti, bianchi, tol, anti <= tol and bianchi <= tol)


def _check_directions(A, X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise ValueError("directions have shape %r, expected (n, %d)" % (X.shape, A.dim))
    return X


def jacobi_batch(A, X):
    """Jacobi operators of the n directions in the rows of X, shape (n, m, m).

    R[i] = (X (x) X) @ A[i, (j, k), l] for each slab i of the first index:
    the slab's keys are the run [i m^3, (i + 1) m^3) of the sorted list,
    scattered into one reused (m^2, m) block and cleared again after its
    matmul.  Each slab is the gemm numpy's stacked matmul on the dense
    view would make, so the bits are the same, with O(m^3) extra memory.
    """
    X = _check_directions(A, X)
    n, m = X.shape
    XX = (X[:, :, None] * X[:, None, :]).reshape(n, m * m)
    slab = m ** 3
    bounds = np.searchsorted(A._keys, np.arange(m + 1) * slab).tolist()
    local = A._keys % slab
    block = np.zeros((m * m, m))
    flat = block.reshape(-1)
    # R[i, s, l] = sum_jk A[i, j, k, l] X_s^j X_s^k = J_s[l, i]
    R = np.empty((m, n, m))
    for i in range(m):
        keys = local[bounds[i]:bounds[i + 1]]
        flat[keys] = A._values[bounds[i]:bounds[i + 1]]
        np.matmul(XX, block, out=R[i])
        flat[keys] = 0.0
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
    idx, vals = A.nonzero()
    rows = [row + [value] for row, value in zip(idx.tolist(), vals.tolist())]
    return {"dim": int(A.dim), "entries": rows}


# the least integer that float() rounds past the largest float
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _first_bad_row(bad, rows, problem):
    """Raise for the first row flagged in the boolean vector `bad`."""
    hits = np.flatnonzero(bad)
    if hits.size:
        r = int(hits[0])
        raise ValueError("entry row %d %r: %s" % (r, rows[r], problem))


def model_from_json_dict(data):
    """Inverse of model_to_json_dict.  `dim` must be a positive JSON
    integer.  Every row must be five items [i, j, k, l, value] with
    integer indices in range(dim), a numeric value within float range and
    no (i, j, k, l) repeated; the first row that breaks a rule is named in
    the ValueError."""
    try:
        dim = data["dim"]
        rows = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("model JSON needs 'dim' and 'entries'") from exc
    if type(dim) is not int:
        raise ValueError("model JSON 'dim' must be an integer, got %r" % (dim,))
    if dim <= 0:
        raise ValueError("dim must be positive")
    if not isinstance(rows, list):
        raise ValueError("model JSON 'entries' must be a list of rows")
    n = len(rows)
    is_list = np.fromiter(map(type, rows), dtype=object, count=n) == list
    _first_bad_row(~is_list, rows, "is not [i, j, k, l, value]")
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=n)
    _first_bad_row(lengths != 5, rows, "is not [i, j, k, l, value]")
    cells = np.fromiter(itertools.chain.from_iterable(rows), dtype=object, count=5 * n)
    kinds = np.fromiter(map(type, cells), dtype=object, count=5 * n).reshape(n, 5)
    cells = cells.reshape(n, 5)
    # bool is a subclass of int but not an index; type() tells them apart.
    _first_bad_row(np.any(kinds[:, :4] != int, axis=1), rows, "has a non-integer index")
    _first_bad_row((kinds[:, 4] != int) & (kinds[:, 4] != float), rows,
                   "has a non-numeric value")
    whole = kinds[:, 4] == int
    huge = np.zeros(n, dtype=bool)
    huge[whole] = np.abs(cells[whole, 4]) >= _FLOAT_OVERFLOW
    _first_bad_row(huge, rows, "has a value out of float range")
    _first_bad_row(np.any((cells[:, :4] < 0) | (cells[:, :4] >= dim), axis=1), rows,
                   "has an index out of range for dim=%d" % dim)
    keys = np.ravel_multi_index(cells[:, :4].astype(np.intp).T, (dim,) * 4)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    repeated = np.zeros(n, dtype=bool)
    repeated[repeats] = True
    _first_bad_row(repeated, rows, "repeats an earlier (i, j, k, l)")
    values = cells[order, 4].astype(float)
    keep = values != 0.0
    return CurvatureTensor._from_nonzero(dim, keys[order][keep], values[keep])


def model_to_json_text(A, depth=0):
    """The text json.dumps(model_to_json_dict(A), sort_keys=True, indent=2)
    gives, nested `depth` levels deep in an indent=2 document (every line
    after the first indented by 2 * depth more spaces).  The rows are one
    join of pieces from two small tables: the m^2 texts of an index pair,
    used for (i, j) and for (k, l), and one row ending per distinct value,
    written with float.__repr__ as the json module does.  Non-finite
    values, which JSON cannot hold, raise ValueError."""
    pad = "  " * depth
    m, vals = A.dim, A._values
    if not np.all(np.isfinite(vals)):
        raise ValueError("model has non-finite entries, which JSON cannot hold")
    if len(vals):
        line = pad + "      %d,\n"
        pairs = np.array([line % a + line % b for a in range(m) for b in range(m)], dtype=object)
        distinct, which = np.unique(vals, return_inverse=True)
        head = pad + "    [\n"
        ends = [pad + "      " + text + "\n" + pad + "    ]"
                for text in map(float.__repr__, distinct.tolist())]
        # every row but the last ends with the separator and the next head
        tails = np.array([end + ",\n" + head for end in ends], dtype=object)
        ij, kl = np.divmod(A._keys, m * m)
        pieces = np.stack([pairs[ij], pairs[kl], tails[which]], axis=1)
        pieces[-1, 2] = ends[which[-1]]
        entries = "[\n%s%s\n%s  ]" % (head, "".join(pieces.ravel().tolist()), pad)
    else:
        entries = "[]"
    return '{\n%s  "dim": %d,\n%s  "entries": %s\n%s}' % (pad, m, pad, entries, pad)


def save_model(A, path):
    """Write model_to_json_text(A) plus a newline: the text of
    json.dump(model_to_json_dict(A), fh, sort_keys=True, indent=2)."""
    text = model_to_json_text(A)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))
