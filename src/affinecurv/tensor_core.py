"""Curvature tensors as sorted nonzero lists, and their Jacobi operators.

A model lives on R^m with the standard basis.  The array convention is

    A(e_i, e_j) e_k = sum_l  A[i, j, k, l] e_l,

and a well-formed model satisfies the two curvature identities

    A(X, Y)Z = -A(Y, X)Z,
    A(X, Y)Z + A(Y, Z)X + A(Z, X)Y = 0.

The Jacobi operator of a direction X is the matrix of Y -> A(Y, X)X; its
reduction to the quotient by the line through X is what classification
works with, since J_X X = 0 always.  It is one documented sum over the
nonzero list, J_X[l, i] = 0.0 + the terms (X_j X_k) A[i, j, k, l] in key
order, so its bits depend only on the model and X: not on the other
directions of a batch, nor on the BLAS or SIMD kernel, NaN payloads
aside (jacobi_batch).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvatureTensor",
    "SymmetryReport",
    "evaluate",
    "check_affine_symmetries",
    "jacobi_batch",
    "reduced_jacobi",
    "reduced_jacobi_batch",
    "perp_basis_batch",
    "model_to_json_dict",
    "model_to_json_chunks",
    "model_from_json_dict",
    "save_model",
    "load_model",
]


class CurvatureTensor:
    """Immutable rank-4 tensor on R^m, stored only as its sorted nonzero
    entries: raveled C-order keys and their values, O(m^2) of them for
    every realized model.

    The constructor takes such a list: 1-D integer keys, strictly
    ascending, inside [0, dim^4), and as many float values.  It raises
    ValueError for any other list, drops the exact zeros and keeps
    read-only copies of the rest.

    `notes` carries non-fatal flags set by constructors (for example an
    empty spectral slot at the minimum admissible dimension).
    """

    __slots__ = ("dim", "notes", "_keys", "_values")

    def __init__(self, dim, keys, values, notes=()):
        keys = np.asarray(keys)
        values = np.asarray(values, dtype=float)
        if keys.ndim != 1 or keys.dtype.kind not in "iu" or values.shape != keys.shape:
            raise ValueError("a nonzero list needs 1-D integer keys and as many values")
        if dim < 0 or keys.size and (keys[0] < 0 or keys[-1] >= dim ** 4
                                     or np.any(keys[1:] <= keys[:-1])):
            raise ValueError("keys must ascend strictly inside [0, dim^4), dim >= 0")
        keep = values != 0.0
        fields = {"dim": dim, "notes": tuple(notes),
                  "_keys": keys[keep].astype(np.intp, copy=False), "_values": values[keep]}
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return CurvatureTensor, (self.dim, self._keys, self._values, self.notes)

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


def _ricci_form(A, c):
    """The m x m matrix Ric_jk = sum_i A[i, j, k, i] / c, so that Ric(X, X)
    is tr J_X of A / c, summed from the nonzero entries with i == l.  Each
    entry is divided by c before the sum, which keeps it finite."""
    m, keys = A.dim, A._keys
    on = keys // m ** 3 == keys % m
    ric = np.bincount(keys[on] // m % (m * m), weights=A._values[on] / c, minlength=m * m)
    return ric.reshape(m, m)


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


# jacobi_batch sums a block of rows at a time, its temporaries _BLOCK floats
# (512 KB) each, or 16 rows at large m: fewer rows a block would leave the
# numpy call overhead of each step to dominate
_BLOCK = 1 << 16


def jacobi_batch(A, X):
    """Jacobi operators of the n directions in the rows of X, shape (n, m, m):

        J_X[l, i] = 0.0 + sum of (X_j X_k) A[i, j, k, l] over the nonzero list,

    the terms of each (i, l) added left to right in key order, that is
    (j, k) ascending, by one IEEE multiply and add at a time.  A term whose
    X_j X_k is 0 is skipped; for finite entries that changes no bit, since
    a sum begun at +0.0 never becomes -0.0.  No BLAS call and no numpy
    reduction, whose order can change with the length and the CPU, takes
    part, so each row's bits depend on the model and that row only: not
    on the batch, the row's place in it, or the BLAS kernel (a NaN's sign
    and payload aside, which IEEE 754 leaves open).

    The sums go by jagged diagonals: the (i, l) ranked by their number of
    terms, step p adds the p-th term of each (i, l) having more than p, a
    prefix of the ranks, as one (terms x rows) array, for a block of
    about _BLOCK / m^2 rows, and at least 16, at a time.
    """
    X = _check_directions(A, X)
    n, m = X.shape
    jk, v, offset, width, rank = _jagged_diagonals(A)
    finite = np.isfinite(v).all()
    out = np.empty((n, m * m))  # J[l, i] is cell l m + i of a row
    block = max(16, _BLOCK // max(1, m * m))
    for s in range(0, n, block):
        Xt = np.ascontiguousarray(X[s:s + block].T)
        XX = (Xt[:, None, :] * Xt[None, :, :]).reshape(m * m, Xt.shape[1])
        acc = np.zeros_like(XX)
        for p, q in zip(offset.tolist(), (offset + width).tolist()):
            term = XX[jk[p:q]]
            term *= v[p:q]
            if not finite:  # 0 times a non-finite entry is a skipped term
                term[XX[jk[p:q]] == 0.0] = 0.0
            acc[:q - p] += term
        out[s:s + block, rank] = acc.T
    return out.reshape(n, m, m)


def _jagged_diagonals(A):
    """The nonzero list in the order of the sums of jacobi_batch: (jk, v,
    offset, width, rank), the entries' j m + k and values, step p the
    entries offset[p] to offset[p] + width[p]; rank[r] is the cell l m + i
    of rank r, the cells ranked by their number of entries."""
    m = A.dim
    jk, l = np.divmod(A._keys, m)  # jk = (i m + j) m + k
    size = np.bincount(l * m + jk // (m * m), minlength=m * m)
    # keys ascend in (i, j, k, l), so a stable sort by l sorts by the cell
    # and then (j, k); l < m fits 16 bits, which numpy sorts by radix
    order = np.argsort(l.astype(np.min_scalar_type(m)), kind="stable")
    rank = np.argsort(-size, kind="stable")  # the largest first
    place = np.empty_like(rank)
    place[rank] = np.arange(m * m)
    pos = np.arange(len(order)) - np.repeat(np.cumsum(size) - size, size)
    width = np.bincount(pos)  # step p holds the cells with more than p terms
    offset = np.cumsum(width) - width
    at = np.empty_like(order)  # the p-th term of a cell goes to step p at its rank
    at[offset[pos] + np.repeat(place, size)] = order
    return jk[at] % (m * m), A._values[at, None], offset, width, rank


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


def reduced_jacobi_batch(A, X):
    """Reduced Jacobi operators Q^T J_X Q of the rows of X, shape
    (n, m - 1, m - 1), with Q from perp_basis_batch."""
    X = _check_directions(A, X)
    Q = perp_basis_batch(X)
    return np.matmul(np.matmul(Q.transpose(0, 2, 1), jacobi_batch(A, X)), Q)


def reduced_jacobi(A, X):
    """Jacobi operator on the quotient by the line through X.

    Concretely Q^T J_X Q, Q from perp_basis_batch; because J_X X = 0 the full
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
# the largest index numpy can hold; dim^4 may not pass it
_KEY_MAX = int(np.iinfo(np.intp).max)


def _first_row(rows, is_bad):
    """The index of the first row for which is_bad(row) holds."""
    return next(r for r, row in enumerate(rows) if is_bad(row))


def _bad_row(rows, r, problem):
    return ValueError("entry row %d %r: %s" % (r, rows[r], problem))


def model_from_json_dict(data):
    """Inverse of model_to_json_dict.  `dim` must be a positive JSON
    integer whose fourth power fits the index range.  Every row must be
    five items [i, j, k, l, value] with integer indices in range(dim), a
    finite numeric value and no (i, j, k, l) repeated; the first row that
    breaks a rule is named in the ValueError.

    Each rule is one pass in C over the rows or their cells (a set of
    types or lengths, an array conversion, an array comparison); only a
    rule that fails walks the rows in Python, to name the first bad one."""
    try:
        dim = data["dim"]
        rows = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("model JSON needs 'dim' and 'entries'") from exc
    if type(dim) is not int:
        raise ValueError("model JSON 'dim' must be an integer, got %r" % (dim,))
    if dim <= 0:
        raise ValueError("dim must be positive")
    if dim ** 4 > _KEY_MAX:
        raise ValueError("dim=%d is too large: dim^4 must fit the index range [0, %d]"
                         % (dim, _KEY_MAX))
    if not isinstance(rows, list):
        raise ValueError("model JSON 'entries' must be a list of rows")
    shape = "is not [i, j, k, l, value]"
    if set(map(type, rows)) - {list}:
        raise _bad_row(rows, _first_row(rows, lambda row: type(row) is not list), shape)
    if set(map(len, rows)) - {5}:
        raise _bad_row(rows, _first_row(rows, lambda row: len(row) != 5), shape)
    # the 5n cells row by row, then split: a list slice copies in C, where
    # zip(*rows) slows down past about 10^5 rows
    indices = list(itertools.chain.from_iterable(rows))
    values = indices[4::5]
    del indices[4::5]
    # bool is a subclass of int but not an index; type() tells them apart.
    if set(map(type, indices)) - {int}:
        r = _first_row(rows, lambda row: set(map(type, row[:4])) - {int})
        raise _bad_row(rows, r, "has a non-integer index")
    if set(map(type, values)) - {int, float}:
        r = _first_row(rows, lambda row: type(row[4]) not in (int, float))
        raise _bad_row(rows, r, "has a non-numeric value")
    try:
        values = np.array(values, dtype=float)
    except OverflowError:
        r = _first_row(rows, lambda row: type(row[4]) is int and abs(row[4]) >= _FLOAT_OVERFLOW)
        raise _bad_row(rows, r, "has a value out of float range") from None
    if not np.isfinite(values).all():  # json reads 1e400, NaN and Infinity as floats
        r = _first_row(rows, lambda row: not math.isfinite(row[4]))
        raise _bad_row(rows, r, "has a non-finite value")
    try:
        indices = np.array(indices, dtype=np.intp).reshape(len(rows), 4)
    except OverflowError:  # an index past the intp range is out of range too
        indices = None
    if indices is None or indices.size and (indices.min() < 0 or indices.max() >= dim):
        r = _first_row(rows, lambda row: min(row[:4]) < 0 or max(row[:4]) >= dim)
        raise _bad_row(rows, r, "has an index out of range for dim=%d" % dim)
    keys = np.ravel_multi_index(indices.T, (dim,) * 4)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeats = order[1:][keys[1:] == keys[:-1]]
    if repeats.size:
        raise _bad_row(rows, int(repeats.min()), "repeats an earlier (i, j, k, l)")
    return CurvatureTensor(dim, keys, values[order])


# rows per chunk of the writer: about 300 KB of text at m = 44
_CHUNK_ROWS = 4096


def model_to_json_chunks(A, depth=0):
    """The text json.dumps(model_to_json_dict(A), sort_keys=True, indent=2)
    gives, nested `depth` levels deep in an indent=2 document (every line
    after the first indented by 2 * depth more spaces), as an iterator of
    chunks: the head, the rows _CHUNK_ROWS at a time, and the closing lines.
    Every row is three pieces from one small table: the index line pairs
    "i,\n j,\n", used for (i, j) and for (k, l), then one row ending per
    distinct value, written with float.__repr__ as the json module does.
    The pairs are all m^2 of them when there are no more than rows, else
    only those in use, so a file with a large dim and few rows is cheap
    to write and to check.  Non-finite values, which JSON cannot hold,
    raise ValueError here, before any chunk is made."""
    pad = "  " * depth
    m, keys, vals = A.dim, A._keys, A._values
    if not np.all(np.isfinite(vals)):
        raise ValueError("model has non-finite entries, which JSON cannot hold")
    if not len(vals):
        return iter(['{\n%s  "dim": %d,\n%s  "entries": []\n%s}' % (pad, m, pad, pad)])
    line = np.array([pad + "      %d,\n" % a for a in range(m)], dtype=object)
    if m * m <= len(keys):
        pairs, where = np.arange(m * m), np.divmod(keys, m * m)
    else:
        pairs, where = np.unique(np.divmod(keys, m * m), return_inverse=True)
        where = where.reshape(2, -1)
    distinct, which = np.unique(vals, return_inverse=True)
    head = pad + "    [\n"
    ends = [pad + "      " + text + "\n" + pad + "    ]"
            for text in map(float.__repr__, distinct.tolist())]
    # every row but the last ends with the separator and the next head
    table = np.concatenate([line[pairs // m] + line[pairs % m],
                            np.array([end + ",\n" + head for end in ends], dtype=object)])

    def rows(start):
        stop = start + _CHUNK_ROWS
        pieces = table[np.stack([where[0][start:stop], where[1][start:stop],
                                 which[start:stop] + len(pairs)], axis=1)]
        if stop >= len(keys):
            pieces[-1, 2] = ends[which[-1]]
        return "".join(pieces.ravel().tolist())

    return itertools.chain(
        ['{\n%s  "dim": %d,\n%s  "entries": [\n%s' % (pad, m, pad, head)],
        map(rows, range(0, len(keys), _CHUNK_ROWS)),
        ["\n%s  ]\n%s}" % (pad, pad)])


def save_model(A, path):
    """Write the text of json.dump(model_to_json_dict(A), fh, sort_keys=True,
    indent=2) plus a newline, chunk by chunk from the one model writer, so
    the whole text is never held.  A model the writer refuses (a
    non-finite value) raises ValueError before the file is opened."""
    chunks = model_to_json_chunks(A)
    with open(path, "w") as fh:
        fh.writelines(chunks)
        fh.write("\n")


# the three head lines and the closing lines of a nonempty
# save_model text; a dim of six digits would be past _KEY_MAX anyway
_HEAD = re.compile(rb'{\n  "dim": ([1-9][0-9]{0,4}),\n  "entries": \[\n')
_TAIL = b"\n  ]\n}\n"
# the value of each byte as a decimal digit; any other byte reads as 0
_DIGIT = np.zeros(256, dtype=np.intp)
_DIGIT[48:58] = np.arange(10)
# the longest float.__repr__, as in -2.2250738585072014e-308
_TOKEN_MAX = 24
# the masks of the low 0 to 8 bytes of a word, and an odd multiplier
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _floats(data, start, stop):
    """float(data[a:b]) for the tokens [start, stop) of 1 to _TOKEN_MAX
    bytes, called once per distinct token.  Each token is read as three
    little-endian 8-byte words, its bytes past the end masked out, and the
    words are hashed into one key per token.  A collision would give two
    tokens one value, which the caller's byte comparison rejects."""
    length = stop - start
    if length.min() < 1 or length.max() > _TOKEN_MAX:
        raise ValueError("a value token is empty or longer than any float repr")
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # 8 bytes from each offset
    key = np.zeros(len(start), dtype=np.uint64)
    for w in range(0, _TOKEN_MAX, 8):
        # a word past the token is masked to 0, so its offset may be clipped
        word = words[np.minimum(start + w, len(words) - 1)]
        key = key * _MIX + (word & _LOW_BYTES[np.clip(length - w, 0, 8)])
    _, row, inverse = np.unique(key, return_index=True, return_inverse=True)
    distinct = [float(data[a:b]) for a, b in zip(start[row].tolist(), stop[row].tolist())]
    return np.array(distinct, dtype=float)[inverse]


def _load_written(data):
    """The tensor whose save_model text is the bytes `data`, or None when
    they are not such a text.  The layout is found in array passes: the
    newlines (three for the head, seven per row for "[", the four indices,
    the value and "]", two for the tail), the index digits read right to
    left from the columns before each comma, and the value tokens.  The
    writer's chunks for the tensor so built are then compared with the
    bytes in place: only equal bytes accept it, so no layout rule needs a
    check of its own."""
    head = _HEAD.match(data)
    if head is None or not data.endswith(_TAIL):
        return None
    m = int(head[1])
    if m ** 4 > _KEY_MAX:
        return None
    buf = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(buf == 10)
    n, extra = divmod(len(newlines) - 5, 7)
    if extra or n <= 0:
        return None
    ends = newlines[3:-2].reshape(n, 7)  # the newline that ends each line of a row
    # index lines are "      %d,": digits right to left from the comma
    places = range(len(str(m - 1)))
    keys = np.zeros(n, dtype=np.intp)
    for line in range(1, 5):
        comma = ends[:, line] - 1
        keys = keys * m + sum(_DIGIT[buf[comma - 1 - p]] * 10 ** p for p in places)
    # the value line is "      %r"
    start, stop = ends[:, 4] + 7, ends[:, 5].copy()
    del newlines, ends  # the line index (8 bytes a line) is not needed past here
    try:
        A = CurvatureTensor(m, keys, _floats(data, start, stop))
        chunks = model_to_json_chunks(A)
    except ValueError:  # no float token, keys not ascending in range, or not finite
        return None
    at = 0
    for chunk in chunks:
        chunk = chunk.encode()
        if not data.startswith(chunk, at):
            return None
        at += len(chunk)
    return A if at == len(data) - 1 else None


def load_model(path):
    """Read a model file once.  A text that save_model wrote is parsed in
    array passes and accepted only if the writer's chunks for the parsed
    tensor equal it byte for byte (_load_written).  Any other text is
    decoded as open(path) would and goes through
    model_from_json_dict(json.loads(text)), which names what is wrong."""
    with open(path, "rb") as fh:
        data = fh.read()
    A = _load_written(data)
    if A is not None:
        return A
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    del data  # the bytes need not live beside the json tree
    return model_from_json_dict(json.loads(text))
