"""Constructions of curvature models with prescribed reduced Jacobi spectra.

Two base operators generate everything here:

    constant_curvature(m):     A(X, Y)Z = <Y,Z>X - <X,Z>Y
    complex_structure_term(J): A(X, Y)Z = (1/3)(<JY,Z>X - <JX,Z>Y - 2<JX,Y>Z)

For a unit direction X the first has Jacobi operator "identity on the
complement of X", the second maps JX to X and kills everything orthogonal
to JX.  Composing with orthogonal (anti)complex structures and taking
linear combinations produces models whose Jacobi operator acts, on the
quotient by X, with any admissible eigenvalue pattern; `realize` maps a
case label plus eigenvalue data to the matching combination.

Both operators are Kronecker deltas times Id or J, and the standard
structures are signed permutations, so each model has O(m^2) nonzero
entries.  It is built as a sorted nonzero list (`_Term`), never as an
m^4 array, and its entries have the bits of the dense formulas.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .tensor_core import CurvatureTensor

__all__ = [
    "ComplexStructure",
    "QuaternionStructure",
    "StructureSpec",
    "constant_curvature",
    "complex_structure_term",
    "standard_complex_structure",
    "standard_quaternion_structure",
    "compose_endomorphism",
    "complex_model",
    "quaternion_model",
    "realize",
    "CASE_LABELS",
    "case_constraints",
]

_STRUCT_TOL = 1e-10


@dataclass(frozen=True)
class ComplexStructure:
    """Orthogonal anti-involution: J^2 = -Id and J^T J = Id."""

    matrix: np.ndarray

    def __post_init__(self):
        J = np.array(self.matrix, dtype=float)
        J.setflags(write=False)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError("J must be square")
        m = J.shape[0]
        if m % 2:
            raise ValueError("a complex structure needs even dimension, got %d" % m)
        if np.max(np.abs(J @ J + np.eye(m))) > _STRUCT_TOL:
            raise ValueError("J^2 = -Id fails")
        if np.max(np.abs(J.T @ J - np.eye(m))) > _STRUCT_TOL:
            raise ValueError("J is not orthogonal")
        object.__setattr__(self, "matrix", J)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QuaternionStructure:
    """Orthogonal J1, J2, J3 with the quaternion relations J1 J2 = J3."""

    j1: ComplexStructure
    j2: ComplexStructure
    j3: ComplexStructure

    def __post_init__(self):
        m = self.j1.dim
        if self.j2.dim != m or self.j3.dim != m:
            raise ValueError("component dimensions differ")
        if m % 4:
            raise ValueError("a quaternion structure needs dimension divisible by 4")
        a, b, c = self.j1.matrix, self.j2.matrix, self.j3.matrix
        if np.max(np.abs(a @ b - c)) > _STRUCT_TOL:
            raise ValueError("J1 J2 = J3 fails")
        for p, q in ((a, b), (b, c), (c, a)):
            if np.max(np.abs(p @ q + q @ p)) > _STRUCT_TOL:
                raise ValueError("components do not anticommute")

    @property
    def dim(self):
        return self.j1.dim


def standard_complex_structure(m):
    """Block rotation on consecutive coordinate pairs: e1 -> e2, e2 -> -e1."""
    if m % 2:
        raise ValueError("m must be even, got %d" % m)
    J = np.zeros((m, m))
    k = np.arange(0, m, 2)
    J[k + 1, k], J[k, k + 1] = 1.0, -1.0
    return ComplexStructure(J)


def standard_quaternion_structure(m):
    """Left multiplication by i, j, k on consecutive coordinate 4-blocks."""
    if m % 4:
        raise ValueError("m must be divisible by 4, got %d" % m)
    J = np.zeros((3, m, m))
    b = np.arange(0, m, 4)[:, None]
    # unit * (1, i, j, k)[c] = sign[c] * (1, i, j, k)[row[c]] in each block
    for Ju, row, sign in zip(J, ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
                             ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))):
        Ju[b + row, b + np.arange(4)] = sign
    return QuaternionStructure(*map(ComplexStructure, J))


class _Term:
    """Sparse rank-4 tensor: sorted unique raveled (i, j, k, l) keys and
    values, a missing key reading as 0.  Each operator gives a nonzero value
    the bits of the dense array operation, which only adds signed zeros."""

    __array_ufunc__ = None  # so numpy scalars defer to __rmul__

    def __init__(self, m, keys, vals):
        self.m, self.keys, self.vals = m, keys, vals

    @classmethod
    def collect(cls, m, keys, vals):
        """Join the key and value arrays and sum the values of equal keys."""
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = np.concatenate(vals)[order]
        del order  # freed before the outputs are made, which lowers the peak
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        return cls(m, keys[first], np.add.reduceat(vals, first))

    @classmethod
    def delta(cls, M, row, col):
        """M[x_row, x_col] times the Kronecker delta of the other two slots."""
        m = len(M)
        r, c = np.nonzero(M)
        idx = [np.arange(len(r) * m) % m] * 4
        idx[row], idx[col] = np.repeat(r, m), np.repeat(c, m)
        return cls.collect(m, [np.ravel_multi_index(idx, (m,) * 4)], [np.repeat(M[r, c], m)])

    def __rmul__(self, c):
        return _Term(self.m, self.keys, c * self.vals)

    def __truediv__(self, c):
        return _Term(self.m, self.keys, self.vals / c)

    def __add__(self, other):
        return _Term.collect(self.m, (self.keys, other.keys), (self.vals, other.vals))

    def __sub__(self, other):
        return self + _Term(other.m, other.keys, -other.vals)

    def __matmul__(self, M):
        """entries @ M: each M[p, l] != 0 moves the entries at p in the last slot
        to l, times M[p, l]; one product an entry if M is a signed permutation."""
        p, l = np.nonzero(M)
        last = self.keys % self.m
        start = np.searchsorted(p, last)
        count = np.searchsorted(p, last, side="right") - start
        at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        return _Term.collect(self.m, [np.repeat(self.keys - last, count) + l[at]],
                             [np.repeat(self.vals, count) * M[p[at], l[at]]])

    def tensor(self, notes=()):
        return CurvatureTensor(self.m, self.keys, self.vals, notes)


def _constant_curvature(m):
    """<Y,Z>X - <X,Z>Y: [i, j, k, l] -> d_jk d_il - d_ik d_jl."""
    eye = np.eye(m)
    return _Term.delta(eye, 2, 1) - _Term.delta(eye, 2, 0)


def _complex_structure(Jm):
    """complex_structure_term; <J e_j, e_k> = Jm[k, j]."""
    return (_Term.delta(Jm, 2, 1) - _Term.delta(Jm, 2, 0) - 2.0 * _Term.delta(Jm, 1, 0)) / 3.0


def constant_curvature(m):
    """A(X, Y)Z = <Y,Z>X - <X,Z>Y, the constant-sectional-curvature model."""
    if m < 2:
        raise ValueError("need m >= 2")
    return _constant_curvature(m).tensor()


def complex_structure_term(J):
    """A(X, Y)Z = (1/3)(<JY,Z>X - <JX,Z>Y - 2<JX,Y>Z) for a complex structure J."""
    return _complex_structure(J.matrix).tensor()


def compose_endomorphism(Xi, A):
    """Tensor of (X, Y, Z) -> Xi(A(X, Y)Z): Xi acts on the output slot."""
    Xi = np.asarray(Xi, dtype=float)
    if Xi.shape != (A.dim, A.dim):
        raise ValueError("endomorphism shape %r does not match dim %d" % (Xi.shape, A.dim))
    return (_Term(A.dim, A._keys, A._values) @ Xi.T).tensor()


def complex_model(J, axis_value, perp_value, perp_skew):
    """Model whose Jacobi operator at any unit X acts as

        X            -> 0
        JX           -> axis_value * JX
        Y in {X,JX}^perp -> perp_value * Y + perp_skew * JY.

    Eigenvalues on the quotient by X: axis_value once and the pair
    perp_value +/- i*perp_skew, each with multiplicity (m - 2)/2 (a single
    real eigenvalue of multiplicity m - 2 when perp_skew = 0).
    """
    Jm = J.matrix
    a0 = _constant_curvature(J.dim)
    j_aj = _complex_structure(Jm) @ Jm.T
    return (
        perp_value * a0
        + perp_skew * (a0 @ Jm.T - j_aj @ Jm.T)
        + (axis_value - perp_value) * j_aj
    ).tensor()


def quaternion_model(Q, j1_value, j2_value, j3_value, perp_value, perp_skew, plane_skew):
    """Model whose Jacobi operator at any unit X acts as

        X    -> 0
        J1 X -> j1_value * J1 X
        J2 X -> j2_value * Y + plane_skew * J1 Y   (Y = J2 X)
        J3 X -> j3_value * Y + plane_skew * J1 Y   (Y = J3 X)
        Y in {X, J1X, J2X, J3X}^perp -> perp_value * Y + perp_skew * J1 Y.

    On the quotient this yields j1_value, the conjugate-closed pair from
    the (J2 X, J3 X) plane with skew part plane_skew, and the pair
    perp_value +/- i*perp_skew with multiplicity (m - 4)/2 each.  At m = 4
    the complement is empty and the perp slot is absent; the returned
    tensor is flagged with a note in that case.
    """
    J1, J2, J3 = Q.j1.matrix, Q.j2.matrix, Q.j3.matrix
    a0 = _constant_curvature(Q.dim)
    t1, t2, t3 = (_complex_structure(Jm) @ Jm.T for Jm in (J1, J2, J3))
    notes = ("empty-complement: the perp eigenvalue slot has multiplicity 0",) if Q.dim == 4 else ()
    return (
        perp_value * a0
        + (j1_value - perp_value) * t1
        + (j2_value - perp_value) * t2
        + (j3_value - perp_value) * t3
        + perp_skew * (a0 @ J1.T - t1 @ J1.T)
        + (plane_skew - perp_skew) * ((t2 + t3) @ J1.T)
    ).tensor(notes)


# -- case table and realization -------------------------------------------


def _constant_model(m, value):
    """value * constant_curvature(m)."""
    return (value * _constant_curvature(m)).tensor()


def _complex_model(m, *args):
    """complex_model on the standard complex structure of R^m."""
    return complex_model(standard_complex_structure(m), *args)


def _quaternion_model(m, *args):
    """quaternion_model on the standard quaternion structure of R^m."""
    return quaternion_model(standard_quaternion_structure(m), *args)


# label -> (modulus, residue, real slot mults, pair slot mults, builder,
#           builder arguments).  The case exists at m when m % modulus ==
# residue and every slot is nonempty.  Mults are in slot order, lambda_1..
# first, then nu_1.. .  realize returns builder(m, *arguments(v, re, im))
# for the real eigenvalues v and the real and imaginary parts re, im of
# the nus.
_CASES = {
    "1":       (2, 1, lambda m: (m - 1,), lambda m: (), _constant_model,
                lambda v, re, im: (v[0],)),
    "2-a":     (4, 2, lambda m: (m - 1,), lambda m: (), _constant_model,
                lambda v, re, im: (v[0],)),
    "2-b":     (4, 2, lambda m: (1, m - 2), lambda m: (), _complex_model,
                lambda v, re, im: (v[0], v[1], 0.0)),
    "2-c":     (4, 2, lambda m: (1,), lambda m: ((m - 2) // 2,), _complex_model,
                lambda v, re, im: (v[0], re[0], im[0])),
    "3-a":     (4, 0, lambda m: (m - 1,), lambda m: (), _constant_model,
                lambda v, re, im: (v[0],)),
    "3-b-i":   (4, 0, lambda m: (1, m - 2), lambda m: (), _complex_model,
                lambda v, re, im: (v[0], v[1], 0.0)),
    "3-b-ii":  (4, 0, lambda m: (2, m - 3), lambda m: (), _quaternion_model,
                lambda v, re, im: (v[0], v[0], v[1], v[1], 0.0, 0.0)),
    "3-b-iii": (4, 0, lambda m: (3, m - 4), lambda m: (), _quaternion_model,
                lambda v, re, im: (v[0], v[0], v[0], v[1], 0.0, 0.0)),
    "3-c-i":   (4, 0, lambda m: (1, 1, m - 3), lambda m: (), _quaternion_model,
                lambda v, re, im: (v[0], v[1], v[2], v[2], 0.0, 0.0)),
    "3-c-ii":  (4, 0, lambda m: (1, 2, m - 4), lambda m: (), _quaternion_model,
                lambda v, re, im: (v[0], v[1], v[1], v[2], 0.0, 0.0)),
    "3-d":     (4, 0, lambda m: (1, 1, 1, m - 4), lambda m: (), _quaternion_model,
                lambda v, re, im: (v[0], v[1], v[2], v[3], 0.0, 0.0)),
    "3-e-i":   (4, 0, lambda m: (1,), lambda m: ((m - 2) // 2,), _quaternion_model,
                lambda v, re, im: (v[0], re[0], re[0], re[0], im[0], im[0])),
    "3-e-ii":  (4, 0, lambda m: (3,), lambda m: ((m - 4) // 2,), _quaternion_model,
                lambda v, re, im: (v[0], v[0], v[0], re[0], im[0], 0.0)),
    "3-e-iii": (4, 0, lambda m: (m - 3,), lambda m: (1,), _quaternion_model,
                lambda v, re, im: (v[0], re[0], re[0], v[0], 0.0, im[0])),
    "3-f-i":   (4, 0, lambda m: (1, 2), lambda m: ((m - 4) // 2,), _quaternion_model,
                lambda v, re, im: (v[0], v[1], v[1], re[0], im[0], 0.0)),
    "3-f-ii":  (4, 0, lambda m: (1, m - 4), lambda m: (1,), _quaternion_model,
                lambda v, re, im: (v[0], re[0], re[0], v[1], 0.0, im[0])),
    "3-g":     (4, 0, lambda m: (1, 1, 1), lambda m: ((m - 4) // 2,), _quaternion_model,
                lambda v, re, im: (v[0], v[1], v[2], re[0], im[0], 0.0)),
    "3-h":     (4, 0, lambda m: (1,), lambda m: (1, (m - 4) // 2), _quaternion_model,
                lambda v, re, im: (v[0], re[0], re[0], re[1], im[1], im[0])),
}

CASE_LABELS = tuple(_CASES)


def case_constraints(case, m):
    """(real multiplicities, pair multiplicities) for a case at dimension m."""
    info = _CASES[case]
    return info[2](m), info[3](m)


def _listed_cases(m):
    """(label, real mults, pair mults) of each case the taxonomy lists at m,
    in table order: those whose residue class holds m and whose slots are
    all nonempty.  They are the classification for m odd, 2 mod 4 and
    4 mod 8.  For m = 0 mod 8 the sphere bound is vacuous and nothing is
    listed, though realize still builds the 3-x cases there."""
    if m % 8 == 0:
        return []
    out = []
    for case, (modulus, residue, real_mults, pair_mults, *_) in _CASES.items():
        if m % modulus == residue:
            reals, pairs = real_mults(m), pair_mults(m)
            if min(reals + pairs) >= 1:
                out.append((case, reals, pairs))
    return out


@dataclass(frozen=True)
class StructureSpec:
    """A case label with the eigenvalue data that realizes it.

    lambdas are the real eigenvalues, nus the upper-half-plane members of
    the conjugate pairs, both in the slot order of the case table.
    """

    case: str
    lambdas: tuple = ()
    nus: tuple = ()
    m: int | None = None

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError("unknown case label %r" % (self.case,))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        nus = tuple(complex(v) for v in self.nus)
        for value in self.lambdas + nus:
            if not cmath.isfinite(value):
                raise ValueError("eigenvalue %r is not finite" % (value,))
        for nu in nus:
            if nu.imag <= 0:
                raise ValueError("complex eigenvalue %r must have positive imaginary part" % (nu,))
        object.__setattr__(self, "nus", nus)

    def to_json_dict(self):
        out = {
            "case": self.case,
            "lambda": [float(v) for v in self.lambdas],
            "nu": [[float(v.real), float(v.imag)] for v in self.nus],
        }
        if self.m is not None:
            out["m"] = int(self.m)
        return out

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            case=data["case"],
            lambdas=tuple(data.get("lambda", ())),
            nus=tuple(complex(re, im) for re, im in data.get("nu", ())),
            m=data.get("m"),
        )


def _validate(spec, m):
    modulus, residue, real_mults, pair_mults = _CASES[spec.case][:4]
    if spec.m is not None and spec.m != m:
        raise ValueError("spec carries m=%d but realize was given m=%d" % (spec.m, m))
    if m < 2:
        raise ValueError("need m >= 2")
    if m % modulus != residue:
        raise ValueError(
            "case %s needs dimension class m = %d mod %d; m=%d does not qualify"
            % (spec.case, residue, modulus, m)
        )
    reals, pairs = real_mults(m), pair_mults(m)
    if len(spec.lambdas) != len(reals) or len(spec.nus) != len(pairs):
        raise ValueError(
            "case %s takes %d real and %d complex eigenvalues, got %d and %d"
            % (spec.case, len(reals), len(pairs), len(spec.lambdas), len(spec.nus))
        )
    for mults, what in ((reals, "real"), (pairs, "complex")):
        for slot, mult in enumerate(mults):
            if mult < 1:
                raise ValueError(
                    "case %s at m=%d gives %s slot %d multiplicity %d; "
                    "the slot must be nonempty" % (spec.case, m, what, slot + 1, mult)
                )
    values = [complex(v) for v in spec.lambdas] + list(spec.nus)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise ValueError(
                    "case %s requires distinct eigenvalues; got a repeat %r"
                    % (spec.case, values[i])
                )
    # Distinct values are not all zero unless there is one; a lone zero
    # eigenvalue gives the zero model, which is affine Osserman.
    if not any(values):
        raise ValueError("case %s needs a nonzero eigenvalue" % spec.case)


def realize(spec, m):
    """Curvature model on R^m whose reduced Jacobi spectrum matches `spec`
    at every direction.

    Validates the dimension class of the case, positivity of every implied
    multiplicity, and pairwise distinctness of the eigenvalue data.
    """
    _validate(spec, m)
    build, arguments = _CASES[spec.case][4:]
    re = [nu.real for nu in spec.nus]
    im = [nu.imag for nu in spec.nus]
    return build(m, *arguments(spec.lambdas, re, im))
