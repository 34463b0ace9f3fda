"""Neutral-signature metrics on the cotangent bundle of an affine base.

For a torsion-free connection on R^m with symbols G_ij^k, coordinates are
(x1..xm, y1..ym) and the metrics considered here have the block form

    g = [[ B(x, y), Id ],
         [ Id,      0  ]],      inverse  [[ 0,  Id       ],
                                          [ Id, -B(x, y) ]],

with two choices of the top block:

    deformed:  B_ij = -2 y_k G_ij^k + Phi_ij(x)
    modified:  B_ij = y_i y_j - 2 y_k G_ij^k

The Levi-Civita connection and its curvature are computed exactly (the
block inverse is polynomial), after which Jacobi operators of unit
spacelike/timelike vectors are examined.  The deformed metric over a base
whose Jacobi operators are all nilpotent has nilpotent Jacobi operators
itself; over a projective affine Osserman base its spacelike (and
timelike) Jacobi spectra are projectively constant.  The modified metric
over such a nilpotent base has unit spacelike spectrum {0, 1, 1/4} with
multiplicities (1, 1, 2m-2) and the negatives for timelike vectors.

Nilpotency is decided exactly, on Python ints.  The curvature at the
point is R_int / D, read from the integer numerators that `curvature`
kept (`PolyCurvature.integer_values`: each i < j entry is evaluated once
and its (j, i) entry is the negation, with no Polynomial made).  The Gram
matrix is G_int / G_den (`polynomials.integer_values`), and the causal
vectors are sampled against its correctly rounded float quotients, the
one Gram evaluation of a call.  A probe vector xi (a float, hence a
dyadic rational) is x / den with x integral.  Then J_xi = J_int /
(D den^2), where J_int[l, i] = sum_jk R_int[i, j, k, l] x_j x_k.  The
J_int of all probe vectors come from one grouped contraction
(`_jacobi_ints`): the entries are sorted by cell (l, i) once, then one
object-array product and one sum per cell give every cell of every
vector, exactly in any order.  Since positive rescaling does not change
nilpotency, J_xi is nilpotent exactly when J_int^(2^k) = 0 for the first
2^k >= 2m; a nonzero trace of J_int rules that out at once, and else
repeated squaring decides it with no gcd.  If it is not, the unit
operator J_xi / |<xi, xi>| equals J_int G_den / (D |q_int|) with
q_int = x G_int x, and its float entries are the correctly rounded
quotients of those integers.  The unit operators of both causal
characters share one `spectral.spectrum_batch` call, split by character
afterwards: a row's spectrum does not depend on the rest of its batch.

Each clause is one batched projective match per causal character.  The
deformed clauses match every spectrum against the first one, since
equality up to a positive scale is transitive.  The modified clauses
match against the exact target spectrum and also require |scale - 1| <=
tol, so a cluster may miss its target by tol relative to the spectral
radius (at least tol), plus the scale's own error.  A nilpotent vector,
or a spectrum without a zero cluster or with nothing else, fails the
clause.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import classifier, spectral
from .polynomial_geometry import PolyConnection, curvature
from .polynomials import (CompiledTable, Polynomial, add_product, add_products, add_to,
                          derivative, exact_values, integer_values, nonzero_map,
                          table_numerators)

__all__ = [
    "PolyMetric",
    "ExtensionReport",
    "deformed_extension",
    "modified_extension",
    "levi_civita_block",
    "check_extension_theorems",
]


class PolyMetric:
    """Block cotangent metric.  `components` maps (a, b) to the nonzero
    entries of the 2m x 2m table of polynomials in the 2m variables and
    `top_block` maps (i, j) to those of the m x m matrix B, which the
    constructor takes as a {(i, j): Polynomial | rational} map."""

    def __init__(self, m, top_block):
        m = int(m)
        n = 2 * m
        B = nonzero_map(top_block, m, n)
        bad = [(min(i, j), max(i, j)) for (i, j), p in B.items() if B.get((j, i)) != p]
        if bad:
            raise ValueError("top block is not symmetric at (%d, %d)" % min(bad))
        one = Polynomial.constant(1, n)
        comp = dict(B)
        for i in range(m):
            comp[i, m + i] = comp[m + i, i] = one
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "components", MappingProxyType(comp))
        object.__setattr__(self, "top_block", MappingProxyType(B))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMetric is immutable")

    @cached_property
    def _evaluator(self):
        return CompiledTable(self.components, (self.dim, self.dim), self.dim)

    def inverse(self):
        """Exact polynomial inverse [[0, Id], [Id, -B]], keys in
        lexicographic order."""
        m = self.m
        inv = {key: p for key, p in self.components.items() if key not in self.top_block}
        for (i, j), p in self.top_block.items():
            inv[m + i, m + j] = -p
        return MappingProxyType(dict(sorted(inv.items())))

    def gram_at(self, point):
        """Numeric Gram matrix at a point of R^{2m}, from the float evaluator
        (`check_extension_theorems` reads the exact Gram instead)."""
        return self._evaluator(point)

    def gram_exact(self, point):
        return exact_values(self.components, point, self.dim)


def deformed_extension(C, Phi=None):
    """Metric with top block B_ij = -2 y_k G_ij^k + Phi_ij.

    Phi is an optional symmetric {(i, j): Polynomial | rational} map of
    polynomials in the base variables (numbers are read as constants).
    """
    m = C.dim
    n = 2 * m
    zero = Polynomial.zero(n)
    B = {}
    for (i, j, k), p in C.gamma.items():  # k ascending for each (i, j)
        B[i, j] = B.get((i, j), zero) - 2 * Polynomial.variable(m + k, n) * p.embed(n)
    if Phi is not None:
        for (i, j), p in Phi.items():
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(p, m)
            if p.nvars == m:
                p = p.embed(n)
            if p.nvars != n:
                raise ValueError("Phi entries must use the base variables")
            B[i, j] = B.get((i, j), zero) + p
    return PolyMetric(m, B)  # which rejects an asymmetric Phi


def modified_extension(C):
    """Metric with top block B_ij = y_i y_j - 2 y_k G_ij^k."""
    m = C.dim
    n = 2 * m
    zero = Polynomial.zero(n)
    B = dict(deformed_extension(C).top_block)
    for i in range(m):
        for j in range(m):
            y_ij = Polynomial.variable(m + i, n) * Polynomial.variable(m + j, n)
            B[i, j] = B.get((i, j), zero) + y_ij
    return PolyMetric(m, B)


def levi_civita_block(metric):
    """Levi-Civita symbols of a block cotangent metric, exactly.

    G_ab^c = (1/2) ginv^cd (d_a g_bd + d_b g_ad - d_d g_ab); the result is
    verified to be metric-compatible as an exact polynomial identity.  With
    g over one denominator D and its inverse over E, the symbols are
    accumulated in place as integer numerators over 2 D E.
    """
    n = metric.dim
    g, D = table_numerators(metric.components)
    inverse, E = table_numerators(metric.inverse())
    ginv = [[] for _ in range(n)]  # ginv[d]: the pairs (c, ginv^cd), c ascending
    for (c, d), p in inverse.items():
        ginv[d].append((c, p))
    # dg[a, b, c] = d_c g_ab over D, nonzero ones only
    dg = {(a, b, c): d for (a, b), p in g.items() for c in range(n) if (d := derivative(p, c))}
    # the d of the brackets of each (a, b), a <= b, that some dg term reaches
    reach = defaultdict(set)
    for x, y, z in dg:
        for a, b, d in ((z, x, y), (x, z, y), (x, y, z)):
            if a <= b:
                reach[a, b].add(d)
    table = {}
    for a in range(n):
        for b in range(a, n):
            # sums[c] += ginv^cd bracket_d for d ascending, made when a
            # first term lands in it
            sums = defaultdict(dict)
            for d in sorted(reach.get((a, b), ())):
                bracket = {}
                for key, sign in (((b, d, a), 1), ((a, d, b), 1), ((a, b, d), -1)):
                    if key in dg:
                        add_to(bracket, dg[key], sign)
                if bracket:
                    add_products(sums, ginv[d], bracket, 1)
            for c in sorted(sums):
                if total := sums[c]:
                    table[a, b, c] = table[b, a, c] = Polynomial.from_numerators(
                        n, total, 2 * D * E)
    conn = PolyConnection(n, table)
    # d_a g_bc = G_ab^d g_dc + G_ac^d g_bd, over the nonzero products only;
    # with the symbols over F the defect is over D F.  g is symmetric, so
    # (a, c, b) has the defect of (a, b, c) and b <= c covers them all.
    rows, F = conn.symbol_rows
    grows = [[] for _ in range(n)]  # grows[d]: the pairs (c, g_dc), c ascending
    for (d, c), p in g.items():
        grows[d].append((c, p))
    for a in range(n):
        defects = defaultdict(dict)  # (b, c) -> the exact defect, made on a first term
        for (b, c), p in g.items():
            if b <= c and (b, c, a) in dg:
                add_to(defects[b, c], dg[b, c, a], F)
        for b in range(n):
            for d, gam in rows[a][b]:
                for c, p in grows[d]:
                    if b <= c:
                        add_product(defects[b, c], gam, p, -1)
        for c in range(n):
            for d, gam in rows[a][c]:
                for b, p in grows[d]:
                    if b <= c:
                        add_product(defects[b, c], gam, p, -1)
        bad = [key for key, defect in defects.items() if defect]
        if bad:
            raise RuntimeError("metric compatibility fails at (%d,%d,%d)" % ((a,) + min(bad)))
    return conn


# -- exact Jacobi machinery ----------------------------------------------


def _clear_denominators(values):
    """Integers x (object array) and one integer den > 0 with values = x / den.

    Takes ints, floats and Fractions; a float's den is a power of two.  It
    clears the sampled vectors xi.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return np.array([a * (den // d) for a, d in ratios], dtype=object), den


def _jacobi_ints(R, X):
    """J[v, l, i] = sum_jk R[i, j, k, l] X[v, j] X[v, k], the (V, n, n)
    integer (object) contractions of the nonzero entries R, a
    {(i, j, k, l): int} map, with the rows of the (V, n) integer (object)
    array X.

    The entries are sorted by cell (l, i) once; all rows then take one
    object-array product of the entries with the gathered X_j X_k and one
    sum per cell (np.add.reduceat).  The integers are exact, so the order
    of summation cannot change a result."""
    V, n = X.shape
    J = np.zeros((V, n * n), dtype=object)
    if R:
        keys = np.fromiter(chain.from_iterable(R), np.intp, 4 * len(R)).reshape(-1, 4)
        cell = keys[:, 3] * n + keys[:, 0]
        order = np.argsort(cell, kind="stable")
        cell, pair = cell[order], (keys[:, 1] * n + keys[:, 2])[order]
        entries = np.array(list(R.values()), dtype=object)[order]
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        XX = (X[:, :, None] * X[:, None, :]).reshape(V, n * n)
        J[:, cell[starts]] = np.add.reduceat(entries * XX[:, pair], starts, axis=1)
    return J.reshape(V, n, n)


def _is_nilpotent(J):
    """Whether the n x n integer (object) matrix J has J^(2^k) = 0 for the
    first 2^k >= n, by repeated squaring on Python ints.  A nonzero trace
    answers False at once, since a nilpotent matrix has trace 0."""
    if J.trace():
        return False
    for _ in range((J.shape[0] - 1).bit_length()):
        if not any(J.flat):
            return True
        J = J @ J
    return not any(J.flat)


# -- theorem checks -------------------------------------------------------


@dataclass(frozen=True)
class VectorRecord:
    vector: tuple
    character: str  # 'spacelike' | 'timelike'
    method: str  # 'exact' | 'numeric'
    max_abs_eigenvalue: float
    nilpotent: bool | None
    spectrum: spectral.Spectrum | None

    def to_json_dict(self):
        return {
            "vector": [float(v) for v in self.vector],
            "character": self.character,
            "method": self.method,
            "max_abs_eigenvalue": float(self.max_abs_eigenvalue),
            "nilpotent": self.nilpotent,
            "spectrum": None if self.spectrum is None else self.spectrum.to_json_dict(),
        }


@dataclass(frozen=True)
class ExtensionReport:
    kind: str
    point: tuple
    base_status: str
    records: tuple
    clauses: dict
    passed: bool
    seed: int
    tol: float

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "point": [float(v) for v in self.point],
            "base_status": self.base_status,
            "clauses": {k: bool(v) for k, v in sorted(self.clauses.items())},
            "passed": bool(self.passed),
            "seed": int(self.seed),
            "tol": float(self.tol),
            "vectors": [r.to_json_dict() for r in self.records],
        }


def default_point(m):
    """A fixed generic-looking rational point of R^{2m}."""
    return tuple(Fraction((-1) ** k * (2 * k + 3), 16) for k in range(2 * m))


def _sample_causal(gram, n_each, seed, max_tries=20000):
    n = gram.shape[0]
    rng = np.random.default_rng(seed)
    spacelike, timelike = [], []
    for _ in range(max_tries):
        if len(spacelike) >= n_each and len(timelike) >= n_each:
            break
        xi = rng.standard_normal(n)
        q = float(xi @ gram @ xi)
        if abs(q) <= 1e-6:
            continue
        if q > 0 and len(spacelike) < n_each:
            spacelike.append(xi)
        elif q < 0 and len(timelike) < n_each:
            timelike.append(xi)
    if len(spacelike) < n_each or len(timelike) < n_each:
        raise RuntimeError(
            "could not sample %d vectors of each causal character; "
            "metric signature looks wrong" % n_each
        )
    return spacelike, timelike


def _match_all(batch, ref, tol):
    """Scales of the rows of batch against the Spectrum ref, or None when a
    row matches no positive multiple of ref, or when projective comparison
    does not apply (a row or ref without a zero cluster, or all zero)."""
    try:
        scales, residuals, _ = spectral.projective_match_batch(batch, ref, tol)
    except ValueError:
        return None
    return scales if np.isfinite(residuals).all() else None


def check_extension_theorems(
    C, Phi=None, which="deformed", point=None, n_vectors=10, seed=0, tol=1e-6
):
    """Evaluate the extension-metric spectral statements at one point.

    Builds the requested metric over the base connection, takes its exact
    Levi-Civita curvature, classifies the base at the matching base point,
    and tests the applicable clause on sampled unit spacelike and timelike
    vectors (n_vectors >= 1 of each).  Returns an ExtensionReport whose
    `passed` field is the conjunction of the evaluated clauses.
    """
    if which not in ("deformed", "modified"):
        raise ValueError("which must be 'deformed' or 'modified'")
    if which == "modified" and Phi is not None:
        raise ValueError("the modified metric takes no Phi block")
    if n_vectors < 1:
        raise ValueError("need at least one vector of each causal character")
    m = C.dim
    if point is None:
        point = default_point(m)
    point = tuple(Fraction(v) for v in point)
    if len(point) != 2 * m:
        raise ValueError("point must have %d components" % (2 * m))

    metric = deformed_extension(C, Phi) if which == "deformed" else modified_extension(C)
    lc = levi_civita_block(metric)
    n = 2 * m
    # The nonzero entries at the point, as integers over one denominator
    # each: R = R_int / D and G = G_int / G_den.
    R, D = curvature(lc).integer_values(point)
    G, G_den = integer_values(metric.components, point, n)
    G_int = np.zeros((n, n), dtype=object)
    G_int[tuple(zip(*G))] = list(G.values())

    base_point = [float(v) for v in point[:m]]
    base_verdict = classifier.is_projective_affine_osserman(
        curvature(C).evaluate_at(base_point), tol=tol
    )

    # int / int rounds as Fraction.__float__ does
    spacelike, timelike = _sample_causal((G_int / G_den).astype(float), n_vectors, seed)

    # J_xi / |<xi, xi>| = J_int G_den / (D |q_int|) (module docstring)
    vectors = spacelike + timelike
    X = np.array([_clear_denominators(xi)[0] for xi in vectors])
    units = []
    for x, J_int in zip(X, _jacobi_ints(R, X)):
        if _is_nilpotent(J_int):
            units.append(None)
        else:
            scale = D * abs(x @ G_int @ x)
            units.append((J_int * G_den / scale).astype(float))
    # one eigensolve for both characters (module docstring)
    numeric = [v for v, J in enumerate(units) if J is not None]
    row_of = {v: r for r, v in enumerate(numeric)}
    batch = (spectral.spectrum_batch([units[v] for v in numeric], cluster_tol=tol)
             if numeric else None)
    records = []
    for v, xi in enumerate(vectors):
        S = batch[row_of[v]] if v in row_of else None
        records.append(VectorRecord(
            tuple(map(float, xi)), "spacelike" if v < n_vectors else "timelike",
            "exact" if S is None else "numeric",
            0.0 if S is None else float(S.radius()), S is None, S,
        ))
    batches = {}  # the rows of one character, None if a vector is nilpotent
    for character, first in (("spacelike", 0), ("timelike", n_vectors)):
        rows = [row_of.get(v) for v in range(first, first + n_vectors)]
        batches[character] = None if None in rows else spectral.SpectrumBatch(
            batch.values[rows], batch.mults[rows], batch.tol[rows])

    clauses = {}
    if which == "deformed":
        if base_verdict.status == classifier.AFFINE:
            clauses["nilpotent"] = all(r.nilpotent for r in records)
        elif base_verdict.status == classifier.PROJECTIVE:
            # The kernel of J_xi contains xi, so each spectrum carries its
            # own zero cluster.  Equality up to a positive scale is
            # transitive, so matching every spectrum against the first one
            # decides the clause.
            for character, batch in batches.items():
                clauses["projective_" + character] = (
                    batch is not None and _match_all(batch, batch[0], tol) is not None
                )
        else:
            clauses["base_osserman"] = False
    else:
        # Unit spectra {0, sign, sign/4} with multiplicities (1, 1, n - 2).
        for name, character, sign in (("spacelike_spectrum", "spacelike", 1.0),
                                      ("timelike_negative", "timelike", -1.0)):
            items = sorted([(0j, 1), (complex(sign), 1), (complex(sign / 4), n - 2)],
                           key=lambda item: item[0].real)
            batch = batches[character]
            scales = None if batch is None else _match_all(
                batch, spectral.Spectrum(tuple(items), tol), tol)
            clauses[name] = scales is not None and bool(np.all(np.abs(scales - 1.0) <= tol))

    passed = bool(clauses) and all(clauses.values())
    return ExtensionReport(
        which, tuple(float(v) for v in point), base_verdict.status,
        tuple(records), clauses, passed, seed, tol,
    )


