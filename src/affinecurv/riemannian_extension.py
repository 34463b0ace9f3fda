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

Nilpotency is decided exactly, on Python ints.  Denominators are cleared
once per call: the curvature at the point is R_int / D and the Gram matrix
G_int / G_den, and a probe vector xi (a float, hence a dyadic rational) is
x / den with x integral.  Then J_xi = J_int / (D den^2), where J_int is the
contraction of R_int with x (x) x, and since positive rescaling does not
change nilpotency, J_xi is nilpotent exactly when J_int^(2^k) = 0 for the
first 2^k >= 2m; repeated squaring decides that with no gcd.  Otherwise the
unit operator J_xi / |<xi, xi>| equals J_int G_den / (D |q_int|) with
q_int = x G_int x, and its float entries are the correctly rounded
quotients of those integers.

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
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import classifier, spectral
from .polynomial_geometry import PolyConnection, curvature, curvature_at
from .polynomials import CompiledTable, Polynomial

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

    __slots__ = ("m", "dim", "components", "top_block", "_evaluator")

    def __init__(self, m, top_block):
        m = int(m)
        n = 2 * m
        B = {}
        for (i, j), p in top_block.items():
            for idx in (i, j):
                if not 0 <= idx < m:
                    raise ValueError("index %d out of range in key %r" % (idx, (i, j)))
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(p, n)
            if p.nvars != n:
                raise ValueError("top block entries must live in %d variables" % n)
            if p:
                B[i, j] = p
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
        object.__setattr__(self, "_evaluator", CompiledTable(comp, (n, n), n))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMetric is immutable")

    def inverse(self):
        """Exact polynomial inverse [[0, Id], [Id, -B]], keys in
        lexicographic order."""
        m, n = self.m, self.dim
        one = Polynomial.constant(1, n)
        inv = {}
        for i in range(m):
            inv[i, m + i] = inv[m + i, i] = one
        for (i, j), p in self.top_block.items():
            inv[m + i, m + j] = -p
        return MappingProxyType(dict(sorted(inv.items())))

    def gram_at(self, point):
        """Numeric Gram matrix at a point of R^{2m}."""
        return self._evaluator(point)

    def gram_exact(self, point):
        point = [Fraction(v) for v in point]
        gram = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for (a, b), p in self.components.items():
            gram[a][b] = p(point)
        return gram


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
    verified to be metric-compatible as an exact polynomial identity.
    """
    n = metric.dim
    g = metric.components
    ginv = [[] for _ in range(n)]  # ginv[c]: the pairs (d, ginv^cd), d ascending
    for (c, d), p in metric.inverse().items():
        ginv[c].append((d, p))
    half = Fraction(1, 2)
    zero = Polynomial.zero(n)
    # dg[a, b, c] = d_c g_ab, nonzero ones only
    dg = {(a, b, c): d for (a, b), p in g.items() for c in range(n) if (d := p.diff(c))}
    table = {}
    for a in range(n):
        for b in range(a, n):
            brackets = {}
            for d in range(n):
                bracket = (dg.get((b, d, a), zero) + dg.get((a, d, b), zero)
                           - dg.get((a, b, d), zero))
                if bracket:
                    brackets[d] = bracket
            for c in range(n):
                total = zero
                for d, inv in ginv[c]:
                    if d in brackets:
                        total = total + inv * brackets[d]
                table[a, b, c] = table[b, a, c] = half * total
    conn = PolyConnection(n, table)
    # d_a g_bc = G_ab^d g_dc + G_ac^d g_bd, over the nonzero products only
    rows = conn.symbol_rows()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                defect = dg.get((b, c, a), zero)
                for d, gam in rows[a][b]:
                    if (d, c) in g:
                        defect = defect - gam * g[d, c]
                for d, gam in rows[a][c]:
                    if (b, d) in g:
                        defect = defect - gam * g[b, d]
                if not defect.is_zero:
                    raise RuntimeError("metric compatibility fails at (%d,%d,%d)" % (a, b, c))
    return conn


# -- exact Jacobi machinery ----------------------------------------------


def _clear_denominators(values):
    """Integers x (object array) and one integer den > 0 with values = x / den.

    Takes ints, floats and Fractions; a float's den is a power of two.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return np.array([a * (den // d) for a, d in ratios], dtype=object), den


def _is_nilpotent(J):
    """Whether the n x n integer (object) matrix J has J^(2^k) = 0 for the
    first 2^k >= n, by repeated squaring on Python ints."""
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
    R = curvature(lc).evaluate_exact(point)
    n = 2 * m
    # Denominators are cleared once, over the nonzero entries: R = R_int / D
    # and G = G_int / G_den.
    values, D = _clear_denominators(R.values())
    R_int = list(zip(R, values.tolist()))  # ((i, j, k, l), integer) pairs
    G_int, G_den = _clear_denominators([v for row in metric.gram_exact(point) for v in row])
    G_int = G_int.reshape(n, n)

    float_point = [float(v) for v in point]
    base_point = float_point[:m]
    base_verdict = classifier.is_projective_affine_osserman(
        curvature_at(C, base_point), tol=tol
    )

    gram = metric.gram_at(float_point)
    spacelike, timelike = _sample_causal(gram, n_vectors, seed)

    records = []
    batches = {}  # one SpectrumBatch per character, None if a vector is nilpotent
    for character, bucket in (("spacelike", spacelike), ("timelike", timelike)):
        # J_xi / |<xi, xi>| = J_int G_den / (D |q_int|) (module docstring);
        # int / int rounds as Fraction.__float__ does.
        units = []
        for xi in bucket:
            x, _ = _clear_denominators(xi)
            # J_int[l, i] = sum_jk R_int[i, j, k, l] x_j x_k
            J_int = np.zeros((n, n), dtype=object)
            for (i, j, k, l), r in R_int:
                J_int[l, i] += r * x[j] * x[k]
            if _is_nilpotent(J_int):
                units.append(None)
            else:
                scale = D * abs(x @ G_int @ x)
                units.append((J_int * G_den / scale).astype(float))
        stack = [J for J in units if J is not None]
        batch = spectral.spectrum_batch(stack, cluster_tol=tol) if stack else ()
        rows = iter(batch)
        for xi, J in zip(bucket, units):
            S = None if J is None else next(rows)
            records.append(VectorRecord(
                tuple(map(float, xi)), character, "exact" if S is None else "numeric",
                0.0 if S is None else float(S.radius()), S is None, S,
            ))
        batches[character] = batch if len(stack) == len(units) else None

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


