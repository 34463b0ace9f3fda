"""Spectra of Jacobi operators: clustering, Jordan structure, projective
comparison.

Eigenvalues of the (generally non-symmetric) Jacobi matrices are computed
with a dense general-purpose solver and then clustered, because the models
of interest carry exactly repeated eigenvalues that floating arithmetic
scatters.  Conjugate pairs are restored exactly: a real matrix is the only
input we accept, so the multiset must be closed under conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigensolverError",
    "Spectrum",
    "SpectrumBatch",
    "JordanProfile",
    "MuVector",
    "spectrum",
    "spectrum_batch",
    "jordan_profile",
    "mu_vector",
    "projective_match_batch",
]

DEFAULT_CLUSTER_TOL = 1e-8


class EigensolverError(RuntimeError):
    """Eigen/singular value computation failed or produced nonsense."""


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalue multiset.

    `items` is a tuple of (value, multiplicity) sorted by (re, im); values
    with |Im| at most the effective tolerance are snapped to the real
    axis, and non-real values come in exact conjugate pairs.
    """

    items: tuple
    cluster_tol: float

    @property
    def total_multiplicity(self):
        return sum(m for _, m in self.items)

    def radius(self):
        return max((abs(v) for v, _ in self.items), default=0.0)

    def scaled(self, c):
        """The spectrum of c times the matrix, for c > 0."""
        return Spectrum(tuple((v * c, m) for v, m in self.items), self.cluster_tol * c)

    def to_json_dict(self):
        return {
            "eigenvalues": [
                {"re": float(v.real), "im": float(v.imag), "mult": int(m)}
                for v, m in self.items
            ],
            "tol": float(self.cluster_tol),
        }

    @classmethod
    def from_json_dict(cls, data):
        items = tuple(
            (complex(e["re"], e["im"]), int(e["mult"])) for e in data["eigenvalues"]
        )
        return cls(items, float(data["tol"]))


@dataclass(frozen=True, eq=False)
class SpectrumBatch:
    """Clustered spectra of n matrices, packed in arrays.

    Row s of `values` and `mults` holds the clusters of spectrum s sorted
    by (re, im), followed by unused slots of multiplicity 0; `tol[s]` is
    its effective cluster tolerance.  Indexing a row gives its Spectrum.
    """

    values: np.ndarray
    mults: np.ndarray
    tol: np.ndarray

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, s):
        count = int(np.count_nonzero(self.mults[s]))
        items = tuple(
            (complex(v), int(m)) for v, m in zip(self.values[s, :count], self.mults[s, :count])
        )
        return Spectrum(items, float(self.tol[s]))

    @classmethod
    def of(cls, spectra):
        """Pack Spectrum objects into one batch."""
        k = max(len(S.items) for S in spectra)
        values = np.zeros((len(spectra), k), dtype=complex)
        mults = np.zeros((len(spectra), k), dtype=int)
        for s, S in enumerate(spectra):
            for slot, (v, m) in enumerate(S.items):
                values[s, slot] = v
                mults[s, slot] = m
        return cls(values, mults, np.array([S.cluster_tol for S in spectra], dtype=float))

    @classmethod
    def _sorted(cls, values, mults, tol):
        order = np.lexsort((values.imag, values.real, mults == 0), axis=-1)
        values = np.take_along_axis(values, order, axis=1)
        mults = np.take_along_axis(mults, order, axis=1)
        return cls(np.where(mults > 0, values, 0j), mults, tol)

    def zero_flags(self):
        """Per row: every eigenvalue sits within the cluster tolerance of 0."""
        far = (self.mults > 0) & (np.abs(self.values) > self.tol[:, None])
        return ~far.any(axis=1)

    def with_zero(self):
        """Every row with one extra zero eigenvalue (the quotient direction).

        The first cluster within tolerance of zero is re-averaged with the
        exact zero; a row without one gains a fresh (0, 1) item.
        """
        n = len(self)
        values = np.concatenate([self.values, np.zeros((n, 1), dtype=complex)], axis=1)
        mults = np.concatenate([self.mults, np.zeros((n, 1), dtype=int)], axis=1)
        zero = (mults > 0) & (np.abs(values) <= self.tol[:, None])
        has = zero.any(axis=1)
        rows = np.nonzero(has)[0]
        cols = zero.argmax(axis=1)[rows]
        m = mults[rows, cols]
        values[rows, cols] = (values[rows, cols] * m) / (m + 1)
        mults[rows, cols] += 1
        mults[~has, -1] = 1
        return SpectrumBatch._sorted(values, mults, self.tol)


def _cluster(vals, base):
    """SpectrumBatch of the eigenvalue rows vals (n, k).

    The effective tolerance of a row is base times its spectral radius
    (absolute when the radius is below one).  Clusters are the single-
    linkage components of the "within tolerance" graph, so distinct
    reported values are pairwise farther apart than it.  Conjugate pairs
    are then symmetrized exactly, since a real matrix is the only input.
    """
    n, k = vals.shape
    eff = base * np.maximum(1.0, np.max(np.abs(vals), axis=1))
    near = np.abs(vals[:, :, None] - vals[:, None, :]) <= eff[:, None, None]
    # Components by squaring the reachability matrix until it stops
    # growing: about log2(k) products, one when the clusters are cliques.
    while True:
        step = near.astype(float)
        reach = np.matmul(step, step) > 0.0
        if np.array_equal(reach, near):
            break
        near = reach
    # Each eigenvalue's root is the lowest index in its component.
    member = near.argmax(axis=2)[:, :, None] == np.arange(k)
    mults = member.sum(axis=1)
    centroid = np.matmul(vals[:, None, :], member.astype(float))[:, 0, :] / np.maximum(mults, 1)
    centroid = np.where(np.abs(centroid.imag) <= eff[:, None], centroid.real + 0j, centroid)

    # Conjugation closure: pair each cluster above the axis with the
    # nearest conjugate below it, of equal multiplicity.
    upper = (mults > 0) & (centroid.imag > 0.0)
    lower = (mults > 0) & (centroid.imag < 0.0)
    dist = np.abs(np.conj(centroid)[:, :, None] - centroid[:, None, :])
    allowed = upper[:, :, None] & lower[:, None, :] & (mults[:, :, None] == mults[:, None, :])
    dist = np.where(allowed, dist, np.inf)
    s_idx, a_idx = np.nonzero(upper)
    b_idx = dist.argmin(axis=2)[s_idx, a_idx]
    paired = np.zeros_like(lower)
    paired[s_idx, b_idx] = True
    if (
        np.any(dist[s_idx, a_idx, b_idx] > 2 * eff[s_idx])
        or not np.array_equal(paired, lower)
        or not np.array_equal(upper.sum(axis=1), lower.sum(axis=1))
    ):
        raise EigensolverError("spectrum of a real matrix is not conjugation-closed")
    sym = (centroid[s_idx, a_idx] + np.conj(centroid[s_idx, b_idx])) / 2.0
    centroid[s_idx, a_idx] = sym
    centroid[s_idx, b_idx] = np.conj(sym)
    return SpectrumBatch._sorted(centroid, mults, eff)


def spectrum_batch(Ms, cluster_tol=None):
    """Clustered spectra of a stack of real square matrices (n, k, k).

    One eigensolve for the whole stack, then one vectorized clustering;
    see _cluster for the tolerance.
    """
    Ms = np.asarray(Ms, dtype=float)
    if Ms.ndim != 3 or Ms.shape[1] != Ms.shape[2]:
        raise ValueError("matrices must be an (n, k, k) stack, got shape %r" % (Ms.shape,))
    if Ms.shape[1] == 0:
        raise ValueError("empty matrix has no spectrum")
    try:
        vals = np.linalg.eigvals(Ms)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError("eigenvalue iteration failed: %s" % exc) from exc
    vals = vals.astype(complex)
    if not np.all(np.isfinite(vals.view(float))):
        raise EigensolverError("non-finite eigenvalues")
    base = DEFAULT_CLUSTER_TOL if cluster_tol is None else float(cluster_tol)
    return _cluster(vals, base)


def spectrum(M, cluster_tol=None):
    """Clustered spectrum of a real square matrix: the one-matrix case of
    spectrum_batch."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square, got shape %r" % (M.shape,))
    return spectrum_batch(M[None], cluster_tol)[0]


@dataclass(frozen=True)
class JordanProfile:
    eigenvalue: complex
    block_sizes: tuple  # descending
    multiplicity: int


def _numerical_rank(M, cutoff):
    """Count of singular values at or above an absolute cutoff."""
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError("SVD failed: %s" % exc) from exc
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= cutoff))


def jordan_profile(M, eigenvalue, tol=1e-8):
    """Jordan block sizes at one eigenvalue, from the rank sequence of
    powers of (M - eigenvalue I).

    Ranks are numerical: singular values below tol times the largest are
    treated as zero.  This stays stable near defective eigenvalues where
    the eigenvalues themselves scatter like the square root of machine
    precision.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    lam = complex(eigenvalue)
    N = M.astype(complex) - lam * np.eye(n)
    # The cutoff for N^k scales as ||N||^k: a power that vanishes in exact
    # arithmetic only carries roundoff of that size, and judging each power
    # by its own largest singular value would keep such noise at full rank.
    scale = float(np.linalg.norm(N, 2))
    ranks = [n]
    P = np.eye(n, dtype=complex)
    cutoff = 1.0
    for _ in range(n):
        P = P @ N
        cutoff *= scale
        r = _numerical_rank(P, tol * cutoff) if scale > 0.0 else 0
        ranks.append(r)
        if r == ranks[-2]:
            break
    mult = n - ranks[-1]
    if mult == 0:
        raise ValueError("%r is not an eigenvalue within tol=%g" % (eigenvalue, tol))
    # ranks[k] stabilizes at n - mult; pad so differences below are valid.
    ranks.append(ranks[-1])
    sizes = []
    for k in range(1, n + 1):
        if k >= len(ranks) - 1:
            break
        ge_k = ranks[k - 1] - ranks[k]
        ge_k1 = ranks[k] - ranks[k + 1]
        sizes.extend([k] * (ge_k - ge_k1))
    sizes.sort(reverse=True)
    if sum(sizes) != mult:
        raise EigensolverError("inconsistent rank sequence %r" % (ranks,))
    return JordanProfile(lam, tuple(sizes), mult)


@dataclass(frozen=True)
class MuVector:
    """Multiplicity vector in canonical order.

    Zero slot first, then real eigenvalues by descending multiplicity
    (ties by ascending value), then conjugate pairs, each contributing two
    equal slots, by descending multiplicity (ties by ascending real
    part).  A spectrum that is {0} alone is flagged nilpotent.
    """

    entries: tuple
    kinds: tuple  # 'zero' | 'real' | 'complex', aligned with entries
    nilpotent: bool = False

    def to_json_dict(self):
        return {
            "entries": [int(e) for e in self.entries],
            "kinds": list(self.kinds),
            "nilpotent": bool(self.nilpotent),
        }


def mu_vector(S):
    """Canonical multiplicity vector of a full Jacobi spectrum (0 in S)."""
    zero = None
    for v, m in S.items:
        if abs(v) <= S.cluster_tol:
            zero = (v, m)
            break
    if zero is None:
        raise ValueError("spectrum has no zero eigenvalue; not a full Jacobi spectrum")
    if len(S.items) == 1:
        return MuVector((zero[1],), ("zero",), nilpotent=True)
    reals = sorted(
        ((v.real, m) for v, m in S.items if v.imag == 0.0 and (v, m) != zero),
        key=lambda t: (-t[1], t[0]),
    )
    pairs = sorted(
        ((v, m) for v, m in S.items if v.imag > 0.0),
        key=lambda t: (-t[1], t[0].real),
    )
    entries = [zero[1]]
    kinds = ["zero"]
    for _, m in reals:
        entries.append(m)
        kinds.append("real")
    for _, m in pairs:
        entries.extend([m, m])
        kinds.extend(["complex", "complex"])
    return MuVector(tuple(entries), tuple(kinds))


def _kinds(values, tol):
    """0 zero, 1 real, 2 above the axis, 3 below: a positive scale keeps
    each eigenvalue's kind, so matched clusters must agree on it."""
    return np.where(
        np.abs(values) <= tol, 0,
        np.where(values.imag == 0.0, 1, np.where(values.imag > 0.0, 2, 3)),
    )


def _residuals(batch, ref, scales, tol):
    """Max matching error of each row against scales[s] * ref (a one-row
    batch), inf where the multisets do not pair up one to one.

    Each cluster is paired with the nearest reference cluster of equal
    multiplicity and kind within tol times the row's radius (at least
    tol); the pairing must be a bijection.
    """
    valid = batch.mults > 0
    eff = tol * np.maximum(1.0, np.max(np.abs(batch.values), axis=1))
    target = scales[:, None] * ref.values[0]
    dist = np.abs(batch.values[:, :, None] - target[:, None, :])
    allowed = (
        (batch.mults[:, :, None] == ref.mults[0])
        & (_kinds(batch.values, batch.tol[:, None])[:, :, None]
           == _kinds(ref.values[0], ref.tol[0]))
        & (dist <= eff[:, None, None])
    )
    dist = np.where(allowed, dist, np.inf)
    s_idx, a_idx = np.nonzero(valid)
    paired = np.zeros((len(batch), ref.mults.shape[1]), dtype=bool)
    paired[s_idx, dist.argmin(axis=2)[s_idx, a_idx]] = True
    full = (valid.sum(axis=1) == ref.mults.shape[1]) & paired.all(axis=1)
    worst = np.max(np.where(valid, dist.min(axis=2), 0.0), axis=1)
    return np.where(full, worst, np.inf)


def projective_match_batch(batch, ref, tol=1e-8):
    """Match every row of a batch of full Jacobi spectra against the
    Spectrum ref.

    Returns (scales, residuals, negative).  The candidate scale of a row
    is the ratio of its largest eigenvalue modulus to ref's; it is
    verified against the whole multiset, with multiplicities.  residuals
    is inf where no positive scale matches, and negative marks those rows
    that match -scale * ref instead.
    """
    ref = SpectrumBatch.of([ref])
    for b in (batch, ref):
        near_zero = (b.mults > 0) & (np.abs(b.values) <= b.tol[:, None])
        if not near_zero.any(axis=1).all():
            raise ValueError("projective comparison expects full Jacobi spectra (0 present)")
        if b.zero_flags().any():
            raise ValueError("spectrum is {0}: nilpotent Jacobi operator, no projective scale")
    # Unused slots hold 0, so the largest modulus is the radius.
    scales = np.max(np.abs(batch.values), axis=1) / np.max(np.abs(ref.values))
    residuals = _residuals(batch, ref, scales, tol)
    negative = np.zeros(len(batch), dtype=bool)
    failed = np.isinf(residuals)
    if failed.any():
        rows = SpectrumBatch(batch.values[failed], batch.mults[failed], batch.tol[failed])
        negative[failed] = np.isfinite(_residuals(rows, ref, -scales[failed], tol))
    return scales, residuals, negative
