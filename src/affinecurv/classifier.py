"""Sampling-based Osserman classification of curvature models.

A model is affine Osserman when every Jacobi operator is nilpotent, and
projective affine Osserman when it is not affine Osserman but any two
Jacobi spectra agree up to a positive scale.  The verdict here is
numerical.  Reduced Jacobi spectra are computed at a deterministic sample
of directions: the standard basis, the normalized all-ones vector, then
seeded Gaussian points on the sphere.  Equality up to a positive scale is
transitive, so each spectrum is compared with one reference, the spectrum
at e1.  The multiplicity vector is then matched against the known
taxonomy of eigenvalue structures for the residue class of m.

The whole sample goes through one batched pipeline: one fixed-order sum
over the model's nonzero list builds every Jacobi operator, with the
same bits for a direction whatever the batch or the BLAS kernel,
Householder reflectors give the complements, one eigensolve and one
vectorized clustering give the spectra, and one pass matches them
against the reference.  The model is first divided by the
power of two nearest its largest entry, so that the verdict does not
depend on the model's scale; reported eigenvalues, tolerances and
residuals are multiplied back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .constructors import StructureSpec, _listed_cases
from .spectral import Spectrum, mu_vector
from .tensor_core import check_affine_symmetries, reduced_jacobi_batch

__all__ = [
    "PROJECTIVE",
    "AFFINE",
    "NEITHER",
    "InconsistencyError",
    "OssermanVerdict",
    "Classification",
    "BundlePartition",
    "AdamsResult",
    "sample_sphere",
    "is_projective_affine_osserman",
    "classify",
    "classify_structure",
    "match_taxonomy",
    "bundle_partition",
    "adams_admissible",
]

PROJECTIVE = "projective_affine_osserman"
AFFINE = "affine_osserman"
NEITHER = "neither"


class InconsistencyError(RuntimeError):
    """Numerically detected state that the theory rules out."""


def sample_sphere(m, n, seed):
    """(m + 1 + n, m) array of unit vectors: the standard basis, the
    normalized all-ones vector, then n seeded Gaussian directions.
    Deterministic per seed."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    rng = np.random.default_rng(seed)
    drawn = np.empty((0, m))
    while len(drawn) < n:
        block = rng.standard_normal((n - len(drawn), m))
        nrm = np.linalg.norm(block, axis=1)
        keep = nrm >= 1e-12
        drawn = np.vstack([drawn, block[keep] / nrm[keep, None]])
    return np.vstack([np.eye(m), np.full((1, m), 1.0 / np.sqrt(m)), drawn])


@dataclass(frozen=True)
class OssermanVerdict:
    """Sampled verdict.  `spectrum` is the full Jacobi spectrum at e1, the
    reference every other sample is matched against; `scales[s]` and
    `residuals[s]` are sample s's positive scale and matching error
    against it, and `worst_residual` is the largest of those errors."""

    status: str
    spectrum: Spectrum | None
    mu: spectral.MuVector | None
    worst_residual: float
    scales: tuple
    residuals: tuple
    n_samples: int
    seed: int
    tol: float
    negative_scale_match: bool = False

    def to_json_dict(self):
        return {
            "status": self.status,
            "spectrum": None if self.spectrum is None else self.spectrum.to_json_dict(),
            "mu": None if self.mu is None else self.mu.to_json_dict(),
            "worst_residual": float(self.worst_residual),
            "scales": [float(s) for s in self.scales],
            "residuals": [float(r) for r in self.residuals],
            "n_samples": int(self.n_samples),
            "seed": int(self.seed),
            "tol": float(self.tol),
            "negative_scale_match": bool(self.negative_scale_match),
        }


def _model_scale(A):
    """Power of two nearest the largest |entry| (1 for the zero model).
    Dividing by it is exact in binary."""
    top = float(np.max(np.abs(A._values), initial=0.0))
    if not math.isfinite(top):
        raise ValueError("model entries must be finite")
    return 1.0 if top == 0.0 else math.ldexp(1.0, round(math.log2(top)))


def _sampled_verdict(A, n_samples, seed, tol, extra_directions=()):
    """The batched pipeline: (verdict, reduced spectrum at e1)."""
    if A.dim < 2:
        raise ValueError(
            "m = %d has no reduced Jacobi operator (the quotient by a "
            "direction is %d-dimensional); classification needs m >= 2"
            % (A.dim, max(A.dim - 1, 0))
        )
    if n_samples < 1:
        raise ValueError("need at least one random sample")
    c = _model_scale(A)
    report = check_affine_symmetries(A, tol=1e-10 * c)
    if not report.passed:
        raise ValueError(
            "input fails the curvature symmetries (antisymmetry defect %g, "
            "cyclic defect %g)" % (report.antisymmetry_defect, report.bianchi_defect)
        )
    X = sample_sphere(A.dim, n_samples, seed)
    if len(extra_directions):
        extra = np.asarray(extra_directions, dtype=float)
        if extra.ndim != 2 or extra.shape[1] != A.dim:
            raise ValueError("extra direction has the wrong dimension")
        nrm = np.linalg.norm(extra, axis=1)
        if np.any(nrm == 0.0):
            raise ValueError("extra direction must be nonzero")
        X = np.vstack([X, extra / nrm[:, None]])

    # Dividing the operators by c equals building them from A / c, bit
    # for bit, without an O(m^4) copy of the model.
    reduced = spectral.spectrum_batch(reduced_jacobi_batch(A, X) / c, cluster_tol=tol)
    full = reduced.with_zero()
    ref = full[0]
    reported = ref.scaled(c)
    zero = full.zero_flags()

    def verdict(status, mu=None, worst=float("inf"), scales=(), residuals=(), negative=False):
        return OssermanVerdict(status, reported, mu, worst, scales, residuals,
                               n_samples, seed, tol, negative)

    if zero.all():
        result = verdict(AFFINE, mu_vector(ref), 0.0)
    elif zero.any():
        # Some directions nilpotent, others not: no global scale can exist.
        result = verdict(NEITHER)
    else:
        scales, residuals, negative = spectral.projective_match_batch(full, ref, tol)
        if np.isinf(residuals).any():
            result = verdict(NEITHER, negative=bool(negative.any()))
        else:
            residuals = residuals * c
            result = verdict(
                PROJECTIVE, mu_vector(ref), float(residuals.max()),
                tuple(float(s) for s in scales), tuple(float(r) for r in residuals),
            )
    return result, reduced[0].scaled(c)


def is_projective_affine_osserman(A, n_samples=64, seed=0, tol=1e-8,
                                  extra_directions=()):
    """Deterministic sampled verdict; see the module docstring.

    Input must pass the curvature symmetry check, relative to the model's
    scale, and have m >= 2.

    extra_directions are normalized and appended to the probe set.
    Callers who know where the spectrum can degenerate (a measure-zero
    locus that random probes almost surely miss) force those directions
    in this way.
    """
    return _sampled_verdict(A, n_samples, seed, tol, extra_directions)[0]


@dataclass(frozen=True)
class Classification:
    """Verdict plus what is read off the reduced Jacobi spectrum at e1.

    structure, partition and adams are None unless the verdict is
    projective; structure is a StructureSpec or "unlisted".
    """

    verdict: OssermanVerdict
    reduced_spectrum: Spectrum
    structure: StructureSpec | str | None = None
    partition: BundlePartition | None = None
    adams: AdamsResult | None = None


def classify(A, n_samples=64, seed=0, tol=1e-8):
    """Sampled verdict and, for a projective model, its eigenvalue
    structure, eigenbundle partition and sphere-bound gate, all from one
    run of the pipeline."""
    verdict, S = _sampled_verdict(A, n_samples, seed, tol)
    if verdict.status != PROJECTIVE:
        return Classification(verdict, S)
    structure = match_taxonomy(S, A.dim)
    partition = bundle_partition(S, A.dim)
    return Classification(verdict, S, structure, partition, adams_admissible(A.dim, partition))


# -- taxonomy matching ----------------------------------------------------


def _reduced_pattern(S):
    """(sorted real (value, mult) list, sorted pair (value, mult) list)."""
    reals = sorted(
        ((v.real, m) for v, m in S.items if v.imag == 0.0), key=lambda t: t[0]
    )
    pairs = sorted(
        ((v, m) for v, m in S.items if v.imag > 0.0), key=lambda t: (t[0].real, t[0].imag)
    )
    return reals, pairs


def _in_slot_order(want, found):
    """Values of `found`, (value, mult) pairs in ascending value order
    whose mults are the multiset `want`, placed in the slots of `want`:
    slots with equal multiplicity take ascending values."""
    slots = sorted(range(len(want)), key=lambda i: (want[i], i))
    out = [None] * len(want)
    for slot, (value, _) in zip(slots, sorted(found, key=lambda t: t[1])):
        out[slot] = value
    return tuple(out)


def match_taxonomy(S, m):
    """Match a reduced Jacobi spectrum against the eigenvalue-structure
    taxonomy for dimension m.  Returns a StructureSpec or "unlisted".

    Labels whose bundle shapes coincide at m (3-b-i and 3-b-ii, 3-e-i and
    3-e-iii at m = 4) are not told apart: the first-listed label of the
    shape is reported, with the same (value, multiplicity) pairs.

    A complex pair at odd m contradicts the classification and raises
    InconsistencyError.
    """
    reals, pairs = _reduced_pattern(S)
    if m % 2 == 1 and pairs:
        raise InconsistencyError(
            "complex Jacobi eigenvalues detected at odd dimension m=%d" % m
        )
    real_mults = sorted(mm for _, mm in reals)
    pair_mults = sorted(mm for _, mm in pairs)
    for case, want_real, want_pair in _listed_cases(m):
        if sorted(want_real) == real_mults and sorted(want_pair) == pair_mults:
            return StructureSpec(case=case, lambdas=_in_slot_order(want_real, reals),
                                 nus=_in_slot_order(want_pair, pairs), m=m)
    return "unlisted"


def classify_structure(A, n_samples=64, seed=0, tol=1e-8):
    """Eigenvalue structure fitted at the first sample (e1).

    Requires a projective verdict; anything else raises ValueError.
    """
    result = classify(A, n_samples=n_samples, seed=seed, tol=tol)
    if result.verdict.status != PROJECTIVE:
        raise ValueError(
            "model is %s; only projective models carry a structure" % result.verdict.status
        )
    return result.structure


# -- eigenbundle partitions and the sphere bound --------------------------


@dataclass(frozen=True)
class BundlePartition:
    """Dimensions of the eigenspace bundles over the unit sphere of R^m.

    A real eigenvalue of multiplicity k contributes one bundle of rank k;
    a conjugate pair of multiplicity k contributes a single rank-2k
    bundle.  Ranks must sum to m - 1.
    """

    m: int
    dims: tuple
    kinds: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        kinds = tuple(self.kinds)
        if len(dims) != len(kinds):
            raise ValueError("dims and kinds must align")
        if not dims:
            raise ValueError("empty partition")
        if any(d < 1 for d in dims):
            raise ValueError("bundle ranks must be positive")
        for d, k in zip(dims, kinds):
            if k not in ("real", "complex-pair"):
                raise ValueError("unknown bundle kind %r" % (k,))
            if k == "complex-pair" and d % 2:
                raise ValueError("a conjugate-pair bundle has even rank, got %d" % d)
        if sum(dims) != self.m - 1:
            raise ValueError(
                "bundle ranks sum to %d, expected m - 1 = %d" % (sum(dims), self.m - 1)
            )
        order = sorted(range(len(dims)), key=lambda i: (dims[i], kinds[i]))
        object.__setattr__(self, "dims", tuple(dims[i] for i in order))
        object.__setattr__(self, "kinds", tuple(kinds[i] for i in order))


def bundle_partition(S, m):
    """Partition extracted from a reduced Jacobi spectrum."""
    reals, pairs = _reduced_pattern(S)
    dims = [mm for _, mm in reals] + [2 * mm for _, mm in pairs]
    kinds = ["real"] * len(reals) + ["complex-pair"] * len(pairs)
    return BundlePartition(m=m, dims=tuple(dims), kinds=tuple(kinds))


@dataclass(frozen=True)
class AdamsResult:
    status: str  # 'admissible' | 'inadmissible' | 'unconstrained'
    reason: str | None = None

    def to_json_dict(self):
        return {"status": self.status, "reason": self.reason}


@functools.cache
def _case_shapes(m):
    """Bundle shapes of the cases listed at m, as (rank, kind) pairs in the
    order of BundlePartition; their largest count; their smallest top rank."""
    shapes = tuple(
        tuple(sorted([(k, "real") for k in reals] + [(2 * k, "complex-pair") for k in pairs]))
        for _, reals, pairs in _listed_cases(m))
    return shapes, max(map(len, shapes), default=0), min((s[-1][0] for s in shapes), default=0)


def adams_admissible(m, partition):
    """Gate a bundle partition by the sphere vector-field bounds.

    For m = 1 mod 2, 2 mod 4 and 4 mod 8 the listed cases realize exactly
    the partitions that Adams' bound admits, so the gate admits a partition
    when it is the bundle shape of a case listed at m.  The bound allows
    at most as many bundles as the case with the most, and a largest rank
    no smaller than the smallest top rank of a case: one real bundle for m
    odd, two with one of rank at least m - 2 for m = 2 mod 4, four with
    one of rank at least m - 4 for m = 4 mod 8.  A conjugate pair at m odd
    would give a complex structure on X^perp that is even in X, hence on
    the tangent bundle of RP^(m-1), which is not orientable.  For
    m = 0 mod 8 no case is listed and the bound is vacuous.
    """
    if partition.m != m:
        raise ValueError("partition was built for m=%d, not m=%d" % (partition.m, m))
    shapes, limit, floor = _case_shapes(m)
    if not shapes:
        return AdamsResult("unconstrained")
    if tuple(zip(partition.dims, partition.kinds)) in shapes:
        return AdamsResult("admissible")
    count, top = len(partition.dims), max(partition.dims)
    if count > limit and m % 2:
        reason = "odd m admits a single eigenbundle, got %d" % count
    elif count > limit:
        reason = "at most %d eigenbundles allowed for m=%d, got %d" % (limit, m, count)
    elif top < floor:
        reason = "largest bundle rank %d is below the floor %d for m=%d" % (top, floor, m)
    else:
        # Within the count and the floor only a single bundle of rank
        # m - 1 at m odd is not a case shape: a conjugate pair.
        reason = (
            "odd m admits no conjugate-pair bundle: RP^%d is not orientable, "
            "so it has no almost complex structure" % (m - 1)
        )
    return AdamsResult("inadmissible", reason)
