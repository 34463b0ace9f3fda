"""Sampled Osserman verdicts, taxonomy matching, eigenbundle bounds."""

import itertools

import numpy as np
import pytest

from affinecurv.classifier import (
    AFFINE,
    NEITHER,
    PROJECTIVE,
    AdamsResult,
    BundlePartition,
    InconsistencyError,
    adams_admissible,
    bundle_partition,
    classify,
    classify_structure,
    is_projective_affine_osserman,
    match_taxonomy,
    sample_sphere,
)
from affinecurv.constructors import (
    CASE_LABELS,
    StructureSpec,
    case_constraints,
    constant_curvature,
    realize,
)
from affinecurv.spectral import spectrum
from affinecurv.tensor_core import reduced_jacobi

from dense import from_dense, to_dense


def projection_tensor(m, rank):
    """Sectional-style tensor of a rank-deficient projection.  Directions in
    the kernel have nilpotent Jacobi operator, the rest do not."""
    P = np.diag([1.0] * rank + [0.0] * (m - rank))
    entries = np.einsum("jk,il->ijkl", P, P) - np.einsum("ik,jl->ijkl", P, P)
    return from_dense(entries)


def indefinite_surface_tensor():
    """2-dim model whose single reduced eigenvalue is x1^2 - 2 x2^2: the
    sign flips with direction, so spectra only match under a negative scale."""
    e = np.zeros((2, 2, 2, 2))
    e[0, 1, 0, 1] = -1.0
    e[1, 0, 0, 1] = 1.0
    e[0, 1, 1, 0] = -2.0
    e[1, 0, 1, 0] = 2.0
    return from_dense(e)


# -- sampling -------------------------------------------------------------


def test_sample_sphere_layout():
    pts = sample_sphere(4, 6, seed=3)
    assert len(pts) == 4 + 1 + 6
    for i in range(4):
        assert np.array_equal(pts[i], np.eye(4)[i])
    assert np.allclose(pts[4], np.full(4, 0.5))
    for v in pts:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_sample_sphere_deterministic():
    a = sample_sphere(5, 10, seed=42)
    b = sample_sphere(5, 10, seed=42)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    c = sample_sphere(5, 10, seed=43)
    assert not np.array_equal(a[-1], c[-1])


def test_sample_sphere_validation():
    with pytest.raises(ValueError):
        sample_sphere(0, 4, seed=0)
    with pytest.raises(ValueError):
        sample_sphere(3, -1, seed=0)


# -- verdicts -------------------------------------------------------------


def test_constant_curvature_is_projective():
    verdict = is_projective_affine_osserman(constant_curvature(5), n_samples=16)
    assert verdict.status == PROJECTIVE
    assert verdict.mu.entries == (1, 4)
    assert verdict.mu.kinds == ("zero", "real")
    assert verdict.worst_residual <= 1e-10
    assert verdict.scales[0] == 1.0
    assert all(abs(s - 1.0) <= 1e-10 for s in verdict.scales)


def test_zero_tensor_is_affine_osserman():
    verdict = is_projective_affine_osserman(from_dense(np.zeros((3,) * 4)))
    assert verdict.status == AFFINE
    assert verdict.mu.nilpotent
    assert verdict.mu.entries == (3,)
    assert verdict.scales == () and verdict.worst_residual == 0.0


def test_projection_tensor_is_neither():
    verdict = is_projective_affine_osserman(projection_tensor(5, 3), n_samples=8)
    assert verdict.status == NEITHER
    assert verdict.mu is None
    assert verdict.worst_residual == float("inf")


def test_negative_scale_probe():
    verdict = is_projective_affine_osserman(indefinite_surface_tensor(), n_samples=8)
    assert verdict.status == NEITHER
    assert verdict.negative_scale_match


def test_symmetry_precheck():
    bad = np.zeros((3,) * 4)
    bad[0, 0, 0, 0] = 1.0  # breaks antisymmetry in the first two slots
    with pytest.raises(ValueError):
        is_projective_affine_osserman(from_dense(bad))


def test_sample_count_is_checked_before_the_symmetries():
    bad = np.zeros((3,) * 4)
    bad[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="at least one random sample"):
        is_projective_affine_osserman(from_dense(bad), n_samples=0)


def rank_one_ricci_tensor():
    # surface tensor A(x, y)z = rho(y, z) x - rho(x, z) y with
    # rho = [[-1, -1], [-1, -1]]: the single reduced eigenvalue is
    # -(x1 + x2)^2, collapsing to zero only on the line spanned by (1, -1)
    rho = -np.ones((2, 2))
    delta = np.eye(2)
    entries = np.einsum("jk,il->ijkl", rho, delta) - np.einsum(
        "ik,jl->ijkl", rho, delta
    )
    return from_dense(entries)


def test_extra_directions_expose_hidden_collapse():
    A = rank_one_ricci_tensor()
    # default probes almost surely miss the null line and see a
    # projectively constant spectrum
    assert is_projective_affine_osserman(A, n_samples=8).status == PROJECTIVE
    probed = is_projective_affine_osserman(
        A, n_samples=8, extra_directions=[(1.0, -1.0)]
    )
    assert probed.status == NEITHER


def test_extra_directions_validation():
    A = rank_one_ricci_tensor()
    with pytest.raises(ValueError):
        is_projective_affine_osserman(A, extra_directions=[(1.0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        is_projective_affine_osserman(A, extra_directions=[(0.0, 0.0)])


def test_verdict_scaling_invariance():
    A = realize(StructureSpec("2-c", (4.0,), (1 + 2j,)), 6)
    B = from_dense(3.0 * to_dense(A))
    for T in (A, B):
        verdict = is_projective_affine_osserman(T, n_samples=16)
        assert verdict.status == PROJECTIVE
        assert verdict.mu.entries == (1, 1, 2, 2)


def test_verdict_json_shape():
    d = is_projective_affine_osserman(constant_curvature(3), n_samples=4).to_json_dict()
    assert d["status"] == PROJECTIVE
    assert d["mu"] is not None and d["spectrum"] is not None
    assert len(d["scales"]) == len(d["residuals"]) == 3 + 1 + 4


# -- taxonomy matching ----------------------------------------------------


@pytest.mark.parametrize(
    "case,m,lams,nus",
    [
        ("1", 5, (2.0,), ()),
        ("2-b", 6, (4.0, 1.0), ()),
        ("2-c", 10, (4.0,), (1 + 2j,)),
        # slots of equal multiplicity are canonically filled in ascending
        # value order, so give them that way for an identity round trip
        ("3-d", 12, (3.0, 5.0, 7.0, 1.0), ()),
        ("3-h", 12, (6.0,), (1 + 1j, 3 + 2j)),
    ],
)
def test_classify_structure_round_trip(case, m, lams, nus):
    spec = StructureSpec(case, lams, nus)
    got = classify_structure(realize(spec, m), n_samples=16)
    assert got.case == case and got.m == m
    assert np.allclose(got.lambdas, lams, atol=1e-8)
    assert np.allclose(got.nus, nus, atol=1e-8)


def _slots(spec):
    """(value, multiplicity) of every slot of a structure, sorted."""
    reals, pairs = case_constraints(spec.case, spec.m)
    return (sorted(zip(spec.lambdas, reals)),
            sorted(zip(spec.nus, pairs), key=lambda t: (t[0].real, t[0].imag)))


@pytest.mark.parametrize(
    "case,lams,nus,reported",
    [("3-b-ii", (3.0, -0.2), (), "3-b-i"), ("3-e-iii", (0.5,), (1.5 + 2j,), "3-e-i")],
)
def test_duplicate_shapes_at_m4_report_the_first_listed_label(case, lams, nus, reported):
    spec = StructureSpec(case, lams, nus, m=4)
    got = classify_structure(realize(spec, 4), n_samples=16)
    assert CASE_LABELS.index(reported) < CASE_LABELS.index(case)
    assert got.case == reported and got.m == 4
    (want_reals, want_pairs), (got_reals, got_pairs) = _slots(spec), _slots(got)
    assert [m for _, m in got_reals] == [m for _, m in want_reals]
    assert [v for v, _ in got_reals] == pytest.approx([v for v, _ in want_reals], abs=1e-9)
    assert [m for _, m in got_pairs] == [m for _, m in want_pairs]
    assert [v for v, _ in got_pairs] == pytest.approx([v for v, _ in want_pairs], abs=1e-9)


def test_classify_structure_requires_projective():
    with pytest.raises(ValueError):
        classify_structure(from_dense(np.zeros((3,) * 4)))


def test_match_taxonomy_rejects_pairs_at_odd_m():
    R = np.array([[1.0, -2.0], [2.0, 1.0]])
    M = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), 3.0 * np.eye(2)]])
    with pytest.raises(InconsistencyError):
        match_taxonomy(spectrum(M), 5)


def test_match_taxonomy_unlisted_dimension():
    S = spectrum(np.eye(7))
    assert match_taxonomy(S, 8) == "unlisted"


def test_match_taxonomy_unmatched_pattern():
    # three distinct reals cannot occur at m = 2 mod 4
    S = spectrum(np.diag([1.0, 2.0, 3.0, 3.0, 3.0]))
    assert match_taxonomy(S, 6) == "unlisted"


# -- eigenbundle partitions -----------------------------------------------


def test_bundle_partition_from_spectrum():
    A = realize(StructureSpec("2-c", (4.0,), (1 + 2j,)), 6)
    S = spectrum(reduced_jacobi(A, np.eye(6)[0]))
    part = bundle_partition(S, 6)
    assert part.dims == (1, 4)
    assert part.kinds == ("real", "complex-pair")


def test_bundle_partition_canonical_order():
    part = BundlePartition(m=8, dims=(4, 1, 2), kinds=("complex-pair", "real", "real"))
    assert part.dims == (1, 2, 4)
    assert part.kinds == ("real", "real", "complex-pair")


def test_bundle_partition_validation():
    with pytest.raises(ValueError):
        BundlePartition(m=6, dims=(3,), kinds=("complex-pair",))  # odd pair rank
    with pytest.raises(ValueError):
        BundlePartition(m=6, dims=(1, 3), kinds=("real", "real"))  # sum != m - 1
    with pytest.raises(ValueError):
        BundlePartition(m=6, dims=(), kinds=())
    with pytest.raises(ValueError):
        BundlePartition(m=6, dims=(5,), kinds=("mystery",))
    with pytest.raises(ValueError):
        BundlePartition(m=6, dims=(0, 5), kinds=("real", "real"))


ADAMS_TABLE = [
    (3, (2,), ("real",), "admissible"),
    (3, (1, 1), ("real", "real"), "inadmissible"),
    (5, (4,), ("complex-pair",), "inadmissible"),
    (6, (5,), ("real",), "admissible"),
    (6, (1, 4), ("real", "complex-pair"), "admissible"),
    (6, (1, 1, 3), ("real", "real", "real"), "inadmissible"),
    (6, (2, 3), ("real", "real"), "inadmissible"),
    (12, (11,), ("real",), "admissible"),
    (12, (1, 10), ("real", "complex-pair"), "admissible"),
    (12, (1, 1, 9), ("real", "real", "real"), "admissible"),
    (12, (1, 1, 1, 8), ("real", "real", "real", "complex-pair"), "admissible"),
    (12, (1, 1, 1, 1, 7), ("real",) * 4 + ("real",), "inadmissible"),
    (12, (2, 2, 3, 4), ("real", "real", "real", "complex-pair"), "inadmissible"),
    (8, (1,) * 7, ("real",) * 7, "unconstrained"),
    (16, (1, 2, 4, 8), ("real", "real", "complex-pair", "complex-pair"), "unconstrained"),
]


@pytest.mark.parametrize("m,dims,kinds,expected", ADAMS_TABLE)
def test_adams_table(m, dims, kinds, expected):
    part = BundlePartition(m=m, dims=dims, kinds=kinds)
    result = adams_admissible(m, part)
    assert result.status == expected
    if expected == "inadmissible":
        assert result.reason


def _partitions(n, parts, largest=None):
    """Partitions of n into at most `parts` parts, largest part first."""
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def _bundle_partitions(m, parts):
    """Every BundlePartition of R^m with at most `parts` bundles: each even
    rank may be real or a conjugate pair."""
    seen = set()
    for dims in _partitions(m - 1, parts):
        choices = [("real", "complex-pair") if d % 2 == 0 else ("real",) for d in dims]
        for kinds in itertools.product(*choices):
            part = BundlePartition(m=m, dims=dims, kinds=kinds)
            key = tuple(zip(part.dims, part.kinds))
            if key not in seen:
                seen.add(key)
                yield key, part


def _shapes(m):
    """label -> (rank, kind) multiset of the cases that exist at m: the
    paper lists case 1 for m odd, the 2-x cases for m = 2 mod 4 and the
    3-x cases for m = 4 mod 8, each where all its slots are nonempty."""
    prefix = "1" if m % 2 else "2-" if m % 4 == 2 else "3-"
    out = {}
    for case in CASE_LABELS:
        reals, pairs = case_constraints(case, m)
        if case.startswith(prefix) and min(reals + pairs) >= 1:
            bundles = [(d, "real") for d in reals] + [(2 * d, "complex-pair") for d in pairs]
            out[case] = tuple(sorted(bundles))
    return out


def _paper_bound(m, part):
    """(status, reason) of the vector-field bound as the paper states it,
    for m not divisible by 8: a single real bundle for m odd; at most two
    bundles, one of rank at least m - 2, for m = 2 mod 4; at most four,
    one of rank at least m - 4, for m = 4 mod 8."""
    count, top = len(part.dims), max(part.dims)
    if m % 2:
        if count > 1:
            return "inadmissible", "odd m admits a single eigenbundle, got %d" % count
        if part.kinds[0] == "complex-pair":
            return "inadmissible", (
                "odd m admits no conjugate-pair bundle: RP^%d is not orientable, "
                "so it has no almost complex structure" % (m - 1))
        return "admissible", None
    limit, floor = (2, m - 2) if m % 4 == 2 else (4, m - 4)
    if count > limit:
        return "inadmissible", "at most %d eigenbundles allowed for m=%d, got %d" % (
            limit, m, count)
    if top < floor:
        return "inadmissible", "largest bundle rank %d is below the floor %d for m=%d" % (
            top, floor, m)
    return "admissible", None


def test_adams_gate_admits_exactly_the_realized_partitions():
    # The bound rejects more bundles than its limit (1 at odd m, 2 at
    # m = 2 mod 4, 4 at m = 4 mod 8) on the count alone, so partitions with
    # up to one bundle more cover every case where it could differ from
    # the case table.
    for m in range(3, 65):
        if m % 8 == 0:
            continue
        parts = 2 if m % 2 else 3 if m % 4 == 2 else 5
        admitted = set()
        for key, part in _bundle_partitions(m, parts):
            result = adams_admissible(m, part)
            assert (result.status, result.reason) == _paper_bound(m, part), (m, key)
            if result.status == "admissible":
                admitted.add(key)
        assert admitted == set(_shapes(m).values()), m


@pytest.mark.parametrize("m", [5, 7, 6, 10, 12, 20])
def test_every_admitted_partition_is_realized_and_classified_back(m):
    shapes = _shapes(m)
    parts = 2 if m % 2 else 3 if m % 4 == 2 else 5
    admitted = [(key, part) for key, part in _bundle_partitions(m, parts)
                if adams_admissible(m, part).status == "admissible"]
    assert len(admitted) == len(shapes)
    for key, part in admitted:
        (case,) = [case for case, shape in shapes.items() if shape == key]
        reals, pairs = case_constraints(case, m)
        lambdas = (1.0, 2.0, 3.0, 4.0)[:len(reals)]
        nus = (-1 + 0.5j, -2 + 1.5j)[:len(pairs)]
        result = classify(realize(StructureSpec(case, lambdas, nus), m), n_samples=8)
        assert result.verdict.status == PROJECTIVE, (m, case)
        assert result.structure.case == case
        assert sorted(result.structure.lambdas) == pytest.approx(lambdas, abs=1e-9)
        assert result.partition == part
        assert result.adams.status == "admissible"


def test_adams_m_mismatch():
    part = BundlePartition(m=6, dims=(5,), kinds=("real",))
    with pytest.raises(ValueError):
        adams_admissible(10, part)


def test_adams_result_json():
    assert AdamsResult("admissible").to_json_dict() == {
        "status": "admissible",
        "reason": None,
    }
