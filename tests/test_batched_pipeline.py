"""The batched classification pipeline against a per-direction oracle, and
the invariance of its verdict under rescaling of the model."""

import itertools

import numpy as np
import pytest

from affinecurv.classifier import (
    AFFINE,
    NEITHER,
    PROJECTIVE,
    classify,
    is_projective_affine_osserman,
    match_taxonomy,
    sample_sphere,
)
from affinecurv.constructors import StructureSpec, realize
from affinecurv.spectral import (
    SpectrumBatch,
    mu_vector,
    projective_match_batch,
    spectrum,
    spectrum_batch,
)
from affinecurv.tensor_core import (
    jacobi,
    jacobi_batch,
    perp_basis,
    perp_basis_batch,
    reduced_jacobi,
    reduced_jacobi_batch,
)

from dense import from_dense

TOL = 1e-8
N_SAMPLES = 24

# One representative of every case label.
CASES = [
    ("1", 5, (2.0,), ()),
    ("2-a", 6, (3.0,), ()),
    ("2-b", 6, (4.0, 1.0), ()),
    ("2-c", 10, (4.0,), (1 + 2j,)),
    ("3-a", 12, (-2.0,), ()),
    ("3-b-i", 12, (5.0, 1.0), ()),
    ("3-b-ii", 12, (5.0, 1.0), ()),
    ("3-b-iii", 12, (5.0, 1.0), ()),
    ("3-c-i", 12, (5.0, 3.0, 1.0), ()),
    ("3-c-ii", 12, (5.0, 3.0, 1.0), ()),
    ("3-d", 12, (3.0, 5.0, 7.0, 1.0), ()),
    ("3-e-i", 12, (4.0,), (1 + 1j,)),
    ("3-e-ii", 12, (4.0,), (1 + 1j,)),
    ("3-e-iii", 12, (4.0,), (1 + 1j,)),
    ("3-f-i", 12, (6.0, 4.0), (1 + 1j,)),
    ("3-f-ii", 12, (6.0, 4.0), (1 + 1j,)),
    ("3-g", 12, (6.0, 4.0, 2.0), (1 + 1j,)),
    ("3-h", 12, (6.0,), (1 + 1j, 3 + 2j)),
]


def nilpotent_model(m=5, scale=1.0):
    """A(e2, e1)e1 = scale e3 = -A(e1, e2)e1: every J_X squares to zero."""
    e = np.zeros((m,) * 4)
    e[1, 0, 0, 2] = scale
    e[0, 1, 0, 2] = -scale
    return from_dense(e)


def non_osserman_model(diag=(1.0, 1.5, 2.25, 3.0, 4.0, 3.5)):
    """A(X, Y)Z = <Y,Z> DX - <X,Z> DY: reduced spectrum {d_j : j != i} at
    e_i, so the spectra at different axes are not proportional."""
    m = len(diag)
    e = np.zeros((m,) * 4)
    for i, j in itertools.product(range(m), repeat=2):
        if i != j:
            e[i, j, j, i] += diag[i]
            e[j, i, j, i] -= diag[i]
    return from_dense(e)


MODELS = [
    pytest.param(lambda c=c: realize(StructureSpec(c[0], c[2], c[3]), c[1]), id=c[0])
    for c in CASES
] + [
    pytest.param(non_osserman_model, id="non-osserman"),
    pytest.param(nilpotent_model, id="nilpotent"),
]


def one_row(S):
    return SpectrumBatch.of([S])


def per_direction(A, n_samples, seed, tol):
    """The verdict computed one direction at a time, with every pair of
    spectra compared: (status, mu, reduced spectrum at e1, full spectra)."""
    reduced = [spectrum(reduced_jacobi(A, X), cluster_tol=tol)
               for X in sample_sphere(A.dim, n_samples, seed)]
    full = [one_row(S).with_zero()[0] for S in reduced]
    zero = [one_row(S).zero_flags()[0] for S in full]
    if all(zero):
        return AFFINE, mu_vector(full[0]), reduced[0], full
    if any(zero):
        return NEITHER, None, reduced[0], full
    for S1, S2 in itertools.combinations(full, 2):
        if np.isinf(projective_match_batch(one_row(S1), S2, tol)[1][0]):
            return NEITHER, None, reduced[0], full
    if len({mu_vector(S).entries for S in full}) != 1:
        return NEITHER, None, reduced[0], full
    return PROJECTIVE, mu_vector(full[0]), reduced[0], full


def same_spectrum(S, T, tol):
    if [m for _, m in S.items] != [m for _, m in T.items]:
        return False
    eff = tol * max(1.0, S.radius())
    return all(abs(v - w) <= eff for (v, _), (w, _) in zip(S.items, T.items))


@pytest.mark.parametrize("make", MODELS)
def test_batched_pipeline_matches_per_direction(make):
    A = make()
    result = classify(A, n_samples=N_SAMPLES, seed=3, tol=TOL)
    status, mu, reduced_e1, full = per_direction(A, N_SAMPLES, 3, TOL)

    X = sample_sphere(A.dim, N_SAMPLES, 3)
    batch = spectrum_batch(reduced_jacobi_batch(A, X), cluster_tol=TOL)
    assert len(batch) == len(full)
    for s, S in enumerate(full):
        assert same_spectrum(batch.with_zero()[s], S, TOL), s

    verdict = result.verdict
    assert verdict.status == status
    assert verdict.mu == mu
    assert same_spectrum(result.reduced_spectrum, reduced_e1, TOL)
    if status == PROJECTIVE:
        want = match_taxonomy(reduced_e1, A.dim, TOL)
        got = result.structure
        assert got.case == want.case and got.m == want.m
        np.testing.assert_allclose(got.lambdas, want.lambdas, atol=TOL)
        np.testing.assert_allclose(got.nus, want.nus, atol=TOL)
        assert result.adams.status == "admissible"
    else:
        assert result.structure is None and result.adams is None


@pytest.mark.parametrize("case,m,lams,nus", CASES[:4])
def test_worst_residual_is_max_residual(case, m, lams, nus):
    verdict = is_projective_affine_osserman(realize(StructureSpec(case, lams, nus), m),
                                            n_samples=16)
    assert verdict.status == PROJECTIVE
    assert verdict.residuals[0] == 0.0 and verdict.scales[0] == 1.0
    assert verdict.worst_residual == max(verdict.residuals)


def test_classify_structure_fields_agree_with_verdict():
    A = realize(StructureSpec("2-c", (4.0,), (1 + 2j,)), 6)
    result = classify(A, n_samples=8)
    assert result.verdict == is_projective_affine_osserman(A, n_samples=8)
    assert result.structure.case == "2-c"
    assert result.partition.dims == (1, 4)


# -- batched building blocks ----------------------------------------------


def test_batched_tensor_routines_match_single_direction():
    rng = np.random.default_rng(7)
    A = realize(StructureSpec("2-c", (4.0,), (1 + 2j,)), 6)
    X = np.vstack([np.eye(6)[2], rng.standard_normal((5, 6))])
    J, Q, R = jacobi_batch(A, X), perp_basis_batch(X), reduced_jacobi_batch(A, X)
    for s, x in enumerate(X):
        np.testing.assert_allclose(J[s], jacobi(A, x), atol=1e-12)
        np.testing.assert_array_equal(Q[s], perp_basis(x))
        np.testing.assert_allclose(R[s], reduced_jacobi(A, x), atol=1e-12)


def test_householder_basis_at_axes_is_exact():
    # at a standard basis vector the reflector is a coordinate sign flip,
    # so the complement is the other axes exactly
    for i in range(4):
        Q = perp_basis(np.eye(4)[i])
        np.testing.assert_array_equal(Q, np.delete(np.eye(4), i, axis=1))


def test_perp_basis_batch_rejects_zero_row():
    with pytest.raises(ValueError):
        perp_basis_batch(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_spectrum_batch_round_trip_through_pack():
    Ms = np.stack([np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 3.0, 3.0])])
    batch = spectrum_batch(Ms)
    packed = SpectrumBatch.of([batch[0], batch[1]])
    assert [packed[s] for s in range(2)] == [batch[s] for s in range(2)]
    assert list(batch.zero_flags()) == [False, False]
    assert spectrum(Ms[0]) == batch[0]


# -- scale invariance -----------------------------------------------------

SCALES = [10.0 ** k for k in range(-12, 13, 3)]


@pytest.mark.parametrize("scale", SCALES)
def test_nilpotent_verdict_is_scale_invariant(scale):
    verdict = is_projective_affine_osserman(nilpotent_model(5, scale), n_samples=96)
    assert verdict.status == AFFINE
    assert verdict.mu.nilpotent


@pytest.mark.parametrize("scale", SCALES)
def test_projective_verdict_is_scale_invariant(scale):
    A = realize(StructureSpec("2-c", (4.0 * scale,), ((1 + 2j) * scale,)), 10)
    result = classify(A, n_samples=32)
    verdict = result.verdict
    assert verdict.status == PROJECTIVE
    assert verdict.mu.entries == (1, 1, 4, 4)
    assert result.structure.case == "2-c"
    # eigenvalues and tolerances are reported in the model's own units
    assert result.structure.lambdas[0] == pytest.approx(4.0 * scale, rel=1e-9)
    values = sorted(abs(v) for v, _ in verdict.spectrum.items)
    assert values[-1] == pytest.approx(4.0 * scale, rel=1e-9)
    assert verdict.spectrum.cluster_tol <= 1e-7 * scale
    assert verdict.worst_residual <= 1e-9 * scale


def test_model_below_two_dimensions_is_rejected():
    with pytest.raises(ValueError, match="no reduced Jacobi operator"):
        is_projective_affine_osserman(from_dense(np.zeros((1,) * 4)))
