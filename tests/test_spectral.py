"""Spectrum clustering, Jordan profiles, mu-vectors, projective matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecurv.spectral import (
    EigensolverError,
    Spectrum,
    SpectrumBatch,
    jordan_profile,
    mu_vector,
    projective_match_batch,
    _cluster,
    spectrum,
    spectrum_batch,
)


def test_spectrum_of_diagonal():
    S = spectrum(np.diag([2.0, 2.0, -1.0, 0.0]))
    assert S.items == ((-1 + 0j, 1), (0j, 1), (2 + 0j, 2))
    assert S.total_multiplicity == 4
    assert S.radius() == 2.0


def test_clustering_merges_jitter():
    vals = [1.0, 1.0 + 3e-9, 1.0 - 2e-9, 5.0]
    S = spectrum(np.diag(vals))
    assert [(v.real, m) for v, m in S.items] == [(pytest.approx(1.0), 3), (5.0, 1)]


def test_tolerance_scales_with_radius():
    # same absolute jitter, large eigenvalues: still one cluster
    S = spectrum(np.diag([1e6, 1e6 + 1e-3, -1e6]))
    assert sorted(m for _, m in S.items) == [1, 2]


def test_conjugate_pair_exact_closure():
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    S = spectrum(R)
    (v1, m1), (v2, m2) = S.items
    assert v1 == np.conj(v2) and m1 == m2 == 1
    assert v1.imag != 0.0


def test_a_real_row_clusters_alike_alone_and_beside_a_complex_row():
    """A batch with no cluster off the axis skips the conjugation closure;
    its rows keep the bits they get in a batch that runs it."""
    theta = 0.7
    rotation = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                         [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 2.0]])
    real = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [0.0, 1.0, 1.0 / 3.0]])
    alone = spectrum_batch(real[None])
    mixed = spectrum_batch(np.stack([rotation, real]))
    assert all(v.imag == 0.0 for v, _ in alone[0].items)
    assert repr(alone[0]) == repr(mixed[1])  # repr shows the sign of a zero part


@pytest.mark.parametrize("vals", [[1.0 - 1.0j, 2.0], [1.0 + 1.0j, 2.0], [1.0 + 1.0j, 1.0 - 3.0j]])
def test_clustering_rejects_a_multiset_not_closed_under_conjugation(vals):
    # a cluster below the axis with none above raises as well as the reverse
    with pytest.raises(EigensolverError, match="conjugation-closed"):
        _cluster(np.array([vals], dtype=complex), 1e-8)


def test_near_real_snap():
    # rotation by a tiny angle: the imaginary parts fall under the tolerance
    t = 1e-12
    R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    S = spectrum(R, cluster_tol=1e-8)
    assert all(v.imag == 0.0 for v, _ in S.items)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        spectrum(np.zeros((0, 0)))


def test_zero_spectrum_detection():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert list(spectrum_batch(np.stack([N, np.eye(2)])).zero_flags()) == [True, False]


def test_with_zero_inserts_or_merges():
    S2, T2 = spectrum_batch(np.stack([np.diag([1.0, 2.0]), np.diag([0.0, 1.0])])).with_zero()
    assert (0j, 1) in S2.items and S2.total_multiplicity == 3
    assert any(v == 0 and m == 2 for v, m in T2.items)
    assert T2.total_multiplicity == 3


def test_spectrum_json_round_trip():
    S = spectrum(np.diag([1.0, 1.0, -3.0]))
    T = Spectrum.from_json_dict(S.to_json_dict())
    assert T.items == S.items and T.cluster_tol == S.cluster_tol


# -- Jordan profiles ------------------------------------------------------


def test_jordan_diagonalizable():
    prof = jordan_profile(np.diag([2.0, 2.0, 5.0]), 2.0)
    assert prof.block_sizes == (1, 1) and prof.multiplicity == 2


def test_jordan_single_nilpotent_block():
    N = np.diag([1.0, 1.0], k=1)  # 3x3, one block of size 3
    prof = jordan_profile(N, 0.0)
    assert prof.block_sizes == (3,) and prof.multiplicity == 3


def test_jordan_mixed_blocks():
    M = np.zeros((5, 5))
    M[0, 1] = 1.0  # sizes (2, 1) at eigenvalue 0
    M[3, 3] = M[4, 4] = 7.0
    M[3, 4] = 1.0  # size 2 at eigenvalue 7
    assert jordan_profile(M, 0.0).block_sizes == (2, 1)
    assert jordan_profile(M, 7.0).block_sizes == (2,)


def test_jordan_small_coupling():
    # a vanishing power must read as rank zero even though the noise floor
    # of the product is far above the power's own scale
    M = np.array([[1.0, 0.0], [-0.3535533905932738, 1.0]])
    prof = jordan_profile(M, 1.0)
    assert prof.block_sizes == (2,) and prof.multiplicity == 2


_NOISE = np.array([[0.0, 1e-17, -1e-17], [1e-17, 0.0, 1e-17], [-1e-17, 1e-17, 0.0]])


@pytest.mark.parametrize("M, eigenvalue, blocks", [
    # couplings of 1e-6 are far above the roundoff of forming M - 1e3 I
    (np.array([[1e3, 1e-6], [0.0, 1e3]]), 1e3, (2,)),
    (np.array([[1e3, 1e-6, 0.0], [0.0, 1e3, 1e-6], [0.0, 0.0, 1e3]]), 1e3, (3,)),
    # N = M - 1.3125 I is all roundoff, so its own norm is no scale for it
    (1.3125 * np.eye(3) + _NOISE, 1.3125, (1, 1, 1)),
])
def test_jordan_cutoff_is_floored_at_the_roundoff_of_n(M, eigenvalue, blocks):
    prof = jordan_profile(M, eigenvalue)
    assert prof.block_sizes == blocks and prof.multiplicity == len(M)


def test_jordan_complex_eigenvalue():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    prof = jordan_profile(R, 1j)
    assert prof.block_sizes == (1,) and prof.multiplicity == 1


def test_jordan_rejects_non_eigenvalue():
    with pytest.raises(ValueError):
        jordan_profile(np.diag([1.0, 2.0]), 3.0)


# -- mu-vectors -----------------------------------------------------------


def test_mu_vector_canonical_order():
    # zero first, reals by descending multiplicity (ties ascending value),
    # then pairs, two slots each
    S = spectrum(np.diag([0.0, 3.0, 3.0, -1.0, -1.0, 5.0]))
    mu = mu_vector(S)
    assert mu.entries == (1, 2, 2, 1)
    assert mu.kinds == ("zero", "real", "real", "real")
    assert not mu.nilpotent


def test_mu_vector_complex_slots():
    M = np.zeros((5, 5))
    M[0, 1], M[1, 0] = -2.0, 2.0  # pair +-2i
    M[2, 3], M[3, 2] = -2.0, 2.0
    mu = mu_vector(spectrum(M))
    assert mu.entries == (1, 2, 2)
    assert mu.kinds == ("zero", "complex", "complex")


def test_mu_vector_nilpotent_flag():
    N = np.diag([1.0, 1.0], k=1)
    mu = mu_vector(spectrum(N))
    assert mu.nilpotent and mu.entries == (3,) and mu.kinds == ("zero",)


def test_mu_vector_needs_zero():
    with pytest.raises(ValueError):
        mu_vector(spectrum(np.eye(2)))


# -- projective matching --------------------------------------------------


def test_projective_match_scale_recovery():
    M = np.diag([0.0, 1.0, 1.0, -2.0])
    s = np.array([0.5, 1.0, 7.25])
    scales, residuals, negative = projective_match_batch(
        spectrum_batch(s[:, None, None] * M), spectrum(M), tol=1e-8)
    np.testing.assert_allclose(scales, s, rtol=1e-12)
    assert np.all(residuals <= 1e-10) and not negative.any()


def test_projective_match_rejects_sign_flip():
    batch = spectrum_batch(np.diag([0.0, 1.0])[None])
    _, residuals, negative = projective_match_batch(batch, spectrum(np.diag([0.0, -1.0])))
    assert np.isinf(residuals[0]) and negative[0]


def test_projective_match_multiplicities_matter():
    batch = spectrum_batch(np.diag([0.0, 1.0, 1.0, 2.0])[None])
    _, residuals, negative = projective_match_batch(
        batch, spectrum(np.diag([0.0, 1.0, 2.0, 2.0])), tol=1e-8)
    assert np.isinf(residuals[0]) and not negative[0]


def test_projective_match_preconditions():
    has_zero = spectrum(np.diag([0.0, 1.0]))
    for bad in (np.eye(2), np.zeros((2, 2))):  # no zero cluster; nilpotent
        with pytest.raises(ValueError):
            projective_match_batch(spectrum_batch(bad[None]), has_zero)
        with pytest.raises(ValueError):
            projective_match_batch(SpectrumBatch.of([has_zero]), spectrum(bad))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_projective_equality_under_scaling(values, s):
    M = np.diag([0.0] + [float(v) for v in values])
    batch = spectrum_batch(np.stack([M, s * M]))
    if batch.zero_flags()[0]:
        return
    scales, residuals, _ = projective_match_batch(batch, batch[0], tol=1e-8)
    assert np.all(np.isfinite(residuals))
    assert scales == pytest.approx([1.0, s], rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_total_multiplicity_is_dimension(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    assert spectrum(M).total_multiplicity == n
