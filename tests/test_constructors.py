"""Model constructors: structures, building blocks, case realization."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from affinecurv import constructors
from affinecurv.constructors import (
    CASE_LABELS,
    ComplexStructure,
    QuaternionStructure,
    StructureSpec,
    case_constraints,
    complex_model,
    complex_structure_term,
    compose_endomorphism,
    constant_curvature,
    quaternion_model,
    realize,
    standard_complex_structure,
    standard_quaternion_structure,
)
from affinecurv.spectral import spectrum, spectrum_batch
from affinecurv.tensor_core import (
    check_affine_symmetries,
    evaluate,
    jacobi,
    model_to_json_text,
    reduced_jacobi,
    save_model,
)

from dense import from_dense, to_dense


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit(m, seed):
    return unit(np.random.default_rng(seed).standard_normal(m))


# -- structures -----------------------------------------------------------


def test_standard_complex_structure():
    J = standard_complex_structure(6).matrix
    assert np.array_equal(J @ J, -np.eye(6))
    assert np.array_equal(J.T @ J, np.eye(6))
    assert J[1, 0] == 1.0 and J[0, 1] == -1.0


def test_complex_structure_rejections():
    with pytest.raises(ValueError):
        standard_complex_structure(5)
    with pytest.raises(ValueError):
        ComplexStructure(np.eye(4))  # squares to +Id
    with pytest.raises(ValueError):
        ComplexStructure(2.0 * standard_complex_structure(4).matrix)  # not orthogonal


def test_standard_quaternion_structure():
    Q = standard_quaternion_structure(8)
    a, b, c = Q.j1.matrix, Q.j2.matrix, Q.j3.matrix
    assert np.array_equal(a @ b, c)
    for p, q in ((a, b), (b, c), (c, a)):
        assert np.array_equal(p @ q, -q @ p)
    with pytest.raises(ValueError):
        standard_quaternion_structure(6)


def test_quaternion_relations_enforced():
    Q = standard_quaternion_structure(4)
    with pytest.raises(ValueError):
        # swap j2, j3: J1 J3 = -J2, so the product relation fails
        QuaternionStructure(Q.j1, Q.j3, Q.j2)


# -- building blocks ------------------------------------------------------


def test_constant_curvature_entries():
    A = constant_curvature(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    want = float(j == k and i == l) - float(i == k and j == l)
                    assert to_dense(A)[i, j, k, l] == want


def test_constant_curvature_spectrum():
    A = constant_curvature(5)
    for seed in range(4):
        X = random_unit(5, seed)
        S = spectrum(reduced_jacobi(A, X))
        assert len(S.items) == 1
        (v, mult), = S.items
        assert mult == 4 and abs(v - 1.0) <= 1e-12


def test_complex_structure_term_symmetries():
    A = complex_structure_term(standard_complex_structure(6))
    assert check_affine_symmetries(A, tol=1e-12).passed


def test_complex_model_jacobi_rows():
    # check the advertised action row by row at a random unit direction
    J = standard_complex_structure(6)
    axis, perp, skew = 3.0, 1.25, 0.5
    A = complex_model(J, axis, perp, skew)
    assert check_affine_symmetries(A, tol=1e-12).passed
    X = random_unit(6, 11)
    JX = J.matrix @ X
    Op = jacobi(A, X)
    assert np.allclose(Op @ X, 0.0, atol=1e-12)
    assert np.allclose(Op @ JX, axis * JX, atol=1e-12)
    # complete {X, JX} to a basis and project out the plane
    rng = np.random.default_rng(5)
    for _ in range(3):
        Y = rng.standard_normal(6)
        Y -= (Y @ X) * X + (Y @ JX) * JX
        Y = unit(Y)
        assert np.allclose(Op @ Y, perp * Y + skew * (J.matrix @ Y), atol=1e-12)


def test_complex_model_degenerate_skew_is_rescaled_constant():
    J = standard_complex_structure(6)
    lam = 2.5
    A = complex_model(J, lam, lam, 0.0)
    B = constant_curvature(6)
    assert np.max(np.abs(to_dense(A) - lam * to_dense(B))) <= 1e-12


def test_quaternion_model_jacobi_rows():
    Q = standard_quaternion_structure(8)
    j1v, j2v, j3v, perp, pskew, plskew = 4.0, 1.0, 2.0, -1.5, 0.75, 0.25
    A = quaternion_model(Q, j1v, j2v, j3v, perp, pskew, plskew)
    assert check_affine_symmetries(A, tol=1e-12).passed
    X = random_unit(8, 23)
    J1, J2, J3 = Q.j1.matrix, Q.j2.matrix, Q.j3.matrix
    v1, v2, v3 = J1 @ X, J2 @ X, J3 @ X
    Op = jacobi(A, X)
    assert np.allclose(Op @ X, 0.0, atol=1e-12)
    assert np.allclose(Op @ v1, j1v * v1, atol=1e-12)
    # J1 rotates the (J2 X, J3 X) plane: J1 J2 X = J3 X, J1 J3 X = -J2 X
    assert np.allclose(Op @ v2, j2v * v2 + plskew * v3, atol=1e-12)
    assert np.allclose(Op @ v3, j3v * v3 - plskew * v2, atol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(3):
        Y = rng.standard_normal(8)
        for w in (X, v1, v2, v3):
            Y -= (Y @ w) * w
        Y = unit(Y)
        assert np.allclose(Op @ Y, perp * Y + pskew * (J1 @ Y), atol=1e-12)


# -- realization ----------------------------------------------------------

REALIZE_SPECTRA = [
    # (case, m, lambdas, nus, expected reduced spectrum items)
    ("1", 5, (2.0,), (), ((2 + 0j, 4),)),
    ("2-a", 6, (3.0,), (), ((3 + 0j, 5),)),
    ("2-b", 6, (4.0, 1.0), (), ((1 + 0j, 4), (4 + 0j, 1))),
    ("2-c", 6, (4.0,), (1 + 2j,), ((1 - 2j, 2), (1 + 2j, 2), (4 + 0j, 1))),
    ("3-a", 12, (-2.0,), (), ((-2 + 0j, 11),)),
    ("3-b-i", 12, (5.0, 1.0), (), ((1 + 0j, 10), (5 + 0j, 1))),
    ("3-b-ii", 12, (5.0, 1.0), (), ((1 + 0j, 9), (5 + 0j, 2))),
    ("3-b-iii", 12, (5.0, 1.0), (), ((1 + 0j, 8), (5 + 0j, 3))),
    ("3-c-i", 12, (5.0, 3.0, 1.0), (), ((1 + 0j, 9), (3 + 0j, 1), (5 + 0j, 1))),
    ("3-c-ii", 12, (5.0, 3.0, 1.0), (), ((1 + 0j, 8), (3 + 0j, 2), (5 + 0j, 1))),
    ("3-d", 12, (7.0, 5.0, 3.0, 1.0), (),
     ((1 + 0j, 8), (3 + 0j, 1), (5 + 0j, 1), (7 + 0j, 1))),
    ("3-e-i", 12, (4.0,), (1 + 1j,), ((1 - 1j, 5), (1 + 1j, 5), (4 + 0j, 1))),
    ("3-e-ii", 12, (4.0,), (1 + 1j,), ((1 - 1j, 4), (1 + 1j, 4), (4 + 0j, 3))),
    ("3-e-iii", 12, (4.0,), (1 + 1j,), ((1 - 1j, 1), (1 + 1j, 1), (4 + 0j, 9))),
    ("3-f-i", 12, (6.0, 4.0), (1 + 1j,),
     ((1 - 1j, 4), (1 + 1j, 4), (4 + 0j, 2), (6 + 0j, 1))),
    ("3-f-ii", 12, (6.0, 4.0), (1 + 1j,),
     ((1 - 1j, 1), (1 + 1j, 1), (4 + 0j, 8), (6 + 0j, 1))),
    ("3-g", 12, (6.0, 4.0, 2.0), (1 + 1j,),
     ((1 - 1j, 4), (1 + 1j, 4), (2 + 0j, 1), (4 + 0j, 1), (6 + 0j, 1))),
    ("3-h", 12, (6.0,), (1 + 1j, 3 + 2j),
     ((1 - 1j, 1), (1 + 1j, 1), (3 - 2j, 4), (3 + 2j, 4), (6 + 0j, 1))),
]


@pytest.mark.parametrize("case,m,lams,nus,expected", REALIZE_SPECTRA,
                         ids=[row[0] for row in REALIZE_SPECTRA])
def test_realize_reduced_spectrum(case, m, lams, nus, expected):
    A = realize(StructureSpec(case, lams, nus), m)
    assert check_affine_symmetries(A, tol=1e-10).passed
    for seed in range(3):
        X = random_unit(m, seed)
        S = spectrum(reduced_jacobi(A, X), cluster_tol=1e-8)
        assert len(S.items) == len(expected)
        for (v, mult), (ev, emult) in zip(S.items, expected):
            assert mult == emult
            assert abs(v - ev) <= 1e-8


def test_realize_covers_every_case():
    assert {row[0] for row in REALIZE_SPECTRA} == set(CASE_LABELS)


def test_spectrum_is_direction_independent():
    A = realize(StructureSpec("3-g", (6.0, 4.0, 2.0), (1 + 1j,)), 12)
    full = spectrum_batch([reduced_jacobi(A, random_unit(12, seed))
                           for seed in range(6)]).with_zero()
    base = full[0]
    for seed in range(1, 6):
        for (v, mult), (bv, bmult) in zip(full[seed].items, base.items):
            assert mult == bmult and abs(v - bv) <= 1e-8


def test_case_constraints():
    assert case_constraints("2-c", 10) == ((1,), (4,))
    assert case_constraints("3-d", 12) == ((1, 1, 1, 8), ())
    assert case_constraints("3-h", 12) == ((1,), (1, 4))


# -- validation -----------------------------------------------------------


def test_realize_dimension_class():
    with pytest.raises(ValueError):
        realize(StructureSpec("1", (1.0,)), 4)
    with pytest.raises(ValueError):
        realize(StructureSpec("2-a", (1.0,)), 12)
    with pytest.raises(ValueError):
        realize(StructureSpec("3-a", (1.0,)), 6)


def test_realize_slot_counts():
    with pytest.raises(ValueError):
        realize(StructureSpec("2-b", (1.0,)), 6)
    with pytest.raises(ValueError):
        realize(StructureSpec("1", (1.0, 2.0)), 5)
    with pytest.raises(ValueError):
        realize(StructureSpec("2-c", (1.0,)), 6)


def test_realize_distinctness():
    with pytest.raises(ValueError):
        realize(StructureSpec("2-b", (2.0, 2.0)), 6)
    with pytest.raises(ValueError):
        realize(StructureSpec("3-h", (1.0,), (2 + 1j, 2 + 1j)), 12)


def test_realize_zero_forbidden_in_full_multiplicity_cases():
    for case, m in (("1", 3), ("2-a", 6), ("3-a", 12)):
        with pytest.raises(ValueError):
            realize(StructureSpec(case, (0.0,)), m)
    # elsewhere zero is a legitimate eigenvalue
    A = realize(StructureSpec("2-b", (1.0, 0.0)), 6)
    X = random_unit(6, 3)
    S = spectrum(reduced_jacobi(A, X))
    assert any(abs(v) <= 1e-9 and mult == 4 for v, mult in S.items)


def test_realize_rejects_empty_slot_at_m4():
    # m = 4 leaves no room for the complement eigenvalue of this case
    with pytest.raises(ValueError):
        realize(StructureSpec("3-c-ii", (1.0, 2.0, 3.0)), 4)


def test_realize_m_mismatch():
    with pytest.raises(ValueError):
        realize(StructureSpec("1", (1.0,), m=5), 7)


def test_structure_spec_json_round_trip():
    spec = StructureSpec("3-h", (6.0,), (1 + 1j, 3 + 2j), m=12)
    back = StructureSpec.from_json_dict(spec.to_json_dict())
    assert back == spec


@pytest.mark.parametrize("lambdas,nus", [
    ((float("nan"),), (2 + 1j,)),
    ((float("inf"),), (2 + 1j,)),
    ((1.0,), (complex(float("nan"), 1.0),)),
    ((1.0,), (complex(2.0, float("inf")),)),
])
def test_structure_spec_rejects_non_finite_eigenvalues(lambdas, nus):
    with pytest.raises(ValueError, match="not finite"):
        StructureSpec("2-c", lambdas, nus)


def test_structure_spec_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        StructureSpec("2-c", (1.0,), (2 - 1j,))
    with pytest.raises(ValueError):
        StructureSpec("2-c", (1.0,), (2 + 0j,))


# -- invariance -----------------------------------------------------------


def commutes_with(G, Js):
    """Project G onto the matrices commuting with every J, antisymmetrize,
    and exponentiate: a group element preserving all the structure."""
    P = G.copy()
    for J in Js:
        P = 0.5 * (P - J @ P @ J)
    P = P - P.T
    return expm(P)


@pytest.mark.parametrize("seed", range(3))
def test_complex_model_group_invariance(seed):
    J = standard_complex_structure(6)
    A = complex_model(J, 3.0, 1.0, 0.5)
    G = np.random.default_rng(seed).standard_normal((6, 6))
    Xi = commutes_with(G, [J.matrix])
    assert np.max(np.abs(Xi @ J.matrix - J.matrix @ Xi)) <= 1e-10
    rng = np.random.default_rng(seed + 100)
    for _ in range(3):
        x, y, z = rng.standard_normal((3, 6))
        lhs = evaluate(A, Xi @ x, Xi @ y, Xi @ z)
        rhs = Xi @ evaluate(A, x, y, z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_quaternion_model_group_invariance(seed):
    Q = standard_quaternion_structure(8)
    Js = [Q.j1.matrix, Q.j2.matrix, Q.j3.matrix]
    A = quaternion_model(Q, 4.0, 1.0, 2.0, -1.5, 0.75, 0.25)
    G = np.random.default_rng(seed).standard_normal((8, 8))
    Xi = commutes_with(G, Js)
    for J in Js:
        assert np.max(np.abs(Xi @ J - J @ Xi)) <= 1e-10
    rng = np.random.default_rng(seed + 100)
    for _ in range(3):
        x, y, z = rng.standard_normal((3, 8))
        lhs = evaluate(A, Xi @ x, Xi @ y, Xi @ z)
        rhs = Xi @ evaluate(A, x, y, z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_quaternion_model_m4_note():
    Q = standard_quaternion_structure(4)
    A = quaternion_model(Q, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0)
    assert any("complement" in note for note in A.notes)


# -- slab construction against the dense einsum formulas ------------------

# The formulas the constructors used before they were built one
# first-index slab at a time.  The slab code must give the same entries
# bit for bit.


def einsum_constant_curvature(m):
    eye = np.eye(m)
    return np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)


def einsum_complex_structure_term(Jm):
    eye = np.eye(len(Jm))
    return (
        np.einsum("kj,il->ijkl", Jm, eye)
        - np.einsum("ki,jl->ijkl", Jm, eye)
        - 2.0 * np.einsum("ji,kl->ijkl", Jm, eye)
    ) / 3.0


def einsum_compose(Xi, e):
    return np.einsum("lp,ijkp->ijkl", Xi, e)


def einsum_complex_model(J, axis_value, perp_value, perp_skew):
    Jm = J.matrix
    a0t = einsum_constant_curvature(J.dim)
    j_aj = einsum_compose(Jm, einsum_complex_structure_term(Jm))
    j_a0 = einsum_compose(Jm, a0t)
    jj_aj = einsum_compose(Jm, j_aj)
    entries = perp_value * a0t + perp_skew * (j_a0 - jj_aj) + (axis_value - perp_value) * j_aj
    return from_dense(entries)


def einsum_quaternion_model(Q, j1_value, j2_value, j3_value, perp_value, perp_skew,
                            plane_skew):
    J1, J2, J3 = Q.j1.matrix, Q.j2.matrix, Q.j3.matrix
    a0t = einsum_constant_curvature(Q.dim)
    t1, t2, t3 = (einsum_compose(Jm, einsum_complex_structure_term(Jm)) for Jm in (J1, J2, J3))
    entries = (
        perp_value * a0t
        + (j1_value - perp_value) * t1
        + (j2_value - perp_value) * t2
        + (j3_value - perp_value) * t3
        + perp_skew * (einsum_compose(J1, a0t) - einsum_compose(J1, t1))
        + (plane_skew - perp_skew) * einsum_compose(J1, t2 + t3)
    )
    return from_dense(entries)


def einsum_realize(spec, m, monkeypatch):
    """realize with the einsum models swapped in for the slab ones."""
    if spec.case in ("1", "2-a", "3-a"):
        return spec.lambdas[0] * einsum_constant_curvature(m)
    with monkeypatch.context() as patch:
        patch.setattr(constructors, "complex_model", einsum_complex_model)
        patch.setattr(constructors, "quaternion_model", einsum_quaternion_model)
        return to_dense(realize(spec, m))


def awkward_spec(case, m, seed):
    """Distinct eigenvalues with long float reprs (thirds and sevenths)."""
    real_mults, pair_mults = case_constraints(case, m)
    rng = np.random.default_rng(seed)
    values = rng.choice(np.arange(1, 40), size=len(real_mults) + 2 * len(pair_mults),
                        replace=False)
    lams = tuple(float(v) / 3.0 - 6.5 for v in values[:len(real_mults)])
    rest = values[len(real_mults):]
    nus = tuple(complex(float(a) / 7.0 - 2.0, float(b) / 3.0)
                for a, b in zip(rest[::2], rest[1::2]))
    return StructureSpec(case, lams, nus)


_TWO_DIMS = {"1": (5, 9), "2-a": (6, 10), "2-b": (6, 10), "2-c": (6, 10)}


@pytest.mark.parametrize("case", CASE_LABELS)
def test_slab_realize_matches_einsum_formulas(case, monkeypatch):
    for m in _TWO_DIMS.get(case, (8, 12)):
        spec = awkward_spec(case, m, seed=m)
        assert np.array_equal(to_dense(realize(spec, m)), einsum_realize(spec, m, monkeypatch))


def test_slab_building_blocks_match_einsum_formulas():
    Q = standard_quaternion_structure(8)
    assert np.array_equal(to_dense(constant_curvature(8)), einsum_constant_curvature(8))
    for Jm in (Q.j1.matrix, Q.j2.matrix, Q.j3.matrix):
        t = complex_structure_term(ComplexStructure(Jm))
        assert np.array_equal(to_dense(t), einsum_complex_structure_term(Jm))
        assert np.array_equal(to_dense(compose_endomorphism(Jm, t)),
                              einsum_compose(Jm, to_dense(t)))
    args = (0.3, -1.0 / 3.0, 2.0 / 7.0, 5.5, 1.25, -0.1)
    assert np.array_equal(to_dense(quaternion_model(Q, *args)),
                          to_dense(einsum_quaternion_model(Q, *args)))
    assert quaternion_model(standard_quaternion_structure(4), *args).notes


def test_realize_peak_memory_stays_near_the_tensor():
    """The peak stays below the m^4 dense tensor, which is never made; the
    dense einsum construction peaked at about 9 times it."""
    m = 24
    spec = StructureSpec("3-g", (1.0, 2.0, 3.0), (0.5 + 1j,))
    realize(spec, 8)
    tracemalloc.start()
    try:
        A = realize(spec, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * m ** 4 * 8


# -- sparse construction ----------------------------------------------------

_LARGER_DIMS = {"1": 21, "2-a": 22, "2-b": 22, "2-c": 22}


@pytest.mark.parametrize("case", CASE_LABELS)
def test_sparse_realize_matches_einsum_formulas_at_larger_m(case, monkeypatch):
    m = _LARGER_DIMS.get(case, 20)
    spec = awkward_spec(case, m, seed=m + 1)
    A = realize(spec, m)
    dense = einsum_realize(spec, m, monkeypatch)
    assert np.array_equal(to_dense(A), dense)
    assert len(A.nonzero()[1]) == np.count_nonzero(dense)


@pytest.mark.parametrize("case,m,lams,nus", [
    # a real part equal to a real eigenvalue zeroes a coefficient
    ("2-c", 10, (4.0,), (4 + 1j,)),
    ("3-e-ii", 12, (1.0 / 3.0,), (1.0 / 3.0 + 2j,)),
    ("3-f-i", 12, (1.5, -2.0 / 7.0), (-2.0 / 7.0 + 1j,)),
    ("3-g", 12, (1.0, 2.0, 3.0), (3 + 0.5j,)),
    ("3-h", 12, (2.0,), (2 + 1j, 2 + 3j)),
    # perp_skew = 0 and plane_skew = 0
    ("3-b-ii", 12, (2.0 / 3.0, -1.0), ()),
    ("3-c-ii", 12, (0.1, 0.2, 0.3), ()),
])
def test_cancelling_terms_give_the_dense_nonzero_count(case, m, lams, nus, monkeypatch):
    spec = StructureSpec(case, lams, nus)
    A = realize(spec, m)
    dense = einsum_realize(spec, m, monkeypatch)
    assert np.array_equal(to_dense(A), dense)
    assert len(A.nonzero()[1]) == np.count_nonzero(dense)


@pytest.mark.parametrize("case", ["1", "2-c", "3-d", "3-h"])
def test_saved_sparse_model_is_byte_identical_to_the_scanned_one(case, tmp_path):
    m = _LARGER_DIMS.get(case, 12)
    A = realize(awkward_spec(case, m, seed=3), m)
    save_model(A, tmp_path / "sparse.json")
    save_model(from_dense(to_dense(A)), tmp_path / "dense.json")
    assert (tmp_path / "sparse.json").read_bytes() == (tmp_path / "dense.json").read_bytes()


def random_orthogonal(m, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def rotated(J, g):
    return ComplexStructure(g @ J.matrix @ g.T)


def assert_close_relative(A, B):
    assert np.max(np.abs(to_dense(A) - to_dense(B))) <= 1e-12 * np.max(np.abs(to_dense(B)))


@pytest.mark.parametrize("seed", range(2))
def test_models_on_a_rotated_structure_match_einsum(seed):
    g = random_orthogonal(8, seed)
    J = rotated(standard_complex_structure(8), g)
    assert_close_relative(complex_model(J, 3.0, 1.0 / 3.0, 0.5),
                          einsum_complex_model(J, 3.0, 1.0 / 3.0, 0.5))
    Q = standard_quaternion_structure(8)
    Q = QuaternionStructure(rotated(Q.j1, g), rotated(Q.j2, g), rotated(Q.j3, g))
    args = (0.3, -1.0 / 3.0, 2.0 / 7.0, 5.5, 1.25, -0.1)
    assert_close_relative(quaternion_model(Q, *args), einsum_quaternion_model(Q, *args))
    A = complex_structure_term(Q.j2)
    assert_close_relative(A, from_dense(einsum_complex_structure_term(Q.j2.matrix)))


def test_realize_at_m44_stays_far_below_the_dense_tensor():
    """The nonzero list of 3-g at m = 44 holds 39,248 entries; the dense
    tensor would be 30 MB."""
    m = 44
    spec = StructureSpec("3-g", (1.0, 2.0, 3.0), (0.5 + 1j,))
    realize(spec, 8)
    tracemalloc.start()
    try:
        A = realize(spec, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(A.nonzero()[1]) == 39248
    model_to_json_text(A)
    assert peak < 0.1 * m ** 4 * 8
