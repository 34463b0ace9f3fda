"""Curvature tensor container, Jacobi operators, and model files."""

import json

import numpy as np
import pytest

from affinecurv.tensor_core import (
    CurvatureTensor,
    check_affine_symmetries,
    evaluate,
    jacobi,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    model_to_json_text,
    perp_basis,
    reduced_jacobi,
    save_model,
)


def sectional_tensor(m):
    """A(X, Y)Z = <Y,Z>X - <X,Z>Y written out with loops, as an oracle
    independent of the einsum-based library paths."""
    e = np.zeros((m, m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    e[i, j, k, l] = (1.0 if j == k and i == l else 0.0) - (
                        1.0 if i == k and j == l else 0.0
                    )
    return CurvatureTensor(e)


def test_tensor_is_immutable():
    A = sectional_tensor(3)
    with pytest.raises(AttributeError):
        A.dim = 5
    with pytest.raises(ValueError):
        A.entries[0, 0, 0, 0] = 1.0  # read-only array


def test_shape_validation():
    with pytest.raises(ValueError):
        CurvatureTensor(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        CurvatureTensor(np.zeros((2, 2, 2, 3)))


def test_evaluate_against_inner_product_oracle():
    rng = np.random.default_rng(0)
    A = sectional_tensor(4)
    for _ in range(10):
        X, Y, Z = rng.standard_normal((3, 4))
        want = np.dot(Y, Z) * X - np.dot(X, Z) * Y
        np.testing.assert_allclose(evaluate(A, X, Y, Z), want, atol=1e-12)


def test_symmetry_check_exact_zero():
    report = check_affine_symmetries(sectional_tensor(5))
    assert report.antisymmetry_defect == 0.0
    assert report.bianchi_defect == 0.0
    assert report.passed


def test_symmetry_check_flags_defects():
    e = np.zeros((2, 2, 2, 2))
    e[0, 1, 0, 1] = 1.0  # no antisymmetric partner
    report = check_affine_symmetries(CurvatureTensor(e))
    assert report.antisymmetry_defect > 0
    assert not report.passed


def test_jacobi_matches_definition():
    rng = np.random.default_rng(1)
    A = sectional_tensor(4)
    for _ in range(5):
        X = rng.standard_normal(4)
        J = jacobi(A, X)
        # column i should be A(e_i, X)X
        for i in range(4):
            np.testing.assert_allclose(
                J[:, i], evaluate(A, np.eye(4)[i], X, X), atol=1e-12
            )
        np.testing.assert_allclose(J @ X, np.zeros(4), atol=1e-12)


def test_jacobi_quadratic_homogeneity():
    A = sectional_tensor(3)
    X = np.array([0.3, -1.2, 0.4])
    np.testing.assert_allclose(jacobi(A, 2.5 * X), 6.25 * jacobi(A, X), atol=1e-12)


def test_jacobi_zero_direction():
    A = sectional_tensor(3)
    np.testing.assert_array_equal(jacobi(A, np.zeros(3)), np.zeros((3, 3)))


def test_perp_basis_properties():
    rng = np.random.default_rng(2)
    for _ in range(10):
        X = rng.standard_normal(5)
        Q = perp_basis(X)
        assert Q.shape == (5, 4)
        np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(Q.T @ X, np.zeros(4), atol=1e-12)


def test_perp_basis_deterministic_and_tie_break():
    X = np.ones(4)  # all coordinates tie; the lowest index is dropped
    Q1 = perp_basis(X)
    Q2 = perp_basis(X)
    np.testing.assert_array_equal(Q1, Q2)
    Y = np.array([0.0, 3.0, 0.0, 0.0])
    Q = perp_basis(Y)
    # dropping axis 1 leaves e1, e3, e4 untouched
    np.testing.assert_allclose(Q, np.eye(4)[:, [0, 2, 3]], atol=1e-12)


def test_reduced_jacobi_spectrum_relation():
    # Spec(J) = Spec(reduced J) plus one zero
    rng = np.random.default_rng(3)
    A = sectional_tensor(5)
    for _ in range(5):
        X = rng.standard_normal(5)
        X /= np.linalg.norm(X)
        full = np.sort_complex(np.linalg.eigvals(jacobi(A, X)))
        red = np.sort_complex(
            np.append(np.linalg.eigvals(reduced_jacobi(A, X)), 0.0)
        )
        np.testing.assert_allclose(full, red, atol=1e-10)


def test_reduced_jacobi_rejects_zero():
    with pytest.raises(ValueError):
        reduced_jacobi(sectional_tensor(3), np.zeros(3))


def test_json_round_trip(tmp_path):
    A = sectional_tensor(3)
    data = model_to_json_dict(A)
    assert data["dim"] == 3
    # zeros are omitted and quadruples sorted
    quads = [tuple(row[:4]) for row in data["entries"]]
    assert quads == sorted(quads)
    assert all(row[4] != 0 for row in data["entries"])
    B = model_from_json_dict(data)
    np.testing.assert_array_equal(A.entries, B.entries)

    path = tmp_path / "model.json"
    save_model(A, path)
    C = load_model(path)
    np.testing.assert_array_equal(A.entries, C.entries)


def test_json_validation():
    with pytest.raises(ValueError):
        model_from_json_dict({"dim": 2, "entries": [[0, 0, 0, 5, 1.0]]})
    with pytest.raises(ValueError):
        model_from_json_dict(
            {"dim": 2, "entries": [[0, 1, 0, 1, 1.0], [0, 1, 0, 1, 2.0]]}
        )
    with pytest.raises(ValueError):
        model_from_json_dict({"entries": []})


@pytest.mark.parametrize("dim", [2.9, 2.0, True, "2", None, [2]])
def test_json_validation_rejects_a_non_integer_dim(dim):
    rows = [[0, 1, 0, 1, 1.0], [1, 0, 0, 1, -1.0]]
    with pytest.raises(ValueError, match="'dim' must be an integer"):
        model_from_json_dict({"dim": dim, "entries": rows})


@pytest.mark.parametrize("bad_row,problem", [
    ([0, 1, 1, 0.5, 1.0], "non-integer index"),
    ([0, 1, 1, 1.0, 1.0], "non-integer index"),
    ([0, True, 1, 0, 1.0], "non-integer index"),
    ([0, "1", 1, 0, 1.0], "non-integer index"),
    ([0, 1, 1, 0, "1.0"], "non-numeric value"),
    ([0, 1, 1, 0, None], "non-numeric value"),
    ([0, 1, 1, 0, False], "non-numeric value"),
    ([0, 1, 1, 2, 1.0], "out of range"),
    ([0, -1, 1, 0, 1.0], "out of range"),
    ([0, 1, 1, 0], r"not \[i, j, k, l, value\]"),
    ([0, 1, 1, 0, 1.0, 2.0], r"not \[i, j, k, l, value\]"),
    ({"i": 0}, r"not \[i, j, k, l, value\]"),
    (7, r"not \[i, j, k, l, value\]"),
    ([1, 0, 0, 1, -1.0], "repeats an earlier"),
])
def test_json_validation_names_the_first_bad_row(bad_row, problem):
    good = [[0, 1, 0, 1, 1.0], [1, 0, 0, 1, -1.0]]
    data = {"dim": 2, "entries": good + [bad_row, [1, 1, 1, 1, 3]]}
    with pytest.raises(ValueError, match=r"entry row 2 .*" + problem):
        model_from_json_dict(data)


def test_json_loader_accepts_integer_values_and_reports_the_earliest_repeat():
    data = {"dim": 2, "entries": [[1, 1, 1, 1, 3], [0, 0, 0, 0, 2.5]]}
    A = model_from_json_dict(data)
    assert A.entries[1, 1, 1, 1] == 3.0 and A.entries[0, 0, 0, 0] == 2.5
    assert np.count_nonzero(A.entries) == 2
    rows = [[1, 1, 1, 1, 1.0], [0, 0, 0, 0, 1.0], [0, 0, 0, 0, 2.0], [1, 1, 1, 1, 2.0]]
    with pytest.raises(ValueError, match=r"entry row 2 "):
        model_from_json_dict({"dim": 2, "entries": rows})
    with pytest.raises(ValueError, match="list of rows"):
        model_from_json_dict({"dim": 2, "entries": {"0": [0, 0, 0, 0, 1.0]}})
    assert not np.any(model_from_json_dict({"dim": 3, "entries": []}).entries)


def _json_dump_text(A):
    """What save_model wrote when it called the json module."""
    return json.dumps(model_to_json_dict(A), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_save_model_writes_the_json_dump_layout(tmp_path, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    e = np.zeros((m,) * 4)
    mask = rng.random(e.shape) < rng.choice([0.02, 0.3, 1.0])
    scale = 10.0 ** rng.integers(-300, 300, size=e.shape)
    e[mask] = (rng.standard_normal(e.shape) * scale)[mask]
    e[mask & (rng.random(e.shape) < 0.2)] = -0.0
    e.flat[0] = 1.0 / 3.0
    A = CurvatureTensor(e)
    path = tmp_path / "model.json"
    save_model(A, path)
    assert path.read_text() == _json_dump_text(A)
    np.testing.assert_array_equal(load_model(path).entries, A.entries)


def test_save_model_of_the_zero_model(tmp_path):
    A = CurvatureTensor(np.zeros((3,) * 4))
    path = tmp_path / "zero.json"
    save_model(A, path)
    assert path.read_text() == _json_dump_text(A) == '{\n  "dim": 3,\n  "entries": []\n}\n'


@pytest.mark.parametrize("depth", range(4))
def test_model_text_nests_as_json_dumps_does(depth):
    rng = np.random.default_rng(depth)
    e = np.where(rng.random((3,) * 4) < 0.3, rng.standard_normal((3,) * 4), 0.0)
    holder = "\0model"
    for A in (CurvatureTensor(e), CurvatureTensor(np.zeros((2,) * 4))):
        nested, placeheld = model_to_json_dict(A), holder
        for level in range(depth):
            nested = {"b": nested, "c": level}
            placeheld = {"b": placeheld, "c": level}
        want = json.dumps(nested, indent=2, sort_keys=True)
        got = json.dumps(placeheld, indent=2, sort_keys=True).replace(
            json.dumps(holder), model_to_json_text(A, depth))
        assert got == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_model_rejects_non_finite_entries(tmp_path, bad):
    e = np.zeros((2,) * 4)
    e[0, 1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        save_model(CurvatureTensor(e), tmp_path / "bad.json")


def test_symmetry_defects_equal_the_dense_formulas():
    """The slab-by-slab defects are the max-abs of the same sums as the
    dense m^4 expressions, so they agree bit for bit."""
    rng = np.random.default_rng(3)
    for m in (1, 2, 5):
        e = rng.standard_normal((m,) * 4) / 3.0
        report = check_affine_symmetries(CurvatureTensor(e))
        anti = np.max(np.abs(e + e.transpose(1, 0, 2, 3)))
        cyc = e + e.transpose(1, 2, 0, 3) + e.transpose(2, 0, 1, 3)
        assert report.antisymmetry_defect == anti
        assert report.bianchi_defect == np.max(np.abs(cyc))
    e[0, 1, 2, 3] = np.nan
    assert np.isnan(check_affine_symmetries(CurvatureTensor(e)).bianchi_defect)
    empty = check_affine_symmetries(CurvatureTensor(np.zeros((0,) * 4)))
    assert empty.antisymmetry_defect == 0.0 and empty.passed
