"""Curvature tensor container, Jacobi operators, and model files."""

import copy
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affinecurv import tensor_core
from affinecurv.classifier import classify
from affinecurv.cli import main
from affinecurv.constructors import CASE_LABELS, StructureSpec, case_constraints, realize
from affinecurv.tensor_core import (
    CurvatureTensor,
    check_affine_symmetries,
    evaluate,
    jacobi,
    jacobi_batch,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    model_to_json_text,
    perp_basis,
    reduced_jacobi,
    save_model,
)

from dense import from_dense, to_dense


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
    return from_dense(e)


def test_nonzero_list_and_dense_view_agree():
    A = sectional_tensor(3)
    idx, vals = A.nonzero()
    assert np.array_equal(idx, np.argwhere(to_dense(A)))
    assert np.array_equal(vals, to_dense(A)[tuple(idx.T)])
    B = CurvatureTensor(3, np.ravel_multi_index(idx.T, (3,) * 4), vals)
    assert np.array_equal(to_dense(B), to_dense(A))
    assert not B.nonzero()[1].flags.writeable
    assert repr(B) == repr(A) == "CurvatureTensor(dim=3, nonzero=%d)" % len(vals)


def test_tensor_is_immutable():
    A = sectional_tensor(3)
    with pytest.raises(AttributeError):
        A.dim = 5
    with pytest.raises(ValueError):
        A.nonzero()[1][0] = 1.0  # read-only array


def test_shape_validation():
    """The constructor takes 1-D integer keys, strictly ascending inside
    [0, dim^4), and one value per key."""
    for keys, values, problem in [
        ([3, 1], [1.0, 2.0], "ascend"),
        ([1, 1], [1.0, 2.0], "ascend"),
        ([-1, 2], [1.0, 2.0], "ascend"),
        ([2, 16], [1.0, 2.0], "ascend"),
        ([1, 2], [1.0], "as many values"),
        ([1, 2], [1.0, 2.0, 3.0], "as many values"),
        ([1.0, 2.0], [1.0, 2.0], "integer keys"),
        ([[1, 2]], [[1.0, 2.0]], "1-D"),
    ]:
        with pytest.raises(ValueError, match=problem):
            CurvatureTensor(2, np.array(keys), values)
    with pytest.raises(ValueError, match="dim >= 0"):
        CurvatureTensor(-1, np.array([0]), [1.0])
    A = CurvatureTensor(2, np.array([0, 5, 15]), [0.0, -0.0, 2.5])
    assert np.array_equal(A.nonzero()[0], [[1, 1, 1, 1]]) and A.nonzero()[1].tolist() == [2.5]
    assert repr(CurvatureTensor(0, np.array([], dtype=int), [])) == "CurvatureTensor(dim=0, nonzero=0)"


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
    report = check_affine_symmetries(from_dense(e))
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
    np.testing.assert_array_equal(to_dense(A), to_dense(B))

    path = tmp_path / "model.json"
    save_model(A, path)
    C = load_model(path)
    np.testing.assert_array_equal(to_dense(A), to_dense(C))


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
    ([0, 1, 1, 0, 10 ** 400], "value out of float range"),
    ([0, 1, 1, 0, -2 ** 1024 + 2 ** 970], "value out of float range"),
    ([0, 1, 1, 0, json.loads("1e400")], "non-finite value"),
    ([0, 1, 1, 0, json.loads("-1e400")], "non-finite value"),
    ([0, 1, 1, 0, float("nan")], "non-finite value"),
    ([0, 1, 1, 0, float("-inf")], "non-finite value"),
])
def test_json_validation_names_the_first_bad_row(bad_row, problem):
    good = [[0, 1, 0, 1, 1.0], [1, 0, 0, 1, -1.0]]
    data = {"dim": 2, "entries": good + [bad_row, [1, 1, 1, 1, 3]]}
    with pytest.raises(ValueError, match=r"entry row 2 .*" + problem):
        model_from_json_dict(data)


@pytest.mark.parametrize("index", [10 ** 30, -2 ** 63 - 1, 2 ** 63 - 1, -2 ** 63])
def test_json_validation_names_an_index_past_the_integer_range(index):
    good = [[0, 1, 0, 1, 1.0], [1, 0, 0, 1, -1.0]]
    data = {"dim": 2, "entries": good + [[0, 1, index, 0, 1.0], [1, 1, 1, 1, 3]]}
    with pytest.raises(ValueError, match=r"entry row 2 .*out of range for dim=2"):
        model_from_json_dict(data)
    # the value rule comes first, on every row
    data["entries"][3][4] = 10 ** 400
    with pytest.raises(ValueError, match=r"entry row 3 .*value out of float range"):
        model_from_json_dict(data)


def test_json_loader_accepts_integer_values_and_reports_the_earliest_repeat():
    data = {"dim": 2, "entries": [[1, 1, 1, 1, 3], [0, 0, 0, 0, 2.5]]}
    e = to_dense(model_from_json_dict(data))
    assert e[1, 1, 1, 1] == 3.0 and e[0, 0, 0, 0] == 2.5
    assert np.count_nonzero(e) == 2
    rows = [[1, 1, 1, 1, 1.0], [0, 0, 0, 0, 1.0], [0, 0, 0, 0, 2.0], [1, 1, 1, 1, 2.0]]
    with pytest.raises(ValueError, match=r"entry row 2 "):
        model_from_json_dict({"dim": 2, "entries": rows})
    with pytest.raises(ValueError, match="list of rows"):
        model_from_json_dict({"dim": 2, "entries": {"0": [0, 0, 0, 0, 1.0]}})
    assert not np.any(to_dense(model_from_json_dict({"dim": 3, "entries": []})))


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
    A = from_dense(e)
    path = tmp_path / "model.json"
    save_model(A, path)
    assert path.read_text() == _json_dump_text(A)
    np.testing.assert_array_equal(to_dense(load_model(path)), to_dense(A))


def test_save_model_of_the_zero_model(tmp_path):
    A = from_dense(np.zeros((3,) * 4))
    path = tmp_path / "zero.json"
    save_model(A, path)
    assert path.read_text() == _json_dump_text(A) == '{\n  "dim": 3,\n  "entries": []\n}\n'


@pytest.mark.parametrize("depth", range(4))
def test_model_text_nests_as_json_dumps_does(depth):
    rng = np.random.default_rng(depth)
    e = np.where(rng.random((3,) * 4) < 0.3, rng.standard_normal((3,) * 4), 0.0)
    # few distinct values, each with its negative, as realized models have
    repeated = np.where(rng.random((4,) * 4) < 0.5,
                        rng.choice([0.1, -0.1, 2.5, -2.5, 1e22, -1e-7, 3.0], (4,) * 4), 0.0)
    holder = "\0model"
    for A in (from_dense(e), from_dense(repeated),
              from_dense(np.zeros((2,) * 4))):
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
        save_model(from_dense(e), tmp_path / "bad.json")


def test_json_validation_names_a_dim_past_the_index_range():
    rows = [[0, 1, 0, 1, 1.0], [1, 0, 0, 1, -1.0]]
    for dim in (55109, 100000, 10 ** 30):
        with pytest.raises(ValueError, match=r"dim=%d is too large: dim\^4 must fit" % dim):
            model_from_json_dict({"dim": dim, "entries": rows})
    # 55108^4 is the last fourth power below 2^63
    assert model_from_json_dict({"dim": 55108, "entries": rows}).dim == 55108


# -- the writer's chunks, and the loader's array passes -------------------


def _large_model():
    """3-g at m = 44: 39,248 rows, a 2.86 MB file."""
    return realize(StructureSpec("3-g", (1.0, 2.0, 3.0), (0.5 + 1j,)), 44)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_model_holds_less_than_the_text_it_writes(tmp_path):
    A = _large_model()
    path = tmp_path / "model.json"
    peak = _traced_peak(lambda: save_model(A, path))
    assert peak < path.stat().st_size
    assert path.read_text() == _json_dump_text(A)


def test_load_model_of_a_written_file_holds_under_three_times_its_text(tmp_path):
    path = tmp_path / "model.json"
    save_model(_large_model(), path)
    assert _traced_peak(lambda: load_model(path)) < 3 * path.stat().st_size


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_chunks_of_any_size_join_to_the_json_dump_layout(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(tensor_core, "_CHUNK_ROWS", rows)
    rng = np.random.default_rng(rows)
    for n in range(1, 3 * rows + 2):
        keys = np.sort(rng.choice(3 ** 4, size=n, replace=False))
        A = CurvatureTensor(3, keys, rng.standard_normal(n))
        path = tmp_path / "model.json"
        save_model(A, path)
        assert path.read_text() == _json_dump_text(A) == model_to_json_text(A) + "\n"
        assert np.array_equal(load_model(path).nonzero()[1], A.nonzero()[1])


def _no_json(text):
    raise AssertionError("a written model went through json.loads")


_FILE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1e300, -1e300, 3.0, -2.0, 1e22,
                     2.0 ** 53, -0.0, 1.0 / 3.0]))


@st.composite
def written_models(draw):
    """A nonzero list on 1 to 12 dimensions; -0.0 values are dropped."""
    m = draw(st.integers(1, 12))
    keys = sorted(draw(st.sets(st.integers(0, m ** 4 - 1), min_size=1, max_size=60)))
    values = draw(st.lists(_FILE_VALUES, min_size=len(keys), max_size=len(keys))
                  .filter(lambda vs: any(vs)))
    return CurvatureTensor(m, keys, values)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(written_models())
def test_a_written_model_loads_without_the_json_module(tmp_path, A):
    path = tmp_path / "model.json"
    save_model(A, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "loads", _no_json)
        B = load_model(path)
    (keys, values), (got_keys, got_values) = A.nonzero(), B.nonzero()
    assert B.dim == A.dim and np.array_equal(got_keys, keys)
    assert np.array_equal(got_values.view(np.uint64), values.view(np.uint64))


def test_a_large_dim_with_few_rows_writes_and_loads_through_the_array_path(tmp_path):
    """The writer's tables grow with m, not m^2 (2.5e9 texts here)."""
    m = 50000
    A = CurvatureTensor(m, np.ravel_multi_index(([0, 49999], [1, 2], [0, 49998], [1, 7]),
                                                (m,) * 4), [2.5, -1e-300])
    path = tmp_path / "model.json"
    save_model(A, path)
    assert path.read_text() == _json_dump_text(A)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json, "loads", _no_json)
        B = load_model(path)
    assert B.dim == m and all(np.array_equal(b, a) for a, b in zip(A.nonzero(), B.nonzero()))
    assert check_affine_symmetries(B).antisymmetry_defect == 2.5


def _through_json(path):
    """The reference: model_from_json_dict of the json module's tree."""
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))


def _outcome(load, path):
    try:
        A = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    keys, values = A.nonzero()
    return A.dim, keys.tolist(), values.view(np.uint64).tolist()


_CANONICAL = model_to_json_text(CurvatureTensor(
    12, np.ravel_multi_index(([0, 1, 2, 11], [1, 0, 11, 11], [0, 0, 10, 11], [1, 1, 3, 11]),
                             (12,) * 4),
    [1.25, -1.25, 0.1, -2.2250738585072014e-308])) + "\n"
_LINES = _CANONICAL.split("\n")  # three head lines, seven a row, two closing ones


def _edited(row, line, new):
    """The canonical text with one line of a row replaced."""
    lines = list(_LINES)
    lines[3 + 7 * row + line] = new
    return "\n".join(lines)


def _with_rows(order):
    """The canonical text with its rows in this order."""
    rows = ["\n".join(_LINES[3 + 7 * r:9 + 7 * r]) + "\n    ]" for r in order]
    return "\n".join(_LINES[:3] + [",\n".join(rows)] + _LINES[-3:])


_VARIANTS = {
    "canonical": _CANONICAL,
    "flipped index digit": _edited(2, 2, "      10,"),
    "flipped value digit": _edited(0, 5, "      1.35"),
    "extra space": _edited(1, 5, "      -1.25 "),
    "CRLF": _CANONICAL.replace("\n", "\r\n"),
    "BOM": "\ufeff" + _CANONICAL,
    "not UTF-8": _edited(0, 5, "      1.2\udcff5"),
    "two rows swapped": _with_rows([1, 0, 2, 3]),
    "repeated row": _with_rows([0, 1, 1, 2, 3]),
    "zero value": _edited(2, 5, "      0.0"),
    "negative zero value": _edited(2, 5, "      -0.0"),
    "index equal to dim": _edited(3, 4, "      12,"),
    "true as an index": _edited(0, 1, "      true,"),
    "1e400": _edited(3, 5, "      1e400"),
    "NaN": _edited(1, 5, "      NaN"),
    "integer value": _edited(1, 5, "      -2"),
    "long value": _edited(0, 5, "      1.2500000000000000000000000"),
    "leading zero index": _edited(3, 1, "      011,"),
    "extra key": _CANONICAL.replace('"dim": 12,', '"dim": 12,\n  "notes": [],'),
    "keys reordered": json.dumps({"entries": json.loads(_CANONICAL)["entries"], "dim": 12},
                                 indent=2) + "\n",
    "no final newline": _CANONICAL[:-1],
    "compact": json.dumps(json.loads(_CANONICAL)) + "\n",
    "larger dim": _CANONICAL.replace('"dim": 12,', '"dim": 13,'),
    "dim past the index range": _CANONICAL.replace('"dim": 12,', '"dim": 99999,'),
    "empty": '{\n  "dim": 12,\n  "entries": []\n}\n',
    "truncated": _CANONICAL[:len(_CANONICAL) // 2],
}


@pytest.mark.parametrize("name", _VARIANTS)
def test_load_model_agrees_with_the_json_module_on_one_edit_variants(tmp_path, name):
    assert _with_rows(range(4)) == _CANONICAL
    assert (_VARIANTS[name] == _CANONICAL) == (name == "canonical")
    path = tmp_path / "model.json"
    path.write_bytes(_VARIANTS[name].encode("utf-8", "surrogateescape"))
    assert _outcome(load_model, path) == _outcome(_through_json, path)


def test_symmetry_defects_equal_the_dense_formulas():
    """The key-based defects are the max-abs of the same sums as the
    dense m^4 expressions, so they agree bit for bit."""
    rng = np.random.default_rng(3)
    for m in (1, 2, 5):
        e = rng.standard_normal((m,) * 4) / 3.0
        report = check_affine_symmetries(from_dense(e))
        anti = np.max(np.abs(e + e.transpose(1, 0, 2, 3)))
        cyc = e + e.transpose(1, 2, 0, 3) + e.transpose(2, 0, 1, 3)
        assert report.antisymmetry_defect == anti
        assert report.bianchi_defect == np.max(np.abs(cyc))
    e[0, 1, 2, 3] = np.nan
    assert np.isnan(check_affine_symmetries(from_dense(e)).bianchi_defect)
    empty = check_affine_symmetries(from_dense(np.zeros((0,) * 4)))
    assert empty.antisymmetry_defect == 0.0 and empty.passed


def dense_defects(e):
    """The two defects as the dense m^4 expressions."""
    anti = np.max(np.abs(e + e.transpose(1, 0, 2, 3)), initial=0.0)
    cyc = e + e.transpose(1, 2, 0, 3) + e.transpose(2, 0, 1, 3)
    return anti, np.max(np.abs(cyc), initial=0.0)


_VALUES = st.one_of(st.floats(-8.0, 8.0, allow_subnormal=False),
                    st.sampled_from([1.0 / 3.0, -2.0 / 3.0, 0.1, 1e-17, -7.0]))


@st.composite
def sparse_models(draw):
    """A few random entries, each perhaps with its swapped or a rotated
    partner (the negated value or another one), perhaps one NaN."""
    m = draw(st.integers(0, 5))
    e = np.zeros((m,) * 4)
    if m == 0:
        return e
    index = st.integers(0, m - 1)
    for i, j, k, l in draw(st.lists(st.tuples(index, index, index, index), max_size=12)):
        v = draw(_VALUES)
        e[i, j, k, l] = v
        for partner in draw(st.sets(st.sampled_from([(j, i, k), (k, i, j), (j, k, i)]))):
            e[partner + (l,)] = draw(st.one_of(st.just(-v), _VALUES))
    if draw(st.integers(0, 9)) == 0:
        e[tuple(draw(index) for _ in range(4))] = np.nan
    return e


@settings(max_examples=100, deadline=None)
@given(sparse_models())
@example(np.zeros((0,) * 4))
@example(np.zeros((3,) * 4))
def test_symmetry_defects_equal_the_dense_formulas_on_sparse_models(e):
    report = check_affine_symmetries(from_dense(e))
    got = (report.antisymmetry_defect, report.bianchi_defect)
    assert np.array_equal(got, dense_defects(e), equal_nan=True)


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                        lambda A: pickle.loads(pickle.dumps(A))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_keep_the_nonzero_list(round_trip):
    A = from_dense(to_dense(sectional_tensor(3)), notes=("a note",))
    B = round_trip(A)
    for got, want in zip(B.nonzero(), A.nonzero()):
        assert np.array_equal(got, want)
    assert (B.dim, B.notes) == (3, ("a note",))
    assert not B.nonzero()[1].flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        B.dim = 4


def test_tensor_keeps_no_reference_to_the_given_array():
    keys, values = np.array([5, 9]), np.array([-1.0, 1.0])
    A = CurvatureTensor(2, keys, values)
    keys[0], values[0] = 6, 5.0
    assert A.nonzero()[0][0].tolist() == [0, 1, 0, 1] and A.nonzero()[1][0] == -1.0
    assert keys.flags.writeable and values.flags.writeable


def test_symm_of_a_large_model_file_makes_no_dense_array(tmp_path):
    """3-g at m = 44 has 39,248 nonzeros; its dense tensor is 30 MB."""
    m = 44
    path = tmp_path / "model.json"
    save_model(realize(StructureSpec("3-g", (1.0, 2.0, 3.0), (0.5 + 1j,)), m), path)
    tracemalloc.start()
    try:
        A = load_model(path)
        report = check_affine_symmetries(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5 * m ** 4 * 8


def test_classify_and_jordan_at_run_on_the_nonzero_list(capsys):
    A = load_model(Path(__file__).parent / "golden" / "realize_3-g_m8.model.json")
    assert classify(A, n_samples=16).verdict.status == "projective_affine_osserman"
    assert reduced_jacobi(A, np.arange(1.0, 9.0)).shape == (7, 7)
    assert main(["geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
                 "--jordan-at", "0.7071067811865476,0,0.7071067811865476"]) == 0
    assert '"jordan"' in capsys.readouterr().out


def dense_jacobi(A, X):
    """The Jacobi operators as the matrix products (X (x) X) A[i, (j, k), l]
    over the dense array, each entry summed by a plain Python loop in index
    order from 0.0, a term skipped when a factor, A[i, j, k, l] or X_j X_k
    (a product of Python floats), is 0: the documented sum."""
    e = to_dense(A)
    index = np.nonzero(e)
    entries = list(zip(zip(*(a.tolist() for a in index)), e[index].tolist()))
    J = np.zeros((len(X), A.dim, A.dim))
    for x, out in zip(X.tolist(), J):
        sums = {}
        for (i, j, k, l), value in entries:
            p = x[j] * x[k]
            if p != 0.0:
                sums[l, i] = sums.get((l, i), 0.0) + p * value
        for cell, total in sums.items():
            out[cell] = total
    return J


def same_bits(a, b):
    """Equal bytes, NaNs aside: IEEE 754 leaves open which NaN an operation
    on two passes on, and numpy's loops and CPython's floats differ there."""
    nan = np.isnan(a)
    return (a.shape == b.shape and (np.isnan(b) == nan).all()
            and a[~nan].tobytes() == b[~nan].tobytes())


def assert_rows_stand_alone(A, X, J, rng):
    """Each row of J again alone, in a random sub-batch and in a random
    order of the whole batch."""
    for s in range(len(X)):
        assert same_bits(jacobi_batch(A, X[s:s + 1]), J[s:s + 1])
    for rows in (rng.permutation(len(X)), rng.choice(len(X), len(X) // 2, replace=False)):
        assert same_bits(jacobi_batch(A, X[rows]), J[rows])


_U = Fraction(1, 2 ** 53)
_ETA = Fraction(1, 2 ** 1075)  # half the least subnormal: a product's underflow error


def assert_within_the_error_bound(A, X, J):
    """For each row with finite X and J: |J[l, i] - S| <= gamma_{k+1} sum |t|
    + 2 eta sum (|v| + 1) over the k terms t = X_j X_k v of the cell with
    X_j X_k != 0 in exact arithmetic, S their exact sum (the recursive sum
    of two-multiply products, Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 2.2 and 3.1, with the eta term for
    products that underflow).  A model with a non-finite entry has no
    exact sum to compare with."""
    index, values = A.nonzero()
    if not np.isfinite(values).all():
        return
    entries = [(cell, Fraction(v)) for cell, v in zip(index.tolist(), values.tolist())]
    for x, out in zip(X.tolist(), J):
        if not (np.isfinite(x).all() and np.isfinite(out).all()):
            continue
        x = [Fraction(c) for c in x]
        cells = {}
        for (i, j, k, l), v in entries:
            if x[j] and x[k]:
                t = x[j] * x[k] * v
                exact, size, k_terms, slack = cells.get((l, i), (0, 0, 0, 0))
                cells[l, i] = (exact + t, size + abs(t), k_terms + 1, slack + abs(v) + 1)
        for (l, i), (exact, size, k_terms, slack) in cells.items():
            gamma = (k_terms + 1) * _U / (1 - (k_terms + 1) * _U)
            assert abs(Fraction(out[l, i]) - exact) <= gamma * size + 2 * _ETA * slack
        assert all(out[cell] == 0.0 for cell in np.ndindex(out.shape) if cell not in cells)


def assert_the_documented_sum(A, X, rng, exact_rows=None):
    J = jacobi_batch(A, X)
    assert same_bits(J, dense_jacobi(A, X))
    assert_rows_stand_alone(A, X, J, rng)
    assert_within_the_error_bound(A, X[:exact_rows], J[:exact_rows])


def label_spec(case, m):
    """Distinct eigenvalues for every slot of a case at m."""
    reals, pairs = case_constraints(case, m)
    return StructureSpec(case, tuple(1.0 / 3.0 + k for k in range(len(reals))),
                         tuple(complex(-0.5 + k, 2.0 / 7.0 + k) for k in range(len(pairs))))


def odd_directions(rng, n, m):
    """Gaussian rows, then one row each with an inf, a NaN and a huge entry."""
    X = rng.standard_normal((n + 3, m))
    X[n, 0], X[n + 1, -1], X[n + 2, m // 2] = np.inf, np.nan, 1e300
    return X


def basis_directions(m):
    """Multiples of basis vectors: one with -0.0 beside it, one whose
    square underflows, one whose square is subnormal and one of inf; and
    a row with two nonzero entries."""
    X = np.zeros((7, m))
    X[0, 0], X[1, m - 1], X[2, m // 2], X[3, 1] = -2.0, 1.0 / 3.0, 1e-200, 0.5
    X[4, m - 1], X[5, m // 2], X[1, 0], X[6, :2] = 1e-160, np.inf, -0.0, (1.0, -1.0)
    return X


_LABEL_DIMS = {"1": (5, 9), "2": (6, 10), "3": (8, 12)}
# inf and NaN in a direction overflow or cancel in X (x) X and the sums
_NON_FINITE = pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")


@_NON_FINITE
@pytest.mark.parametrize("case", CASE_LABELS)
def test_jacobi_batch_is_the_dense_matmul_bit_for_bit_on_every_label(case):
    rng = np.random.default_rng(len(case))
    for m in _LABEL_DIMS[case[0]]:
        A = realize(label_spec(case, m), m)
        for X in (odd_directions(rng, 17, m), rng.standard_normal((1, m)), basis_directions(m)):
            assert_the_documented_sum(A, X, rng, exact_rows=1)


@_NON_FINITE
def test_jacobi_batch_is_the_dense_matmul_with_empty_slabs():
    """Slabs 0, 2 and 4 of the first index hold nothing.  The entry -1e-17
    times the subnormal square 1e-320 rounds to -0.0, which the sum begun
    at +0.0 turns into +0.0."""
    rng = np.random.default_rng(5)
    e = np.zeros((6,) * 4)
    e[1] = rng.standard_normal((6, 6, 6)) * (rng.random((6, 6, 6)) < 0.2)
    e[3, 0, 5, 2], e[5, 5, 5, 5], e[3, 5, 5, 1] = -2.0 / 3.0, 1e-17, -1e-17
    A = from_dense(e)
    for X in (odd_directions(rng, 9, 6), np.zeros((0, 6)), np.eye(6), basis_directions(6)):
        assert_the_documented_sum(A, X, rng)
    assert jacobi_batch(from_dense(np.zeros((0,) * 4)), np.zeros((2, 0))).shape == (2, 0, 0)


_DIRECTION_VALUES = st.one_of(st.floats(-4.0, 4.0),
                              st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 1e300]))


@_NON_FINITE
@settings(max_examples=100, deadline=None)
@given(sparse_models(), st.data())
def test_jacobi_batch_is_the_dense_matmul_bit_for_bit_on_sparse_models(e, data):
    A = from_dense(e)
    m = A.dim
    n = data.draw(st.integers(0, 4))
    rows = st.lists(_DIRECTION_VALUES, min_size=m, max_size=m)
    X = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=float).reshape(n, m)
    assert_the_documented_sum(A, X, np.random.default_rng(n))


# The Jacobi operators of the three classify-golden models at 39 to 45
# directions, their bytes on stdout.
_JACOBI_BYTES = """
import sys
from affinecurv.classifier import sample_sphere
from affinecurv.constructors import StructureSpec, realize
from affinecurv.tensor_core import jacobi_batch
for spec, m in [(StructureSpec("1", (1 / 3,)), 7),
                (StructureSpec("2-c", (-1.5,), (0.25 + 0.75j,)), 10),
                (StructureSpec("3-g", (1.0, 2.0, -3.0), (0.5 + 0.1j,)), 12)]:
    sys.stdout.buffer.write(jacobi_batch(realize(spec, m), sample_sphere(m, 32, 7)).tobytes())
"""

# an environment that changes the BLAS or SIMD kernels, and the
# /proc/cpuinfo flags without which it cannot run or changes nothing
_KERNELS = {
    "Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, {"avx2", "fma"}),
    "SandyBridge": ({"OPENBLAS_CORETYPE": "SandyBridge"}, {"avx"}),
    "Prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, {"pni"}),
    "no-AVX512": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, {"avx512f"}),
}


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


def _jacobi_bytes(**env):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **env)
    env["PYTHONPATH"] = os.pathsep.join([src] + [env["PYTHONPATH"]] * bool(env.get("PYTHONPATH")))
    proc = subprocess.run([sys.executable, "-c", _JACOBI_BYTES], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.fixture(scope="module")
def default_jacobi_bytes():
    return _jacobi_bytes()


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_jacobi_batch_bytes_do_not_depend_on_the_blas_or_simd_kernel(kernel,
                                                                    default_jacobi_bytes):
    env, flags = _KERNELS[kernel]
    if not flags <= _cpu_flags():
        pytest.skip("the CPU lacks %s" % " ".join(sorted(flags - _cpu_flags())))
    assert len(default_jacobi_bytes) == 8 * (40 * 7 ** 2 + 43 * 10 ** 2 + 45 * 12 ** 2)
    assert _jacobi_bytes(**env) == default_jacobi_bytes


def test_jacobi_batch_of_many_directions_holds_under_twice_its_output():
    """8192 directions at m = 16: a 16.8 MB result, summed in blocks of
    rows whose temporaries do not grow with the batch."""
    A = realize(StructureSpec("3-g", (1.0, 2.0, 3.0), (0.5 + 1j,)), 16)
    X = np.random.default_rng(8).standard_normal((8192, 16))
    peak = _traced_peak(lambda: jacobi_batch(A, X))
    J = jacobi_batch(A, X)
    assert peak < 2 * J.nbytes
    for s in (0, 1023, 1024, 5000, 8191):  # across the blocks, the same as alone
        assert same_bits(jacobi_batch(A, X[s:s + 1]), J[s:s + 1])


def test_classify_of_a_large_model_peaks_below_a_quarter_of_the_dense_tensor():
    """3-g at m = 40 has 30,720 nonzeros; its dense tensor is 20 MB."""
    m = 40
    spec = StructureSpec("3-g", (1.0, 2.0, 3.0), (0.5 + 1j,))
    A = realize(spec, m)
    classify(realize(spec, 8), n_samples=16)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        verdict = classify(A, n_samples=16).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == "projective_affine_osserman"
    assert peak < 0.25 * m ** 4 * 8
