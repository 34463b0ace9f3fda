"""Command-line driver: exit codes, JSON reports, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from affinecurv import cli, polynomial_geometry
from affinecurv.cli import main
from affinecurv.polynomial_geometry import curvature
from affinecurv.tensor_core import CurvatureTensor, save_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(out):
    data = json.loads(out)
    assert isinstance(data, dict)
    return data


@pytest.fixture
def projective_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    code = main([
        "realize", "--case", "2-c", "--m", "6",
        "--lambda", "4", "--nu", "1+2i", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()  # drop the realize report from the capture buffer
    return path


@pytest.fixture
def affine_model(tmp_path):
    path = tmp_path / "zero.json"
    save_model(CurvatureTensor(np.zeros((3,) * 4)), path)
    return path


@pytest.fixture
def neither_model(tmp_path):
    P = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    entries = np.einsum("jk,il->ijkl", P, P) - np.einsum("ik,jl->ijkl", P, P)
    path = tmp_path / "neither.json"
    save_model(CurvatureTensor(entries), path)
    return path


# -- realize / classify ---------------------------------------------------


def test_realize_classify_round_trip(capsys, projective_model):
    code, out, _ = run_cli(capsys, "classify", str(projective_model), "--samples", "16")
    assert code == 0
    data = read_json(out)
    assert data["verdict"]["status"] == "projective_affine_osserman"
    assert data["structure"]["case"] == "2-c"
    assert data["structure"]["lambda"] == [4.0]
    assert data["bundles"] == {"dims": [1, 4], "kinds": ["real", "complex-pair"]}
    assert data["adams"]["status"] == "admissible"


def test_realize_inlines_model_without_out(capsys):
    code, out, _ = run_cli(capsys, "realize", "--case", "1", "--m", "3", "--lambda", "2")
    assert code == 0
    data = read_json(out)
    assert data["spec"]["case"] == "1"
    assert data["model"]["dim"] == 3


@pytest.mark.parametrize("argv", [
    ["--case", "3-g", "--m", "8", "--lambda=1", "--lambda=2", "--lambda=-3", "--nu=0.5+0.1i"],
    ["--case", "3-e-iii", "--m", "8", "--lambda=0.6666666666666666", "--nu=1.5+2i"],
    ["--case", "1", "--m", "3", "--lambda=1e-300"],
])
def test_realize_inline_report_is_the_json_dumps_text(capsys, argv):
    code, out, _ = run_cli(capsys, "realize", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_classify_affine_exit(capsys, affine_model):
    code, out, _ = run_cli(capsys, "classify", str(affine_model), "--samples", "4")
    assert code == 1
    assert read_json(out)["verdict"]["status"] == "affine_osserman"


def test_classify_neither_exit(capsys, neither_model):
    code, out, _ = run_cli(capsys, "classify", str(neither_model), "--samples", "4")
    assert code == 2
    assert read_json(out)["verdict"]["status"] == "neither"


def test_classify_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "nope.json"))
    assert code == 3
    assert err


def test_classify_rejects_dimension_one(capsys, tmp_path):
    path = tmp_path / "m1.json"
    path.write_text('{"dim": 1, "entries": []}')
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert out == ""
    assert "m = 1 has no reduced Jacobi operator" in err


def test_realize_rejects_bad_values(capsys):
    code, _, err = run_cli(
        capsys, "realize", "--case", "1", "--m", "4", "--lambda", "2"
    )
    assert code == 3
    assert "dimension class" in err


@pytest.mark.parametrize("values", [
    ["--case", "1", "--m", "3", "--lambda=nan"],
    ["--case", "1", "--m", "3", "--lambda=-inf"],
    ["--case", "2-c", "--m", "6", "--lambda=4", "--nu=nan+2i"],
])
def test_realize_rejects_non_finite_eigenvalues(capsys, tmp_path, values):
    path = tmp_path / "model.json"
    code, out, err = run_cli(capsys, "realize", *values, "--out", str(path))
    assert code == 3
    assert out == ""
    assert "not finite" in err
    assert not path.exists()


def test_classify_names_a_non_integer_index(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"dim": 2, "entries": [[0, 1, 1, 0.5, 1.0]]}')
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert out == ""
    assert "entry row 0 [0, 1, 1, 0.5, 1.0]: has a non-integer index" in err


@pytest.mark.parametrize("command", ["symm", "classify"])
@pytest.mark.parametrize("dim", ["2.9", "true", '"3"'])
def test_model_commands_reject_a_non_integer_dim(capsys, tmp_path, command, dim):
    path = tmp_path / "model.json"
    path.write_text('{"dim": %s, "entries": [[0, 1, 0, 1, 1.0], [1, 0, 0, 1, -1.0]]}' % dim)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert "'dim' must be an integer" in err


def test_bad_complex_literal(capsys):
    code, _, err = run_cli(
        capsys, "realize", "--case", "2-c", "--m", "6",
        "--lambda", "4", "--nu", "1+2x",
    )
    assert code == 3


def test_unknown_case_label(capsys):
    code, _, err = run_cli(capsys, "realize", "--case", "9-z", "--m", "6")
    assert code == 3


# -- adams ----------------------------------------------------------------


def test_adams_admissible(capsys):
    code, out, _ = run_cli(capsys, "adams", "--m", "6", "--partition", "1,4c")
    assert code == 0
    data = read_json(out)
    assert data["result"]["status"] == "admissible"
    assert data["partition"]["kinds"] == ["real", "complex-pair"]


def test_adams_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "adams", "--m", "6", "--partition", "1,1,3")
    assert code == 2
    assert read_json(out)["result"]["status"] == "inadmissible"


def test_adams_unconstrained(capsys):
    code, out, _ = run_cli(capsys, "adams", "--m", "8", "--partition", "1,1,1,4c")
    assert code == 0
    assert read_json(out)["result"]["status"] == "unconstrained"


def test_adams_bad_partition(capsys):
    code, _, err = run_cli(capsys, "adams", "--m", "6", "--partition", "1,x")
    assert code == 3


# -- geometry -------------------------------------------------------------


def test_geometry_curvature_and_ricci(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--curvature", "--ricci",
    )
    assert code == 0
    data = read_json(out)
    assert data["curvature"]["1,0,0,0"] == "1"
    assert data["curvature"]["0,2,2,0"] == "1"
    assert data["ricci"]["sym"]["0,0"] == "2"
    assert data["ricci"]["alt"]["0,1"] == "1"


def test_geometry_nabla_r(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--nabla-r",
    )
    assert code == 0
    data = read_json(out)
    assert data["nabla_r"]["1,0,0,0,1"] == "-2*x1 - 2*x2"


def test_geometry_jordan(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--jordan-at", "0.7071067811865476,0,0.7071067811865476",
    )
    assert code == 0
    data = read_json(out)
    profiles = data["jordan"]["profiles"]
    assert len(profiles) == 1
    assert profiles[0]["blocks"] == [2]
    assert profiles[0]["eigenvalue"]["re"] == pytest.approx(1.0, abs=1e-8)


def test_geometry_geodesic_blow_up(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3",
        "--geodesic", "0,0,0", "0,0,-0.5",
    )
    assert code == 0
    g = read_json(out)["geodesic"]
    assert g["blew_up"] and abs(g["blow_up_time"] - 1.0) <= 0.05


def test_geometry_model_out_feeds_classify(capsys, tmp_path):
    path = tmp_path / "at.json"
    code, _, _ = run_cli(
        capsys, "geometry", "--builtin", "planewave", "--model-out", str(path),
        "--at", "0.2,1.5,-0.3",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "classify", str(path), "--samples", "4")
    assert code == 1  # every Jacobi operator is nilpotent there


def test_geometry_needs_source(capsys):
    code, _, err = run_cli(capsys, "geometry", "--curvature")
    assert code == 3


def test_geometry_builtin_dimension_checks(capsys):
    code, _, _ = run_cli(capsys, "geometry", "--builtin", "planewave", "--m", "5")
    assert code == 3
    code, _, _ = run_cli(capsys, "geometry", "--builtin", "homogeneous")
    assert code == 3


def test_geometry_at_length(capsys):
    code, _, _ = run_cli(
        capsys, "geometry", "--builtin", "flat", "--m", "3", "--at", "1,2"
    )
    assert code == 3


# -- extend / symm --------------------------------------------------------


def test_curvature_is_built_once_for_the_geometry_report(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(C, with_nabla=False):
        calls.append(with_nabla)
        return curvature(C, with_nabla=with_nabla)

    # the library's own callers (ricci_split) count as well
    monkeypatch.setattr(cli, "curvature", counted)
    monkeypatch.setattr(polynomial_geometry, "curvature", counted)
    code = main([
        "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--curvature", "--nabla-r", "--ricci", "--model-out", str(tmp_path / "m.json"),
        "--jordan-at", "1,0.5,0.25", "--at", "0.5,0.25,0",
    ])
    assert code == 0 and calls == [True]
    calls.clear()
    code = main(["geometry", "--builtin", "homogeneous", "--m", "3",
                 "--geodesic", "0,0,0", "0,0,0.1", "--t-max", "0.1"])
    assert code == 0 and calls == []
    capsys.readouterr()


def test_extend_planewave(capsys):
    code, out, _ = run_cli(
        capsys, "extend", "--builtin", "planewave", "--vectors", "2"
    )
    assert code == 0
    data = read_json(out)["report"]
    assert data["kind"] == "deformed"
    assert data["clauses"] == {"nilpotent": True}


def test_extend_modified_flat(capsys):
    code, out, _ = run_cli(
        capsys, "extend", "--builtin", "flat", "--m", "2",
        "--kind", "modified", "--vectors", "3",
    )
    assert code == 0
    data = read_json(out)["report"]
    assert data["clauses"]["spacelike_spectrum"]
    assert data["clauses"]["timelike_negative"]


def test_extend_projective_base_needs_coarse_tol(capsys):
    # at the default tolerance the defective-eigenvalue scatter splits the
    # clusters, so the clauses fail; 1e-3 collects them
    argv = [
        "extend", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--vectors", "2",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-3")
    assert code == 0
    data = read_json(out)["report"]
    assert data["clauses"] == {
        "projective_spacelike": True,
        "projective_timelike": True,
    }


def test_extend_rejects_zero_vectors(capsys):
    code, out, err = run_cli(capsys, "extend", "--builtin", "planewave", "--vectors", "0")
    assert code == 3
    assert out == ""
    assert "at least one vector" in err


def test_symm_passes_on_model(capsys, projective_model):
    code, out, _ = run_cli(capsys, "symm", str(projective_model))
    assert code == 0
    data = read_json(out)
    assert data["passed"] is True
    assert data["antisymmetry_defect"] == 0.0


# -- shared behavior ------------------------------------------------------


def test_stdout_is_deterministic(capsys, projective_model):
    _, first, _ = run_cli(capsys, "classify", str(projective_model), "--samples", "8")
    _, second, _ = run_cli(capsys, "classify", str(projective_model), "--samples", "8")
    assert first == second


def test_json_out_duplicates_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "adams", "--m", "3", "--partition", "2", "--json-out", str(target)
    )
    assert code == 0
    assert target.read_text() == out


def test_pretty_writes_to_stderr(capsys):
    _, out, err = run_cli(capsys, "adams", "--m", "3", "--partition", "2", "--pretty")
    assert "admissible" in err
    read_json(out)  # stdout stays pure JSON


def test_negative_values_parse_as_values(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "realize", "--case", "2-c", "--m", "6", "--lambda", "4", "--nu", "-1+2i",
    )
    assert code == 0
    assert read_json(out)["spec"]["nu"] == [[-1.0, 2.0]]

    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3",
        "--geodesic", "0,0,0", "-0.5,0,0", "--t-max", "0.1",
    )
    assert code == 0
    assert read_json(out)["geodesic"]["v_final"][0] < 0.0

    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--at", "-0.5,0,0.25", "--jordan-at", "-0.7071067811865476,0,0.7071067811865476",
    )
    assert code == 0
    data = read_json(out)
    assert data["at"] == [-0.5, 0.0, 0.25]
    assert data["jordan"]["profiles"][0]["blocks"] == [2]

    code, out, _ = run_cli(
        capsys, "extend", "--builtin", "flat", "--m", "2", "--kind", "modified",
        "--vectors", "1", "--point", "-0.5,0,0.25,0",
    )
    assert code == 0
    assert read_json(out)["report"]["point"] == [-0.5, 0.0, 0.25, 0.0]


def test_leading_space_state_still_parses(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "--builtin", "homogeneous", "--m", "3",
        "--geodesic", "0,0,0", " -0.5,0,0", "--t-max", "0.1",
    )
    assert code == 0
    assert read_json(out)["geodesic"]["v_final"][0] < 0.0


def test_unknown_option_is_still_an_option(capsys):
    code, _, err = run_cli(capsys, "adams", "--m", "6", "--partition", "5", "-x")
    assert code == 3
    assert "unrecognized" in err


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 3


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "affinecurv.cli", "adams", "--m", "6", "--partition", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["status"] == "admissible"
