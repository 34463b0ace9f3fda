"""Command-line driver: exit codes, JSON reports, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from affinecurv import __version__, cli, polynomial_geometry
from affinecurv.cli import main
from affinecurv.polynomial_geometry import curvature
from affinecurv.tensor_core import load_model, save_model

from dense import from_dense

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


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
    save_model(from_dense(np.zeros((3,) * 4)), path)
    return path


@pytest.fixture
def neither_model(tmp_path):
    P = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    entries = np.einsum("jk,il->ijkl", P, P) - np.einsum("ik,jl->ijkl", P, P)
    path = tmp_path / "neither.json"
    save_model(from_dense(entries), path)
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


def test_inline_realize_holds_less_than_its_report(tmp_path, monkeypatch):
    """3-g at m = 44 inlines 39,248 rows in a 3.41 MB report: the text
    around the model and the model writer's chunks are written in turn."""
    path = tmp_path / "report.json"
    with open(path, "w") as fh, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            code = main(["realize", "--case", "3-g", "--m", "44", "--lambda=1", "--lambda=2",
                         "--lambda=3", "--nu=0.5+1i"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = path.read_text()
    assert code == 0 and json.loads(text)["model"]["dim"] == 44
    assert peak < len(text)


def test_json_out_of_an_inline_model_duplicates_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "realize", "--case", "2-c", "--m", "6", "--lambda=1.25",
                           "--nu=-0.7+0.3i", "--json-out", str(target))
    assert code == 0
    assert target.read_text() == out == (GOLDEN / "realize_2-c_m6_inline.json").read_text()


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
def test_model_commands_name_a_value_out_of_float_range(capsys, tmp_path, command):
    path = tmp_path / "model.json"
    path.write_text('{"dim": 2, "entries": [[0, 1, 0, 1, 1%s]]}' % ("0" * 400))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert "entry row 0 [0, 1, 0, 1, 1000" in err and "has a value out of float range" in err


@pytest.mark.parametrize("command", ["symm", "classify"])
@pytest.mark.parametrize("value,shown", [("1e400", "inf"), ("-1e400", "-inf"),
                                         ("NaN", "nan"), ("-Infinity", "-inf")])
def test_model_commands_reject_a_non_finite_value(capsys, tmp_path, command, value, shown):
    path = tmp_path / "model.json"
    path.write_text('{"dim": 2, "entries": [[0,1,0,1,%s],[1,0,0,1,-1.0]]}' % value)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (3, "")
    assert err == "error: entry row 0 [0, 1, 0, 1, %s]: has a non-finite value\n" % shown


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


@pytest.mark.parametrize("eps", ["0", "1e-10"])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_geometry_jordan_at_small_eps(capsys, m, eps):
    # at eps = 0 the reduced Jacobi operator is a multiple of the identity
    # up to roundoff: m - 1 blocks of size 1.  At small eps > 0 one block of
    # size 2 remains, its coupling far above that roundoff.
    point = ",".join(["0.25", "-0.5", "0.75", "0.5", "-0.25", "1"][:m])
    direction = ",".join(["1", "0.5", "-0.25", "0.75", "-1", "0.5"][:m])
    code, out, _ = run_cli(capsys, "geometry", "--builtin", "homogeneous", "--m", str(m),
                           "--eps", eps, "--at", point, "--jordan-at", direction)
    assert code == 0
    blocks = [1] * (m - 1) if eps == "0" else [2] + [1] * (m - 3)
    assert [p["blocks"] for p in read_json(out)["jordan"]["profiles"]] == [blocks]


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


@pytest.mark.parametrize("text,message", [
    ('{"dim": 2.9, "gamma": {"0,0,1": "x1"}}', "'dim' must be a positive integer, got 2.9"),
    ('{"dim": true, "gamma": {}}', "'dim' must be a positive integer, got True"),
    ('{"dim": 0, "gamma": {}}', "'dim' must be a positive integer, got 0"),
    ('{"dim": 2, "gamma": [["0,0,1", "x1"]]}', "'gamma' must be an object, got list"),
    ('{"dim": 2, "gamma": {"0,0,1": 1}}', "symbol '0,0,1' must be a polynomial string, got 1"),
])
def test_geometry_rejects_a_malformed_connection_file(capsys, tmp_path, text, message):
    path = tmp_path / "connection.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "geometry", "--file", str(path), "--curvature")
    assert code == 3
    assert out == ""
    assert message in err


def test_geometry_rejects_an_exponent_past_its_field(capsys, tmp_path):
    # exponents are held up to 2^15 - 1 (see polynomials.py)
    path = tmp_path / "connection.json"
    path.write_text('{"dim": 2, "gamma": {"0,0,1": "x1^32768 + x2"}}')
    code, out, err = run_cli(capsys, "geometry", "--file", str(path), "--curvature")
    assert code == 3
    assert out == ""
    assert "exponent 32768 exceeds 32767" in err


def test_geometry_at_length(capsys):
    code, _, _ = run_cli(
        capsys, "geometry", "--builtin", "flat", "--m", "3", "--at", "1,2"
    )
    assert code == 3


# -- extend / symm --------------------------------------------------------


def test_curvature_is_built_once_for_the_geometry_report(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(C):
        calls.append(C)
        return curvature(C)

    # the library's own callers (ricci_split) count as well
    monkeypatch.setattr(cli, "curvature", counted)
    monkeypatch.setattr(polynomial_geometry, "curvature", counted)
    code = main([
        "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--curvature", "--nabla-r", "--ricci", "--model-out", str(tmp_path / "m.json"),
        "--jordan-at", "1,0.5,0.25", "--at", "0.5,0.25,0",
    ])
    assert code == 0 and len(calls) == 1
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


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_classify_rejects_a_bad_tolerance(capsys, projective_model, tol):
    code, out, err = run_cli(capsys, "classify", str(projective_model), "--tol", tol)
    assert code == 3
    assert out == ""
    assert "--tol must be positive and finite" in err


def test_extend_rejects_a_zero_tolerance(capsys):
    code, out, err = run_cli(capsys, "extend", "--builtin", "homogeneous", "--m", "3",
                             "--vectors", "2", "--tol", "0")
    assert code == 3
    assert out == ""
    assert "--tol must be positive and finite" in err


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


def test_json_out_that_cannot_be_opened_fails_before_stdout(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "adams", "--m", "3", "--partition", "2",
                             "--json-out", str(target))
    assert (code, out) == (3, "") and "error:" in err


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


@pytest.mark.parametrize("flag,value", [("--step", "nan"), ("--t-max", "nan"),
                                        ("--t-max", "inf")])
def test_geodesic_rejects_non_finite_parameters(flag, value):
    # run apart, so that a loop that never ends fails on the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "affinecurv.cli", "geometry", "--builtin", "homogeneous",
         "--m", "3", "--geodesic", "0,0,0", "0.1,0,0", flag, value],
        capture_output=True, text=True, env=_src_env(), timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "t_max and step must be positive and finite" in proc.stderr


# "-1e999" reads as -inf; argparse would take "-inf" for an option
@pytest.mark.parametrize("bad", ["nan", "inf", "-1e999"])
@pytest.mark.parametrize("argv", [
    ["geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
     "--geodesic", "{},0,0", "0,0,0", "--t-max", "1", "--step", "0.01"],
    ["geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
     "--geodesic", "0,0,0", "0,{},0", "--t-max", "1", "--step", "0.01"],
    ["geometry", "--builtin", "homogeneous", "--m", "3", "--at={},0,0", "--jordan-at", "1,0,0"],
    ["geometry", "--builtin", "homogeneous", "--m", "3", "--jordan-at=1,{},0"],
    ["extend", "--builtin", "homogeneous", "--m", "3", "--vectors", "1",
     "--point=0.5,0.25,{},1,0.5,0.25"],
])
def test_non_finite_coordinates_are_rejected(capsys, argv, bad):
    code, out, err = run_cli(capsys, *(arg.format(bad) for arg in argv))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "must all be finite" in err


def test_creeping_geodesic_ends(tmp_path):
    # near a singularity the growth test holds the step far above its
    # floor while the speed creeps up; the stall check ends the run
    path = tmp_path / "connection.json"
    path.write_text(json.dumps({"dim": 4, "gamma": {
        "0,1,3": "3*x2^2*x3^3*x4^2 + x2^3*x3^2 + 4/3*x1*x2*x3^2",
        "1,1,0": "-2*x1^2*x2^2*x3*x4 - 3*x2^2*x3*x4^3",
        "2,3,2": "-3*x1^2*x2*x3^3*x4^2"}}))
    proc = subprocess.run(
        [sys.executable, "-m", "affinecurv.cli", "geometry", "--file", str(path), "--geodesic",
         " -1.4973005670799826,-1.3069600339183618,0.9739313559760587,0.39597624391917474",
         "1.298713293925199,-0.9139850727796206,0.05099171416070947,0.22811792005572729",
         "--t-max", "0.9173667632769464", "--step", "0.015116765276257528"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0
    g = json.loads(proc.stdout)["geodesic"]
    assert g["blew_up"] and 0.78 < g["blow_up_time"] < 0.7886


def test_parser_is_built_once_and_parses_afresh(capsys):
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run_cli(capsys, "realize", "--case", "2-c", "--m", "6",
                           "--lambda", "4", "--nu", "1+2i")
    assert code == 0
    # a call that fails part way through the appended values
    code, out, err = run_cli(capsys, "realize", "--case", "2-c", "--m", "6",
                             "--lambda", "5", "--nu", "1-2i")
    assert code == 3 and out == "" and "argument --nu" in err
    code, out, _ = run_cli(capsys, "realize", "--case", "2-c", "--m", "6",
                           "--lambda", "3", "--nu", "2+1i")
    assert code == 0
    spec = read_json(out)["spec"]
    assert spec["lambda"] == [3.0] and spec["nu"] == [[2.0, 1.0]]


@pytest.mark.parametrize("argv,message", [
    (["realize", "--case", "2-c", "--m", "6", "--lambda", "4", "--nu", "1-2i"],
     "argument --nu: complex eigenvalue '1-2i' must have positive imaginary part"),
    (["geometry", "--builtin", "homogeneous", "--m", "3", "--at", "a,b"],
     "argument --at: cannot parse 'a,b' as comma-separated numbers"),
    (["geometry", "--builtin", "homogeneous", "--m", "3", "--geodesic", "a,b", "0,0,0"],
     "error: cannot parse 'a,b' as comma-separated numbers"),
])
def test_argument_types_keep_their_own_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize("argv,flag", [
    (["realize", "--case", "1", "--m", "7", "--lambda", "1", "--seed", "5"], "--seed"),
    (["realize", "--case", "1", "--m", "7", "--lambda", "1", "--tol", "9"], "--tol"),
    (["realize", "--case", "1", "--m", "7", "--lambda", "1", "--samples", "8"], "--samples"),
    (["adams", "--m", "6", "--partition", "1,4c", "--tol", "1e-3"], "--tol"),
    (["adams", "--m", "6", "--partition", "1,4c", "--seed", "1"], "--seed"),
    (["extend", "--builtin", "planewave", "--vectors", "2", "--samples", "8"], "--samples"),
    (["geometry", "--builtin", "flat", "--m", "2", "--seed", "1"], "--seed"),
    (["symm", "model.json", "--samples", "8"], "--samples"),
])
def test_a_subcommand_takes_only_the_flags_it_reads(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "unrecognized arguments: %s" % flag in err


@pytest.mark.parametrize("name", ["realize_3-g_m8.model.json", "symm_fail_m3.model.json"])
def test_explicit_zero_rows_change_nothing(capsys, tmp_path, name):
    data = json.loads((GOLDEN / name).read_text())
    rows = data["entries"]
    present = {tuple(row[:4]) for row in rows}
    free = [q for q in np.ndindex(*(data["dim"],) * 4) if q not in present]
    # zero rows at the start, in the middle and at the end
    padded = ([list(free[0]) + [0.0]] + rows[:2] + [list(free[-1]) + [-0.0]] + rows[2:]
              + [list(free[1]) + [0], list(free[2]) + [-0.0]])
    path = tmp_path / "padded.json"
    path.write_text(json.dumps({"dim": data["dim"], "entries": padded}))
    for got, want in zip(load_model(path).nonzero(), load_model(GOLDEN / name).nonzero()):
        assert np.array_equal(got, want)
    for command in (["symm"], ["classify", "--samples", "16"]):
        want = run_cli(capsys, command[0], str(GOLDEN / name), *command[1:])
        assert run_cli(capsys, command[0], str(path), *command[1:]) == want


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    assert run_cli(capsys, "adams", "--m", "3", "--partition", "2")[0] == 0


def test_unknown_option_is_still_an_option(capsys):
    code, _, err = run_cli(capsys, "adams", "--m", "6", "--partition", "5", "-x")
    assert code == 3
    assert "unrecognized" in err


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 3


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_cli_imports_no_test_oracle():
    # sympy, scipy, mpmath and hypothesis serve the tests only
    oracles = ("sympy", "scipy", "mpmath", "hypothesis")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, affinecurv.cli; print(sorted(m for m in %r if m in sys.modules))"
         % (oracles,)],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "affinecurv.cli", "adams", "--m", "6", "--partition", "5"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["status"] == "admissible"
