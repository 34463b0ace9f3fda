"""CLI reports compared byte for byte with the files in tests/golden/.

The files were written by the commands below.  An intended change to a
report regenerates its file and says why in CHANGES.md, e.g.

    PYTHONPATH=src python -m affinecurv.cli extend --builtin planewave \
        --vectors 3 > tests/golden/extend_planewave.json

The model files that `classify` and `symm` read sit next to the reports:
`classify_affine_planewave.model.json` is the `geometry --builtin planewave
--at 0.2,1.5,-0.3 --model-out` model, `classify_neither_m5.model.json` the
curvature tensor of the rank-3 projection of R^5 (nilpotent Jacobi
operators along its kernel only) and `symm_fail_m3.model.json` a hand-made
tensor that is antisymmetric but fails the cyclic identity.  A
`classify_<label>_m<m>.json` report classifies the model that `realize`
writes from the arguments in CLASSIFY.

A `realize_<label>_m<m>.json` report comes with the model file it wrote,
`realize_<label>_m<m>.model.json`; both are made in the directory that
holds the model file, so that the report's "out" is "model.json":

    PYTHONPATH=src python -m affinecurv.cli realize --case 2-c --m 6 \
        --lambda=1.25 --nu=-0.7+0.3i --out model.json > realize_2-c_m6.json
    mv model.json realize_2-c_m6.model.json
"""

import json
from pathlib import Path

import pytest

from affinecurv.cli import main

GOLDEN = Path(__file__).parent / "golden"

REPORTS = {
    "geometry_homogeneous_m4.json": [
        "geometry", "--builtin", "homogeneous", "--m", "4", "--eps", "1",
        "--curvature", "--nabla-r", "--ricci",
    ],
    "extend_deformed_homogeneous_m3.json": [
        "extend", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--kind", "deformed", "--tol", "1e-3", "--vectors", "3",
    ],
    "extend_modified_flat_m2.json": [
        "extend", "--builtin", "flat", "--m", "2", "--kind", "modified", "--vectors", "3",
    ],
    "extend_planewave.json": ["extend", "--builtin", "planewave", "--vectors", "3"],
    "extend_deformed_homogeneous_m5.json": [
        "extend", "--builtin", "homogeneous", "--m", "5", "--eps", "1",
        "--kind", "deformed", "--tol", "1e-3", "--vectors", "3",
    ],
    "extend_modified_flat_m4.json": [
        "extend", "--builtin", "flat", "--m", "4", "--kind", "modified", "--vectors", "3",
    ],
    # Numeric records at the default tolerance, where the float copies of
    # a repeated eigenvalue scatter and both projective clauses fail (exit 2).
    "extend_deformed_homogeneous_eps0.5_m4.json": [
        "extend", "--builtin", "homogeneous", "--m", "4", "--eps", "0.5",
        "--kind", "deformed", "--vectors", "3",
    ],
    # Bounded RK4 runs of 500 plain steps to t = 1, from states with
    # negative components, a bounded plane-wave run and a blow-up.
    "geometry_geodesic_homogeneous_m3.json": [
        "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--geodesic", "0.1,-0.2,0.3", "-0.1,0.2,0.15", "--t-max", "1", "--step", "0.002",
    ],
    "geometry_geodesic_homogeneous_m6.json": [
        "geometry", "--builtin", "homogeneous", "--m", "6", "--eps", "1",
        "--geodesic", "0.1,-0.2,0.3,0.05,-0.1,0.2", "-0.1,0.2,0.15,-0.05,0.1,0.12",
        "--t-max", "1", "--step", "0.002",
    ],
    "geometry_geodesic_planewave.json": [
        "geometry", "--builtin", "planewave", "--geodesic", "0.5,-0.25,1", "0.3,-0.4,0.2",
        "--t-max", "2",
    ],
    "geometry_geodesic_blowup_m3.json": [
        "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--geodesic", "0,0,0", "0,0,-0.5", "--t-max", "2",
    ],
    # without --out the model is inlined in the report
    "realize_2-c_m6_inline.json": [
        "realize", "--case", "2-c", "--m", "6", "--lambda=1.25", "--nu=-0.7+0.3i",
    ],
    # The gate: admissible, each inadmissible reason, unconstrained.
    "adams_m6_1_4c.json": ["adams", "--m", "6", "--partition", "1,4c"],
    "adams_m3_1_1.json": ["adams", "--m", "3", "--partition", "1,1"],
    "adams_m5_4c.json": ["adams", "--m", "5", "--partition", "4c"],
    "adams_m6_1_1_3.json": ["adams", "--m", "6", "--partition", "1,1,3"],
    "adams_m12_2_2_3_4c.json": ["adams", "--m", "12", "--partition", "2,2,3,4c"],
    "adams_m8_1_1_1_4c.json": ["adams", "--m", "8", "--partition", "1,1,1,4c"],
    "classify_affine_planewave.json": [
        "classify", str(GOLDEN / "classify_affine_planewave.model.json"), "--samples", "16",
    ],
    "classify_neither_m5.json": [
        "classify", str(GOLDEN / "classify_neither_m5.model.json"), "--samples", "16",
    ],
    "symm_realize_2-c_m6.json": ["symm", str(GOLDEN / "realize_2-c_m6.model.json")],
    "symm_fail_m3.json": ["symm", str(GOLDEN / "symm_fail_m3.model.json")],
    "geometry_jordan_homogeneous_m3.json": [
        "geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
        "--jordan-at", "0.7071067811865476,0,0.7071067811865476",
    ],
}

EXIT_CODES = {
    "extend_deformed_homogeneous_eps0.5_m4.json": 2,
    "adams_m3_1_1.json": 2,
    "adams_m5_4c.json": 2,
    "adams_m6_1_1_3.json": 2,
    "adams_m12_2_2_3_4c.json": 2,
    "classify_affine_planewave.json": 1,
    "classify_neither_m5.json": 2,
    "symm_fail_m3.json": 2,
}

# One model per residue class with a listed case, and 3-g at m = 8, where
# realize builds the model but the structure is "unlisted" and the gate
# says "unconstrained".
CLASSIFY = {
    "classify_1_m7": ["--case", "1", "--m", "7", "--lambda=0.3333333333333333"],
    "classify_2-c_m10": ["--case", "2-c", "--m", "10", "--lambda=-1.5", "--nu=0.25+0.75i"],
    "classify_3-g_m12": ["--case", "3-g", "--m", "12", "--lambda=1", "--lambda=2",
                         "--lambda=-3", "--nu=0.5+0.1i"],
    "classify_3-g_m8": ["--case", "3-g", "--m", "8", "--lambda=1", "--lambda=2",
                        "--lambda=-3", "--nu=0.5+0.1i"],
}


# One label per constructor path: the constant-curvature family, both
# complex_model cases and quaternion_model with and without a complex
# pair; values include rationals whose float repr is long.
REALIZE = {
    "realize_1_m7": ["--case", "1", "--m", "7", "--lambda=0.3333333333333333"],
    "realize_2-b_m10": ["--case", "2-b", "--m", "10", "--lambda=-2.5", "--lambda=0.1"],
    "realize_2-c_m6": ["--case", "2-c", "--m", "6", "--lambda=1.25", "--nu=-0.7+0.3i"],
    "realize_3-b-ii_m8": ["--case", "3-b-ii", "--m", "8", "--lambda=3", "--lambda=-0.2"],
    "realize_3-e-iii_m8": ["--case", "3-e-iii", "--m", "8", "--lambda=0.6666666666666666",
                           "--nu=1.5+2i"],
    "realize_3-g_m8": ["--case", "3-g", "--m", "8", "--lambda=1", "--lambda=2",
                       "--lambda=-3", "--nu=0.5+0.1i"],
    "realize_3-h_m8": ["--case", "3-h", "--m", "8", "--lambda=-1.75", "--nu=0.2+1i",
                       "--nu=-3+0.3333333333333333i"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_file(name, capsys):
    code = main(REPORTS[name])
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(name, 0)
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(REALIZE))
def test_realize_report_and_model_file_match_golden_files(name, capsys, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["realize"] + REALIZE[name] + ["--out", "model.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / (name + ".json")).read_bytes()
    assert (tmp_path / "model.json").read_bytes() == (GOLDEN / (name + ".model.json")).read_bytes()


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify_report_of_a_realized_model_matches_golden_file(name, capsys, tmp_path):
    model = str(tmp_path / "model.json")
    assert main(["realize"] + CLASSIFY[name] + ["--out", model]) == 0
    capsys.readouterr()
    code = main(["classify", model, "--samples", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / (name + ".json")).read_bytes()


def _no_constant(name):
    raise ValueError("%s is not a JSON value" % name)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_golden_files_are_strict_json(path):
    """RFC 8259 has no Infinity or NaN: a non-finite float prints as null."""
    json.loads(path.read_text(), parse_constant=_no_constant)
