"""CLI reports compared byte for byte with the files in tests/golden/.

The files were written by the commands below.  An intended change to a
report regenerates its file and says why in CHANGES.md, e.g.

    PYTHONPATH=src python -m affinecurv.cli extend --builtin planewave \
        --vectors 3 > tests/golden/extend_planewave.json
"""

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
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_file(name, capsys):
    code = main(REPORTS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
