"""Tests of the benchmark itself: every output check rejects a wrong
answer, the tracer reports the metrics BENCHMARK.json names, and a
smoke-sized run of every workload finishes in seconds.

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from affinecurv import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def call(argv):
    code, report, _ = run.Runner(cli).call(argv)
    return code, report


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


# -- classification -------------------------------------------------------


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    spec = {"case": "3-h", "m": 12, "lambdas": [1.5],
            "nus": [complex(-0.5, 1.0), complex(2.0, 0.75)]}
    path = str(tmp_path_factory.mktemp("model") / "m.json")
    code, realized = call(jobs.realize_argv(spec, path))
    code_c, classified = call(["classify", path, "--samples", "8"])
    return spec, path, (code, realized), (code_c, classified)


def test_realize_check(model):
    spec, path, (code, report), _ = model
    trace = checks.check_realize(report, code, spec, path)
    # value x multiplicity: 1.5 once, -0.5 +- i once each, 2.0 +- 0.75i four times each
    assert trace == pytest.approx(1.5 + 2 * (-0.5) + 2 * 4 * 2.0)
    rejects(checks.check_realize, report, 3, spec, path)
    wrong = dict(report, nonzero_entries=report["nonzero_entries"] + 1)
    rejects(checks.check_realize, wrong, code, spec, path)
    rejects(checks.check_realize, report, code, dict(spec, lambdas=[1.25]), path)


def test_projective_check(model):
    spec, path, (code, realized), (code_c, report) = model
    trace = checks.check_realize(realized, code, spec, path)
    checks.check_projective(report, code_c, spec, trace)

    rejects(checks.check_projective, report, 1, spec, trace)
    rejects(checks.check_projective, report, code_c, spec, trace + 0.5)
    rejects(checks.check_projective, report, code_c, dict(spec, case="3-g"), trace)
    rejects(checks.check_projective, report, code_c,
            dict(spec, nus=[complex(-0.5, 1.0), complex(2.0, 0.5)]), trace)

    one_mult = copy.deepcopy(report)
    entry = next(e for e in one_mult["verdict"]["spectrum"]["eigenvalues"] if e["mult"] > 1)
    entry["mult"] -= 1
    rejects(checks.check_projective, one_mult, code_c, spec, trace)

    inadmissible = copy.deepcopy(report)
    inadmissible["adams"]["status"] = "inadmissible"
    rejects(checks.check_projective, inadmissible, code_c, spec, trace)

    status = copy.deepcopy(report)
    status["verdict"]["status"] = checks.AFFINE
    rejects(checks.check_projective, status, code_c, spec, trace)


def test_nilpotent_and_neither_checks(tmp_path):
    nil = str(tmp_path / "nil.json")
    jobs.write_model(nil, jobs.nilpotent_entries(4))
    code, report = call(["classify", nil, "--samples", "8"])
    checks.check_nilpotent(report, code)
    rejects(checks.check_neither, report, code)

    other = str(tmp_path / "other.json")
    diag = jobs.draw_non_osserman_diag(jobs.np.random.default_rng(0), 5)
    jobs.write_model(other, jobs.non_osserman_entries(diag))
    code, report = call(["classify", other, "--samples", "8"])
    checks.check_neither(report, code)
    rejects(checks.check_nilpotent, report, code)


def test_non_osserman_diag_is_not_proportional():
    diag = jobs.draw_non_osserman_diag(jobs.np.random.default_rng(3), 6)
    assert len(set(diag)) == 6 and min(diag) > 0
    geometric = [(complex(2.0 ** k), 1) for k in range(5)]
    assert checks.positive_multiple(geometric[1:], geometric[:-1], 1e-12)


# -- extensions and geometry ----------------------------------------------


def test_extend_projective_check():
    code, report = call(["extend", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
                         "--tol", "1e-3", "--vectors", "2"])
    checks.check_extend_projective(report, code, 2)
    rejects(checks.check_extend_projective, report, code, 3)

    def timelike_later(mutated):
        return [r for r in mutated["report"]["vectors"] if r["character"] == "timelike"][1]

    def largest(rec):
        return max(rec["spectrum"]["eigenvalues"], key=lambda e: abs(complex(e["re"], e["im"])))

    negative = copy.deepcopy(report)
    largest(timelike_later(negative))["re"] *= -1.0
    rejects(checks.check_extend_projective, negative, code, 2)

    split = copy.deepcopy(report)
    rec = timelike_later(split)
    top = largest(rec)
    top["mult"] -= 1
    rec["spectrum"]["eigenvalues"].append(dict(top, re=top["re"] * 1.1, mult=1))
    rejects(checks.check_extend_projective, split, code, 2)


def test_extend_nilpotent_check():
    code, report = call(["extend", "--builtin", "planewave", "--vectors", "2"])
    checks.check_extend_nilpotent(report, code, 2)
    numeric = copy.deepcopy(report)
    numeric["report"]["vectors"][1]["method"] = "numeric"
    rejects(checks.check_extend_nilpotent, numeric, code, 2)
    rejects(checks.check_extend_nilpotent, report, 2, 2)


def test_extend_modified_check():
    code, report = call(["extend", "--builtin", "flat", "--m", "2", "--kind", "modified",
                         "--vectors", "2"])
    checks.check_extend_modified(report, code, 2, 2)
    rejects(checks.check_extend_modified, report, code, 3, 2)
    shifted = copy.deepcopy(report)
    for e in shifted["report"]["vectors"][0]["spectrum"]["eigenvalues"]:
        if abs(e["re"] - 0.25) < 1e-3:
            e["re"] = 0.3
    rejects(checks.check_extend_modified, shifted, code, 2, 2)


def test_geometry_check():
    point = [0.3125, -0.5625, 0.4375]
    code, report = call(["geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
                         "--curvature", "--nabla-r"])
    checks.check_geometry(report, code, 3, 1.0, point)
    rejects(checks.check_geometry, report, code, 3, 2.0, point)
    for table in ("curvature", "nabla_r"):
        wrong = copy.deepcopy(report)
        key = sorted(wrong[table])[0]
        wrong[table][key] += " + 1/1000"
        rejects(checks.check_geometry, wrong, code, 3, 1.0, point)


def test_eval_poly_text():
    assert checks.eval_poly_text("-1/2*x1*x2^2 + 3 - x3", [2.0, 3.0, 5.0]) == -9.0 + 3.0 - 5.0
    assert checks.eval_poly_text("0", [1.0]) == 0.0


def test_geodesic_check():
    x0, v0 = [0.1, -0.2, 0.3], [0.05, 0.1, -0.15]
    code, report = call(["geometry", "--builtin", "homogeneous", "--m", "3", "--eps", "1",
                         "--geodesic", jobs._state(x0), jobs._state(v0), "--t-max", "1.0",
                         "--step", "0.01"])
    checks.check_generic_geodesic(report, code, 3, 1.0, x0, v0, 1.0)
    off = copy.deepcopy(report)
    off["geodesic"]["x_final"][0] += 1e-4
    rejects(checks.check_generic_geodesic, off, code, 3, 1.0, x0, v0, 1.0)
    rejects(checks.check_generic_geodesic, report, code, 3, 1.0, x0, [0.05, 0.1, -0.2], 1.0)


# -- jobs, tracer, runs ---------------------------------------------------


def test_jobs_follow_the_seed(tmp_path):
    def argvs(seed):
        return [s.argv for j in jobs.build("exact-geometry", seed, str(tmp_path)) for s in j.steps]

    assert argvs(4) == argvs(4)
    assert argvs(4) != argvs(5)


def test_known_faults_do_not_follow_the_seed(tmp_path):
    def faulty(seed):
        return [(j.name, [s.argv[2:] for s in j.steps])
                for j in jobs.build("classify-sweep", seed, str(tmp_path)) if j.known_fault]

    assert len(faulty(1)) == 2
    assert faulty(1) == faulty(2)


def test_tracer_reports_every_layer_metric(tmp_path):
    original = cli.main
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        path = str(tmp_path / "m.json")
        spec = {"case": "2-c", "m": 6, "lambdas": [4.0], "nus": [complex(1.0, 2.0)]}
        assert call(jobs.realize_argv(spec, path))[0] == 0
        assert call(["classify", path, "--samples", "4"])[0] == 0
        classify = tracing.layer_metrics(tracer.snapshot())
        tracer.reset()
        assert call(["extend", "--builtin", "planewave", "--vectors", "1"])[0] == 0
        extend = tracing.layer_metrics(tracer.snapshot())
    finally:
        uninstall()
    assert set(classify) == {m["name"] for m in BENCHMARK["per_layer"]}
    n = 6 + 1 + 4  # basis, all-ones, samples
    assert classify["tensor_core.jacobi_calls"] == n + 1  # and e1 for the taxonomy
    # all pairs, then one scale match per direction
    assert classify["classifier.match_calls_per_direction"] == pytest.approx((n - 1) / 2 + 1)
    assert classify["constructors.realize_peak_mb"] > 0
    assert classify["polynomials.mul_calls"] == 0
    assert extend["riemannian_extension.vectors_checked"] == 2
    assert extend["polynomials.mul_calls"] > 0
    assert extend["polynomial_geometry.curvature_calls"] >= 1
    assert cli.main is original


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace, tmp_path):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    for m in BENCHMARK[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    n_jobs = len(jobs.build(workload, 3, str(tmp_path), smoke=True))
    known = 2 if workload == "classify-sweep" else 0
    assert result["attempted"] % n_jobs == 0
    assert result["failed"] * n_jobs == known * result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "jobs.py", "checks.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(BENCH_DIR, name)).read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "classify-sweep",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
