"""Job lists of the three workloads, generated from a workload seed.

A job is what a user waits for: one or two CLI calls (`realize --out`
then `classify`, or a single `extend` / `geometry`), each with the exit
code and output check it must meet.  The same seed gives the same jobs.
Inputs that a known fault makes fail do not depend on the seed, so every
round fails the same jobs whatever the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

WORKLOADS = ("classify-sweep", "classify-large", "exact-geometry")

# case label -> dimension used by classify-sweep (odd, 2 mod 4, 4 mod 8)
SWEEP_DIMS = {"1": 7, "2-a": 10, "2-b": 10, "2-c": 10}
SWEEP_DIMS.update({case: 12 for case in checks.MULTIPLICITIES if case.startswith("3-")})


@dataclass
class Step:
    argv: list
    check: object  # check(report, code, ctx) -> None, raises CheckFailed


@dataclass
class Job:
    name: str
    steps: list
    known_fault: str | None = None  # why this job fails until the fault is fixed
    ctx: dict = field(default_factory=dict)  # values handed from step to step


# -- eigenvalue data ------------------------------------------------------


def draw_spec(rng, case, m):
    """Distinct nonzero eigenvalues on a grid of quarters, complex ones with
    imaginary part at least 1/2, so that no two slots nearly coincide.
    Real parts are pairwise distinct too: a real part equal to a real
    eigenvalue cancels terms of the constructed tensor, which changes its
    number of nonzero entries and so the size of the model file."""
    n_real = len(checks.MULTIPLICITIES[case][0](m))
    n_pair = len(checks.MULTIPLICITIES[case][1](m))
    reals = rng.choice([k for k in range(-20, 21) if k], size=n_real, replace=False) / 4.0
    nus = []
    while len(nus) < n_pair:
        nu = complex(rng.integers(-12, 13) / 4.0, rng.integers(2, 13) / 4.0)
        if nu.real not in list(reals) + [v.real for v in nus]:
            nus.append(nu)
    return {"case": case, "m": m, "lambdas": [float(v) for v in reals], "nus": nus}


def _fmt(x):
    return repr(float(x))


def _nu_text(nu):
    return "%r+%ri" % (nu.real, nu.imag)


def realize_argv(spec, path):
    argv = ["realize", "--case", spec["case"], "--m", str(spec["m"]), "--out", path]
    argv += ["--lambda=" + _fmt(v) for v in spec["lambdas"]]
    argv += ["--nu=" + _nu_text(nu) for nu in spec["nus"]]
    return argv


def model_job(name, spec, path, samples, sample_seed, known_fault=None):
    """realize --out, then classify the file; the realize check hands the
    trace of J_{e1} to the classify check."""
    def after_realize(report, code, ctx):
        ctx["trace"] = checks.check_realize(report, code, spec, path)

    def after_classify(report, code, ctx):
        checks.check_projective(report, code, spec, ctx["trace"])

    return Job(name, [
        Step(realize_argv(spec, path), after_realize),
        Step(["classify", path, "--samples", str(samples), "--seed", str(sample_seed)],
             after_classify),
    ], known_fault)


def write_model(path, entries):
    """Model file in the CLI's format from a dense array."""
    rows = [[int(i), int(j), int(k), int(l), float(entries[i, j, k, l])]
            for i, j, k, l in sorted(map(tuple, np.argwhere(entries != 0.0)))]
    with open(path, "w") as fh:
        json.dump({"dim": int(entries.shape[0]), "entries": rows}, fh)


def nilpotent_entries(m, scale=1.0):
    """A(e2, e1)e1 = e3 = -A(e1, e2)e1: J_X = x1 e3 (x1 e2* - x2 e1*),
    whose square is zero for every X."""
    entries = np.zeros((m,) * 4)
    entries[1, 0, 0, 2] = scale
    entries[0, 1, 0, 2] = -scale
    return entries


def non_osserman_entries(diag):
    """A(X, Y)Z = <Y,Z> DX - <X,Z> DY with D = diag(d).  Its reduced
    spectrum at e_i is {d_j : j != i}."""
    m = len(diag)
    entries = np.zeros((m,) * 4)
    for i in range(m):
        for j in range(m):
            if i != j:
                entries[i, j, j, i] += diag[i]
                entries[j, i, j, i] -= diag[i]
    return entries


def draw_non_osserman_diag(rng, m):
    """Distinct positive entries whose spectra at e1 and e_m, {d2..dm} and
    {d1..d(m-1)}, are not proportional."""
    while True:
        d = np.sort(rng.choice(np.arange(4, 17), size=m, replace=False) / 4.0)
        at_first = [(complex(v), 1) for v in d[1:]]
        at_last = [(complex(v), 1) for v in d[:-1]]
        if not checks.positive_multiple(at_first, at_last, 1e-9):
            return d


# -- workloads ------------------------------------------------------------


def classify_sweep(rng, work, smoke):
    samples = 12 if smoke else 96
    cases = ["1", "2-c", "3-h"] if smoke else list(checks.MULTIPLICITIES)
    jobs = []
    for case in cases:
        spec = draw_spec(rng, case, SWEEP_DIMS[case])
        path = os.path.join(work, "sweep-%s.json" % case)
        jobs.append(model_job("model %s m=%d" % (case, spec["m"]), spec, path,
                              samples, int(rng.integers(1 << 30))))

    m = 6
    diag = draw_non_osserman_diag(rng, m)
    path = os.path.join(work, "non-osserman.json")
    write_model(path, non_osserman_entries(diag))
    jobs.append(Job("non-osserman m=%d" % m, [Step(
        ["classify", path, "--samples", str(samples), "--seed", str(int(rng.integers(1 << 30)))],
        lambda report, code, ctx: checks.check_neither(report, code))]))

    m = 5
    path = os.path.join(work, "nilpotent.json")
    write_model(path, nilpotent_entries(m))
    jobs.append(Job("nilpotent m=%d" % m, [Step(
        ["classify", path, "--samples", str(samples), "--seed", str(int(rng.integers(1 << 30)))],
        lambda report, code, ctx: checks.check_nilpotent(report, code))]))

    # Scale invariance: these inputs are fixed, not drawn from the seed.
    path = os.path.join(work, "nilpotent-1e3.json")
    write_model(path, nilpotent_entries(m, 1e3))
    jobs.append(Job("nilpotent x1e3 m=%d" % m, [Step(
        ["classify", path, "--samples", str(samples), "--seed", "0"],
        lambda report, code, ctx: checks.check_nilpotent(report, code))],
        known_fault="defective eigenvalues of a nilpotent J scatter by about "
                    "sqrt(eps*|J|), beyond the cluster tolerance"))
    spec = {"case": "2-c", "m": 10, "lambdas": [4e-10], "nus": [complex(1e-10, 2e-10)]}
    jobs.append(model_job("model 2-c x1e-10 m=10", spec,
                          os.path.join(work, "sweep-2-c-tiny.json"), samples, 0,
                          known_fault="absolute floor in eff = tol * max(1, radius) "
                                      "in spectral.spectrum"))
    return jobs


def classify_large(rng, work, smoke):
    samples = 4 if smoke else 16
    plan = [("2-c", 10), ("1", 9), ("3-h", 12)] if smoke else \
        [("2-c", 38), ("1", 41), ("3-h", 36), ("3-g", 44)]
    jobs = []
    for case, m in plan:
        spec = draw_spec(rng, case, m)
        path = os.path.join(work, "large-%s.json" % case)
        jobs.append(model_job("model %s m=%d" % (case, m), spec, path,
                              samples, int(rng.integers(1 << 30))))
    return jobs


def rational_point(rng, n):
    """n odd sixteenths in [-15/16, 15/16]: exact in binary and in Fractions."""
    return [float(2 * rng.integers(-8, 8) + 1) / 16.0 for _ in range(n)]


def _coords(values):
    return ",".join(_fmt(v) for v in values)


def _state(values):
    """A --geodesic state.  That flag takes two values, so the `--flag=value`
    form is not available; argparse reads a value that starts with '-' as
    an option, and float() ignores the leading space added here."""
    text = _coords(values)
    return " " + text if text.startswith("-") else text


def exact_geometry(rng, work, smoke):
    jobs = []
    vectors = 2 if smoke else 3
    for m in ((3,) if smoke else (3, 4, 5)):
        argv = ["extend", "--builtin", "homogeneous", "--m", str(m), "--eps", "1",
                "--kind", "deformed", "--tol", "1e-3", "--vectors", str(vectors),
                "--seed", str(int(rng.integers(1 << 30))),
                "--point=" + _coords(rational_point(rng, 2 * m))]
        jobs.append(Job("extend deformed homogeneous m=%d" % m, [Step(
            argv, lambda report, code, ctx:
                checks.check_extend_projective(report, code, vectors))]))

    argv = ["extend", "--builtin", "planewave", "--vectors", str(vectors),
            "--seed", str(int(rng.integers(1 << 30))),
            "--point=" + _coords(rational_point(rng, 6))]
    jobs.append(Job("extend deformed planewave", [Step(
        argv, lambda report, code, ctx: checks.check_extend_nilpotent(report, code, vectors))]))

    for m in ((2,) if smoke else (2, 3, 4)):
        argv = ["extend", "--builtin", "flat", "--m", str(m), "--kind", "modified",
                "--vectors", str(vectors), "--seed", str(int(rng.integers(1 << 30))),
                "--point=" + _coords(rational_point(rng, 2 * m))]
        jobs.append(Job("extend modified flat m=%d" % m, [Step(
            argv, lambda report, code, ctx, m=m:
                checks.check_extend_modified(report, code, m, vectors))]))

    for m in ((3,) if smoke else (4, 5, 6)):
        point = rational_point(rng, m)
        argv = ["geometry", "--builtin", "homogeneous", "--m", str(m), "--eps", "1",
                "--curvature", "--nabla-r"]
        jobs.append(Job("geometry nabla-r m=%d" % m, [Step(
            argv, lambda report, code, ctx, m=m, point=point:
                checks.check_geometry(report, code, m, 1.0, point))]))

    # Geodesics that stay bounded up to t_max, at every dimension the
    # curvature jobs use; each is checked against scipy's solve_ivp.
    steps = 100 if smoke else 500
    for m in ((3,) if smoke else (3, 4, 5, 6)):
        x0 = [float(v) for v in rng.uniform(-0.5, 0.5, m)]
        v0 = [float(v) for v in rng.uniform(-0.2, 0.2, m)]
        argv = ["geometry", "--builtin", "homogeneous", "--m", str(m), "--eps", "1",
                "--geodesic", _state(x0), _state(v0), "--t-max", "1.0",
                "--step", _fmt(1.0 / steps)]
        jobs.append(Job("geodesic m=%d" % m, [Step(
            argv, lambda report, code, ctx, m=m, x0=x0, v0=v0:
                checks.check_generic_geodesic(report, code, m, 1.0, x0, v0, 1.0))]))
    return jobs


_BUILDERS = {
    "classify-sweep": classify_sweep,
    "classify-large": classify_large,
    "exact-geometry": exact_geometry,
}


def build(workload, seed, work, smoke=False):
    """Job list of a workload for a seed; model inputs go under `work`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, work, smoke)
