"""Benchmark of affinecurv: one workload per run, driven in-process.

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Each job calls `affinecurv.cli.main(argv)` with stdout captured and parsed
as JSON, so no interpreter start-up enters a job's time.  A run sets up
three times (input generation plus one untimed, checked warm-up round)
and then replays the job list in whole rounds until --seconds have
passed, at least three times.  With --trace 0 the last line of stdout is
the end-to-end result; with --trace 1 the package's calls are wrapped in
spans (see tracing.py) and the last line holds the per-layer figures,
each the median over the timed rounds of that round's total.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One process, one thread, one BLAS/OpenMP thread: set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 3

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("slowest_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import affinecurv from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "affinecurv", "__init__.py")):
        raise SystemExit("error: %s has no affinecurv package to benchmark" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import affinecurv
    from affinecurv import cli  # which imports every module of the package

    if os.path.dirname(os.path.dirname(os.path.abspath(affinecurv.__file__))) != src:
        raise SystemExit("error: affinecurv was imported from %s" % affinecurv.__file__)
    return cli


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


class Runner:
    """Runs job lists through the CLI and records times and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}  # job name -> reason, for jobs with no known fault
        self.known = {}  # job name -> reason, for jobs failing on a known fault

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            dt = time.perf_counter() - t0
        text = out.getvalue()
        report = json.loads(text) if text else {"stderr": err.getvalue().strip()}
        return code, report, dt

    def run_job(self, job):
        """Seconds spent in the CLI for this job, and whether it passed."""
        gc.collect()
        seconds = 0.0
        try:
            for step in job.steps:
                code, report, dt = self.call(step.argv)
                seconds += dt
                step.check(report, code, job.ctx)
            return seconds, None
        except Exception as exc:  # a failing job is recorded and the run goes on
            return seconds, "%s: %s" % (type(exc).__name__, exc)

    def run_round(self, jobs):
        times = []
        for job in jobs:
            seconds, error = self.run_job(job)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                (self.known if job.known_fault else self.unexpected)[job.name] = error
            times.append(seconds)
        return times


def run_workload(args):
    cli = import_program()
    imports_s = time.perf_counter() - T_START
    import jobs as joblib

    if args.workload == "exact-geometry":
        import scipy.integrate  # noqa: F401  (reference for one check, not set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = Runner(cli)

    os.makedirs(OUT_DIR, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setups = []
        for k in range(1 if tracer else SETUP_REPEATS):
            t0 = time.perf_counter()
            work = os.path.join(work_root, "setup%d" % k)
            os.makedirs(work)
            job_list = joblib.build(args.workload, args.seed, work, smoke=args.smoke)
            runner.run_round(job_list)
            setups.append(time.perf_counter() - t0)
        setup_s = imports_s + statistics.median(setups)

        rounds, layers = [], []
        t_measure = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_measure < args.seconds:
            if tracer is not None:
                tracer.reset()
            rounds.append(runner.run_round(job_list))
            if tracer is not None:
                layers.append(tracer.snapshot())
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    per_job = [statistics.median(r[i] for r in rounds) for i in range(len(job_list))]
    round_s = statistics.median(sum(r) for r in rounds)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(job_list),
        "rounds": len(rounds),
        "median_round_s": round_s,
        "setup_repeats_s": setups,
        "imports_s": imports_s,
        "per_job_median_s": {job.name: t for job, t in zip(job_list, per_job)},
        "round_job_s": rounds,
        "failed_jobs": {**runner.known, **runner.unexpected},
        "env": environment(),
    }
    if tracer is None:
        metrics = {
            "jobs_per_s": len(job_list) / round_s,
            "job_p50_s": statistics.median(per_job),
            "slowest_job_s": max(per_job),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = dict(END_TO_END)
    else:
        import tracing

        per_round = [tracing.layer_metrics(s) for s in layers]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        units = {k: _layer_unit(k) for k in metrics}
        summary["spans"] = _span_table(layers)
    summary["metrics"] = metrics
    _write(summary, args)

    print("env %s" % json.dumps(summary["env"], sort_keys=True))
    print("workload %s seed %d: %d jobs, %d timed rounds, median round %.3f s"
          % (args.workload, args.seed, len(job_list), len(rounds), round_s))
    for name, reason in sorted(runner.known.items()):
        print("known fault, job %r: %s" % (name, reason))
    for name, reason in sorted(runner.unexpected.items()):
        print("FAILED job %r: %s" % (name, reason))
    for name, value in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, units[name]))
    print("  attempted %d, failed %d" % (runner.attempted, runner.failed))
    result = {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_per_direction")):
        return "ratio"
    return "count"


def _span_table(layers):
    """Median per-round inclusive, self time and calls of every span."""
    names = sorted({n for s in layers for n in s["calls"]})
    table = {}
    for name in names:
        table[name] = {
            key: statistics.median(s[field].get(name, 0) for s in layers)
            for key, field in (("total_s", "total"), ("self_s", "self"), ("calls", "calls"))
        }
    return table


def _write(summary, args):
    kind = "trace" if args.trace else "run"
    path = os.path.join(OUT_DIR, "%s-%s-seed%d.json" % (kind, args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Every workload in its own process, one after the other; prints each
    run's report without its final JSON line."""
    import jobs as joblib

    ok = True
    for workload in joblib.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print("workload %s: exit code %d" % (workload, proc.returncode))
            return 1
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify-sweep", "classify-large", "exact-geometry", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small job lists, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
