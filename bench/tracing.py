"""Span tracer for the per-layer figures of the benchmark.

Nothing in affinecurv is edited.  Instead `install` replaces, in memory,
the attributes through which the package calls its own layers: every
public function of the eight modules (wherever another module imported it
by name), the arithmetic and evaluation methods of `Polynomial`, the
evaluation methods of the geometry classes, and `numpy.linalg.eigvals`
as seen from `spectral.spectrum`.  Each replacement records a span: its
inclusive time, its self time (inclusive minus the time of the spans it
called) and a call count, plus a few counters (polynomial term pairs,
geodesic steps, checked vectors, the tracemalloc peak inside `realize`).

Spans stay in memory; `snapshot` hands back one round's totals and
`reset` clears them for the next round.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

MODULES = (
    "cli",
    "constructors",
    "tensor_core",
    "spectral",
    "classifier",
    "polynomials",
    "polynomial_geometry",
    "riemannian_extension",
)

# (module, class, {method: span name}) for methods that carry the work of
# a layer but are reached through instances rather than module globals.
_METHODS = (
    ("polynomials", "Polynomial", {
        "__mul__": "polynomials.mul",
        "__rmul__": "polynomials.mul",
        "__add__": "polynomials.add",
        "__radd__": "polynomials.add",
        "__sub__": "polynomials.sub",
        "__rsub__": "polynomials.sub",
        "__neg__": "polynomials.neg",
        "__pow__": "polynomials.pow",
        "__call__": "polynomials.eval",
        "diff": "polynomials.diff",
        "embed": "polynomials.embed",
    }),
    ("polynomial_geometry", "PolyConnection", {
        "gamma_at": "polynomial_geometry.gamma_at",
    }),
    ("polynomial_geometry", "PolyCurvature", {
        "evaluate_at": "polynomial_geometry.evaluate_at",
        "evaluate_exact": "polynomial_geometry.evaluate_exact",
    }),
    ("riemannian_extension", "PolyMetric", {
        "inverse": "riemannian_extension.inverse",
        "gram_at": "riemannian_extension.gram_at",
        "gram_exact": "riemannian_extension.gram_exact",
    }),
)

VERDICT = "classifier.is_projective_affine_osserman"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.stack = []  # one [child_seconds, name] frame per open span
        self.active = defaultdict(int)  # open spans per name
        self.reset()

    def reset(self):
        self.total = defaultdict(float)  # inclusive, outermost span per name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(int)  # (parent name, name) -> calls
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    def snapshot(self):
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "edges": dict(self.edges),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span called `name`.

        before(args) runs ahead of the call and after(result) behind it;
        neither is timed inside the span.
        """
        stack = self.stack
        active = self.active
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                if not active[name]:
                    tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[0]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[0] += dt
                    tracer.edges[(parent[1], name)] += 1
            if after is not None:
                after(result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _count_mul(self, args):
        a, b = args
        n_a = len(a.terms())
        if hasattr(b, "terms"):
            n_b = len(b.terms())
        else:
            n_b = 1 if b else 0
        self.counts["mul_term_pairs"] += n_a * n_b
        if n_a and n_b:
            self.counts["mul_nonzero"] += 1

    def _count_steps(self, result):
        self.counts["geodesic_steps"] += len(result.times) - 1

    def _count_vectors(self, result):
        self.counts["vectors_checked"] += len(result.records)

    def _measure_peak(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                tracer.peaks[key] = max(tracer.peaks[key], peak_mb)
                if started:
                    tracemalloc.stop()

        return measured


def install(tracer):
    """Route affinecurv's internal calls through `tracer`'s spans.

    Returns a function that undoes every replacement.
    """
    import numpy as np

    modules = {name: importlib.import_module("affinecurv." + name) for name in MODULES}
    package = importlib.import_module("affinecurv")
    hooks = {
        "polynomial_geometry.geodesic_integrate": {"after": tracer._count_steps},
        "riemannian_extension.check_extension_theorems": {"after": tracer._count_vectors},
    }
    undo = []

    replacements = {}
    for modname, mod in modules.items():
        public = list(getattr(mod, "__all__", ()))
        if modname == "cli":
            public = ["main"]
        for attr in public:
            original = getattr(mod, attr)
            if not inspect.isfunction(original):
                continue
            span = "%s.%s" % (modname, attr)
            fn = original
            if span == "constructors.realize":
                fn = tracer._measure_peak(fn, "constructors.realize_peak_mb")
            replacements[original] = tracer.wrap(span, fn, **hooks.get(span, {}))

    for mod in list(modules.values()) + [package]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
                undo.append((mod, attr, value))

    for modname, clsname, methods in _METHODS:
        cls = getattr(modules[modname], clsname)
        for attr, span in methods.items():
            fn = cls.__dict__[attr]
            before = tracer._count_mul if span == "polynomials.mul" else None
            setattr(cls, attr, tracer.wrap(span, fn, before=before))
            undo.append((cls, attr, fn))

    eigvals = np.linalg.eigvals
    np.linalg.eigvals = _only_inside(tracer, "spectral.spectrum",
                                     tracer.wrap("spectral.eigvals", eigvals), eigvals)
    undo.append((np.linalg, "eigvals", eigvals))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def _only_inside(tracer, parent, traced, plain):
    """Call `traced` when the innermost open span is `parent`, else `plain`,
    so that numpy calls made outside that span are not attributed to it."""

    @functools.wraps(plain)
    def dispatch(*args, **kwargs):
        stack = tracer.stack
        if stack and stack[-1][1] == parent:
            return traced(*args, **kwargs)
        return plain(*args, **kwargs)

    return dispatch


# -- per-layer metrics ----------------------------------------------------


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(snap):
    """Per-layer metric values (see BENCHMARK.json) from one round's spans."""
    total = snap["total"]
    selft = snap["self"]
    calls = snap["calls"]
    edges = snap["edges"]
    counts = snap["counts"]

    def t(name):
        return total.get(name, 0.0)

    out = {
        "cli.self_s": selft.get("cli.main", 0.0),
        "tensor_core.load_model_s": t("tensor_core.load_model"),
        "tensor_core.save_model_s": t("tensor_core.save_model"),
        "tensor_core.symmetry_check_s": t("tensor_core.check_affine_symmetries"),
        "tensor_core.jacobi_s": t("tensor_core.jacobi"),
        "tensor_core.jacobi_calls": calls.get("tensor_core.jacobi", 0),
        "tensor_core.perp_basis_s": t("tensor_core.perp_basis"),
        "constructors.realize_s": t("constructors.realize"),
        "constructors.realize_peak_mb": snap["peaks"].get("constructors.realize_peak_mb", 0.0),
        "spectral.spectrum_s": t("spectral.spectrum"),
        "spectral.spectrum_calls": calls.get("spectral.spectrum", 0),
        "spectral.eigvals_s": t("spectral.eigvals"),
        "spectral.match_s": t("spectral.projective_match"),
        "spectral.match_calls": calls.get("spectral.projective_match", 0),
        "classifier.verdict_self_s": selft.get(VERDICT, 0.0),
        "classifier.match_calls_per_direction": _share(
            edges.get((VERDICT, "spectral.projective_match"), 0),
            edges.get((VERDICT, "spectral.spectrum"), 0),
        ),
        "classifier.taxonomy_s": sum(
            t("classifier." + fn)
            for fn in ("match_taxonomy", "bundle_partition", "adams_admissible")
        ),
        "polynomials.mul_s": t("polynomials.mul"),
        "polynomials.mul_calls": calls.get("polynomials.mul", 0),
        "polynomials.mul_term_pairs": counts.get("mul_term_pairs", 0),
        "polynomials.mul_nonzero_share": _share(
            counts.get("mul_nonzero", 0), calls.get("polynomials.mul", 0)
        ),
        "polynomials.add_s": t("polynomials.add"),
        "polynomials.add_calls": calls.get("polynomials.add", 0),
        "polynomials.eval_s": t("polynomials.eval"),
        "polynomials.eval_calls": calls.get("polynomials.eval", 0),
        "polynomial_geometry.curvature_s": t("polynomial_geometry.curvature"),
        "polynomial_geometry.curvature_calls": calls.get("polynomial_geometry.curvature", 0),
        "polynomial_geometry.geodesic_s": t("polynomial_geometry.geodesic_integrate"),
        "polynomial_geometry.geodesic_steps": counts.get("geodesic_steps", 0),
        "riemannian_extension.levi_civita_s": t("riemannian_extension.levi_civita_block"),
        "riemannian_extension.check_self_s": selft.get(
            "riemannian_extension.check_extension_theorems", 0.0
        ),
        "riemannian_extension.vectors_checked": counts.get("vectors_checked", 0),
    }
    for modname in MODULES:
        if modname == "cli":
            continue
        out[modname + ".self_s"] = sum(
            v for k, v in selft.items() if k.startswith(modname + ".")
        )
    return out
