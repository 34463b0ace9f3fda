"""Command-line front end.

Subcommands:

    realize   build a curvature model from a case label and eigenvalue data
    classify  Osserman verdict for a model file
    adams     admissibility of an eigenbundle partition over the sphere
    geometry  curvature data of a polynomial connection
    extend    cotangent-metric spectral checks over an affine base
    symm      curvature symmetry defects of a model file

Reports are JSON on stdout and in the --json-out file, laid out as
json.dumps(report, indent=2, sort_keys=True) lays them out, with a final
newline; a non-finite float prints as null, since JSON (RFC 8259) has no
token for it.  A model that `realize` inlines is streamed, and a command
that fails writes no report.  --pretty adds a short human summary on
stderr.  Exit codes: 0 success (projective / admissible / passed),
1 affine Osserman, 2 negative verdict, 3 bad input, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .classifier import (
    AFFINE,
    PROJECTIVE,
    BundlePartition,
    adams_admissible,
    classify,
)
from .constructors import CASE_LABELS, StructureSpec, realize
from .polynomial_geometry import (
    curvature,
    curvature_homogeneous_connection,
    flat_connection,
    geodesic_integrate,
    load_connection,
    plane_wave_connection,
    ricci_split,
)
from .polynomials import polynomial_to_string
from .riemannian_extension import check_extension_theorems, default_point
from .spectral import jordan_profile, spectrum
from .tensor_core import (
    CurvatureTensor,
    check_affine_symmetries,
    load_model,
    model_to_json_chunks,
    reduced_jacobi,
    save_model,
)

EXIT_OK = 0
EXIT_AFFINE = 1
EXIT_FAIL = 2
EXIT_USAGE = 3
EXIT_NUMERICAL = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse only reads "-5" or "-.5" as a value; widen that to any
        # token that starts like a number, such as "-1+2i" or "-0.5,0,0".
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on bad flags; route that through the
    # validation exit code instead.
    def error(self, message):
        raise UsageError(message)


def complex_eigenvalue(text):
    """Parse 'a+bi' with positive b (the 'i' may also be written 'j')."""
    try:
        value = complex(text.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse %r as a complex number a+bi" % text)
    if value.imag <= 0:
        raise argparse.ArgumentTypeError(
            "complex eigenvalue %r must have positive imaginary part" % text)
    return value


def coordinates(text):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse %r as comma-separated numbers" % text)
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError("coordinates %r must all be finite" % text)
    return values


def _number(convert, test, kind):
    """Parser of a convert(text) that passes `test`, whose error names `kind`."""
    def parse(text):
        try:
            if test(convert(text)):
                return convert(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected a %s, got %r" % (kind, text))
    return parse


# numpy's generators take only non-negative seeds
_seed = _number(int, lambda n: n >= 0, "non-negative integer")
_samples = _number(int, lambda n: n >= 1, "positive integer")
# float() reads inf, nan and 1e400 (as inf), which no exact connection takes
_finite = _number(float, math.isfinite, "finite number")


def _partition(text):
    dims, kinds = [], []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise UsageError("empty entry in partition %r" % text)
        kind = "real"
        if part.endswith(("c", "C")):
            kind = "complex-pair"
            part = part[:-1]
        try:
            dims.append(int(part))
        except ValueError:
            raise UsageError("bad partition entry %r" % part)
        kinds.append(kind)
    return dims, kinds


def _json_pieces(node, out, depth=0):
    """Append to `out` the text json.dumps(node, indent=2, sort_keys=True)
    gives `node`, a tree with str keys, nested `depth` levels deep, in one
    walk: a non-finite float as null, and a CurvatureTensor as the text of
    its model_to_json_dict, which model_to_json_chunks makes lazily."""
    if isinstance(node, str):
        out.append(_quote(node))
    elif isinstance(node, float):
        out.append(float.__repr__(node) if math.isfinite(node) else "null")
    elif node is None or isinstance(node, int):  # bool is an int, as in json
        out.append("null" if node is None else "true" if node is True
                   else "false" if node is False else int.__repr__(node))
    elif isinstance(node, CurvatureTensor):
        out.append(model_to_json_chunks(node, depth))
    elif isinstance(node, (dict, list, tuple)):
        keyed = isinstance(node, dict)
        sep, close = "{}" if keyed else "[]"
        pad = "\n" + "  " * (depth + 1)
        for key, value in sorted(node.items()) if keyed else enumerate(node):
            out.append(sep + pad + (_quote(key) + ": " if keyed else ""))
            _json_pieces(value, out, depth + 1)
            sep = ","
        out.append((pad[:-2] if node else sep) + close)
    else:
        raise TypeError("%s is not JSON serializable" % type(node).__name__)


def _emit(report, args):
    """Write the report's text (see _json_pieces) and a newline to stdout
    and to --json-out.  Every piece is made before the first byte is
    written, so a model the model writer refuses writes nothing; runs of
    text are joined, and a model is written chunk by chunk, never whole."""
    pieces = []
    _json_pieces(report, pieces)
    pieces.append("\n")
    with open(args.json_out, "w") if args.json_out else contextlib.nullcontext() as fh:
        for is_text, run in itertools.groupby(pieces, lambda piece: isinstance(piece, str)):
            for chunk in ["".join(run)] if is_text else itertools.chain.from_iterable(run):
                sys.stdout.write(chunk)
                if fh:
                    fh.write(chunk)


def _pretty(args, lines):
    if args.pretty:
        for line in lines:
            print(line, file=sys.stderr)


def _tol(args, default):
    if args.tol is None:
        return default
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise UsageError("--tol must be positive and finite, got %r" % args.tol)
    return args.tol


# -- subcommand bodies ----------------------------------------------------


def _cmd_realize(args):
    spec = StructureSpec(case=args.case, lambdas=tuple(args.lambdas or ()),
                         nus=tuple(args.nus or ()), m=args.m)
    A = realize(spec, args.m)
    report = {"command": "realize", "spec": spec.to_json_dict(), "dim": A.dim,
              "nonzero_entries": len(A._values), "notes": list(A.notes)}
    if args.out:
        save_model(A, args.out)
        report["out"] = args.out
    else:
        report["model"] = A
    _emit(report, args)
    _pretty(args, [
        "case %s at m=%d: %d nonzero entries" % (args.case, args.m, report["nonzero_entries"]),
        "written to %s" % args.out if args.out else "model inlined in report",
    ])
    return EXIT_OK


def _cmd_classify(args):
    A = load_model(args.model)
    result = classify(A, n_samples=args.samples, seed=args.seed, tol=_tol(args, 1e-8))
    verdict = result.verdict
    report = {"command": "classify", "verdict": verdict.to_json_dict()}
    if verdict.status == PROJECTIVE:
        structure = result.structure
        report["structure"] = (structure.to_json_dict() if isinstance(structure, StructureSpec)
                               else structure)
        partition = result.partition
        report["bundles"] = {"dims": list(partition.dims), "kinds": list(partition.kinds)}
        report["adams"] = result.adams.to_json_dict()
    _emit(report, args)
    lines = ["status: %s" % verdict.status]
    if verdict.status == PROJECTIVE:
        lines.append("structure: %s" % report["structure"])
        lines.append("worst residual against the e1 spectrum: %.3g" % verdict.worst_residual)
    _pretty(args, lines)
    return {PROJECTIVE: EXIT_OK, AFFINE: EXIT_AFFINE}.get(verdict.status, EXIT_FAIL)


def _cmd_adams(args):
    dims, kinds = _partition(args.partition)
    partition = BundlePartition(m=args.m, dims=tuple(dims), kinds=tuple(kinds))
    result = adams_admissible(args.m, partition)
    report = {
        "command": "adams",
        "m": args.m,
        "partition": {"dims": list(partition.dims), "kinds": list(partition.kinds)},
        "result": result.to_json_dict(),
    }
    _emit(report, args)
    _pretty(args, ["%s%s" % (result.status, ": " + result.reason if result.reason else "")])
    return EXIT_OK if result.status in ("admissible", "unconstrained") else EXIT_FAIL


def _load_connection_source(args):
    if args.file:
        return load_connection(args.file)
    if args.builtin in ("homogeneous", "flat") and args.m is None:
        raise UsageError("--builtin %s needs --m" % args.builtin)
    if args.builtin == "homogeneous":
        return curvature_homogeneous_connection(args.m, args.eps)
    if args.builtin == "planewave":
        if args.m not in (None, 3):
            raise UsageError("the planewave connection is three-dimensional")
        return plane_wave_connection()
    if args.builtin == "flat":
        return flat_connection(args.m)
    raise UsageError("pick a connection with --builtin or --file")


def _table_json(table):
    """A polynomial map as {"i,j,...": text}."""
    return {",".join(map(str, key)): polynomial_to_string(p) for key, p in table.items()}


def _cmd_geometry(args):
    C = _load_connection_source(args)
    m = C.dim
    at = args.at if args.at is not None else [0.0] * m
    if len(at) != m:
        raise UsageError("--at needs %d components" % m)
    tol = _tol(args, 1e-8)
    report = {"command": "geometry", "dim": m, "at": at}

    # one symbolic curvature serves every option that needs it
    if (args.curvature or args.nabla_r or args.ricci or args.model_out
            or args.jordan_at is not None):
        R = curvature(C)
    if args.curvature:
        report["curvature"] = _table_json(R.riemann)
    if args.nabla_r:
        report["nabla_r"] = _table_json(R.nabla)
    if args.ricci:
        sym, alt = ricci_split(R)
        report["ricci"] = {"sym": _table_json(sym), "alt": _table_json(alt)}
    if args.model_out or args.jordan_at is not None:
        A = R.evaluate_at(at)
    if args.model_out:
        save_model(A, args.model_out)
        report["model_out"] = args.model_out
    if args.jordan_at is not None:
        if len(args.jordan_at) != m:
            raise UsageError("--jordan-at needs %d components" % m)
        J = reduced_jacobi(A, np.asarray(args.jordan_at))
        S = spectrum(J, cluster_tol=tol)
        profiles = []
        for value, _ in S.items:
            if value.imag < 0.0:
                continue
            prof = jordan_profile(J, value, tol=max(tol, 1e-8))
            profiles.append({"eigenvalue": {"re": value.real, "im": value.imag},
                             "blocks": list(prof.block_sizes),
                             "multiplicity": prof.multiplicity})
        report["jordan"] = {"spectrum": S.to_json_dict(), "profiles": profiles}
    if args.geodesic is not None:
        x0, v0 = (coordinates(part) for part in args.geodesic)
        if len(x0) != m or len(v0) != m:
            raise UsageError("--geodesic states need %d components" % m)
        result = geodesic_integrate(C, x0, v0, args.t_max, step=args.step)
        report["geodesic"] = result.to_json_dict()
    _emit(report, args)
    lines = ["dim %d connection" % m]
    if "curvature" in report:
        lines.append("%d nonzero curvature entries" % len(report["curvature"]))
    if "geodesic" in report:
        g = report["geodesic"]
        lines.append(
            "geodesic blew up at t=%.6g" % g["blow_up_time"] if g["blew_up"]
            else "geodesic reached t=%.6g" % g["t_final"]
        )
    _pretty(args, lines)
    return EXIT_OK


def _cmd_extend(args):
    C = _load_connection_source(args)
    point = args.point if args.point is not None else default_point(C.dim)
    report_obj = check_extension_theorems(
        C,
        which=args.kind,
        point=point,
        n_vectors=args.vectors,
        seed=args.seed,
        tol=_tol(args, 1e-6),
    )
    report = {"command": "extend", "report": report_obj.to_json_dict()}
    _emit(report, args)
    _pretty(args, [
        "base: %s" % report_obj.base_status,
        "clauses: %s" % ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(report_obj.clauses.items())
        ),
        "passed" if report_obj.passed else "failed",
    ])
    return EXIT_OK if report_obj.passed else EXIT_FAIL


def _cmd_symm(args):
    A = load_model(args.model)
    result = check_affine_symmetries(A, tol=_tol(args, 1e-10))
    report = {
        "command": "symm",
        "dim": A.dim,
        "antisymmetry_defect": result.antisymmetry_defect,
        "bianchi_defect": result.bianchi_defect,
        "tol": result.tol,
        "passed": result.passed,
    }
    _emit(report, args)
    _pretty(args, [
        "antisymmetry defect %.3g, cyclic defect %.3g: %s"
        % (result.antisymmetry_defect, result.bianchi_defect,
           "pass" if result.passed else "fail"),
    ])
    return EXIT_OK if result.passed else EXIT_FAIL


# -- wiring ---------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built on first use and then shared: parsing
    keeps no state on it, and each call gets a fresh namespace."""
    common = _Parser(add_help=False)
    common.add_argument("--json-out", metavar="FILE", help="also write the JSON report here")
    common.add_argument("--pretty", action="store_true", help="human summary on stderr")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0, help="sampling seed")
    tol = _Parser(add_help=False)
    tol.add_argument("--tol", type=float, default=None,
                     help="numerical tolerance (per-command default)")
    source = _Parser(add_help=False)
    source.add_argument("--builtin", choices=("homogeneous", "planewave", "flat"))
    source.add_argument("--file", help="connection JSON file")
    source.add_argument("--m", type=int, help="dimension for --builtin")
    source.add_argument("--eps", type=_finite, default=0.0, help="perturbation for homogeneous")

    parser = _Parser(prog="affinecurv", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("realize", parents=[common],
                       help="build a model from a case label and eigenvalues")
    p.add_argument("--case", required=True, choices=CASE_LABELS)
    p.add_argument("--m", type=int, required=True, help="dimension")
    p.add_argument("--lambda", dest="lambdas", action="append", type=float,
                   metavar="VALUE", help="real eigenvalue (repeatable)")
    p.add_argument("--nu", dest="nus", action="append", type=complex_eigenvalue,
                   metavar="A+Bi", help="complex eigenvalue, Im > 0 (repeatable)")
    p.add_argument("--out", metavar="FILE", help="write the model JSON here")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("classify", parents=[common, seed, tol],
                       help="Osserman verdict for a model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--samples", type=_samples, default=64,
                   help="Gaussian probe directions besides e1")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("adams", parents=[common], help="eigenbundle partition gate")
    p.add_argument("--m", type=int, required=True, help="dimension")
    p.add_argument("--partition", required=True,
                   help="comma list of bundle ranks; suffix c marks a conjugate-pair bundle")
    p.set_defaults(func=_cmd_adams)

    p = sub.add_parser("geometry", parents=[common, tol, source],
                       help="curvature data of a polynomial connection")
    p.add_argument("--at", type=coordinates, metavar="X1,...",
                   help="evaluation point (default origin)")
    p.add_argument("--curvature", action="store_true", help="emit curvature polynomials")
    p.add_argument("--nabla-r", action="store_true", help="emit covariant-derivative polynomials")
    p.add_argument("--ricci", action="store_true", help="emit Ricci split polynomials")
    p.add_argument("--model-out", metavar="FILE", help="write the model at --at here")
    p.add_argument("--jordan-at", type=coordinates, metavar="V1,...",
                   help="Jordan data of the reduced Jacobi operator at this direction")
    p.add_argument("--geodesic", nargs=2, metavar=("X0", "V0"),
                   help="integrate a geodesic from comma-separated state")
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("extend", parents=[common, seed, tol, source],
                       help="cotangent-metric checks over an affine base")
    p.add_argument("--kind", choices=("deformed", "modified"), default="deformed")
    p.add_argument("--point", type=coordinates, metavar="X1,...,Y1,...",
                   help="evaluation point on the cotangent bundle (2m components)")
    p.add_argument("--vectors", type=int, default=10,
                   help="sampled vectors of each causal character")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("symm", parents=[common, tol], help="curvature symmetry defects")
    p.add_argument("model", help="model JSON file")
    p.set_defaults(func=_cmd_symm)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        # ValueError covers UsageError and json.JSONDecodeError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # EigensolverError and InconsistencyError too
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL


def run():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
