"""Affine connections with exact polynomial Christoffel symbols.

Curvature, its covariant derivative, and the Ricci decomposition are
computed symbolically over the rationals, so the structural identities
(antisymmetry, the cyclic identity, vanishing loci) can be asserted as
exact zero polynomials.  Numerical work (Jacobi spectra, geodesics)
happens after evaluating at a point.

Index conventions, with d_i the coordinate fields:

    R(d_i, d_j) d_k = sum_l R[i, j, k, l] d_l,
    R_ijk^l = d_i G_jk^l - d_j G_ik^l + G_in^l G_jk^n - G_jn^l G_ik^n,

where G_ij^k is the symbol gamma[i, j, k].  The covariant derivative is
nabla[i, j, k, n, l] for (grad_{d_n} R)(d_i, d_j) d_k.

Every table is a read-only map from index tuple to nonzero Polynomial; an
absent key is zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import classifier
from .polynomials import CompiledTable, Polynomial, parse_polynomial, polynomial_to_string
from .tensor_core import CurvatureTensor

__all__ = [
    "PolyConnection",
    "PolyCurvature",
    "SurfaceVerdict",
    "GeodesicResult",
    "curvature",
    "curvature_at",
    "nabla_R",
    "ricci_split",
    "surface_projective_osserman",
    "curvature_homogeneous_connection",
    "plane_wave_connection",
    "flat_connection",
    "geodesic_integrate",
    "connection_to_json_dict",
    "connection_from_json_dict",
    "save_connection",
    "load_connection",
]


class PolyConnection:
    """Torsion-free connection: gamma maps (i, j, k) to the nonzero d_k
    coefficient of the covariant derivative of d_j along d_i, a Polynomial
    in as many variables as the dimension, keys in lexicographic order.

    `symbols` is a {(i, j, k): Polynomial | rational} map; zero values are
    dropped and (j, i, k) must hold the same symbol as (i, j, k)."""

    __slots__ = ("dim", "gamma", "_evaluator")

    def __init__(self, dim, symbols):
        dim = int(dim)
        if dim < 1:
            raise ValueError("need dim >= 1")
        gamma = {}
        for (i, j, k), p in sorted(symbols.items()):
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError("index %d out of range in key %r" % (idx, (i, j, k)))
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(p, dim)
            if p.nvars != dim:
                raise ValueError(
                    "symbol (%d,%d,%d) has %d variables, expected %d"
                    % (i, j, k, p.nvars, dim)
                )
            if p:
                gamma[i, j, k] = p
        bad = [(min(i, j), max(i, j), k) for (i, j, k), p in gamma.items()
               if gamma.get((j, i, k)) != p]
        if bad:
            i, j, k = min(bad)
            raise ValueError(
                "torsion: symbol (%d,%d,%d) differs from (%d,%d,%d)" % (i, j, k, j, i, k)
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gamma", MappingProxyType(gamma))
        object.__setattr__(self, "_evaluator", CompiledTable(gamma, (dim,) * 3, dim))

    def __setattr__(self, name, value):
        raise AttributeError("PolyConnection is immutable")

    def christoffel(self, i, j, k):
        return self.gamma.get((i, j, k), Polynomial.zero(self.dim))

    def gamma_at(self, point):
        """Numeric symbol array gamma[i, j, k] at a point."""
        return self._evaluator(point)

    def symbol_rows(self):
        """rows[i][j]: the pairs (k, G_ij^k) with a nonzero symbol, k ascending."""
        rows = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, k), p in self.gamma.items():
            rows[i][j].append((k, p))
        return rows


def connection_from_symbols(dim, symbols):
    """Build from a sparse {(i, j, k): Polynomial|rational} map; the (i, j)
    symmetric closure is applied automatically."""
    table = {}
    for (i, j, k), value in symbols.items():
        table[i, j, k] = table[j, i, k] = value
    return PolyConnection(dim, table)


@dataclass(frozen=True)
class PolyCurvature:
    """Rank-4 polynomial curvature map riemann[i, j, k, l], optionally with
    its covariant derivative nabla[i, j, k, n, l] attached (see nabla_R)."""

    dim: int
    riemann: MappingProxyType
    nabla: MappingProxyType | None = None

    def entry(self, i, j, k, l):
        return self.riemann.get((i, j, k, l), Polynomial.zero(self.dim))

    @cached_property
    def _evaluator(self):
        """The entries keyed by their raveled C-order index, ascending:
        `curvature` inserts R[i, j, k, l] next to R[j, i, k, l], out of
        key order."""
        m = self.dim
        flat = {((i * m + j) * m + k) * m + l: p for (i, j, k, l), p in self.riemann.items()}
        return CompiledTable(dict(sorted(flat.items())), (m ** 4,), m)

    def evaluate_at(self, point):
        """The numeric curvature tensor at a point, made from the nonzero
        list with no m^4 array."""
        table = self._evaluator
        values = dict(table.values(table.check_point(point)))
        return CurvatureTensor(self.dim, np.fromiter(values, np.intp, len(values)),
                               list(values.values()))

    def evaluate_exact(self, point):
        """{(i, j, k, l): Fraction} of the entries that are nonzero at an
        exact rational point."""
        point = [Fraction(v) for v in point]
        if len(point) != self.dim:
            raise ValueError("point has %d components, expected %d" % (len(point), self.dim))
        values = ((key, p(point)) for key, p in self.riemann.items())
        return MappingProxyType({key: v for key, v in values if v})


def curvature(C, with_nabla=False):
    """Exact polynomial curvature of a torsion-free connection.

    Antisymmetry in the first two slots and the cyclic identity are
    verified as exact zero polynomials before returning.
    """
    m = C.dim
    rows = C.symbol_rows()
    zero = Polynomial.zero(m)
    R = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                # d_i G_jk^l - d_j G_ik^l over the nonzero symbols only
                acc = [zero] * m
                for l, p in rows[j][k]:
                    acc[l] = p.diff(i)
                for l, p in rows[i][k]:
                    acc[l] = acc[l] - p.diff(j)
                # sum_n G_in^l G_jk^n - G_jn^l G_ik^n over nonzero pairs only
                for n, b in rows[j][k]:
                    for l, a in rows[i][n]:
                        acc[l] = acc[l] + a * b
                for n, b in rows[i][k]:
                    for l, a in rows[j][n]:
                        acc[l] = acc[l] - a * b
                for l, p in enumerate(acc):
                    if p:
                        R[i, j, k, l] = p
                        R[j, i, k, l] = -p
    # R[j, i] = -R[i, j] and R[i, i] = 0 exactly, so the cyclic sum is
    # invariant under rotation, changes sign under a swap and vanishes when
    # two indices coincide: i < j < k covers every (i, j, k).
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for l in range(m):
                    cyc = (R.get((i, j, k, l), zero) + R.get((j, k, i, l), zero)
                           + R.get((k, i, j, l), zero))
                    if not cyc.is_zero:
                        raise RuntimeError(
                            "cyclic identity violated at (%d,%d,%d,%d)" % (i, j, k, l)
                        )
    nabla = _covariant_derivative(C, R) if with_nabla else None
    return PolyCurvature(m, MappingProxyType(R), nabla)


def _covariant_derivative(C, R):
    """nabla[i, j, k, n, l] = d_n R_ijk^l + G_np^l R_ijk^p - G_ni^p R_pjk^l
    - G_nj^p R_ipk^l - G_nk^p R_ijp^l, summed over the nonzero pairs.  It is
    antisymmetric in (i, j) because R is, so only i < j is computed."""
    m = C.dim
    rows = C.symbol_rows()
    Rrows = {}  # (i, j, k) -> [(l, R_ijk^l), ...], l ascending as curvature stores it
    for (i, j, k, l), r in R.items():
        Rrows.setdefault((i, j, k), []).append((l, r))
    zero = Polynomial.zero(m)
    NR = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                for n in range(m):
                    acc = [zero] * m
                    for l, r in Rrows.get((i, j, k), ()):
                        acc[l] = r.diff(n)
                    for p, r in Rrows.get((i, j, k), ()):
                        for l, a in rows[n][p]:
                            acc[l] = acc[l] + a * r
                    for p, a in rows[n][i]:
                        for l, r in Rrows.get((p, j, k), ()):
                            acc[l] = acc[l] - a * r
                    for p, a in rows[n][j]:
                        for l, r in Rrows.get((i, p, k), ()):
                            acc[l] = acc[l] - a * r
                    for p, a in rows[n][k]:
                        for l, r in Rrows.get((i, j, p), ()):
                            acc[l] = acc[l] - a * r
                    for l, q in enumerate(acc):
                        if q:
                            NR[i, j, k, n, l] = q
                            NR[j, i, k, n, l] = -q
    return MappingProxyType(NR)


def nabla_R(C):
    """Rank-5 map nabla[i, j, k, n, l] of the covariant derivative of the
    curvature: the l-component of (grad_{d_n} R)(d_i, d_j) d_k."""
    return curvature(C, with_nabla=True).nabla


def curvature_at(C, point):
    """Curvature tensor evaluated numerically at a point."""
    return curvature(C).evaluate_at(point)


def _as_curvature(source):
    return source if isinstance(source, PolyCurvature) else curvature(source)


def ricci_split(source):
    """(symmetric, antisymmetric) parts of the Ricci tensor
    rho_jk = sum_l R_ljk^l, each a {(j, k): Polynomial} map.

    `source` is a connection or its already computed PolyCurvature."""
    curv = _as_curvature(source)
    R = curv.riemann
    m = curv.dim
    zero = Polynomial.zero(m)
    rho = {}
    for j in range(m):
        for k in range(m):
            total = zero
            for l in range(m):
                total = total + R.get((l, j, k, l), zero)
            rho[j, k] = total
    half = Fraction(1, 2)
    sym, alt = {}, {}
    for j, k in rho:
        for part, p in ((sym, half * (rho[j, k] + rho[k, j])),
                        (alt, half * (rho[j, k] - rho[k, j]))):
            if p:
                part[j, k] = p
    return MappingProxyType(sym), MappingProxyType(alt)


@dataclass(frozen=True)
class SurfaceVerdict:
    """Definiteness of the symmetric Ricci part at a point versus the
    sampled spectral verdict for the curvature there."""

    definite: bool
    ricci_symmetric: tuple  # 2x2 floats
    sampled_status: str
    agrees: bool

    def to_json_dict(self):
        return {
            "definite": self.definite,
            "ricci_symmetric": [[float(v) for v in row] for row in self.ricci_symmetric],
            "sampled_status": self.sampled_status,
            "agrees": self.agrees,
        }


def surface_projective_osserman(source, point, n_samples=64, seed=0, tol=1e-8):
    """Surface criterion: a 2-dimensional connection is projective affine
    Osserman exactly when the symmetric Ricci part is definite.
    `source` is the connection or its already computed PolyCurvature.

    Definiteness is decided exactly (rational determinant), then
    cross-checked against the sampled-spectrum verdict at the same point.
    When the form is degenerate but nonzero, its exact null direction is
    added to the probe set: the spectrum collapses only on that line,
    which random directions almost surely miss.
    """
    if source.dim != 2:
        raise ValueError("the Ricci criterion is for surfaces (dim 2)")
    curv = _as_curvature(source)
    sym, _ = ricci_split(curv)
    pt = [Fraction(v) for v in point]
    vals = [[sym[j, k](pt) if (j, k) in sym else Fraction(0) for k in range(2)]
            for j in range(2)]
    det = vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0]
    definite = det > 0
    extra = ()
    if det == 0:
        a, b, c = vals[0][0], vals[0][1], vals[1][1]
        if a != 0:
            extra = ((float(-b), float(a)),)
        elif c != 0:
            # det == 0 with a == 0 forces b == 0, so e1 is null
            extra = ((1.0, 0.0),)
    verdict = classifier.is_projective_affine_osserman(
        curv.evaluate_at([float(v) for v in pt]), n_samples=n_samples, seed=seed,
        tol=tol, extra_directions=extra,
    )
    agrees = definite == (verdict.status == classifier.PROJECTIVE)
    ricci = tuple(tuple(float(v) for v in row) for row in vals)
    return SurfaceVerdict(definite, ricci, verdict.status, agrees)


# -- built-in connections -------------------------------------------------


def flat_connection(m):
    return PolyConnection(m, {})


def curvature_homogeneous_connection(m, eps=0):
    """Family on R^m with constant curvature entries.

    Nonzero symbols, writing d for the last index m:

        G_dd^d = 2,  G_id^i = G_di^i = 1,  G_ii^d = 1   (i < d),
        G_11^1 = eps*(x1 + x2),  G_22^2 = -eps*(x1 + x2).

    At eps = 0 the curvature is the constant-sectional-curvature model.
    The eps perturbation needs m >= 3: at m = 2 the perturbed symbols
    would collide with the base ones, so eps must then be zero.
    """
    eps = Fraction(eps)
    if m < 2:
        raise ValueError("need m >= 2")
    if m == 2 and eps != 0:
        raise ValueError("the eps-perturbed family needs m >= 3")
    last = m - 1
    symbols = {(last, last, last): Polynomial.constant(2, m)}
    for i in range(last):
        symbols[(i, last, i)] = Polynomial.constant(1, m)
        symbols[(i, i, last)] = Polynomial.constant(1, m)
    if eps:
        linear = Polynomial.variable(0, m) + Polynomial.variable(1, m)
        symbols[(0, 0, 0)] = eps * linear
        symbols[(1, 1, 1)] = -eps * linear
    return connection_from_symbols(m, symbols)


def plane_wave_connection():
    """Three-dimensional wave-type connection with the single symbol
    G_11^3 = x2; every Jacobi operator of its curvature squares to zero."""
    return connection_from_symbols(3, {(0, 0, 2): Polynomial.variable(1, 3)})


# -- geodesics ------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicResult:
    times: tuple
    positions: tuple
    velocities: tuple
    blew_up: bool
    blow_up_time: float | None

    @property
    def final_position(self):
        return np.asarray(self.positions[-1])

    @property
    def final_velocity(self):
        return np.asarray(self.velocities[-1])

    def to_json_dict(self):
        return {
            "blew_up": self.blew_up,
            "blow_up_time": None if self.blow_up_time is None else float(self.blow_up_time),
            "t_final": float(self.times[-1]),
            "x_final": [float(v) for v in self.positions[-1]],
            "v_final": [float(v) for v in self.velocities[-1]],
            "steps": len(self.times) - 1,
        }


_BLOWUP_SPEED = 1e8
# A step is retried at half size when the speed at one of its stages
# exceeds this multiple of the speed at its start.
_STEP_GROWTH = 2.0
# A run stops once its last _STALL_STEPS steps together advanced less than
# one `step`: near a singularity the step can hover far above its floor.
# The stop is a blow-up if the speed grew more than _STALL_GROWTH-fold over
# those steps; a stiff but bounded run can nearly triple its speed there.
_STALL_STEPS = 4096
_STALL_GROWTH = 4.0


def _norm_sq(w):
    s = 0.0
    for a in w:
        s += a * a
    return s


def _near(a, b):
    """Whether a and b are close enough that numpy's dot, whose summation
    may fuse multiply-adds, could order them the other way."""
    return abs(a - b) <= 1e-9 * max(a, b)


def _within_growth(w, vel, limit):
    """w @ w <= _STEP_GROWTH^2 (vel @ vel) as numpy decides it, where
    `limit` is the right-hand side from plain sums."""
    s = _norm_sq(w)
    if _near(s, limit):
        w, vel = np.asarray(w), np.asarray(vel)
        return bool(w @ w <= _STEP_GROWTH**2 * (vel @ vel))
    return s <= limit


def geodesic_integrate(C, x0, v0, t_max, step=1e-3):
    """Classical fourth-order Runge-Kutta for x'' + G(x)(x', x') = 0.

    A step is taken again at half its size while its result is not finite
    or the speed at one of its four stages exceeds twice the speed at its
    start; the next step may then double again, up to `step`.  Near a
    blow-up the step therefore shrinks ahead of the pole instead of
    jumping past it.  The geodesic is reported as blowing up when the
    speed passes 1e8 or the step falls below step * 2^-45, at the end of
    the last accepted step.  For the pole of v' = -2 v^2 that time is
    within one step of the pole (in practice within 1 % of a step).  Where
    the speed grows by less than that factor within every step, as on
    bounded runs at a resolving step size, every step is one plain RK4
    step of the given size.  A run also stops once its last 4096 steps
    together advanced t by less than `step`: as a blow-up at that time if
    the speed more than quadrupled over them, else unblown short of t_max,
    since the step no longer resolves the motion.

    The loop runs on Python floats over the values of the connection's
    compiled symbols, `C._evaluator.values`, so a step costs O(terms), not
    O(m^3).  The acceleration sums (G_ij^k v_i) v_j over (i, j) in
    lexicographic order, as einsum does over `gamma_at`, so its results
    are bit for bit those of a numpy integrator built on `gamma_at` and
    einsum.  The squared speeds of the growth and blow-up tests are plain
    sums; within rounding of a tie numpy's dot decides, as it did there.
    """
    m = C.dim
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    if x.shape != (m,) or v.shape != (m,):
        raise ValueError("state must have %d components" % m)
    if not all(value > 0 and math.isfinite(value) for value in (t_max, step)):
        raise ValueError("t_max and step must be positive and finite")

    symbols = C._evaluator

    def accel(pos, vel):
        out = [0.0] * m
        # keys ascend lexicographically, so each out[k] sums over (i, j) in order
        for (i, j, k), g in symbols.values(pos):
            out[k] += g * vel[i] * vel[j]
        return [-s for s in out]

    def rk4(pos, vel, h):
        """One step, and whether no stage sped up past the growth limit
        (false as well for a non-finite stage)."""
        hh = 0.5 * h
        k1v = accel(pos, vel)
        k2x = [a + hh * b for a, b in zip(vel, k1v)]
        k2v = accel([a + hh * b for a, b in zip(pos, vel)], k2x)
        k3x = [a + hh * b for a, b in zip(vel, k2v)]
        k3v = accel([a + hh * b for a, b in zip(pos, k2x)], k3x)
        k4x = [a + h * b for a, b in zip(vel, k3v)]
        k4v = accel([a + h * b for a, b in zip(pos, k3x)], k4x)
        h6 = h / 6.0
        new_pos = [a + h6 * (((b + 2.0 * c) + 2.0 * d) + e)
                   for a, b, c, d, e in zip(pos, vel, k2x, k3x, k4x)]
        new_vel = [a + h6 * (((b + 2.0 * c) + 2.0 * d) + e)
                   for a, b, c, d, e in zip(vel, k1v, k2v, k3v, k4v)]
        limit = _STEP_GROWTH**2 * _norm_sq(vel)
        ok = all(_within_growth(w, vel, limit) for w in (k2x, k3x, k4x, new_vel))
        return new_pos, new_vel, ok and all(map(math.isfinite, new_pos))

    x = tuple(x.tolist())
    v = tuple(v.tolist())
    times = [0.0]
    positions = [x]
    velocities = [v]
    t = 0.0
    h = step
    blew_up = False
    blow_time = None
    min_step = step * 2.0**-45
    speed_sq = _BLOWUP_SPEED**2
    while t < t_max - 1e-15:
        h = min(step, 2.0 * h, t_max - t)
        while True:
            nx, nv, ok = rk4(x, v, h)
            if ok:
                break
            h *= 0.5
            if h < min_step:
                blew_up = True
                blow_time = t
                break
        if blew_up:
            break
        x, v = tuple(nx), tuple(nv)
        t += h
        times.append(t)
        positions.append(x)
        velocities.append(v)
        s = _norm_sq(v)
        if (np.linalg.norm(v) >= _BLOWUP_SPEED if _near(s, speed_sq)
                else s >= speed_sq):
            blew_up = True
            blow_time = t
            break
        if (len(times) > _STALL_STEPS and t - times[-_STALL_STEPS - 1] < step
                and t < t_max - 1e-15):
            blew_up = s > _STALL_GROWTH**2 * _norm_sq(velocities[-_STALL_STEPS - 1])
            blow_time = t if blew_up else None
            break
    return GeodesicResult(tuple(times), tuple(positions), tuple(velocities), blew_up, blow_time)


# -- JSON connection files ------------------------------------------------


def connection_to_json_dict(C):
    """{"dim": m, "gamma": {"i,j,k": "<polynomial>"}} with 0-based indices;
    only the i <= j representative of each symmetric pair is stored."""
    out = {"%d,%d,%d" % key: polynomial_to_string(p)
           for key, p in C.gamma.items() if key[0] <= key[1]}
    return {"dim": C.dim, "gamma": out}


def connection_from_json_dict(data):
    """Inverse of connection_to_json_dict.  `dim` must be a positive JSON
    integer and `gamma` an object whose keys are "i,j,k" with indices in
    range(dim) and whose values are polynomial strings; anything else
    raises ValueError."""
    try:
        dim = data["dim"]
        raw = data["gamma"]
    except (KeyError, TypeError) as exc:
        raise ValueError("connection JSON needs 'dim' and 'gamma'") from exc
    if type(dim) is not int or dim < 1:
        raise ValueError("connection JSON 'dim' must be a positive integer, got %r" % (dim,))
    if not isinstance(raw, dict):
        raise ValueError("connection JSON 'gamma' must be an object, got %s"
                         % type(raw).__name__)
    filled = {}
    for key, text in raw.items():
        if not isinstance(text, str):
            raise ValueError("symbol %r must be a polynomial string, got %r" % (key, text))
        try:
            i, j, k = (int(p) for p in key.split(","))
        except ValueError as exc:
            raise ValueError("bad symbol key %r; expected 'i,j,k'" % key) from exc
        for idx in (i, j, k):
            if not 0 <= idx < dim:
                raise ValueError("index %d out of range in key %r" % (idx, key))
        poly = parse_polynomial(text, dim)
        if (i, j, k) in filled and filled[(i, j, k)] != poly:
            raise ValueError("conflicting symbols for (%d,%d,%d)" % (i, j, k))
        filled[(i, j, k)] = poly
        if (j, i, k) in filled and filled[(j, i, k)] != poly:
            raise ValueError(
                "asymmetric symbols for (%d,%d,%d) vs (%d,%d,%d)" % (i, j, k, j, i, k)
            )
    return connection_from_symbols(dim, filled)


def save_connection(C, path):
    with open(path, "w") as fh:
        json.dump(connection_to_json_dict(C), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_connection(path):
    with open(path) as fh:
        return connection_from_json_dict(json.load(fh))
