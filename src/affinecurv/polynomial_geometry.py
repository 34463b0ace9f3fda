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
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import classifier
from .polynomials import (CompiledTable, Polynomial, add_derivatives, add_product, add_products,
                          add_to, check_exponents, exact_values, nonzero_map, numerator_values,
                          parse_polynomial, polynomial_to_string, table_numerators)
from .tensor_core import CurvatureTensor

__all__ = [
    "PolyConnection",
    "PolyCurvature",
    "SurfaceVerdict",
    "GeodesicResult",
    "connection_from_symbols",
    "curvature",
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

    def __init__(self, dim, symbols):
        dim = int(dim)
        if dim < 1:
            raise ValueError("need dim >= 1")
        gamma = nonzero_map(symbols, dim, dim)
        bad = [(min(i, j), max(i, j), k) for (i, j, k), p in gamma.items()
               if gamma.get((j, i, k)) != p]
        if bad:
            i, j, k = min(bad)
            raise ValueError(
                "torsion: symbol (%d,%d,%d) differs from (%d,%d,%d)" % (i, j, k, j, i, k)
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gamma", MappingProxyType(gamma))

    def __setattr__(self, name, value):
        raise AttributeError("PolyConnection is immutable")

    @cached_property
    def _evaluator(self):
        return CompiledTable(self.gamma, (self.dim,) * 3, self.dim)

    def christoffel(self, i, j, k):
        return self.gamma.get((i, j, k), Polynomial.zero(self.dim))

    def gamma_at(self, point):
        """Numeric symbol array gamma[i, j, k] at a point."""
        return self._evaluator(point)

    @cached_property
    def symbol_rows(self):
        """(rows, den): rows[i][j] holds the pairs (k, numerators of G_ij^k)
        with a nonzero symbol, k ascending, every symbol over the one
        denominator den (see polynomials.table_numerators).  Built on first
        read and kept, since the Levi-Civita check, the curvature and its
        covariant derivative of one connection all read it: read the rows
        and do not change them."""
        numerators, den = table_numerators(self.gamma)
        rows = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, k), p in numerators.items():
            rows[i][j].append((k, p))
        return rows, den


def connection_from_symbols(dim, symbols):
    """Build from a sparse {(i, j, k): Polynomial|rational} map; the (i, j)
    symmetric closure is applied automatically."""
    table = {}
    for (i, j, k), value in symbols.items():
        table[i, j, k] = table[j, i, k] = value
    return PolyConnection(dim, table)


@dataclass(frozen=True, eq=False)
class PolyCurvature:
    """Rank-4 polynomial curvature of `connection`, as `curvature` formed it.

    `numerators` maps (i, j, k) with i < j to {l: numerators of R_ijk^l},
    l ascending, every entry over the one denominator `den` and not
    reduced (integer kernel dicts; read them and do not change them).
    `riemann`, the read-only {(i, j, k, l): Polynomial} map of the nonzero
    entries, is built from them on first read: R[i, j, k, l] and then
    R[j, i, k, l] = -R[i, j, k, l] for each numerator in that order, the
    polynomials and the order an eager build would give.  The checks of
    `curvature` have all run before a PolyCurvature exists.  Evaluation at
    a point, float (`evaluate_at`) or exact (`integer_values`,
    `evaluate_exact`), reads the numerators and builds no Polynomial.  Two
    curvatures are equal when their `riemann` maps are."""

    dim: int
    numerators: MappingProxyType = field(repr=False)
    den: int
    connection: PolyConnection = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, PolyCurvature):
            return NotImplemented
        return self.dim == other.dim and self.riemann == other.riemann

    @cached_property
    def riemann(self):
        """The {(i, j, k, l): Polynomial} map, built on first read (see the
        class docstring)."""
        m, den = self.dim, self.den
        R = {}
        for (i, j, k), row in self.numerators.items():
            for l, p in row.items():
                R[i, j, k, l] = r = Polynomial.from_numerators(m, p, den)
                R[j, i, k, l] = -r
        return MappingProxyType(R)

    def entry(self, i, j, k, l):
        return self.riemann.get((i, j, k, l), Polynomial.zero(self.dim))

    @cached_property
    def _evaluator(self):
        """A CompiledTable of the i < j entries R[i, j, k, l] over `den`, in
        numerator order, each keyed by the pair of its raveled C-order index
        and that of its (j, i) negation; only `values` reads it."""
        m = self.dim
        table = {(((i * m + j) * m + k) * m + l, ((j * m + i) * m + k) * m + l): p
                 for (i, j, k), row in self.numerators.items() for l, p in row.items()}
        return CompiledTable(table, (m,) * 4, m, den=self.den)

    def evaluate_at(self, point):
        """The numeric curvature tensor at a point, made from the nonzero
        list with no m^4 array.  Each i < j entry is evaluated once and its
        (j, i) entry is the exact negation: int / int rounds the unreduced
        quotient c / den as the reduced one, and IEEE negation is exact,
        so every bit but a NaN's sign is the one `riemann` would give."""
        table = self._evaluator
        values = {}
        for (upper, lower), value in table.values(table.check_point(point)):
            values[upper] = value
            values[lower] = -value
        keys = sorted(values)
        return CurvatureTensor(self.dim, np.array(keys, dtype=np.intp),
                               [values[key] for key in keys])

    def integer_values(self, point):
        """({(i, j, k, l): int}, den) of the entries that are nonzero at an
        exact rational point, as polynomials.integer_values(riemann, point,
        dim) gives them, keys in `riemann` order: each i < j numerator is
        evaluated once and its (j, i) entry is the negation."""
        flat = {(i, j, k, l): p for (i, j, k), row in self.numerators.items()
                for l, p in row.items()}
        half, den = numerator_values(flat, self.den, point, self.dim)
        values = {}
        for (i, j, k, l), v in half.items():
            values[i, j, k, l] = v
            values[j, i, k, l] = -v
        return values, den

    def evaluate_exact(self, point):
        """{(i, j, k, l): Fraction} of the entries that are nonzero at an
        exact rational point."""
        values, den = self.integer_values(point)
        return MappingProxyType({key: Fraction(v, den) for key, v in values.items()})

    @cached_property
    def nabla(self):
        """Rank-5 map nabla[i, j, k, n, l] of the covariant derivative of
        the curvature: the l-component of (grad_{d_n} R)(d_i, d_j) d_k."""
        return _covariant_derivative(self.connection, self.riemann)


def curvature(C):
    """Exact polynomial curvature of a torsion-free connection.

    With the symbols over one denominator D, every entry R_ijk^l with
    i < j is accumulated in place as integer numerators over D^2 (see
    polynomials.add_product), which the PolyCurvature keeps as they are;
    antisymmetry in the first two slots holds by construction.  On every
    call, before returning, each entry's exponents are checked against the
    guard bits of their fields and the cyclic identity is verified as an
    exact zero polynomial.  No Polynomial is made here: `riemann` is built
    from the numerators on first read.
    """
    m = C.dim
    rows, D = C.symbol_rows
    numerators = {}  # (i, j, k) -> {l: numerators of R_ijk^l over D^2}, i < j
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                if not (rows[j][k] or rows[i][k]):
                    continue  # every sum below runs over one of them
                # d_i G_jk^l - d_j G_ik^l over the nonzero symbols only; an
                # accumulator is made when a first term lands in it
                acc = defaultdict(dict)
                add_derivatives(acc, rows[j][k], i, D)
                add_derivatives(acc, rows[i][k], j, -D)
                # sum_n G_in^l G_jk^n - G_jn^l G_ik^n over nonzero pairs only
                for n, b in rows[j][k]:
                    if row := rows[i][n]:
                        add_products(acc, row, b, 1)
                for n, b in rows[i][k]:
                    if row := rows[j][n]:
                        add_products(acc, row, b, -1)
                numerators[i, j, k] = {l: acc[l] for l in sorted(acc) if acc[l]}
    check_exponents([p for row in numerators.values() for p in row.values()], m)
    # R[j, i] = -R[i, j] and R[i, i] = 0 exactly, so the cyclic sum is
    # invariant under rotation, changes sign under a swap and vanishes when
    # two indices coincide: i < j < k covers every (i, j, k), and
    # R_kij^l = -R_ikj^l.
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                cyc = defaultdict(dict)  # l -> the exact cyclic sum, made on a first term
                for key, sign in (((i, j, k), 1), ((j, k, i), 1), ((i, k, j), -1)):
                    for l, p in numerators.get(key, {}).items():
                        add_to(cyc[l], p, sign)
                bad = [l for l, p in cyc.items() if p]
                if bad:
                    raise RuntimeError(
                        "cyclic identity violated at (%d,%d,%d,%d)" % (i, j, k, min(bad))
                    )
    return PolyCurvature(m, MappingProxyType(numerators), D * D, C)


def _covariant_derivative(C, R):
    """nabla[i, j, k, n, l] = d_n R_ijk^l + G_np^l R_ijk^p - G_ni^p R_pjk^l
    - G_nj^p R_ipk^l - G_nk^p R_ijp^l, summed over the nonzero pairs.  It is
    antisymmetric in (i, j) because R is, so only i < j is computed.  With
    the symbols over D and R over E, the entries are accumulated as integer
    numerators over D E."""
    m = C.dim
    rows, D = C.symbol_rows
    numerators, E = table_numerators(R)
    Rrows = {}  # (i, j, k) -> [(l, R_ijk^l), ...], l ascending as curvature stores it
    for (i, j, k, l), r in numerators.items():
        Rrows.setdefault((i, j, k), []).append((l, r))
    NR = {}
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                own = Rrows.get((i, j, k), ())
                for n in range(m):
                    if not (own or rows[n][i] or rows[n][j] or rows[n][k]):
                        continue  # every sum below runs over one of them
                    acc = defaultdict(dict)  # l -> numerators, made when a term lands
                    add_derivatives(acc, own, n, D)
                    for p, r in own:
                        add_products(acc, rows[n][p], r, 1)
                    for p, a in rows[n][i]:
                        for l, r in Rrows.get((p, j, k), ()):
                            add_product(acc[l], a, r, -1)
                    for p, a in rows[n][j]:
                        for l, r in Rrows.get((i, p, k), ()):
                            add_product(acc[l], a, r, -1)
                    for p, a in rows[n][k]:
                        for l, r in Rrows.get((i, j, p), ()):
                            add_product(acc[l], a, r, -1)
                    for l in sorted(acc):
                        if q := acc[l]:
                            NR[i, j, k, n, l] = nr = Polynomial.from_numerators(m, q, D * E)
                            NR[j, i, k, n, l] = -nr
    return MappingProxyType(NR)


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
    When the form is degenerate but nonzero, the spectrum collapses only
    on its null line, which random directions almost surely miss; the
    sampled verdict's Ricci-form gate sees it, since the reduced Jacobi
    operator of a surface is the number tr J_X = Ric(X, X).
    """
    if source.dim != 2:
        raise ValueError("the Ricci criterion is for surfaces (dim 2)")
    curv = _as_curvature(source)
    sym, _ = ricci_split(curv)
    exact = exact_values(sym, point, 2)
    vals = [[exact.get((j, k), Fraction(0)) for k in range(2)] for j in range(2)]
    det = vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0]
    definite = det > 0
    verdict = classifier.is_projective_affine_osserman(
        curv.evaluate_at([float(Fraction(v)) for v in point]), n_samples=n_samples, seed=seed,
        tol=tol,
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


def _step_source(table, m):
    """Python source of `step(pos, vel, h)`: one RK4 step of
    x'' + G(x)(x', x') = 0 for the symbols `table`, a CompiledTable over
    (i, j, k) keys.  It returns the new position and velocity as tuples,
    the new velocity's squared speed, and whether no stage sped up past
    the growth limit (false as well for a non-finite stage) and the new
    position is finite.

    The code is straight-line: the four stages unrolled over the m
    components, powers as repeated products (x1_0_3 = x1_0_2 * x1_0), one
    statement g = g + term per term, and o_k += g * v_i * v_j for each
    entry in key order.  These are the float operations of `table.values`
    and of the acceleration sum over (i, j) in lexicographic order, in the
    same order, so every result has their bits.  The squared speeds of the
    growth test are plain sums 0.0 + c_0 * c_0 + ..., left to right,
    written out like the rest.  Only generated names, `isfinite` and
    float.__repr__ literals appear in the source.  The names: x<s>_<i> and
    v<s>_<i> are the position and velocity at stage s, x<s>_<i>_<e> a
    power, a<s>_<i> the acceleration, g a symbol's value, o<k> a sum,
    y<i>, w<i> the new position and velocity, s the new squared speed and
    limit the largest squared speed a stage may reach."""
    def row(fmt):
        """The m components as 'fmt % 0, fmt % 1, ...,', a tuple display."""
        return "".join(fmt % i + ", " for i in range(m)).rstrip()

    def norm_sq(fmt):
        """The plain sum 0.0 + c_0 * c_0 + c_1 * c_1 + ..., left to right."""
        return "0.0" + "".join(" + %s * %s" % (fmt % i, fmt % i) for i in range(m))

    def power(s, var, e):
        return "x%d_%d" % (s, var) + ("_%d" % e if e > 1 else "")

    lines = ["def step(pos, vel, h):",
             "    %s = pos" % row("x1_%d"),
             "    %s = vel" % row("v1_%d"),
             "    hh = 0.5 * h"]
    put = lines.append
    for s in (1, 2, 3, 4):
        if s > 1:
            # stage s starts from (x1, v1) along the slopes of stage s - 1
            size = "hh" if s < 4 else "h"
            for i in range(m):
                put("    x%d_%d = x1_%d + %s * v%d_%d" % (s, i, i, size, s - 1, i))
                put("    v%d_%d = v1_%d + %s * a%d_%d" % (s, i, i, size, s - 1, i))
        for var in range(m):
            for e in range(2, table.degree + 1):
                put("    %s = %s * %s" % (power(s, var, e), power(s, var, e - 1),
                                         power(s, var, 1)))
        for k in range(m):
            put("    o%d = 0.0" % k)
        for (i, j, k), start, terms in table.entries:
            g = repr(start)
            for coeff, factors in terms:
                put("    g = %s + %r%s" % (g, coeff, "".join(" * " + power(s, var, e)
                                                          for var, e in factors)))
                g = "g"
            put("    o%d += %s * v%d_%d * v%d_%d" % (k, g, s, i, s, j))
        for k in range(m):
            put("    a%d_%d = -o%d" % (s, k, k))
    put("    h6 = h / 6.0")
    for i in range(m):
        # left to right, as ((b + 2c) + 2d) + e
        put("    y%d = x1_%d + h6 * (v1_%d + 2.0 * v2_%d + 2.0 * v3_%d + v4_%d)" % ((i,) * 6))
        put("    w%d = v1_%d + h6 * (a1_%d + 2.0 * a2_%d + 2.0 * a3_%d + a4_%d)" % ((i,) * 6))
    put("    limit = %r * (%s)" % (_STEP_GROWTH**2, norm_sq("v1_%d")))
    put("    s = %s" % norm_sq("w%d"))
    put("    ok = %s" % " and ".join(
        ["(%s) <= limit" % norm_sq(fmt) for fmt in ("v2_%d", "v3_%d", "v4_%d")]
        + ["s <= limit"] + ["isfinite(y%d)" % i for i in range(m)]))
    put("    return (%s), (%s), s, ok" % (row("y%d"), row("w%d")))
    return "\n".join(lines) + "\n"


def _compile_step(C):
    """The generated RK4 step of the connection C (see _step_source)."""
    namespace = {"isfinite": math.isfinite}
    exec(compile(_step_source(C._evaluator, C.dim), "<geodesic step>", "exec"), namespace)
    return namespace["step"]


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

    Each call compiles one step for the connection (`_step_source`): the
    symbols `C._evaluator` and the four RK4 stages become one generated
    straight-line Python function, so a step costs O(terms), not O(m^3),
    and interprets no table.  Compiling costs about as much as a few hundred
    evaluations through `CompiledTable.values`, which is why the one-shot
    paths (`gamma_at`, `evaluate_at`, `gram_at`) are not compiled.  The
    acceleration sums (G_ij^k v_i) v_j over (i, j) in lexicographic order,
    as einsum does over `gamma_at`, so its results are bit for bit those
    of a numpy integrator built on `gamma_at` and einsum.  The squared
    speeds of the growth and blow-up tests are plain left-to-right sums
    written into the step, which also returns the new velocity's for the
    blow-up test; a step calls no helper but `isfinite`.
    """
    m = C.dim
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    if x.shape != (m,) or v.shape != (m,):
        raise ValueError("state must have %d components" % m)
    if not all(value > 0 and math.isfinite(value) for value in (t_max, step)):
        raise ValueError("t_max and step must be positive and finite")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("x0 and v0 must be finite")

    rk4 = _compile_step(C)
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
            nx, nv, s, ok = rk4(x, v, h)
            if ok:
                break
            h *= 0.5
            if h < min_step:
                blew_up = True
                blow_time = t
                break
        if blew_up:
            break
        x, v = nx, nv
        t += h
        times.append(t)
        positions.append(x)
        velocities.append(v)
        if s >= speed_sq:
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
