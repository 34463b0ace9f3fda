"""Polynomial connections: curvature, Ricci, surfaces, geodesics, files."""

import math
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinecurv.classifier import NEITHER, PROJECTIVE, is_projective_affine_osserman
from affinecurv.constructors import constant_curvature
from affinecurv.polynomial_geometry import (
    _STALL_STEPS,
    PolyConnection,
    _norm_sq,
    _within_growth,
    PolyCurvature,
    connection_from_json_dict,
    connection_from_symbols,
    connection_to_json_dict,
    curvature,
    curvature_at,
    curvature_homogeneous_connection,
    flat_connection,
    geodesic_integrate,
    load_connection,
    nabla_R,
    plane_wave_connection,
    ricci_split,
    save_connection,
    surface_projective_osserman,
)
from affinecurv.polynomials import CompiledTable, Polynomial, parse_polynomial
from affinecurv.riemannian_extension import (
    deformed_extension,
    levi_civita_block,
    modified_extension,
)
from affinecurv.tensor_core import jacobi, reduced_jacobi, save_model

from dense import from_dense, to_dense


def var(i, m):
    return Polynomial.variable(i, m)


def homogeneous_curvature_oracle(m, eps):
    """Expected (constant) curvature entries of the curvature-homogeneous
    family, written out longhand.  d is the last index."""
    R = np.zeros((m, m, m, m))
    d = m - 1

    def put(i, j, k, l, value):
        R[i, j, k, l] += value
        R[j, i, k, l] -= value

    for i in range(d):
        put(i, d, d, i, 1.0)
        put(d, i, i, d, 1.0)
    for i in range(d):
        for j in range(d):
            if i != j:
                put(i, j, j, i, 1.0)
    put(0, 1, 1, 1, -eps)
    put(1, 0, 0, 0, eps)
    return R


# -- connections ----------------------------------------------------------


def test_connection_symmetric_closure():
    C = connection_from_symbols(2, {(0, 1, 0): var(1, 2)})
    assert C.gamma[1, 0, 0] == var(1, 2)
    assert C.christoffel(0, 1, 0) == var(1, 2)


def test_connection_rejects_torsion():
    table = {(0, 1, 0): var(1, 2)}  # no matching (1, 0, 0) entry
    with pytest.raises(ValueError):
        PolyConnection(2, table)


def test_connection_keeps_a_read_only_map_of_nonzero_symbols():
    symbols = {(1, 0, 0): var(1, 2), (0, 1, 0): var(1, 2), (1, 1, 1): 0,
               (0, 0, 0): Polynomial.zero(2)}
    C = PolyConnection(2, symbols)
    assert list(C.gamma.items()) == [((0, 1, 0), var(1, 2)), ((1, 0, 0), var(1, 2))]
    assert C.christoffel(1, 1, 1) == Polynomial.zero(2)
    with pytest.raises(TypeError):
        C.gamma[0, 0, 0] = var(0, 2)
    with pytest.raises(ValueError, match="index 2 out of range"):
        PolyConnection(2, {(0, 2, 0): 1})
    with pytest.raises(ValueError, match="index -1 out of range"):
        connection_from_symbols(2, {(0, -1, 0): 1})


def test_connection_is_immutable():
    C = flat_connection(2)
    with pytest.raises(AttributeError):
        C.dim = 3


def test_connection_variable_count_checked():
    with pytest.raises(ValueError):
        connection_from_symbols(2, {(0, 0, 0): var(0, 3)})


def test_gamma_at():
    C = curvature_homogeneous_connection(3, eps=1)
    G = C.gamma_at([2.0, 3.0, 0.0])
    assert G[2, 2, 2] == 2.0
    assert G[0, 2, 0] == G[2, 0, 0] == 1.0
    assert G[0, 0, 2] == 1.0
    assert G[0, 0, 0] == 5.0  # eps * (x1 + x2)
    assert G[1, 1, 1] == -5.0


# -- curvature ------------------------------------------------------------


def test_flat_connection_is_flat():
    P = curvature(flat_connection(3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert P.entry(i, j, k, l).is_zero
    assert dict(P.riemann) == {}


def test_plane_wave_curvature():
    P = curvature(plane_wave_connection())
    expected = {(0, 1, 0, 2): Fraction(-1), (1, 0, 0, 2): Fraction(1)}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    want = expected.get((i, j, k, l), 0)
                    assert P.entry(i, j, k, l) == Polynomial.constant(want, 3)
    assert set(P.riemann) == set(expected)


@pytest.mark.parametrize("m,eps", [(3, 0), (3, 1), (4, 2), (3, Fraction(1, 2))])
def test_homogeneous_curvature_entries(m, eps):
    P = curvature(curvature_homogeneous_connection(m, eps=eps))
    want = homogeneous_curvature_oracle(m, float(eps))
    # entries are constant polynomials: evaluating anywhere gives the table
    for point in ([0.0] * m, [0.3, -1.2, 0.7, 2.0][:m]):
        got = P.evaluate_at(point)
        assert np.max(np.abs(to_dense(got) - want)) == 0.0


def test_homogeneous_eps_zero_is_constant_curvature():
    A = curvature_at(curvature_homogeneous_connection(4), [0.0] * 4)
    B = constant_curvature(4)
    assert np.array_equal(to_dense(A), to_dense(B))


def test_homogeneous_validation():
    with pytest.raises(ValueError):
        curvature_homogeneous_connection(1)
    with pytest.raises(ValueError):
        curvature_homogeneous_connection(2, eps=1)


def test_evaluate_exact_returns_fractions():
    P = curvature(curvature_homogeneous_connection(3, eps=Fraction(1, 3)))
    table = P.evaluate_exact([Fraction(1, 2)] * 3)
    assert table[1, 0, 0, 0] == Fraction(1, 3)
    assert table[0, 1, 1, 1] == Fraction(-1, 3)
    assert table[0, 2, 2, 0] == 1


def test_evaluate_exact_equals_every_entry_evaluated():
    C = connection_from_symbols(3, {(0, 0, 1): var(1, 3) * var(2, 3) + Fraction(1, 3),
                                    (0, 1, 2): var(0, 3) - 2})
    P = curvature(C)
    pt = [Fraction(2, 3), Fraction(-1, 5), Fraction(7, 2)]
    table = P.evaluate_exact(pt)
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        value = table.get((i, j, k, l), Fraction(0))
        assert type(value) is Fraction
        assert value == P.entry(i, j, k, l)(pt)
    assert all(table.values())
    with pytest.raises(ValueError):
        curvature(flat_connection(3)).evaluate_exact([0, 0])


# -- covariant derivative -------------------------------------------------


def test_nabla_entry_polynomials():
    # the derivative of the curvature at the slot (d2, d1)d1 in direction d1
    # splits as -e^2 L d1 - 2 e L d2 + e d3 with L = x1 + x2: the d2 part
    # carries the position dependence, the d3 part is constant, and the d1
    # part is second order in the perturbation
    m = 3
    eps = Fraction(1, 2)
    nabla = nabla_R(curvature_homogeneous_connection(m, eps=eps))
    L = var(0, m) + var(1, m)
    slot = [nabla[1, 0, 0, 0, l] for l in range(m)]
    assert slot[0] == -(eps**2) * L
    assert slot[1] == Fraction(-2) * eps * L
    assert slot[2] == Polynomial.constant(eps, m)
    # mirrored slot from the other perturbed symbol
    mirror = [nabla[0, 1, 1, 1, l] for l in range(m)]
    assert mirror[0] == Fraction(2) * eps * L
    assert mirror[1] == -(eps**2) * L
    assert mirror[2] == Polynomial.constant(-eps, m)
    # the position-dependent component vanishes exactly on x1 + x2 = 0
    p = slot[1]
    assert p([Fraction(3), Fraction(-3), Fraction(0)]) == 0
    assert p([Fraction(1), Fraction(1), Fraction(0)]) == -2


def test_nabla_nonzero_at_eps_zero():
    m = 4
    nabla = nabla_R(curvature_homogeneous_connection(m))
    d = m - 1
    assert nabla[d, 0, 0, d, d] == Polynomial.constant(-2, m)


def test_flat_nabla_vanishes():
    nabla = nabla_R(flat_connection(2))
    assert dict(nabla) == {}


# -- Ricci ----------------------------------------------------------------


def test_ricci_split_worked_example():
    C = connection_from_symbols(2, {(0, 0, 1): var(1, 2)})
    sym, alt = ricci_split(C)
    assert dict(sym) == {(0, 0): Polynomial.constant(1, 2)}
    assert dict(alt) == {}


def test_ricci_antisymmetric_part():
    sym, alt = ricci_split(curvature_homogeneous_connection(3, eps=1))
    for j in range(3):
        for k in range(3):
            want = Fraction(2) if j == k else Fraction(0)
            assert sym.get((j, k), Polynomial.zero(3)) == Polynomial.constant(want, 3)
    # curvature entries are constant, so the skew Ricci part is the constant
    # eps even though the symbols themselves vary
    assert dict(alt) == {(0, 1): Polynomial.constant(1, 3), (1, 0): Polynomial.constant(-1, 3)}


def test_jacobi_trace_is_ricci_quadratic_form():
    # trace J_X = rho(X, X) ties the tensor path to the polynomial path
    C = connection_from_symbols(
        3,
        {
            (0, 0, 1): var(1, 3) * var(2, 3),
            (1, 2, 0): var(0, 3),
            (2, 2, 2): Polynomial.constant(Fraction(1, 2), 3),
        },
    )
    sym, alt = ricci_split(C)
    zero = Polynomial.zero(3)
    pt = [0.4, -0.3, 1.1]
    A = curvature_at(C, pt)
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = rng.standard_normal(3)
        lhs = np.trace(jacobi(A, X))
        rhs = sum(
            (float(sym.get((j, k), zero)(pt)) + float(alt.get((j, k), zero)(pt))) * X[j] * X[k]
            for j in range(3)
            for k in range(3)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


# -- surfaces -------------------------------------------------------------


def test_surface_criterion_definite():
    C = curvature_homogeneous_connection(2)
    verdict = surface_projective_osserman(C, [Fraction(0), Fraction(0)], n_samples=16)
    assert verdict.definite
    assert verdict.sampled_status == PROJECTIVE
    assert verdict.agrees


def test_surface_criterion_degenerate():
    C = connection_from_symbols(2, {(0, 0, 1): var(1, 2)})
    verdict = surface_projective_osserman(C, [0, 0], n_samples=16)
    assert not verdict.definite
    assert verdict.sampled_status == NEITHER
    assert verdict.agrees
    assert verdict.ricci_symmetric == ((1.0, 0.0), (0.0, 0.0))


def test_surface_criterion_degenerate_off_axis_null_line():
    # rho_s at the origin is [[-1, -1], [-1, -1]]: rank one, null line
    # spanned by (1, -1), which no default probe direction hits.  The
    # criterion must hand that direction to the sampled arm itself.
    C = connection_from_symbols(
        2,
        {
            (0, 1, 0): Polynomial.constant(-1, 2),
            (0, 1, 1): Polynomial.constant(1, 2),
        },
    )
    verdict = surface_projective_osserman(C, [0, 0], n_samples=16)
    assert verdict.ricci_symmetric == ((-1.0, -1.0), (-1.0, -1.0))
    assert not verdict.definite
    assert verdict.sampled_status == NEITHER
    assert verdict.agrees


def test_surface_criterion_needs_dim_two():
    with pytest.raises(ValueError):
        surface_projective_osserman(flat_connection(3), [0, 0, 0])


def test_surface_json():
    C = curvature_homogeneous_connection(2)
    d = surface_projective_osserman(C, [0, 0], n_samples=8).to_json_dict()
    assert d["definite"] and d["agrees"]


# -- geodesics ------------------------------------------------------------


def test_geodesic_straight_lines_when_flat():
    res = geodesic_integrate(flat_connection(3), [1.0, 2.0, 3.0], [0.5, 0.0, -0.5], 2.0)
    assert not res.blew_up
    assert np.allclose(res.final_position, [2.0, 2.0, 2.0], atol=1e-12)
    assert np.allclose(res.final_velocity, [0.5, 0.0, -0.5], atol=1e-12)


def test_geodesic_blow_up_time():
    # along the last axis the speed obeys v' = -2 v^2, so v(t) = v0/(1+2 v0 t):
    # starting at v0 = -1/2 the solution leaves every compact set at t = 1
    C = curvature_homogeneous_connection(3)
    res = geodesic_integrate(C, [0.0, 0.0, 0.0], [0.0, 0.0, -0.5], 2.0)
    assert res.blew_up
    assert res.blow_up_time == pytest.approx(1.0, abs=0.05)


def test_geodesic_velocity_decay():
    C = curvature_homogeneous_connection(3)
    res = geodesic_integrate(C, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 2.0)
    assert not res.blew_up
    assert res.final_velocity[2] == pytest.approx(1.0 / 5.0, abs=1e-8)
    assert res.times[-1] == pytest.approx(2.0, abs=1e-12)


def test_geodesic_validation():
    C = flat_connection(2)
    with pytest.raises(ValueError):
        geodesic_integrate(C, [0.0], [1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        geodesic_integrate(C, [0.0, 0.0], [1.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        geodesic_integrate(C, [0.0, 0.0], [1.0, 0.0], 1.0, step=0.0)
    for t_max, step in ((float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, float("nan")),
                        (1.0, float("inf"))):
        with pytest.raises(ValueError, match="positive and finite"):
            geodesic_integrate(C, [0.0, 0.0], [1.0, 0.0], t_max, step=step)


def test_geodesic_json():
    res = geodesic_integrate(flat_connection(2), [0.0, 0.0], [1.0, 0.0], 0.5)
    d = res.to_json_dict()
    assert d["blew_up"] is False and d["blow_up_time"] is None
    assert d["t_final"] == pytest.approx(0.5)
    assert d["steps"] == len(res.times) - 1


# -- files ----------------------------------------------------------------


def test_connection_json_round_trip(tmp_path):
    C = curvature_homogeneous_connection(3, eps=Fraction(1, 2))
    path = tmp_path / "conn.json"
    save_connection(C, path)
    D = load_connection(path)
    assert D.dim == 3
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert D.christoffel(i, j, k) == C.christoffel(i, j, k)
    assert D.gamma == C.gamma


def test_connection_json_stores_representatives():
    C = connection_from_symbols(2, {(0, 1, 0): var(1, 2)})
    data = connection_to_json_dict(C)
    assert set(data["gamma"]) == {"0,1,0"}


def test_connection_json_errors():
    with pytest.raises(ValueError):
        connection_from_json_dict({"gamma": {}})
    with pytest.raises(ValueError):
        connection_from_json_dict({"dim": 2, "gamma": {"0,1": "x1"}})
    with pytest.raises(ValueError):
        connection_from_json_dict({"dim": 2, "gamma": {"0,0,5": "x1"}})
    with pytest.raises(ValueError):
        connection_from_json_dict(
            {"dim": 2, "gamma": {"0,1,0": "x1", "1,0,0": "x2"}}
        )
    with pytest.raises(ValueError):
        connection_from_json_dict({"dim": 2, "gamma": {"0,0,0": "x3"}})


def test_classifier_on_plane_wave_point():
    A = curvature_at(plane_wave_connection(), [0.2, 1.5, -0.3])
    verdict = is_projective_affine_osserman(A, n_samples=8)
    assert verdict.status == "affine_osserman"


# -- sparse curvature against a dense reference ----------------------------


def dense_riemann(C):
    """R from the defining sum over every index, with no skipped products
    and no use of antisymmetry."""
    m = C.dim
    g = C.christoffel
    R = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    term = g(j, k, l).diff(i) - g(i, k, l).diff(j)
                    for n in range(m):
                        term = term + g(i, n, l) * g(j, k, n) - g(j, n, l) * g(i, k, n)
                    R[i, j, k, l] = term
    return R


def dense_curvature(C):
    """R and nabla R from the defining sums over every index."""
    m = C.dim
    g = C.christoffel
    R = dense_riemann(C)
    NR = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for n in range(m):
                    for l in range(m):
                        term = R[i, j, k, l].diff(n)
                        for p in range(m):
                            term = term + g(n, p, l) * R[i, j, k, p]
                            term = term - g(n, i, p) * R[p, j, k, l]
                            term = term - g(n, j, p) * R[i, p, k, l]
                            term = term - g(n, k, p) * R[i, j, p, l]
                        NR[i, j, k, n, l] = term
    return R, NR


@st.composite
def sparse_connections(draw, max_m=4, max_exp=2):
    m = draw(st.integers(min_value=2, max_value=max_m))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    keys = draw(st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=m - 1),) * 3),
        min_size=1, max_size=5, unique=True))
    symbols = {}
    for i, j, k in keys:
        poly = Polynomial.zero(m)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            exps = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(m))
            poly = poly + Polynomial(m, {exps: draw(coeff)})
        symbols[(min(i, j), max(i, j), k)] = poly
    return connection_from_symbols(m, symbols)


@settings(max_examples=25, deadline=None)
@given(sparse_connections())
def test_sparse_curvature_matches_dense_reference(C):
    m = C.dim
    R, NR = dense_curvature(C)
    P = curvature(C, with_nabla=True)
    for (i, j, k, l), want in R.items():
        assert P.entry(i, j, k, l) == want
    for (i, j, k, n, l), want in NR.items():
        assert P.nabla.get((i, j, k, n, l), Polynomial.zero(m)) == want
    assert set(P.nabla) <= set(NR)


def _expect_nonzero_map(table, reference):
    """`table` is read-only and holds exactly the nonzero entries of the
    dense {key: Polynomial} reference, so an absent key means zero."""
    assert isinstance(table, MappingProxyType)
    assert all(table.values())
    assert dict(table) == {key: p for key, p in reference.items() if p}


@settings(max_examples=20, deadline=None)
@given(sparse_connections(max_m=3), st.booleans())
def test_every_table_is_the_map_of_its_nonzero_entries(C, modified):
    m, n = C.dim, 2 * C.dim
    assert isinstance(C.gamma, MappingProxyType) and all(C.gamma.values())
    assert all(C.gamma[i, j, k] == C.gamma.get((j, i, k)) for i, j, k in C.gamma)
    R, NR = dense_curvature(C)
    P = curvature(C, with_nabla=True)
    _expect_nonzero_map(P.riemann, R)
    _expect_nonzero_map(P.nabla, NR)
    # Ricci: rho_jk = sum_l R_ljk^l, split into halves
    zero, half = Polynomial.zero(m), Fraction(1, 2)
    rho = {(j, k): sum((R[l, j, k, l] for l in range(m)), zero)
           for j in range(m) for k in range(m)}
    sym, alt = ricci_split(P)
    _expect_nonzero_map(sym, {(j, k): half * (p + rho[k, j]) for (j, k), p in rho.items()})
    _expect_nonzero_map(alt, {(j, k): half * (p - rho[k, j]) for (j, k), p in rho.items()})
    # the extension metric [[B, Id], [Id, 0]], its inverse [[0, Id], [Id, -B]]
    # and its Levi-Civita symbols from the defining sums over every index
    zero = Polynomial.zero(n)

    def y(k):
        return Polynomial.variable(m + k, n)

    B = {}
    for i, j in np.ndindex(m, m):
        B[i, j] = sum((-2 * y(k) * C.christoffel(i, j, k).embed(n) for k in range(m)), zero)
        if modified:
            B[i, j] = B[i, j] + y(i) * y(j)
    one = Polynomial.constant(1, n)
    g = {(a, b): zero for a, b in np.ndindex(n, n)}
    ginv = dict(g)
    for (i, j), p in B.items():
        g[i, j] = p
        ginv[m + i, m + j] = -p
    for i in range(m):
        g[i, m + i] = g[m + i, i] = ginv[i, m + i] = ginv[m + i, i] = one
    metric = modified_extension(C) if modified else deformed_extension(C)
    _expect_nonzero_map(metric.top_block, B)
    _expect_nonzero_map(metric.components, g)
    _expect_nonzero_map(metric.inverse(), ginv)
    lc = {}
    for a, b, c in np.ndindex(n, n, n):
        total = zero
        for d in range(n):
            total = total + ginv[c, d] * (g[b, d].diff(a) + g[a, d].diff(b) - g[a, b].diff(d))
        lc[a, b, c] = half * total
    _expect_nonzero_map(levi_civita_block(metric).gamma, lc)


def _torsion_connection(m, symbols):
    """A connection object that skips the torsion check of the constructor."""
    C = object.__new__(PolyConnection)
    object.__setattr__(C, "dim", m)
    object.__setattr__(C, "gamma", MappingProxyType(dict(sorted(symbols.items()))))
    return C


def test_cyclic_identity_check_still_raises():
    # G_12^1 = x3 without its (2, 1) partner: the torsion varies along x3,
    # which breaks the first Bianchi identity
    C = _torsion_connection(3, {(0, 1, 0): var(2, 3)})
    with pytest.raises(RuntimeError, match="cyclic identity"):
        curvature(C)


@st.composite
def torsion_connections(draw):
    """Symbols at random (i, j, k) slots with no symmetric closure, so the
    connection may have any torsion."""
    m = draw(st.integers(min_value=3, max_value=4))
    keys = draw(st.lists(st.tuples(*(st.integers(min_value=0, max_value=m - 1),) * 3),
                         min_size=1, max_size=4, unique=True))
    symbols = {}
    for key in keys:
        exps = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(m))
        symbols[key] = Polynomial(m, {exps: draw(st.sampled_from([-2, -1, 1, 3]))})
    return _torsion_connection(m, symbols)


@settings(max_examples=60, deadline=None)
@given(torsion_connections())
@example(_torsion_connection(3, {(0, 1, 2): var(0, 3) * 2}))
def test_cyclic_check_agrees_with_the_full_loop(C):
    m = C.dim
    R = dense_riemann(C)
    violated = any(
        not (R[i, j, k, l] + R[j, k, i, l] + R[k, i, j, l]).is_zero
        for i in range(m) for j in range(m) for k in range(m) for l in range(m)
    )
    if violated:
        with pytest.raises(RuntimeError, match="cyclic identity"):
            curvature(C)
    else:
        P = curvature(C)
        assert all(P.entry(i, j, k, l) == want for (i, j, k, l), want in R.items())


# -- one compiled evaluator ------------------------------------------------


def _builtin_connections():
    return [
        flat_connection(3),
        curvature_homogeneous_connection(3, eps=1),
        curvature_homogeneous_connection(4, eps=Fraction(1, 2)),
        plane_wave_connection(),
    ]


def _extension_metrics():
    return [
        deformed_extension(curvature_homogeneous_connection(3, eps=1)),
        modified_extension(plane_wave_connection()),
    ]


def _tables():
    """(float evaluator, Polynomial table, shape) for gamma_at, evaluate_at
    and gram_at on the built-in connections, both extension metrics and
    the Levi-Civita connections of those metrics."""
    conns = _builtin_connections() + [levi_civita_block(g) for g in _extension_metrics()]
    out = []
    for C in conns:
        out.append((C.gamma_at, C.gamma, (C.dim,) * 3))
        P = curvature(C)
        out.append((lambda x, P=P: to_dense(P.evaluate_at(x)), P.riemann, (C.dim,) * 4))
    for g in _extension_metrics():
        out.append((g.gram_at, g.components, (g.dim, g.dim)))
    return out


def _reference(table, shape, point):
    ref = np.empty(shape)
    for idx in np.ndindex(*shape):
        ref[idx] = float(table.get(idx, Polynomial.zero(shape[0]))(point))
    return ref


def test_compiled_evaluator_is_exact_at_dyadic_points():
    rng = np.random.default_rng(3)
    for evaluate, table, shape in _tables():
        nvars = shape[0]
        point = [Fraction(int(v), 16) for v in rng.integers(-40, 41, nvars)]
        got = evaluate([float(v) for v in point])
        assert got.shape == shape
        assert np.array_equal(got, _reference(table, shape, point))


def test_compiled_evaluator_matches_polynomial_call_at_float_points():
    rng = np.random.default_rng(4)
    for evaluate, table, shape in _tables():
        for _ in range(3):
            point = list(rng.uniform(-2.0, 2.0, shape[0]))
            ref = _reference(table, shape, point)
            scale = max(1.0, float(np.max(np.abs(ref))))
            np.testing.assert_allclose(evaluate(point), ref, rtol=1e-14, atol=1e-14 * scale)


def numpy_table(table, shape, nvars):
    """The float evaluator of a {key: Polynomial} table as it was written
    with numpy: an exponent matrix over all nonzero terms, powers as
    repeated products, each term from multiply.reduce over its coefficient
    and powers, each entry summed by bincount.  `CompiledTable` must
    reproduce it bit for bit."""
    index, exponents, coeffs = [], [], []
    for key, poly in table.items():
        for exps, coeff in poly.terms():
            index.append(key)
            exponents.append(exps)
            coeffs.append(float(coeff))
    keys = np.array(index, dtype=np.intp).reshape(len(index), len(shape))
    flat = np.ravel_multi_index(keys.T, shape)
    exponents = np.array(exponents, dtype=np.int64).reshape(len(index), nvars)
    coeffs = np.array(coeffs, dtype=float)
    degree = int(exponents.max(initial=0))

    def evaluate(point):
        x = np.asarray(point, dtype=float)
        powers = np.ones((degree + 1, nvars))  # powers[e, v] = x_v^e
        powers[1:] = x
        np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
        factors = np.empty((len(coeffs), nvars + 1))
        factors[:, 0] = coeffs
        factors[:, 1:] = powers[exponents, np.arange(nvars)]
        values = np.multiply.reduce(factors, axis=1)
        out = np.bincount(flat, weights=values, minlength=math.prod(shape))
        # bincount gives ints when there are no terms at all
        return out.astype(float, copy=False).reshape(shape)

    return evaluate


@st.composite
def sparse_tables(draw):
    """(table, shape, nvars): up to 6 nonzero entries of rank 1 to 4 over 1
    to 6 variables, exponents up to 3, terms in drawn order."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    shape = tuple(draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)))
    keys = draw(st.lists(st.tuples(*(st.integers(min_value=0, max_value=n - 1) for n in shape)),
                         max_size=6, unique=True))
    exps = st.tuples(*(st.integers(min_value=0, max_value=3),) * nvars)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)
    table = {key: Polynomial(nvars, draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)))
             for key in sorted(keys)}
    return table, shape, nvars


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def tables_and_points(draw):
    table, shape, nvars = draw(sparse_tables())
    coords = st.one_of(st.floats(min_value=-3, max_value=3), _SPECIAL, st.floats())
    return table, shape, nvars, draw(st.lists(coords, min_size=nvars, max_size=nvars))


def _table_problem(nvars, entries, point):
    """A one-entry table of the given {exps: coeff} terms, in that order."""
    return {(0,): Polynomial(nvars, entries)}, (1,), nvars, point


@settings(max_examples=200, deadline=None)
@given(tables_and_points())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
# each term summed from 0.0: 0.0 + (-0.0) is 0.0
@example(_table_problem(1, {(1,): -1}, [0.0]))
# the constant term first: (1 + a) + a != (a + a) + 1 at a = 2^-53
@example(_table_problem(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, [2.0**-53, 2.0**-53]))
# powers as repeated products: x * x * x != x ** 3 at this x
@example(_table_problem(1, {(3,): 1}, [1.2]))
def test_compiled_table_is_the_numpy_evaluator_bit_for_bit(problem):
    table, shape, nvars, point = problem
    got = CompiledTable(table, shape, nvars)(point)
    want = numpy_table(table, shape, nvars)(point)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()


def test_compiled_evaluator_checks_the_point():
    C = curvature_homogeneous_connection(3)
    with pytest.raises(ValueError):
        C.gamma_at([0.0, 0.0])
    G = flat_connection(2).gamma_at([1.0, 2.0])
    assert G.dtype == np.float64 and not G.any()


@pytest.mark.parametrize("m", [2, 3, 6])
def test_evaluate_at_checks_the_point(m):
    C = curvature_homogeneous_connection(m)
    for n in (m - 1, m + 1):
        with pytest.raises(ValueError, match="point has %d components" % n):
            curvature(C).evaluate_at([0.5] * n)
        with pytest.raises(ValueError, match="point has %d components" % n):
            curvature_at(C, [0.5] * n)


def test_evaluate_at_lists_the_nonzero_entries_in_key_order(tmp_path):
    """`curvature` inserts R[i, j, k, l] next to R[j, i, k, l], out of key
    order, and a non-constant entry can vanish at a point; the tensor must
    still be the sorted scan of the dense array, with no zero kept."""
    # R[0, 2, 0, 1] = -x1 and R[0, 2, 0, 0] = x1 x3 (x2 + 1) vanish at these points
    uneven = connection_from_symbols(3, {(0, 0, 1): parse_polynomial("x1*x3", 3),
                                         (1, 2, 0): parse_polynomial("x2 + 1", 3)})
    cases = [(curvature_homogeneous_connection(4, eps=Fraction(1, 2)), [[0.25, -1.5, 0.75, 2.0]]),
             (curvature_homogeneous_connection(6), [[0.5, -0.25, 1.0, 0.0, -2.0, 0.125]]),
             (uneven, [[0.0, 0.5, -1.25], [0.75, -1.0, 0.5]])]
    for C, points in cases:
        P = curvature(C)
        assert list(P.riemann) != sorted(P.riemann)
        for point in points:
            # dyadic points: the float evaluation is exact
            reference = _reference(P.riemann, (C.dim,) * 4, [Fraction(v) for v in point])
            idx, vals = P.evaluate_at(point).nonzero()
            assert np.array_equal(idx, np.argwhere(reference))
            assert np.array_equal(vals, reference[tuple(idx.T)]) and np.all(vals != 0.0)
            save_model(P.evaluate_at(point), tmp_path / "list.json")
            save_model(from_dense(reference), tmp_path / "dense.json")
            assert (tmp_path / "list.json").read_bytes() == (tmp_path / "dense.json").read_bytes()
    assert len(curvature(uneven).evaluate_at([0.0, 0.5, -1.25]).nonzero()[1]) == 2


def test_model_out_and_jordan_at_allocate_no_dense_tensor(tmp_path):
    """What `geometry --model-out` and `--jordan-at` do at m = 16 (484
    nonzeros) peaks below a quarter of the 524 KB dense tensor."""
    m = 16
    P = curvature(curvature_homogeneous_connection(m, 1))
    point = np.linspace(-1.0, 1.0, m)
    P.evaluate_at(point)  # compiles the evaluator outside the trace
    tracemalloc.start()
    try:
        A = P.evaluate_at(point)
        save_model(A, tmp_path / "model.json")
        reduced_jacobi(A, np.arange(1.0, m + 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(A.nonzero()[1]) == 484
    assert peak < 0.25 * m ** 4 * 8


# -- one curvature per connection ------------------------------------------


def test_ricci_and_surface_accept_a_built_curvature():
    C = connection_from_symbols(2, {(0, 0, 1): var(1, 2), (0, 1, 1): var(0, 2)})
    P = curvature(C)
    assert isinstance(P, PolyCurvature)
    assert ricci_split(P) == ricci_split(C)
    pt = [Fraction(1, 2), Fraction(-1, 4)]
    assert (surface_projective_osserman(P, pt, n_samples=16)
            == surface_projective_osserman(C, pt, n_samples=16))


# -- geodesic blow-up ------------------------------------------------------


@pytest.mark.parametrize("v, offset", [(0.45, 0.5), (0.5, 0.75), (0.55, 0.9)])
def test_geodesic_blow_up_within_one_step(v, offset):
    # v' = -2 v^2 from -v has its pole at t* = 1/(2v), here a fraction
    # `offset` of a step past a grid point.  An integrator that accepts the
    # RK4 step across the pole reports it 1.1 to 1.5 steps late.
    C = curvature_homogeneous_connection(3, eps=1)
    pole = 1.0 / (2.0 * v)
    step = pole / (500 + offset)
    res = geodesic_integrate(C, [0.0, 0.0, 0.0], [0.0, 0.0, -v], 2.0 * pole, step=step)
    assert res.blew_up
    assert abs(res.blow_up_time - pole) <= step


def test_bounded_geodesic_takes_plain_steps():
    # no stage doubles the speed, so every step is one RK4 step of `step`
    C = curvature_homogeneous_connection(4, eps=1)
    res = geodesic_integrate(C, [0.1, -0.2, 0.3, 0.1], [-0.1, 0.2, 0.1, 0.15], 1.0,
                             step=0.002)
    assert not res.blew_up
    assert len(res.times) == 501
    assert np.allclose(np.diff(res.times), 0.002, rtol=0, atol=1e-15)


# -- geodesics against the numpy integrator --------------------------------


def numpy_geodesic_integrate(C, x0, v0, t_max, step=1e-3):
    """The integrator as it was written with numpy: the symbols from the
    numpy table evaluator, the acceleration from einsum over the full m^3
    table.  The float integrator must reproduce it bit for bit."""
    m = C.dim
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    gamma_at = numpy_table(C.gamma, (m,) * 3, m)

    def accel(pos, vel):
        return -np.einsum("ijk,i,j->k", gamma_at(pos), vel, vel)

    def rk4(pos, vel, h):
        k1x, k1v = vel, accel(pos, vel)
        k2x, k2v = vel + 0.5 * h * k1v, accel(pos + 0.5 * h * k1x, vel + 0.5 * h * k1v)
        k3x, k3v = vel + 0.5 * h * k2v, accel(pos + 0.5 * h * k2x, vel + 0.5 * h * k2v)
        k4x, k4v = vel + h * k3v, accel(pos + h * k3x, vel + h * k3v)
        new_pos = pos + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        new_vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        limit = 2.0**2 * (vel @ vel)
        ok = all(w @ w <= limit for w in (k2x, k3x, k4x, new_vel))
        return new_pos, new_vel, ok and bool(np.all(np.isfinite(new_pos)))

    times, positions, velocities = [0.0], [x.copy()], [v.copy()]
    t, h = 0.0, step
    blew_up, blow_time = False, None
    min_step = step * 2.0**-45
    while t < t_max - 1e-15:
        h = min(step, 2.0 * h, t_max - t)
        while True:
            nx, nv, ok = rk4(x, v, h)
            if ok:
                break
            h *= 0.5
            if h < min_step:
                blew_up, blow_time = True, t
                break
        if blew_up:
            break
        x, v = nx, nv
        t += h
        times.append(t)
        positions.append(x.copy())
        velocities.append(v.copy())
        if np.linalg.norm(v) >= 1e8:
            blew_up, blow_time = True, t
            break
        # the last 4096 steps advanced less than one step: stop, as a
        # blow-up if the speed more than quadrupled over them
        if len(times) > 4096 and t - times[-4097] < step and t < t_max - 1e-15:
            blew_up = _norm_sq(v) > 16.0 * _norm_sq(velocities[-4097])
            blow_time = t if blew_up else None
            break
    return times, positions, velocities, blew_up, blow_time


def _bits(rows):
    return [[float(a).hex() for a in row] for row in rows]


def _blow_up_problem(v, offset):
    pole = 1.0 / (2.0 * v)
    step = pole / (500 + offset)
    return (curvature_homogeneous_connection(3, eps=1), [0.0, 0.0, 0.0], [0.0, 0.0, -v],
            2.0 * pole, step)


@st.composite
def geodesic_problems(draw):
    C = draw(sparse_connections(max_m=5, max_exp=3))
    coords = st.floats(min_value=-1.5, max_value=1.5, allow_subnormal=False)
    x0 = draw(st.lists(coords, min_size=C.dim, max_size=C.dim))
    v0 = draw(st.lists(coords, min_size=C.dim, max_size=C.dim))
    t_max = draw(st.floats(min_value=0.01, max_value=1.0))
    step = draw(st.floats(min_value=0.005, max_value=0.1))
    return C, x0, v0, t_max, step


# Near a singularity at t ~ 0.7886 the growth test holds the step near
# 5e-7 while the speed creeps up; only the stall check ends the run.
_CREEPING_PROBLEM = (
    connection_from_json_dict({"dim": 4, "gamma": {
        "0,1,3": "3*x2^2*x3^3*x4^2 + x2^3*x3^2 + 4/3*x1*x2*x3^2",
        "1,1,0": "-2*x1^2*x2^2*x3*x4 - 3*x2^2*x3*x4^3",
        "2,3,2": "-3*x1^2*x2*x3^3*x4^2"}}),
    [-1.4973005670799826, -1.3069600339183618, 0.9739313559760587, 0.39597624391917474],
    [1.298713293925199, -0.9139850727796206, 0.05099171416070947, 0.22811792005572729],
    0.9173667632769464, 0.015116765276257528,
)


@settings(max_examples=60, deadline=None)
@given(geodesic_problems())
@example(_CREEPING_PROBLEM)
@example(_blow_up_problem(0.45, 0.5))
@example(_blow_up_problem(0.5, 0.75))
@example(_blow_up_problem(0.55, 0.9))
def test_geodesic_matches_numpy_reference_bit_for_bit(problem):
    C, x0, v0, t_max, step = problem
    res = geodesic_integrate(C, x0, v0, t_max, step=step)
    times, positions, velocities, blew_up, blow_time = numpy_geodesic_integrate(
        C, x0, v0, t_max, step=step)
    assert [t.hex() for t in res.times] == [t.hex() for t in times]
    assert _bits(res.positions) == _bits(positions)
    assert _bits(res.velocities) == _bits(velocities)
    assert res.blew_up == blew_up
    assert res.blow_up_time == blow_time


def test_creeping_geodesic_blows_up_when_the_step_stalls():
    C, x0, v0, t_max, step = _CREEPING_PROBLEM
    res = geodesic_integrate(C, x0, v0, t_max, step=step)
    assert res.blew_up and res.blow_up_time == res.times[-1] < 0.7886
    # the first time the last 4096 steps advanced less than one step
    window = np.array(res.times[_STALL_STEPS:]) - np.array(res.times[:-_STALL_STEPS])
    assert window[-1] < step and (window[:-1] >= step).all()
    assert _norm_sq(res.velocities[-1]) > 16.0 * _norm_sq(res.velocities[-_STALL_STEPS - 1])
    # the same steps up to a t_max at the last of them: the run ends there
    again = geodesic_integrate(C, x0, v0, res.times[-1], step=step)
    assert not again.blew_up and again.times == res.times


def test_stiff_bounded_geodesic_stalls_without_blow_up():
    # from t ~ 0.33 the step hovers near 2e-6 while the speed stays near 70;
    # run on without the stall check it reaches t_max unblown after 20235
    # steps, so the stall, with the speed up 2.8-fold over its window, is
    # no blow-up
    C = connection_from_json_dict({"dim": 4, "gamma": {
        "0,2,0": "-x2^3*x3^3*x4^2 - 2*x2^3*x3^2*x4^2 + 5/2*x2^2*x3^2*x4",
        "0,3,3": "-5/3*x1^3*x2*x3^3*x4^3 - 2*x1^3*x2*x3^2*x4",
        "2,2,2": "3*x1^2*x2^2*x3*x4^2"}})
    x0 = [0.0, 1.064376246598921, -1.3790469624021091, 1.3650895094169053]
    v0 = [0.09872671272904476, 1.5, -1.1526970497707167, 1e-09]
    res = geodesic_integrate(C, x0, v0, 0.4028877012163333, step=0.09396399641451238)
    assert not res.blew_up and res.blow_up_time is None
    assert 0.36 < res.times[-1] < 0.37 and len(res.times) < 4200
    grown = _norm_sq(res.velocities[-1]) / _norm_sq(res.velocities[-_STALL_STEPS - 1])
    assert 4.0 < grown < 16.0


def test_under_resolved_oscillation_runs_to_t_max():
    # x1'' = -1e4 x1: step * omega = 10 is outside RK4's stability range,
    # so every step is cut to about step / 4, yet each 4096 of them
    # advance ~1000 steps and the run goes on
    C = connection_from_json_dict({"dim": 2, "gamma": {"1,1,0": "x1"}})
    res = geodesic_integrate(C, [1.0, 0.0], [0.0, 100.0], 200.0, step=0.1)
    assert not res.blew_up and res.times[-1] == pytest.approx(200.0, abs=1e-12)
    assert (np.diff(res.times) < 0.1).all() and len(res.times) > _STALL_STEPS + 1


def test_growth_test_decides_ties_as_numpy_does():
    # w against a permutation of w / 2 is a tie in exact arithmetic; the
    # plain sums and numpy's dot round it either way, and numpy must win
    rng = np.random.default_rng(5)
    differs = 0
    for _ in range(300):
        w = rng.standard_normal(3)
        for perm in ([1, 2, 0], [2, 0, 1], [1, 0, 2]):
            vel = w[perm] / 2
            want = bool(w @ w <= 4.0 * (vel @ vel))
            limit = 4.0 * _norm_sq(vel.tolist())
            assert _within_growth(w.tolist(), vel.tolist(), limit) == want
            differs += (_norm_sq(w.tolist()) <= limit) != want
    assert differs > 0
