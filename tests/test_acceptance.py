"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (run with -s
to see them on success).  Tolerances and runtime budgets are asserted
exactly as stated, never loosened.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from affinecurv.classifier import (
    PROJECTIVE,
    BundlePartition,
    adams_admissible,
    bundle_partition,
    is_projective_affine_osserman,
    match_taxonomy,
)
from affinecurv.constructors import StructureSpec, realize
from affinecurv.polynomial_geometry import (
    connection_from_symbols,
    curvature,
    curvature_at,
    curvature_homogeneous_connection,
    flat_connection,
    geodesic_integrate,
    nabla_R,
    plane_wave_connection,
    surface_projective_osserman,
)
from affinecurv.polynomials import Polynomial
from affinecurv.riemannian_extension import (
    check_extension_theorems,
    deformed_extension,
    levi_civita_block,
)
from affinecurv.spectral import jordan_profile, spectrum
from affinecurv.tensor_core import jacobi, reduced_jacobi


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (number, summary))
        raise
    print("PASS criterion %d: %s" % (number, summary))


# Eigenvalue data for one representative of every case, and the multiplicity
# layout its verdict must report: zero slot first, real slots by descending
# multiplicity (ties by ascending value), then conjugate-pair slots by
# descending multiplicity with two entries each.  Two pairs of cases agree on
# the multiplicities and differ only in the slot kinds, so both are pinned.
Z, R, C = "zero", "real", "complex"

CASE_TABLE = [
    ("1", 3, (2.0,), (), (1, 2), (Z, R)),
    ("1", 5, (2.0,), (), (1, 4), (Z, R)),
    ("2-a", 6, (3.0,), (), (1, 5), (Z, R)),
    ("2-a", 10, (3.0,), (), (1, 9), (Z, R)),
    ("2-b", 6, (4.0, 1.0), (), (1, 4, 1), (Z, R, R)),
    ("2-b", 10, (4.0, 1.0), (), (1, 8, 1), (Z, R, R)),
    ("2-c", 6, (4.0,), (1 + 2j,), (1, 1, 2, 2), (Z, R, C, C)),
    ("2-c", 10, (4.0,), (1 + 2j,), (1, 1, 4, 4), (Z, R, C, C)),
    ("3-a", 12, (-2.0,), (), (1, 11), (Z, R)),
    ("3-b-i", 12, (5.0, 1.0), (), (1, 10, 1), (Z, R, R)),
    ("3-b-ii", 12, (5.0, 1.0), (), (1, 9, 2), (Z, R, R)),
    ("3-b-iii", 12, (5.0, 1.0), (), (1, 8, 3), (Z, R, R)),
    ("3-c-i", 12, (5.0, 3.0, 1.0), (), (1, 9, 1, 1), (Z, R, R, R)),
    ("3-c-ii", 12, (5.0, 3.0, 1.0), (), (1, 8, 2, 1), (Z, R, R, R)),
    ("3-d", 12, (3.0, 5.0, 7.0, 1.0), (), (1, 8, 1, 1, 1), (Z, R, R, R, R)),
    ("3-e-i", 12, (4.0,), (1 + 1j,), (1, 1, 5, 5), (Z, R, C, C)),
    ("3-e-ii", 12, (4.0,), (1 + 1j,), (1, 3, 4, 4), (Z, R, C, C)),
    ("3-e-iii", 12, (4.0,), (1 + 1j,), (1, 9, 1, 1), (Z, R, C, C)),
    ("3-f-i", 12, (6.0, 4.0), (1 + 1j,), (1, 2, 1, 4, 4), (Z, R, R, C, C)),
    ("3-f-ii", 12, (6.0, 4.0), (1 + 1j,), (1, 8, 1, 1, 1), (Z, R, R, C, C)),
    ("3-g", 12, (6.0, 4.0, 2.0), (1 + 1j,), (1, 1, 1, 1, 4, 4), (Z, R, R, R, C, C)),
    ("3-h", 12, (6.0,), (1 + 1j, 3 + 2j), (1, 1, 4, 4, 1, 1), (Z, R, C, C, C, C)),
]

_models = None


def realized_models():
    global _models
    if _models is None:
        _models = [
            (case, m, realize(StructureSpec(case, lams, nus), m), mu, kinds)
            for case, m, lams, nus, mu, kinds in CASE_TABLE
        ]
    return _models


def test_criterion_01_taxonomy_round_trip():
    with criterion(1, "every case realizes and classifies back with its "
                      "multiplicity vector"):
        start = time.perf_counter()
        for case, m, A, mu, kinds in realized_models():
            verdict = is_projective_affine_osserman(A, n_samples=64)
            assert verdict.status == PROJECTIVE, case
            assert verdict.worst_residual < 1e-8, case
            assert verdict.mu.entries == mu, case
            assert verdict.mu.kinds == kinds, case
            S = spectrum(reduced_jacobi(A, np.eye(m)[0]), cluster_tol=1e-8)
            fitted = match_taxonomy(S, m)
            assert isinstance(fitted, StructureSpec), case
            assert fitted.case == case
        assert time.perf_counter() - start < 30.0


# 20 hand-enumerated partitions per residue class; entries are (rank, kind)
# with kind "c" marking a conjugate-pair bundle.
ADAMS_CASES = [
    (3, "2", "admissible"),
    (3, "1,1", "inadmissible"),
    (5, "4", "admissible"),
    (5, "4c", "inadmissible"),
    (5, "2,2", "inadmissible"),
    (7, "6", "admissible"),
    (7, "2,4c", "inadmissible"),
    (6, "5", "admissible"),
    (6, "1,4", "admissible"),
    (6, "1,4c", "admissible"),
    (6, "1,1,3", "inadmissible"),
    (6, "2,3", "inadmissible"),
    (10, "9", "admissible"),
    (10, "1,8", "admissible"),
    (12, "11", "admissible"),
    (12, "1,1,9", "admissible"),
    (12, "1,1,1,8c", "admissible"),
    (12, "1,1,1,1,7", "inadmissible"),
    (12, "2,2,3,4c", "inadmissible"),
    (8, "1,1,1,1,1,1,1", "unconstrained"),
]


def _parse_partition(text):
    dims, kinds = [], []
    for part in text.split(","):
        if part.endswith("c"):
            dims.append(int(part[:-1]))
            kinds.append("complex-pair")
        else:
            dims.append(int(part))
            kinds.append("real")
    return tuple(dims), tuple(kinds)


def test_criterion_02_adams_gate():
    with criterion(2, "sphere bound verdicts on 20 partitions and every "
                      "realized model"):
        models = realized_models()  # built outside the timed window
        start = time.perf_counter()
        assert len(ADAMS_CASES) == 20
        for m, text, expected in ADAMS_CASES:
            dims, kinds = _parse_partition(text)
            result = adams_admissible(m, BundlePartition(m=m, dims=dims, kinds=kinds))
            assert result.status == expected, (m, text)
        for case, m, A, _, _ in models:
            S = spectrum(reduced_jacobi(A, np.eye(m)[0]), cluster_tol=1e-8)
            result = adams_admissible(m, bundle_partition(S, m))
            assert result.status == "admissible", case
        assert time.perf_counter() - start < 1.0


def test_criterion_03_example_curvature_entries():
    with criterion(3, "perturbed family has the exact curvature table and "
                      "classifies projective at 5 base points"):
        m, eps = 3, 1
        Cn = curvature_homogeneous_connection(m, eps=eps)
        P = curvature(Cn)
        expected = np.zeros((m, m, m, m))
        d = m - 1

        def put(i, j, k, l, value):
            expected[i, j, k, l] += value
            expected[j, i, k, l] -= value

        for i in range(d):
            put(i, d, d, i, 1)
            put(d, i, i, d, 1)
        for i in range(d):
            for j in range(d):
                if i != j:
                    put(i, j, j, i, 1)
        put(0, 1, 1, 1, -eps)
        put(1, 0, 0, 0, eps)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        want = Polynomial.constant(Fraction(expected[i, j, k, l]), m)
                        assert P.entry(i, j, k, l) == want, (i, j, k, l)
        points = np.random.default_rng(7).uniform(-2.0, 2.0, (5, m))
        for pt in points:
            verdict = is_projective_affine_osserman(curvature_at(Cn, pt), tol=1e-6)
            assert verdict.status == PROJECTIVE


def test_criterion_04_jordan_block():
    with criterion(4, "Jacobi operator at (e1+e3)/sqrt(2) has a size-2 "
                      "Jordan block at eigenvalue 1"):
        A = curvature_at(curvature_homogeneous_connection(3, eps=1), [0.0, 0.0, 0.0])
        X = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        J = reduced_jacobi(A, X)
        S = spectrum(J, cluster_tol=1e-6)
        assert len(S.items) == 1
        value = S.items[0][0]
        assert abs(value - 1.0) <= 1e-6
        prof = jordan_profile(J, value, tol=1e-8)
        assert prof.block_sizes == (2,)
        assert prof.multiplicity == 2


def test_criterion_05_nabla_entries():
    with criterion(5, "covariant derivative entries match exactly with the "
                      "stated vanishing locus"):
        m = 3
        L = Polynomial.variable(0, m) + Polynomial.variable(1, m)
        for eps in (1, Fraction(1, 2)):
            nb = nabla_R(curvature_homogeneous_connection(m, eps=eps))
            # d2-component of nabla R(d2, d1, d1; d1): the position-dependent
            # entry highlighted by the family, exactly -2 eps (x1 + x2)
            assert nb[1, 0, 0, 0, 1] == Fraction(-2) * Fraction(eps) * L
            # mirrored slot: -2 Gamma_22^2 = +2 eps (x1 + x2)
            assert nb[0, 1, 1, 1, 0] == Fraction(2) * Fraction(eps) * L
            # both vanish exactly on the hyperplane x1 + x2 = 0, nowhere else
            for p in (nb[1, 0, 0, 0, 1], nb[0, 1, 1, 1, 0]):
                assert p([Fraction(5), Fraction(-5), Fraction(9)]) == 0
                assert p([Fraction(1), Fraction(0), Fraction(0)]) != 0
                assert p([Fraction(0), Fraction(1), Fraction(0)]) != 0
        # unperturbed family: the full slot is exactly -2 d_m
        for m in (3, 4):
            nb = nabla_R(curvature_homogeneous_connection(m))
            d = m - 1
            for l in range(m):
                want = Polynomial.constant(-2 if l == d else 0, m)
                assert nb.get((d, 0, 0, d, l), Polynomial.zero(m)) == want


def test_criterion_06_geodesic_blow_up():
    with criterion(6, "geodesic with the closed-form blow-up solution leaves "
                      "every compact set at t = 1"):
        start = time.perf_counter()
        res = geodesic_integrate(
            curvature_homogeneous_connection(3), [0.0, 0.0, 0.0], [0.0, 0.0, -0.5], 2.0
        )
        assert res.blew_up
        assert abs(res.blow_up_time - 1.0) <= 0.05
        assert time.perf_counter() - start < 1.0


def test_criterion_07_deformed_nilpotency():
    with criterion(7, "deformed extension of the wave-type base is nilpotent "
                      "at 20 sampled point-vector pairs"):
        base = plane_wave_connection()
        points = [
            tuple(Fraction((-1) ** j * (2 * j + 3 + k), 16) for j in range(6))
            for k in range(5)
        ]
        poly_curv = curvature(levi_civita_block(deformed_extension(base)))
        pairs = 0
        for k, pt in enumerate(points):
            report = check_extension_theorems(
                base, point=pt, n_vectors=2, seed=k
            )
            assert report.passed
            A = poly_curv.evaluate_at([float(v) for v in pt])
            for rec in report.records:
                # certified by exact rational arithmetic: the spectrum is {0}
                assert rec.method == "exact" and rec.nilpotent
                assert rec.max_abs_eigenvalue < 1e-8
                J = jacobi(A, np.asarray(rec.vector))
                assert np.linalg.norm(np.linalg.matrix_power(J, 6)) < 1e-8
                pairs += 1
        assert pairs == 20


def test_criterion_08_modified_spectrum():
    with criterion(8, "modified extension of the flat surface has spectrum "
                      "{0, 1, 1/4} with multiplicities (1, 1, 2)"):
        start = time.perf_counter()
        report = check_extension_theorems(
            flat_connection(2), which="modified", n_vectors=20, seed=0, tol=1e-6
        )
        assert report.clauses["spacelike_spectrum"]
        assert report.clauses["timelike_negative"]
        assert report.passed
        space = [r for r in report.records if r.character == "spacelike"]
        timel = [r for r in report.records if r.character == "timelike"]
        assert len(space) == 20 and len(timel) == 20
        for rec, sign in [(r, 1.0) for r in space] + [(r, -1.0) for r in timel]:
            got = sorted((v.real * sign, mult) for v, mult in rec.spectrum.items)
            for (value, mult), (wv, wm) in zip(got, [(0.0, 1), (0.25, 2), (1.0, 1)]):
                assert abs(value - wv) <= 1e-6 and mult == wm
        assert time.perf_counter() - start < 30.0


def _random_polynomial(rng, m):
    """Degree <= 2 with small rational coefficients."""
    p = Polynomial.zero(m)
    for _ in range(int(rng.integers(1, 3))):
        term = Polynomial.constant(
            Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3))), m
        )
        for _ in range(int(rng.integers(0, 3))):
            term = term * Polynomial.variable(int(rng.integers(0, m)), m)
        p = p + term
    return p


def _random_connection(m, seed):
    rng = np.random.default_rng(seed)
    symbols = {}
    for _ in range(int(rng.integers(2, 5))):
        i, j, k = (int(v) for v in rng.integers(0, m, 3))
        symbols[(i, j, k)] = _random_polynomial(rng, m)
    return connection_from_symbols(m, symbols)


def test_criterion_09_exact_identities():
    with criterion(9, "curvature identities and Levi-Civita certificates are "
                      "exact polynomial zeros"):
        setups = [(2, 0), (2, 1), (2, 2), (3, 3), (3, 4), (3, 5), (4, 6), (4, 7),
                  (4, 8), (4, 9)]
        assert len(setups) == 10
        for m, seed in setups:
            Cn = _random_connection(m, seed)
            got = curvature(Cn).entry
            # independent recomputation straight from the defining formula
            g = Cn.christoffel
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        for l in range(m):
                            term = g(j, k, l).diff(i) - g(i, k, l).diff(j)
                            for n in range(m):
                                term = term + g(i, n, l) * g(j, k, n)
                                term = term - g(j, n, l) * g(i, k, n)
                            assert got(i, j, k, l) == term
                            anti = got(i, j, k, l) + got(j, i, k, l)
                            assert anti.is_zero
                            cyc = got(i, j, k, l) + got(j, k, i, l) + got(k, i, j, l)
                            assert cyc.is_zero
        for seed in (0, 3):
            metric = deformed_extension(_random_connection(2, seed))
            lc = levi_civita_block(metric)
            n = metric.dim
            zero = Polynomial.zero(n)

            def g(a, b):
                return metric.components.get((a, b), zero)

            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert lc.christoffel(a, b, c) == lc.christoffel(b, a, c)
                        defect = g(b, c).diff(a)
                        for d in range(n):
                            defect = defect - lc.christoffel(a, b, d) * g(d, c)
                            defect = defect - lc.christoffel(a, c, d) * g(b, d)
                        assert defect.is_zero


def test_criterion_10_surface_criterion():
    with criterion(10, "symmetric-Ricci definiteness agrees with the sampled "
                       "verdict on random surfaces"):
        outcomes = set()
        for seed in range(12):
            Cn = _random_connection(2, seed + 100)
            verdict = surface_projective_osserman(Cn, [Fraction(0), Fraction(0)])
            assert verdict.agrees, seed
            outcomes.add(verdict.definite)
        # also pin one of each flavor by hand
        definite = surface_projective_osserman(
            curvature_homogeneous_connection(2), [0, 0]
        )
        assert definite.definite and definite.agrees
        degenerate = surface_projective_osserman(
            connection_from_symbols(2, {(0, 0, 1): Polynomial.variable(1, 2)}), [0, 0]
        )
        assert not degenerate.definite and degenerate.agrees
