"""Cotangent extension metrics and their spectral checks."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecurv.polynomial_geometry import (
    PolyConnection,
    connection_from_symbols,
    curvature_homogeneous_connection,
    flat_connection,
    plane_wave_connection,
)
from affinecurv.polynomials import Polynomial
from affinecurv.riemannian_extension import (
    PolyMetric,
    _clear_denominators,
    _is_nilpotent,
    check_extension_theorems,
    default_point,
    deformed_extension,
    levi_civita_block,
    modified_extension,
)


def var(i, n):
    return Polynomial.variable(i, n)


# -- metrics --------------------------------------------------------------


def test_deformed_top_block_entries():
    # base symbol G_11^3 = x2 contributes B_11 = -2 y_3 x2; with base
    # variables first, y_3 is variable index 5 of 6
    g = deformed_extension(plane_wave_connection())
    want = Fraction(-2) * var(5, 6) * var(1, 6)
    assert g.top_block[0, 0] == want
    for i in range(3):
        for j in range(3):
            if (i, j) != (0, 0):
                assert (i, j) not in g.top_block


def test_deformed_phi_added():
    phi00 = var(0, 3) * var(0, 3)
    g = deformed_extension(flat_connection(3), Phi={(0, 0): phi00, (1, 1): 0, (0, 1): 0})
    assert g.top_block[0, 0] == var(0, 6) * var(0, 6)
    assert (1, 1) not in g.top_block


def test_modified_top_block_entries():
    g = modified_extension(flat_connection(2))
    # pure y_i y_j block over a flat base
    for i in range(2):
        for j in range(2):
            assert g.top_block[i, j] == var(2 + i, 4) * var(2 + j, 4)


def test_metric_block_layout():
    g = deformed_extension(flat_connection(2))
    one = Polynomial.constant(1, 4)
    for i in range(2):
        assert g.components[i, 2 + i] == one
        assert g.components[2 + i, i] == one
        for j in range(2):
            assert (2 + i, 2 + j) not in g.components


def test_metric_inverse_exact():
    g = deformed_extension(curvature_homogeneous_connection(2))
    inv = g.inverse()
    n = g.dim
    zero = Polynomial.zero(n)
    for a in range(n):
        for b in range(n):
            total = Polynomial.zero(n)
            for c in range(n):
                total = total + g.components.get((a, c), zero) * inv.get((c, b), zero)
            want = Polynomial.constant(1 if a == b else 0, n)
            assert total == want


def test_metric_neutral_signature():
    g = modified_extension(curvature_homogeneous_connection(3))
    G = g.gram_at([0.3, -0.2, 0.5, 1.0, -0.7, 0.1])
    vals = np.linalg.eigvalsh(G)
    assert sum(v > 0 for v in vals) == 3
    assert sum(v < 0 for v in vals) == 3


def test_metric_symmetry_validation():
    with pytest.raises(ValueError):
        PolyMetric(2, {(0, 1): var(0, 4)})


def test_metric_keeps_read_only_maps():
    g = PolyMetric(1, {(0, 0): var(1, 2)})
    assert dict(g.top_block) == {(0, 0): var(1, 2)}
    one = Polynomial.constant(1, 2)
    assert dict(g.components) == {(0, 0): var(1, 2), (0, 1): one, (1, 0): one}
    assert dict(g.inverse()) == {(0, 1): one, (1, 0): one, (1, 1): -var(1, 2)}
    with pytest.raises(TypeError):
        g.components[1, 1] = one
    with pytest.raises(ValueError, match="index 1 out of range"):
        PolyMetric(1, {(0, 1): 1})


def test_metric_immutable():
    g = deformed_extension(flat_connection(2))
    with pytest.raises(AttributeError):
        g.m = 3


def test_gram_exact_rational():
    g = modified_extension(flat_connection(2))
    G = g.gram_exact([0, 0, Fraction(1, 2), Fraction(1, 3)])
    assert G[0][0] == Fraction(1, 4)
    assert G[0][1] == Fraction(1, 6)
    assert G[0][2] == 1


# -- Levi-Civita ----------------------------------------------------------


def test_levi_civita_metric_compatibility():
    # re-derive d_a g_bc = G_ab^d g_dc + G_ac^d g_bd as polynomials,
    # independently of the construction's internal certificate
    g = modified_extension(flat_connection(2))
    C = levi_civita_block(g)
    n = g.dim
    zero = Polynomial.zero(n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = g.components.get((b, c), zero).diff(a)
                for d in range(n):
                    lhs = lhs - C.christoffel(a, b, d) * g.components.get((d, c), zero)
                    lhs = lhs - C.christoffel(a, c, d) * g.components.get((b, d), zero)
                assert lhs.is_zero


def test_levi_civita_fiber_symbols_vanish():
    # the metric is linear in the fiber variables for a deformed extension,
    # so no symbol carries two fiber indices
    g = deformed_extension(plane_wave_connection())
    C = levi_civita_block(g)
    m = 3
    for a in range(m, 2 * m):
        for b in range(m, 2 * m):
            for k in range(2 * m):
                assert C.christoffel(a, b, k).is_zero


# -- theorem checks -------------------------------------------------------


def test_deformed_over_nilpotent_base():
    report = check_extension_theorems(plane_wave_connection(), n_vectors=4, seed=1)
    assert report.kind == "deformed"
    assert report.base_status == "affine_osserman"
    assert report.clauses == {"nilpotent": True}
    assert report.passed
    for rec in report.records:
        assert rec.method == "exact"
        assert rec.nilpotent is True
        assert rec.max_abs_eigenvalue == 0.0
        assert rec.spectrum is None
    assert sum(r.character == "spacelike" for r in report.records) == 4
    assert sum(r.character == "timelike" for r in report.records) == 4


def test_modified_over_flat_base():
    report = check_extension_theorems(
        flat_connection(2), which="modified", n_vectors=6, seed=0
    )
    assert report.kind == "modified"
    assert report.clauses["spacelike_spectrum"]
    assert report.clauses["timelike_negative"]
    assert report.passed
    m = 2
    for rec in report.records:
        assert rec.method == "numeric"
        sign = 1.0 if rec.character == "spacelike" else -1.0
        got = sorted((v.real * sign, mult) for v, mult in rec.spectrum.items)
        want = [(0.0, 1), (0.25, 2 * m - 2), (1.0, 1)]
        assert len(got) == len(want)
        for (value, mult), (want_v, want_m) in zip(got, want):
            assert abs(value - want_v) <= 1e-6
            assert mult == want_m


def test_deformed_over_projective_base():
    # the extension's Jacobi operators have size-4 Jordan blocks, whose
    # eigenvalues scatter like the fourth root of machine epsilon; cluster
    # at 1e-3 accordingly
    report = check_extension_theorems(
        curvature_homogeneous_connection(3, eps=1), n_vectors=3, seed=2, tol=1e-3
    )
    assert report.base_status == "projective_affine_osserman"
    assert report.clauses == {"projective_spacelike": True, "projective_timelike": True}
    assert report.passed


@pytest.mark.parametrize("which,eps,change", [
    # twice the target spectrum matches it projectively, but not at scale 1
    ("modified", None, lambda Ms: 2.0 * Ms),
    # a shift by the identity removes the zero eigenvalue; the projective
    # comparison's ValueError makes the clause false instead of escaping
    ("modified", None, lambda Ms: Ms + np.eye(Ms.shape[1])),
    ("deformed", 0, lambda Ms: Ms + np.eye(Ms.shape[1])),
], ids=["modified-doubled", "modified-shifted", "deformed-shifted"])
def test_clauses_fail_on_changed_spectra(monkeypatch, which, eps, change):
    from affinecurv import spectral

    original = spectral.spectrum_batch
    monkeypatch.setattr(spectral, "spectrum_batch",
                        lambda Ms, cluster_tol=None: original(change(np.asarray(Ms)), cluster_tol))
    C = flat_connection(2) if eps is None else curvature_homogeneous_connection(3, eps=eps)
    report = check_extension_theorems(C, which=which, n_vectors=2)
    assert report.clauses and not any(report.clauses.values())


def test_extension_report_json():
    report = check_extension_theorems(plane_wave_connection(), n_vectors=2, seed=0)
    d = report.to_json_dict()
    assert d["kind"] == "deformed"
    assert d["passed"] is True
    assert len(d["vectors"]) == 4
    assert set(d["clauses"]) == {"nilpotent"}
    assert d["vectors"][0]["method"] == "exact"


def test_default_point():
    pt = default_point(2)
    assert pt == (Fraction(3, 16), Fraction(-5, 16), Fraction(7, 16), Fraction(-9, 16))


def test_point_override():
    pt = tuple(Fraction(k + 1, 7) for k in range(6))
    report = check_extension_theorems(plane_wave_connection(), point=pt, n_vectors=2, seed=0)
    assert report.point == tuple(float(v) for v in pt)
    assert report.passed


# -- validation -----------------------------------------------------------


def test_bad_which():
    with pytest.raises(ValueError):
        check_extension_theorems(flat_connection(2), which="twisted")


def test_modified_rejects_phi():
    with pytest.raises(ValueError):
        check_extension_theorems(flat_connection(2), which="modified", Phi={(0, 0): 1, (1, 1): 1})


def test_phi_must_be_symmetric():
    with pytest.raises(ValueError):
        deformed_extension(flat_connection(2), Phi={(0, 1): 1})


def test_zero_vectors_is_no_evidence():
    with pytest.raises(ValueError):
        check_extension_theorems(plane_wave_connection(), n_vectors=0)
    with pytest.raises(ValueError):
        check_extension_theorems(flat_connection(2), which="modified", n_vectors=0)


def test_wrong_point_length():
    with pytest.raises(ValueError):
        check_extension_theorems(flat_connection(2), point=(0, 0))


def test_metric_compatibility_check_still_raises(monkeypatch):
    from affinecurv import riemannian_extension

    def corrupted(n, table):
        table = dict(table)
        bumped = table.get((0, 1, 2), Polynomial.zero(n)) + Fraction(1, 3)
        table[0, 1, 2] = table[1, 0, 2] = bumped
        return PolyConnection(n, table)

    g = modified_extension(flat_connection(2))
    monkeypatch.setattr(riemannian_extension, "PolyConnection", corrupted)
    with pytest.raises(RuntimeError, match="metric compatibility"):
        levi_civita_block(g)


# -- integer nilpotency kernel ---------------------------------------------


def _mat_mul_reference(A, B):
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for k in range(n):
            a = Ai[k]
            if not a:
                continue
            Bk = B[k]
            row = out[i]
            for j in range(n):
                if Bk[j]:
                    row[j] += a * Bk[j]
    return out


def _is_nilpotent_reference(J):
    """Check J^n = 0 by repeated squaring of Fraction matrices (n = size):
    the test check_extension_theorems made before it cleared denominators."""
    n = len(J)
    P = J
    power = 1
    while power < n:
        P = _mat_mul_reference(P, P)
        power *= 2
        if all(not v for row in P for v in row):
            return True
    return all(not v for row in P for v in row)


def _inverse(g):
    """Gauss-Jordan inverse of a Fraction matrix, or None if singular."""
    n = len(g)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _integer_kernel(M):
    x, den = _clear_denominators([v for row in M for v in row])
    assert den > 0 and all(type(v) is int for v in x)
    assert [Fraction(v, den) for v in x] == [v for row in M for v in row]
    return _is_nilpotent(x.reshape(len(M), len(M)))


rationals = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 5, 7, 11, 13])
)


@st.composite
def conjugated(draw, diagonal):
    """g (N + diag(d)) g^-1 with N strictly upper triangular, g rational
    with odd denominators; diagonal=True adds a nonzero d."""
    n = draw(st.integers(1, 6))
    N = [[draw(rationals) if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    if diagonal:
        for i in range(n):
            N[i][i] = draw(rationals)
        k = draw(st.integers(0, n - 1))
        N[k][k] = draw(rationals.filter(bool))
    g = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    g_inv = _inverse(g)
    if g_inv is None:  # fall back to a unit lower triangular g
        g = [[g[i][j] if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        g_inv = _inverse(g)
    return _mat_mul_reference(_mat_mul_reference(g, N), g_inv)


@settings(max_examples=80, deadline=None)
@given(conjugated(diagonal=False))
def test_integer_kernel_certifies_conjugated_nilpotent_matrices(M):
    assert _is_nilpotent_reference(M)
    assert _integer_kernel(M)


@settings(max_examples=80, deadline=None)
@given(conjugated(diagonal=True))
def test_integer_kernel_rejects_matrices_with_a_nonzero_eigenvalue(M):
    assert not _is_nilpotent_reference(M)
    assert not _integer_kernel(M)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_integer_kernel_agrees_with_fraction_squaring(M):
    assert _integer_kernel(M) == _is_nilpotent_reference(M)


def test_integer_kernel_needs_the_last_square():
    # a full Jordan block of size n has J^(n-1) != 0, so n = 5 needs J^8
    for n in (1, 2, 3, 4, 5, 8, 9):
        shift = np.array([[int(j == i + 1) for j in range(n)] for i in range(n)], dtype=object)
        assert _is_nilpotent(shift)
        shift[n - 1, 0] = 1  # a cyclic permutation: not nilpotent
        assert not _is_nilpotent(shift)


def test_clear_denominators_takes_floats_fractions_and_ints():
    x, den = _clear_denominators([0.75, Fraction(-2, 3), 5, 0.0])
    assert den == 12 and list(x) == [9, -8, 60, 0]
    x, den = _clear_denominators([2.0 ** -60, 1.5])
    assert den == 2 ** 60 and list(x) == [1, 3 * 2 ** 59]


def test_points_with_thirds_give_the_recorded_reports():
    # Written by the Fraction implementation the integer kernel replaced.
    def thirds(m):
        return [Fraction((-1) ** k * (k + 1), 3) for k in range(2 * m)]

    calls = [
        (curvature_homogeneous_connection(3, 1), "deformed", 3, 1e-3),
        (plane_wave_connection(), "deformed", 3, 1e-6),
        (flat_connection(2), "modified", 2, 1e-6),
    ]
    reports = [
        check_extension_theorems(C, which=w, point=thirds(m), n_vectors=2, seed=1,
                                 tol=t).to_json_dict()
        for C, w, m, t in calls
    ]
    golden = Path(__file__).parent / "golden" / "extend_thirds_points.json"
    assert json.dumps(reports, sort_keys=True, indent=2) + "\n" == golden.read_text()
    methods = {r["method"] for report in reports for r in report["vectors"]}
    assert methods == {"exact", "numeric"}
