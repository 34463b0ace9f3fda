"""The exact polynomial kernel against references that do not share it.

`sympy.Poly` over QQ checks the ring operations, derivatives, embedding,
equality and exact evaluation of `Polynomial`; a reference written here
with plain {exponent tuple: Fraction} dicts checks the tables that the
geometry modules accumulate in place: the curvature, nabla R and the
Levi-Civita symbols of the extension metrics.  Coefficients have
denominators up to 12, so bringing tables to one denominator and reducing
by the gcd are exercised.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecurv.polynomial_geometry import connection_from_symbols, curvature
from affinecurv.polynomials import Polynomial, exact_values, integer_values
from affinecurv.riemannian_extension import (
    deformed_extension,
    levi_civita_block,
    modified_extension,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
coeffs = rationals.filter(bool)


def term_dicts(nvars, max_exp=3, max_terms=4):
    return st.dictionaries(st.tuples(*(st.integers(min_value=0, max_value=max_exp),) * nvars),
                           coeffs, max_size=max_terms)


@st.composite
def polynomial_problems(draw):
    nvars = draw(st.integers(min_value=1, max_value=6))
    p, q = draw(term_dicts(nvars)), draw(term_dicts(nvars))
    point = draw(st.lists(rationals, min_size=nvars, max_size=nvars))
    return nvars, p, q, point, draw(st.integers(min_value=0, max_value=3))


def _sympy_poly(sympy, nvars, terms):
    gens = sympy.symbols("x1:%d" % (nvars + 1))
    data = {e: sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}
    return sympy.Poly.from_dict(data or {(0,) * nvars: 0}, gens, domain=sympy.QQ)


def _sympy_terms(poly):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items() if c}


@settings(max_examples=40, deadline=None)
@given(polynomial_problems())
def test_polynomial_agrees_with_sympy(problem):
    sympy = pytest.importorskip("sympy")
    nvars, p_terms, q_terms, point, n = problem
    p, q = Polynomial(nvars, p_terms), Polynomial(nvars, q_terms)
    P, Q = _sympy_poly(sympy, nvars, p_terms), _sympy_poly(sympy, nvars, q_terms)
    assert dict(p.terms()) == _sympy_terms(P)
    results = [(p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p ** n, P ** n)]
    results += [(p.diff(i), P.diff(P.gens[i])) for i in range(nvars)]
    for ours, theirs in results:
        want = _sympy_terms(theirs)
        assert dict(ours.terms()) == want
        # the arithmetic and the public constructor give one stored form
        rebuilt = Polynomial(nvars, want)
        assert ours == rebuilt and hash(ours) == hash(rebuilt)
        assert all(isinstance(c, Fraction) and c for _, c in ours.terms())
    assert dict(p.embed(nvars + 2).terms()) == {e + (0, 0): c for e, c in _sympy_terms(P).items()}
    assert (p == q) == (P == Q)
    assert (p + q - q) == p and hash(p + q - q) == hash(p)
    at = {g: sympy.Rational(v.numerator, v.denominator) for g, v in zip(P.gens, point)}
    for ours, theirs in ((p, P), (q, Q), (p * q, P * Q)):
        value = sympy.Rational(theirs.as_expr().xreplace(at))
        assert ours(point) == Fraction(int(value.p), int(value.q))
    values = exact_values({0: p, 1: q}, point, nvars)
    assert values == {key: v for key, v in ((0, p(point)), (1, q(point))) if v}


# -- tables against plain dicts ---------------------------------------------
#
# The references add and multiply in the order the library's loops do, with
# the semantics of a term dict: a sum adds the terms of its second operand
# one by one, deleting a term that cancels, and a product forms a's terms
# outer and b's inner and drops its zeros.  So they also pin the order of
# `terms()`, which fixes the float bits of every evaluation.


def d_add(*parts):
    """The sum of (scale, {exponents: Fraction}) parts, left to right."""
    out = {}
    for scale, terms in parts:
        for e, c in terms.items():
            c = out.get(e, 0) + scale * c
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def d_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def d_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def d_var(i, n):
    return {tuple(int(v == i) for v in range(n)): Fraction(1)}


def reference_curvature(gamma, m):
    """R_ijk^l = d_i G_jk^l - d_j G_ik^l + G_in^l G_jk^n - G_jn^l G_ik^n and
    nabla[i, j, k, n, l] = d_n R_ijk^l + G_np^l R_ijk^p - G_ni^p R_pjk^l
    - G_nj^p R_ipk^l - G_nk^p R_ijp^l, each sum over every index, for
    i < j; both are antisymmetric in (i, j)."""
    def G(i, j, k):
        return gamma.get((i, j, k), {})

    idx = range(m)
    R = {}
    for i, j, k, l in ((i, j, k, l) for i in idx for j in idx for k in idx for l in idx):
        if i < j:
            R[i, j, k, l] = d_add((1, d_diff(G(j, k, l), i)), (-1, d_diff(G(i, k, l), j)),
                                  *((1, d_mul(G(i, n, l), G(j, k, n))) for n in idx),
                                  *((-1, d_mul(G(j, n, l), G(i, k, n))) for n in idx))
            R[j, i, k, l] = d_add((-1, R[i, j, k, l]))
        elif i == j:
            R[i, j, k, l] = {}
    NR = {}
    for i, j, k, n, l in ((i, j, k, n, l) for i in idx for j in idx for k in idx
                          for n in idx for l in idx if i < j):
        NR[i, j, k, n, l] = d_add(
            (1, d_diff(R[i, j, k, l], n)),
            *((1, d_mul(G(n, p, l), R[i, j, k, p])) for p in idx),
            *((-1, d_mul(G(n, i, p), R[p, j, k, l])) for p in idx),
            *((-1, d_mul(G(n, j, p), R[i, p, k, l])) for p in idx),
            *((-1, d_mul(G(n, k, p), R[i, j, p, l])) for p in idx))
        NR[j, i, k, n, l] = d_add((-1, NR[i, j, k, n, l]))
    return R, NR


def reference_levi_civita(gamma, m, modified):
    """G_ab^c = 1/2 ginv^cd (d_a g_bd + d_b g_ad - d_d g_ab) for a <= b, and
    G_ba^c = G_ab^c, for the metric [[B, Id], [Id, 0]] with
    B_ij = -2 y_k G_ij^k (+ y_i y_j if modified)."""
    n = 2 * m
    one = {(0,) * n: Fraction(1)}
    g, ginv = {}, {}
    for i in range(m):
        for j in range(m):
            parts = [(-2, d_mul(d_var(m + k, n), {e + (0,) * m: c for e, c in
                                                 gamma.get((i, j, k), {}).items()}))
                     for k in range(m)]
            if modified:
                parts.append((1, d_mul(d_var(m + i, n), d_var(m + j, n))))
            g[i, j] = d_add(*parts)
            ginv[m + i, m + j] = d_add((-1, g[i, j]))
        g[i, m + i] = g[m + i, i] = ginv[i, m + i] = ginv[m + i, i] = one

    def dg(a, b, c):
        return d_diff(g.get((a, b), {}), c)

    idx = range(n)
    table = {}
    for a, b, c in ((a, b, c) for a in idx for b in idx for c in idx if a <= b):
        table[a, b, c] = table[b, a, c] = d_add(*((Fraction(1, 2), d_mul(
            ginv.get((c, d), {}), d_add((1, dg(b, d, a)), (1, dg(a, d, b)), (-1, dg(a, b, d)))))
            for d in idx))
    return table


def nonzero_terms(table):
    """The table's entries as lists of terms, in `terms()` order."""
    return {key: list(p.terms()) for key, p in table.items()}


def nonzero_reference(table):
    return {key: list(terms.items()) for key, terms in table.items() if terms}


@st.composite
def rational_connections(draw, max_m=3):
    """Symmetric symbols with coefficients over denominators up to 12."""
    m = draw(st.integers(min_value=2, max_value=max_m))
    keys = draw(st.lists(st.tuples(*(st.integers(min_value=0, max_value=m - 1),) * 3),
                         min_size=1, max_size=4,
                         unique_by=lambda key: (min(key[:2]), max(key[:2]), key[2])))
    gamma = {}
    for i, j, k in keys:
        terms = draw(term_dicts(m, max_exp=2, max_terms=3).filter(bool))
        gamma[i, j, k] = gamma[j, i, k] = terms
    return m, gamma


@settings(max_examples=25, deadline=None)
@given(rational_connections())
def test_curvature_and_nabla_agree_with_plain_dicts(problem):
    m, gamma = problem
    C = connection_from_symbols(m, {key: Polynomial(m, terms) for key, terms in gamma.items()})
    R, NR = reference_curvature(gamma, m)
    P = curvature(C)
    assert nonzero_terms(P.riemann) == nonzero_reference(R)
    assert nonzero_terms(P.nabla) == nonzero_reference(NR)


@settings(max_examples=15, deadline=None)
@given(rational_connections(), st.booleans())
def test_levi_civita_symbols_agree_with_plain_dicts(problem, modified):
    m, gamma = problem
    C = connection_from_symbols(m, {key: Polynomial(m, terms) for key, terms in gamma.items()})
    metric = modified_extension(C) if modified else deformed_extension(C)
    want = nonzero_reference(reference_levi_civita(gamma, m, modified))
    assert nonzero_terms(levi_civita_block(metric).gamma) == want


@settings(max_examples=25, deadline=None)
@given(rational_connections(), st.data())
def test_curvature_numerators_give_the_riemann_map_and_its_values(problem, data):
    """`riemann` is built from the numerators `curvature` keeps, on first
    read; it equals the map of public-constructor polynomials of the plain
    dict reference, each R[i, j, k, l] followed by R[j, i, k, l] = -R[i, j,
    k, l], in keys, order, terms, equality and hash.  The values the
    numerators give at a point are those of `integer_values` on it, ints
    and den alike."""
    m, gamma = problem
    C = connection_from_symbols(m, {key: Polynomial(m, terms) for key, terms in gamma.items()})
    point = data.draw(st.lists(rationals, min_size=m, max_size=m))
    P = curvature(C)
    values = P.integer_values(point)
    assert "riemann" not in vars(P)
    assert values == integer_values(P.riemann, point, m)
    assert list(values[0]) == [key for key in P.riemann if key in values[0]]
    R, _ = reference_curvature(gamma, m)
    eager = {}
    for (i, j, k, l), terms in sorted(R.items()):
        if i < j and terms:
            eager[i, j, k, l] = Polynomial(m, terms)
            eager[j, i, k, l] = -eager[i, j, k, l]
    assert list(P.riemann) == list(eager)
    for key, p in eager.items():
        assert P.riemann[key] == p and hash(P.riemann[key]) == hash(p)
        assert P.riemann[key].terms() == p.terms()
    assert dict(P.evaluate_exact(point)) == exact_values(eager, point, m)
