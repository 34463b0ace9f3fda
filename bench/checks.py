"""Output checks for the benchmark's jobs.

Every check compares a CLI report with the benchmark's own computation or
with a property the mathematics gives; none compares with saved output.
A check raises CheckFailed with the reason; returning means the output
is right.  The multiplicity table below is transcribed from the paper's
list of eigenvalue structures and is deliberately not read from
`affinecurv.constructors`.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.linalg import eigvals

# case -> (real slot multiplicities, conjugate-pair slot multiplicities),
# in the slot order of the CLI's --lambda and --nu flags.
MULTIPLICITIES = {
    "1":       (lambda m: (m - 1,),          lambda m: ()),
    "2-a":     (lambda m: (m - 1,),          lambda m: ()),
    "2-b":     (lambda m: (1, m - 2),        lambda m: ()),
    "2-c":     (lambda m: (1,),              lambda m: ((m - 2) // 2,)),
    "3-a":     (lambda m: (m - 1,),          lambda m: ()),
    "3-b-i":   (lambda m: (1, m - 2),        lambda m: ()),
    "3-b-ii":  (lambda m: (2, m - 3),        lambda m: ()),
    "3-b-iii": (lambda m: (3, m - 4),        lambda m: ()),
    "3-c-i":   (lambda m: (1, 1, m - 3),     lambda m: ()),
    "3-c-ii":  (lambda m: (1, 2, m - 4),     lambda m: ()),
    "3-d":     (lambda m: (1, 1, 1, m - 4),  lambda m: ()),
    "3-e-i":   (lambda m: (1,),              lambda m: ((m - 2) // 2,)),
    "3-e-ii":  (lambda m: (3,),              lambda m: ((m - 4) // 2,)),
    "3-e-iii": (lambda m: (m - 3,),          lambda m: (1,)),
    "3-f-i":   (lambda m: (1, 2),            lambda m: ((m - 4) // 2,)),
    "3-f-ii":  (lambda m: (1, m - 4),        lambda m: (1,)),
    "3-g":     (lambda m: (1, 1, 1),         lambda m: ((m - 4) // 2,)),
    "3-h":     (lambda m: (1,),              lambda m: (1, (m - 4) // 2)),
}

PROJECTIVE = "projective_affine_osserman"
AFFINE = "affine_osserman"
NEITHER = "neither"


class CheckFailed(AssertionError):
    pass


def expect(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


def expect_code(code, want, report=None):
    expect(code == want, "exit code %r, expected %r%s", code, want,
           "" if not report or "stderr" not in report else " (%s)" % report["stderr"])


# -- spectra as (complex value, multiplicity) lists -----------------------


def expected_spectrum(case, m, lambdas, nus):
    """Full Jacobi spectrum at a unit direction: the direction's own zero,
    each real slot with its multiplicity, each pair slot twice."""
    real_mults, pair_mults = (f(m) for f in MULTIPLICITIES[case])
    items = [(0j, 1)]
    items += [(complex(v), k) for v, k in zip(lambdas, real_mults)]
    for nu, k in zip(nus, pair_mults):
        items += [(complex(nu), k), (complex(nu).conjugate(), k)]
    return items


def reported_spectrum(spec_json):
    return [(complex(e["re"], e["im"]), int(e["mult"])) for e in spec_json["eigenvalues"]]


def radius(items):
    return max((abs(v) for v, _ in items), default=0.0)


def same_multiset(got, want, rel):
    """True when got and want pair up one to one, equal multiplicities and
    values within rel times the larger spectral radius."""
    eff = rel * max(radius(got), radius(want))
    pool = list(want)
    for value, mult in got:
        hit = None
        for idx, (w, k) in enumerate(pool):
            if k == mult and abs(value - w) <= eff and (
                hit is None or abs(value - w) < abs(value - pool[hit][0])
            ):
                hit = idx
        if hit is None:
            return False
        pool.pop(hit)
    return not pool


def positive_multiple(got, ref, rel):
    """True when got = s * ref as multisets for some s > 0."""
    r_got, r_ref = radius(got), radius(ref)
    if r_ref == 0.0 or r_got == 0.0:
        return r_ref == r_got == 0.0
    s = r_got / r_ref
    return same_multiset(got, [(s * v, k) for v, k in ref], rel)


def expand(items):
    """Eigenvalue list with each value repeated by its multiplicity."""
    return [v for v, k in items for _ in range(k)]


def eigen_match(values, want, rel):
    """Unclustered eigenvalues against an expected multiset, greedily."""
    eff = rel * max(1e-300, radius(want), max((abs(v) for v in values), default=0.0))
    pool = expand(want)
    if len(pool) != len(values):
        return False
    for v in values:
        idx = int(np.argmin([abs(v - w) for w in pool]))
        if abs(v - pool[idx]) > eff:
            return False
        pool.pop(idx)
    return True


# -- model files ----------------------------------------------------------


def jacobi_e1(model):
    """J_{e1} with column i the image of e_i: J[l, i] = A[i, 0, 0, l]."""
    m = int(model["dim"])
    J = np.zeros((m, m))
    for i, j, k, l, value in model["entries"]:
        if j == 0 and k == 0:
            J[l, i] = value
    return J


def check_realize(report, code, spec, path):
    """realize --out: the file holds the model the report describes and
    its Jacobi operator at e1 has the requested spectrum.  Returns the
    trace of J_{e1}, sum_i A[i, 0, 0, i], for the classify check."""
    expect_code(code, 0, report)
    m = spec["m"]
    expect(report.get("command") == "realize", "not a realize report")
    expect(report.get("dim") == m, "dim %r, expected %d", report.get("dim"), m)
    with open(path) as fh:
        model = json.load(fh)
    expect(model["dim"] == m, "model file has dim %r", model["dim"])
    expect(report.get("nonzero_entries") == len(model["entries"]),
           "report counts %r entries, file holds %d",
           report.get("nonzero_entries"), len(model["entries"]))
    J = jacobi_e1(model)
    want = expected_spectrum(spec["case"], m, spec["lambdas"], spec["nus"])
    expect(eigen_match(list(eigvals(J)), want, 1e-6),
           "spectrum of J_e1 in the model file is not the requested one")
    return float(np.trace(J))


def check_projective(report, code, spec, trace):
    """classify on a realized model: projective, the realized structure and
    eigenvalues, the table's multiplicities, trace, Adams admissible."""
    expect_code(code, 0, report)
    verdict = report["verdict"]
    expect(verdict["status"] == PROJECTIVE, "status %r", verdict["status"])
    case, m = spec["case"], spec["m"]
    structure = report.get("structure")
    expect(isinstance(structure, dict), "structure %r", structure)
    expect(structure["case"] == case, "case %r, expected %r", structure["case"], case)
    real_mults, pair_mults = (f(m) for f in MULTIPLICITIES[case])
    got_reals = [(complex(v), k) for v, k in zip(structure["lambda"], real_mults)]
    got_pairs = [(complex(re, im), k) for (re, im), k in zip(structure["nu"], pair_mults)]
    expect(len(got_reals) == len(spec["lambdas"]) and len(got_pairs) == len(spec["nus"]),
           "structure has %d real and %d pair slots", len(got_reals), len(got_pairs))
    want_reals = [(complex(v), k) for v, k in zip(spec["lambdas"], real_mults)]
    want_pairs = [(complex(v), k) for v, k in zip(spec["nus"], pair_mults)]
    expect(same_multiset(got_reals, want_reals, 1e-6)
           and same_multiset(got_pairs, want_pairs, 1e-6),
           "structure eigenvalues %r / %r do not match the realized ones",
           structure["lambda"], structure["nu"])
    spectrum = reported_spectrum(verdict["spectrum"])
    want = expected_spectrum(case, m, spec["lambdas"], spec["nus"])
    expect(same_multiset(spectrum, want, 1e-6),
           "reported spectrum or multiplicities differ from the table")
    weighted = sum(v.real * k for v, k in spectrum)
    scale = sum(abs(v) * k for v, k in spectrum)
    expect(abs(weighted - trace) <= 1e-8 * scale,
           "sum of value x multiplicity %r differs from trace(J_e1) %r", weighted, trace)
    expect(report["adams"]["status"] == "admissible", "adams %r", report["adams"])


def check_nilpotent(report, code):
    expect_code(code, 1, report)
    verdict = report["verdict"]
    expect(verdict["status"] == AFFINE, "status %r", verdict["status"])
    expect(verdict["mu"]["nilpotent"] is True, "mu not flagged nilpotent")


def check_neither(report, code):
    expect_code(code, 2, report)
    expect(report["verdict"]["status"] == NEITHER, "status %r", report["verdict"]["status"])


# -- extension metrics ----------------------------------------------------


def _records(report, n_vectors):
    expect(report.get("command") == "extend", "not an extend report")
    records = report["report"]["vectors"]
    expect(len(records) == 2 * n_vectors, "%d vector records, expected %d",
           len(records), 2 * n_vectors)
    for character in ("spacelike", "timelike"):
        count = sum(r["character"] == character for r in records)
        expect(count == n_vectors, "%d %s records", count, character)
    return records


def check_extend_nilpotent(report, code, n_vectors):
    expect_code(code, 0, report)
    body = report["report"]
    expect(body["passed"] is True, "not passed")
    expect(body["base_status"] == AFFINE, "base %r", body["base_status"])
    for rec in _records(report, n_vectors):
        expect(rec["method"] == "exact" and rec["nilpotent"] is True,
               "record %r is not an exact nilpotent certificate", rec["vector"])


def check_extend_projective(report, code, n_vectors, rel=5e-3):
    expect_code(code, 0, report)
    body = report["report"]
    expect(body["passed"] is True, "not passed")
    expect(body["base_status"] == PROJECTIVE, "base %r", body["base_status"])
    records = _records(report, n_vectors)
    for character in ("spacelike", "timelike"):
        spectra = [reported_spectrum(r["spectrum"]) for r in records
                   if r["character"] == character and r["spectrum"] is not None]
        expect(len(spectra) == n_vectors, "%s records without a spectrum", character)
        for other in spectra[1:]:
            expect(positive_multiple(other, spectra[0], rel),
                   "%s spectrum %r is not a positive multiple of %r",
                   character, other, spectra[0])


def check_extend_modified(report, code, m, n_vectors, rel=1e-6):
    expect_code(code, 0, report)
    expect(report["report"]["passed"] is True, "not passed")
    space = [(0j, 1), (1 + 0j, 1), (0.25 + 0j, 2 * m - 2)]
    for rec in _records(report, n_vectors):
        sign = 1.0 if rec["character"] == "spacelike" else -1.0
        expect(rec["spectrum"] is not None, "record without a spectrum")
        want = [(sign * v, k) for v, k in space]
        expect(same_multiset(reported_spectrum(rec["spectrum"]), want, rel),
               "%s spectrum %r, expected %r", rec["character"], rec["spectrum"], want)


# -- polynomial geometry --------------------------------------------------


def homogeneous_symbols(m, eps, x):
    """Christoffel symbols G[i, j, k] of curvature_homogeneous_connection
    and their derivatives dG[n, i, j, k] = d_n G_ij^k, from its docstring:
    G_dd^d = 2, G_id^i = G_di^i = 1, G_ii^d = 1 (i < d, d the last index),
    G_11^1 = eps (x1 + x2), G_22^2 = -eps (x1 + x2)."""
    d = m - 1
    G = np.zeros((m, m, m))
    dG = np.zeros((m, m, m, m))
    G[d, d, d] = 2.0
    for i in range(d):
        G[i, d, i] = G[d, i, i] = 1.0
        G[i, i, d] = 1.0
    if eps:
        s = x[0] + x[1]
        G[0, 0, 0] += eps * s
        G[1, 1, 1] -= eps * s
        for n in (0, 1):
            dG[n, 0, 0, 0] += eps
            dG[n, 1, 1, 1] -= eps
    return G, dG


def curvature_numeric(G, dG):
    """R[i, j, k, l] = d_i G_jk^l - d_j G_ik^l + G_in^l G_jk^n - G_jn^l G_ik^n
    and nabla[i, j, k, n, l] = (grad_n R)(d_i, d_j) d_k, for symbols that
    are at most linear in x (so second derivatives vanish)."""
    R = (dG - dG.transpose(1, 0, 2, 3)
         + np.einsum("inl,jkn->ijkl", G, G) - np.einsum("jnl,ikn->ijkl", G, G))
    dR = (np.einsum("nipl,jkp->nijkl", dG, G) + np.einsum("ipl,njkp->nijkl", G, dG)
          - np.einsum("njpl,ikp->nijkl", dG, G) - np.einsum("jpl,nikp->nijkl", G, dG))
    nabla = (dR.transpose(1, 2, 3, 0, 4)
             + np.einsum("npl,ijkp->ijknl", G, R)
             - np.einsum("nip,pjkl->ijknl", G, R)
             - np.einsum("njp,ipkl->ijknl", G, R)
             - np.einsum("nkp,ijpl->ijknl", G, R))
    return R, nabla


def eval_poly_text(text, point):
    """Value of a polynomial in the CLI's text form ("-1/2*x1*x2^2 + 3")
    at a point given as floats for x1, x2, ..."""
    total = 0.0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1.0 if term.startswith("-") else 1.0
        value = sign
        for factor in term.lstrip("-").split("*"):
            if factor.startswith("x"):
                name, _, power = factor.partition("^")
                value *= point[int(name[1:]) - 1] ** (int(power) if power else 1)
            else:
                num, _, den = factor.partition("/")
                value *= float(num) / (float(den) if den else 1.0)
        total += value
    return total


def _table(entries, shape, point):
    out = np.zeros(shape)
    for key, text in entries.items():
        out[tuple(int(p) for p in key.split(","))] = eval_poly_text(text, point)
    return out


def check_geometry(report, code, m, eps, point, rel=1e-9):
    """geometry --curvature --nabla-r on the homogeneous family: R and
    nabla R evaluated at `point` equal the closed-form computation."""
    expect_code(code, 0, report)
    expect(report.get("dim") == m, "dim %r", report.get("dim"))
    G, dG = homogeneous_symbols(m, eps, point)
    R, nabla = curvature_numeric(G, dG)
    got_R = _table(report["curvature"], (m,) * 4, point)
    got_nabla = _table(report["nabla_r"], (m,) * 5, point)
    for name, got, want in (("R", got_R, R), ("nabla R", got_nabla, nabla)):
        err = float(np.max(np.abs(got - want)))
        expect(err <= rel * max(1.0, float(np.max(np.abs(want)))),
               "%s differs from the closed form by %g", name, err)
    expect(np.any(R != 0.0) and np.any(nabla != 0.0), "closed form is zero")


def check_generic_geodesic(report, code, m, eps, x0, v0, t_max, tol=1e-7):
    """Final state against scipy's solve_ivp on the closed-form symbols."""
    from scipy.integrate import solve_ivp

    expect_code(code, 0, report)
    geo = report["geodesic"]
    expect(geo["blew_up"] is False, "generic geodesic blew up")
    expect(abs(geo["t_final"] - t_max) <= 1e-9, "t_final %r", geo["t_final"])

    def rhs(_t, state):
        x, v = state[:m], state[m:]
        G, _ = homogeneous_symbols(m, eps, x)
        return np.concatenate([v, -np.einsum("ijk,i,j->k", G, v, v)])

    sol = solve_ivp(rhs, (0.0, t_max), np.concatenate([x0, v0]),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    expect(sol.success, "reference integration failed")
    want = sol.y[:, -1]
    got = np.array(geo["x_final"] + geo["v_final"])
    err = float(np.max(np.abs(got - want)))
    expect(err <= tol * max(1.0, float(np.max(np.abs(want)))),
           "final state differs from solve_ivp by %g", err)
