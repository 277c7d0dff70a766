"""End-to-end verification suite.

Twelve numbered checks certify the package against its closed-form anchors:
spectral oracles, factorization roundtrips and expansions, constant-curvature
solves with Gauss-Bonnet convergence, indicial-regularity fits, and the
obstruction-pairing identities.  Each check returns a CriterionResult; the
``conemetric verify`` subcommand and the acceptance test suite both run
through :func:`run_acceptance`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .angles import AngleVector, conic_euler_char
from .factorization import (CoeffVector, WeightVector, expansion_coeffs,
                            forward_map, inverse_map, multiplicative_error)
from .liouville import ConicProblem, friedrichs_fit, solve_liouville
from .pairing import (boundary_pairing_integral, direction_coeffs,
                      extract_eigf_coeffs, football_counts, pairing_B,
                      pairing_matrix, solution_space, vdot_limit_residual,
                      vdot_vanishing_check)
from .spectrum import (eigenvalue_count, eigenvalue_flow,
                       radial_sturm_liouville)

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

#: default seed for the randomized criteria
DEFAULT_SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(index, name, passed, detail, t0):
    return CriterionResult(index=index, name=name, passed=bool(passed),
                           detail=detail, elapsed=time.perf_counter() - t0)


def criterion_1(seed=DEFAULT_SEED):
    """Football radial eigenvalues match the Sturm-Liouville oracle."""
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.5, 2.7):
        for j in range(4):
            oracle = radial_sturm_liouville(beta, j, k=5)
            exact = [(j / beta + ell) * (j / beta + ell + 1.0)
                     for ell in range(5)]
            worst = max(worst, float(np.max(np.abs(oracle - exact))))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-6 and elapsed < 10.0
    return _result(1, "football spectrum vs oracle", passed,
                   f"max |oracle - closed form| = {worst:.3e} "
                   f"(tol 1e-06), elapsed {elapsed:.2f}s (limit 10s)", t0)


def criterion_2(seed=DEFAULT_SEED):
    """Count of eigenvalues <= 2 equals 2 + 2[beta]."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for beta in (1.5, 2.5, 3.5):
        got = eigenvalue_count(beta, threshold=2.0)
        want = 2 + 2 * int(math.floor(beta))
        ok = ok and got == want
        rows.append(f"beta={beta}: {got} (expected {want})")
    return _result(2, "eigenvalue count formula", ok, "; ".join(rows), t0)


def _random_weights(rng, J):
    while True:
        raw = rng.uniform(0.3, 2.0, size=J)
        b = raw * J / raw.sum()
        try:
            return WeightVector(tuple(b))
        except ValueError:
            continue


def criterion_3(seed=DEFAULT_SEED):
    """Factorization roundtrip over random coefficients and weights."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    bad_counts = 0
    trials = 0
    while trials < 200:
        J = int(rng.integers(1, 5))
        b = _random_weights(rng, J)
        A = CoeffVector(tuple(
            rng.uniform(0.05, 0.3) * np.exp(2j * math.pi * rng.random())
            for _ in range(J)))
        branches = inverse_map(A, b)
        if any(br.near_discriminant for br in branches):
            continue  # stay away from the discriminant
        trials += 1
        if len(branches) != math.factorial(J):
            bad_counts += 1
            continue
        scale = max(abs(a) for a in A.A)
        for br in branches:
            out = forward_map(br.z, b)
            err = max(abs(x - y) for x, y in zip(out.A, A.A)) / scale
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-9 and bad_counts == 0 and elapsed < 30.0
    return _result(3, "factorization roundtrip", passed,
                   f"200 cases, max relative error {worst:.3e} (tol 1e-09), "
                   f"{bad_counts} wrong branch counts, elapsed "
                   f"{elapsed:.2f}s (limit 30s)", t0)


def _closed_form_pair(A1, A2, b):
    bbar = math.sqrt(b.b[1] / b.b[0])
    sq = np.sqrt(complex(A1 * A1 - 4.0 * A2))
    out = []
    for s in (sq, -sq):
        z1 = (-A1 + bbar * s) / 2.0
        z2 = (-A1 - s / bbar) / 2.0
        out.append((z1, z2))
    return out


def criterion_4(seed=DEFAULT_SEED):
    """Two-point branches agree with the explicit radical formulas."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for _ in range(100):
        b = _random_weights(rng, 2)
        A1 = rng.uniform(0.05, 0.3) * np.exp(2j * math.pi * rng.random())
        A2 = rng.uniform(0.05, 0.3) * np.exp(2j * math.pi * rng.random())
        exact = _closed_form_pair(A1, A2, b)
        branches = inverse_map(CoeffVector((A1, A2)), b)
        for br in branches:
            err = min(max(abs(br.z[0] - e[0]), abs(br.z[1] - e[1]))
                      for e in exact)
            worst = max(worst, err)
    passed = worst < 1e-12
    return _result(4, "two-point radical formulas", passed,
                   f"100 cases, max branch error {worst:.3e} (tol 1e-12)", t0)


def criterion_5(seed=DEFAULT_SEED):
    """Three-point equal-weight expansion matches its displayed values."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    b = WeightVector((1.0, 1.0, 1.0))
    tau = (-1.0 + math.sqrt(3.0) * 1j) / 2.0
    worst = 0.0
    for _ in range(5):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        At1 = 0.3 * np.exp(2j * math.pi * rng.random())
        At2 = 0.3 * np.exp(2j * math.pi * rng.random())
        want1 = np.array([-np.exp(1j * theta / 3.0) * tau ** j
                          for j in (1, 2, 3)])
        ph = np.exp(-1j * theta / 3.0)
        want2 = np.array([
            -(1.0 + 1j * math.sqrt(3.0)) / 6.0 * At2 * ph,
            (3j + math.sqrt(3.0)) / (3.0 * (-3j + math.sqrt(3.0))) * At2 * ph,
            At2 * ph / 3.0])
        want3 = np.full(3, -At1 / 3.0)
        best = math.inf
        for branch in range(6):
            data = expansion_coeffs(theta, (At1, At2), b, branch=branch)
            err1 = float(np.max(np.abs(data.c[:, 0] - want1)))
            if err1 < 1e-8:
                err = max(err1,
                          float(np.max(np.abs(data.c[:, 1] - want2))),
                          float(np.max(np.abs(data.c[:, 2] - want3))))
                best = min(best, err)
        worst = max(worst, best)
    passed = worst < 1e-10
    return _result(5, "three-point expansion coefficients", passed,
                   f"max coefficient error {worst:.3e} (tol 1e-10)", t0)


def criterion_6(seed=DEFAULT_SEED):
    """Multiplicative error decays superlinearly along coefficient rays."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 6)
    slopes = []
    for _ in range(3):
        J = int(rng.integers(2, 4))
        b = _random_weights(rng, J)
        A0 = tuple(0.25 * np.exp(2j * math.pi * rng.random())
                   for _ in range(J))
        samples = [0.7 * np.exp(2j * math.pi * k / 8) for k in range(8)]
        ts = np.geomspace(0.02, 0.3, 6)
        errs = []
        for t in ts:
            A = CoeffVector(tuple(t * a for a in A0))
            branches = inverse_map(A, b)
            errs.append(max(multiplicative_error(A, br, b, samples)
                            for br in branches))
        slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
        slopes.append(slope)
    passed = all(s >= 1.2 for s in slopes)
    return _result(6, "multiplicative error law", passed,
                   "ray slopes " + ", ".join(f"{s:.2f}" for s in slopes)
                   + " (need >= 1.2)", t0)


def criterion_7(seed=DEFAULT_SEED):
    """Low derivatives of the splitting factor vanish; order J matches."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 7)
    ok = True
    notes = []
    for J in (2, 3):
        A = tuple(0.3 * np.exp(2j * math.pi * rng.random())
                  for _ in range(J))
        for k in range(1, J):
            r1 = vdot_vanishing_check(A, J, k, h=2e-2)
            r2 = vdot_vanishing_check(A, J, k, h=1e-2)
            decays = r2 <= max(r1 / 3.0, 1e-12)
            ok = ok and decays
            notes.append(f"J={J} k={k}: {r1:.2e}->{r2:.2e}")
        lim = vdot_limit_residual(A, J)
        ok = ok and lim < 1e-6
        notes.append(f"J={J} k={J} limit misfit {lim:.2e}")
    return _result(7, "splitting-factor derivative vanishing", ok,
                   "; ".join(notes), t0)


def _equilateral():
    """Three cone points of angle 2 pi * 0.6 evenly spaced on the equator."""
    pts = [(math.pi / 2.0, 2.0 * math.pi * i / 3.0) for i in range(3)]
    return ConicProblem("sphere", pts, AngleVector(0, (0.6, 0.6, 0.6)), 1)


def _gauss_bonnet_order(prob, meshes):
    """Observed order of |area - 2 pi chi| between two meshes, and whether
    every solve took under 60 s."""
    target = 2.0 * math.pi * conic_euler_char(prob.beta)
    errs, fast = [], True
    for n in meshes:
        s0 = time.perf_counter()
        metric = solve_liouville(prob, {"n": n})
        fast = fast and time.perf_counter() - s0 < 60.0
        errs.append(abs(metric.area() - target))
    return math.log2(errs[0] / errs[1]), fast


def criterion_8(seed=DEFAULT_SEED):
    """Gauss-Bonnet areas converge at second order."""
    t0 = time.perf_counter()
    runs = [(f"football beta={beta}",
             ConicProblem("sphere", [(0.0, 0.0), (math.pi, 0.0)],
                          AngleVector(0, (beta, beta)), 1), (200, 400))
            for beta in (0.8, 1.5)]
    runs.append(("(0.6,0.6,0.6)", _equilateral(), (72, 144)))
    cases = []
    ok = True
    for label, prob, meshes in runs:
        order, fast = _gauss_bonnet_order(prob, meshes)
        ok = ok and fast and order >= 1.8
        cases.append(f"{label}: order {order:.2f}")
    return _result(8, "Gauss-Bonnet convergence", ok,
                   "; ".join(cases) + " (need >= 1.8, each solve < 60s)", t0)


def criterion_9(seed=DEFAULT_SEED):
    """Indicial remainders decay at second order at every cone point."""
    t0 = time.perf_counter()
    metric = solve_liouville(_equilateral(), {"n": 144})
    slopes = [friedrichs_fit(metric, i).slope for i in range(3)]
    passed = all(s >= 1.9 for s in slopes)
    return _result(9, "indicial expansion regularity", passed,
                   "remainder slopes " + ", ".join(f"{s:.2f}" for s in slopes)
                   + " (need >= 1.9)", t0)


def criterion_10(seed=DEFAULT_SEED):
    """Boundary pairing quadrature matches its closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 10)
    eps = [0.3, 0.2, 0.1]
    worst = 0.0
    for _ in range(20):
        beta = float(rng.uniform(1.2, 3.5))
        M = max(1, int(math.floor(beta)))
        pe = [(m, float(rng.normal()), float(rng.normal()))
              for m in range(M + 1)]
        ve = [(m, float(rng.normal()), float(rng.normal()))
              for m in range(M + 1)]
        closed = 2.0 * math.pi * sum(
            m * (a1 * e1 + a2 * e2)
            for (m, a1, a2), (_, e1, e2) in zip(pe, ve) if m > 0)
        quad = boundary_pairing_integral(pe, ve, eps, beta)
        worst = max(worst, abs(quad - closed))
    # eps-independence for a pure mode
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    beta = 2.5
    vals = []
    for e in eps:
        phi = e ** (1 / beta) * np.cos(theta)
        dphi = (1 / beta) * e ** (1 / beta - 1.0) * np.cos(theta)
        vdot = e ** (-1 / beta) * np.cos(theta)
        dvdot = (-1 / beta) * e ** (-1 / beta - 1.0) * np.cos(theta)
        vals.append(2.0 * math.pi * float(np.mean(
            (vdot * dphi - phi * dvdot) * beta * e)))
    spread = max(vals) - min(vals)
    passed = worst < 1e-8 and spread < 1e-10
    return _result(10, "pairing closed form", passed,
                   f"20 random sets, max |quad - closed| = {worst:.3e} "
                   f"(tol 1e-08); pure-mode eps spread {spread:.3e} "
                   f"(tol 1e-10)", t0)


def criterion_11(seed=DEFAULT_SEED):
    """Football pairing degenerates: cos r carries no indicial modes."""
    t0 = time.perf_counter()
    ok = True
    notes = []
    for beta in (2.5, 3.3):
        eig = extract_eigf_coeffs(lambda r, t: np.cos(r), beta)
        worst = max(max(abs(ac), abs(asn)) for _, ac, asn in eig.modes)
        ok = ok and worst < 1e-8
        row = [eig, eig]  # both poles carry the same expansion
        K, _, _ = football_counts(beta)
        direction = [direction_coeffs(
            tuple(1.0 + 0.5j for _ in eig.modes), beta)] * 2
        Bvals = pairing_B(row, direction)
        # coefficients are certified below 1e-8, so the matrix is zero
        kernel, report = solution_space(pairing_matrix([row]), atol=1e-8)
        ok = ok and float(np.max(np.abs(Bvals))) < 1e-8
        ok = ok and report["dim"] == 2 * K
        notes.append(f"beta={beta}: max coeff {worst:.2e}, "
                     f"|B| {float(np.max(np.abs(Bvals))):.2e}, "
                     f"dim V = {report['dim']} (2K = {2 * K})")
    return _result(11, "football pairing degeneracy", ok, "; ".join(notes),
                   t0)


def criterion_12(seed=DEFAULT_SEED):
    """Spectral flow along beta: 1.5 -> 3.5 crosses exactly at 2 and 3."""
    t0 = time.perf_counter()
    path = [round(1.5 + 0.1 * i, 10) for i in range(21)]
    report = eigenvalue_flow(path)
    got = sorted((c.beta, c.j) for c in report["crossings"])
    want = [(2.0, 2), (3.0, 3)]
    passed = got == want
    return _result(12, "spectral flow crossings", passed,
                   f"crossings {got} (expected {want})", t0)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12)


def run_acceptance(indices=None, seed=DEFAULT_SEED):
    """Run the selected criteria (all by default); returns the results."""
    if indices is None:
        indices = range(1, len(CRITERIA) + 1)
    results = []
    for i in indices:
        if not 1 <= i <= len(CRITERIA):
            raise ValueError(f"criterion index {i} out of range")
        results.append(CRITERIA[i - 1](seed=seed))
    return results
