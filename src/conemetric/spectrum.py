"""Spectra of conic Laplacians on footballs.

The football of angle 2*pi*beta carries the metric
g = dr^2 + beta^2 sin^2(r) dtheta^2 on (0, pi) x S^1.  Separation of
variables reduces its Friedrichs Laplacian to a Legendre-type radial
problem per angular mode j, with eigenvalues

    lambda = (j/beta + l)(j/beta + l + 1),    j, l >= 0,

simple for j = 0 (the log branch is excluded) and doubled for j > 0,
and radial eigenfunctions sin^{j/beta}(r) C_l^{(j/beta + 1/2)}(cos r)
(Gegenbauer), which carry the Friedrichs behaviour r^{j/beta} at both
poles.  This module provides the closed-form enumeration, the closed-form
unit-norm radial eigenfunctions, a Sturm-Liouville finite-difference
oracle (independent of the closed form, though it shares ``FluxForm`` and
``tridiag_pencil_eigs`` with the football modes of ``liouville``), the
spectral-flow crossing report at eigenvalue 2 along paths of footballs,
the flux form with its LAPACK tridiagonal LU that every football operator
and solver shares, and the eigenpairs of a tridiagonal pencil, in a band
or the lowest few, by Sturm bisection.

Below 2 lie only (0, 0) and the doubled (j, 0) with 1 <= j < beta, so
#{lambda < 2} = 1 + 2n with n = max(0, [beta] - 1) at an integer beta and
[beta] otherwise, in the sense of ``angles.int_part`` and ``is_integer``.
Along a path, (j, 0) crosses 2 where beta passes the integer j, and the
flow report names each j between n at consecutive samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

from .angles import int_part, is_integer

__all__ = [
    "EigenMode",
    "FlowCrossing",
    "FluxForm",
    "football_eigenvalues",
    "mode_multiplicity",
    "tridiag_matvec",
    "tridiag_solver",
    "tridiag_pencil_eigs",
    "eigenvalue_count",
    "football_eigenfunction",
    "radial_sturm_liouville",
    "eigenvalue_flow",
]

#: most modes a closed-form ladder may hold, so that every request ends in
#: bounded time and memory
MAX_MODES = 100_000
#: the coarser of the two grids ``radial_sturm_liouville`` extrapolates from
N_GRID = 2048


def mode_multiplicity(j):
    """Multiplicity of an eigenvalue of angular mode j: the cos and sin
    eigenfunctions of j > 0 share it."""
    return 1 if j == 0 else 2


@dataclass(frozen=True)
class EigenMode:
    j: int
    ell: int
    lam: float

    @property
    def multiplicity(self):
        return mode_multiplicity(self.j)


@dataclass(frozen=True)
class FlowCrossing:
    s_index: int          # crossing between samples s_index and s_index + 1
    beta: float           # integer value of beta at the crossing
    j: int                # angular mode responsible (j = beta)


def _mode_lambda(beta, j, ell):
    x = j / beta + ell
    return x * (x + 1.0)


def football_eigenvalues(beta, lambda_max):
    """All football modes with lambda <= lambda_max, sorted by eigenvalue."""
    # a nonfinite beta makes j/beta = 0 for every j, so the ladder would
    # never leave the window
    if not (math.isfinite(beta) and math.isfinite(lambda_max)) \
            or beta <= 0 or lambda_max < 0:
        raise ValueError("beta must be positive and lambda_max nonnegative, "
                         "both finite")
    top = lambda_max + 1e-12          # round-off slack
    # x = j/beta + ell <= x_max bounds j by beta x_max and ell by x_max, so
    # the ladder holds at most `size` modes
    x_max = math.sqrt(top + 0.25) - 0.5
    size = (beta * x_max + 1.0) * (x_max + 1.0)
    if size > MAX_MODES:
        raise ValueError(f"beta={beta:g} and lambda_max={lambda_max:g} ask "
                         f"for up to {size:.3g} modes; the limit is "
                         f"{MAX_MODES}")
    out = []
    j = 0
    while _mode_lambda(beta, j, 0) <= top:
        ell = 0
        while True:
            lam = _mode_lambda(beta, j, ell)
            if lam > top:
                break
            out.append(EigenMode(j=j, ell=ell, lam=lam))
            ell += 1
        j += 1
    out.sort(key=lambda m: (m.lam, m.j))
    return out


def eigenvalue_count(beta):
    """Number of football eigenvalues lambda <= 2, with multiplicity.

    Counts the closed-form ladder; this is 2 + 2*[beta].
    """
    return sum(m.multiplicity for m in football_eigenvalues(beta, 2.0))


def football_eigenfunction(beta, j, ell):
    """Unit-L^2 radial profile of the (j, ell) football eigenfunction.

    R(r) = c sin^a(r) C_ell^(a + 1/2)(cos r) with a = j/beta, so R ~ r^a at
    both poles.  The full eigenfunctions are R(r)cos(j theta) and
    R(r)sin(j theta); c normalizes with the area element
    beta sin(r) dr dtheta through the Gegenbauer norm
    int_{-1}^{1} (1 - x^2)^(lam - 1/2) C_ell^lam(x)^2 dx
        = pi 2^(1 - 2 lam) Gamma(ell + 2 lam) / (ell! (ell + lam) Gamma(lam)^2).
    """
    if beta <= 0 or j < 0 or ell < 0:
        raise ValueError("invalid mode")
    # loaded here, so that importing the package does not load scipy.special
    from scipy.special import eval_gegenbauer, gammaln
    a = j / beta
    lam = a + 0.5
    log_norm = (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
                + gammaln(ell + 2.0 * lam) - gammaln(ell + 1.0)
                - math.log(ell + lam) - 2.0 * gammaln(lam))
    angular = 2.0 * math.pi if j == 0 else math.pi
    c = math.exp(-0.5 * log_norm) / math.sqrt(beta * angular)

    def profile(r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0) or np.any(r >= math.pi):
            raise ValueError("radial profile defined on the open interval "
                             "(0, pi); use the r^{j/beta} asymptotics at the "
                             "poles")
        return c * np.sin(r) ** a * eval_gegenbauer(ell, lam, np.cos(r))

    return profile


class FluxForm:
    """Cell-centred flux form of the stiffness -(sin^p f')' on (0, pi).

    Uses the first ``cells`` of the n cells of width h = pi/n (all of them
    by default).  The two end faces carry no flux: at r = 0 and r = pi that
    is the natural (Friedrichs) condition, at the equator of a half grid
    (cells = n/2) the mirror symmetry.  ``centre`` holds the cell-centre
    colatitudes (k + 1/2) h, which the solvers read from here, and
    ``weight`` sin^p there.  Every football operator -- the solver's
    axisymmetric Laplacian, the mode pencils and the radial oracle -- is
    built here, and so is the latitude part of the 2-D lat-lon Laplacian.
    """

    def __init__(self, n, p, cells=None):
        cells = n if cells is None else cells
        self.h = h = math.pi / n
        self.centre = (np.arange(cells) + 0.5) * h
        self.weight = np.sin(self.centre) ** p
        self.face = np.zeros(cells + 1)
        self.face[1:-1] = np.sin(np.arange(1, cells) * h) ** p / h ** 2

    def bands(self, potential=0.0):
        """The (sub, diag, sup) bands of the stiffness plus diag(potential),
        in the order ``tridiag_solver`` takes them."""
        f = self.face
        return -f[1:-1], f[:-1] + f[1:] + potential, -f[1:-1]


def tridiag_matvec(bands, x):
    """A x for the tridiagonal A with these (sub, diag, sup) bands and a
    vector x; row i sums sub x_{i-1} + diag x_i, then sup x_{i+1}, the order
    of a sparse product."""
    sub, diag, sup = bands
    y = diag * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def tridiag_solver(sub, diag, sup):
    """Factor a tridiagonal matrix once by LAPACK dgttrf (partial pivoting);
    ``solve(b)`` applies its inverse to a vector or a block by dgttrs.  An
    exactly singular matrix raises numpy.linalg.LinAlgError.  Below size 3,
    which scipy's dgttrf wrapper rejects, the dense inverse is applied."""
    if len(diag) < 3:
        return np.linalg.inv(np.diag(diag) + np.diag(sub, -1)
                             + np.diag(sup, 1)).__matmul__
    *lu, info = dgttrf(sub, diag, sup)
    if info:
        raise np.linalg.LinAlgError("singular tridiagonal matrix")
    return lambda b: dgttrs(*lu, b)[0]


def tridiag_pencil_eigs(bands, b, lo=None, hi=None, lowest=None):
    """Eigenpairs (values, b-unit vectors as columns) of the pencil
    (A, diag(b)) with lo < lambda <= hi, or the ``lowest`` least of them,
    in ascending order; A is symmetric tridiagonal, given as its
    (sub, diag, sup) bands, and b > 0.

    LAPACK dstebz brackets each eigenvalue by Sturm bisection on the scaled
    tridiagonal b^{-1/2} A b^{-1/2}, over the value range (lo, hi] or the
    index range 1..lowest.  Its tolerance 2 tiny asks for full relative
    accuracy: 0 would stop at ulp |T|, about 1e48 where b falls to 1e-64 at
    the poles.  The scaled bisection still lands up to ~2e-11 relative off
    the pencil's eigenvalue, so one inverse-iteration step from a fixed
    seeded start v0 polishes each bracket mu: with S = A - mu diag(b)
    (moved to mu (1 + 1e-13) where it is exactly singular),
    x = S^{-1}(b v0) normalized in the b-norm and y = S^{-1}(b x) give
    lambda = mu + 1 / (x^T b y) and the eigenvector y / |y|_b.  A failed
    bisection raises numpy.linalg.LinAlgError.
    """
    sub, diag, sup = bands
    root = np.sqrt(b)
    select = (1, lo, hi, 0, 0) if lowest is None else (2, 0.0, 0.0, 1, lowest)
    m, mus, *_, info = dstebz(diag / b, sub / (root[:-1] * root[1:]), *select,
                              2.0 * np.finfo(float).tiny, "E")
    if info:
        raise np.linalg.LinAlgError(f"Sturm bisection failed (dstebz info "
                                    f"{info})")
    v0 = np.random.default_rng(0).standard_normal(len(b))
    vals, vecs = np.empty(m), np.empty((len(b), m))
    for i, mu in enumerate(mus[:m]):
        try:
            solve = tridiag_solver(sub, diag - mu * b, sup)
        except np.linalg.LinAlgError:
            mu *= 1.0 + 1e-13
            solve = tridiag_solver(sub, diag - mu * b, sup)
        x = solve(b * v0)
        x /= math.sqrt(x @ (b * x))
        y = solve(b * x)
        vals[i] = mu + 1.0 / (x @ (b * y))
        vecs[:, i] = y / math.sqrt(y @ (b * y))
    return vals, vecs


def _sl_eigs(alpha, n):
    """Lowest five eigenvalues of the substituted radial problem at n cells.

    With R = (sin r)^alpha S the radial operator becomes the degenerate
    Sturm-Liouville problem -(w S')' = (lambda - alpha(alpha+1)) w S with
    weight w = (sin r)^{2 alpha + 1}; the zero-flux end faces of the flux
    form implement the Friedrichs choice at both poles.  The pencil
    (stiffness, diag(w)) goes to ``tridiag_pencil_eigs``, which asks
    dstebz for its eigenvalues 1 to 5 by index.
    """
    form = FluxForm(n, 2 * alpha + 1)
    vals, _ = tridiag_pencil_eigs(form.bands(), form.weight, lowest=5)
    return vals + alpha * (alpha + 1.0)


def radial_sturm_liouville(beta, j):
    """Numeric oracle: lowest five radial eigenvalues for angular mode j.

    Second-order flux finite differences on a cell-centered grid, with
    Richardson extrapolation across N_GRID and 2*N_GRID cells.
    """
    coarse = _sl_eigs(j / beta, N_GRID)
    return (4.0 * _sl_eigs(j / beta, 2 * N_GRID) - coarse) / 3.0


def strict_count_below_two(beta):
    """#{lambda < 2} for the football, counting multiplicity."""
    return 1 + 2 * max(0, int_part(beta) - is_integer(beta))


def eigenvalue_flow(beta_path):
    """Crossing report at lambda = 2 along a sampled path of footballs.

    Between consecutive samples with counts 1 + 2n and 1 + 2n', each mode
    (j, 0) with min(n, n') < j <= max(n, n') crosses 2, at beta = j.
    """
    betas = [float(b) for b in beta_path]
    # the bound also caps the crossings reported between two samples
    if not all(0 < b <= MAX_MODES for b in betas):
        raise ValueError(f"beta path must lie in (0, {MAX_MODES}]")
    counts = [strict_count_below_two(b) for b in betas]
    crossings = [FlowCrossing(s_index=i, beta=float(j), j=j)
                 for i in range(len(counts) - 1)
                 for j in range(min(counts[i:i + 2]) // 2 + 1,
                                max(counts[i:i + 2]) // 2 + 1)]
    return {"counts": counts, "crossings": crossings}
