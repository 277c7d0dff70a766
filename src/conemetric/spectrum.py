"""Spectra of conic Laplacians on footballs and doubled triangles.

The football of angle 2*pi*beta carries the metric
g = dr^2 + beta^2 sin^2(r) dtheta^2 on (0, pi) x S^1.  Separation of
variables reduces its Friedrichs Laplacian to a Legendre-type radial
problem per angular mode j, with eigenvalues

    lambda = (j/beta + l)(j/beta + l + 1),    j, l >= 0,

simple for j = 0 (the log branch is excluded) and doubled for j > 0.
This module provides the closed-form enumeration, a radial eigenfunction
evaluator for non-integer order (by ODE integration from a series start,
so the Friedrichs boundary behaviour r^{j/beta} holds by construction), an
independent Sturm-Liouville finite-difference oracle, the Dirichlet
eigenvalues of the (pi/2, pi/2, pi*beta) spherical triangle, and the
spectral-flow crossing report at eigenvalue 2 along paths of footballs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import eigsh

__all__ = [
    "EigenMode",
    "FlowCrossing",
    "FluxForm",
    "football_eigenvalues",
    "eigenvalue_count",
    "football_eigenfunction",
    "radial_sturm_liouville",
    "triangle_dirichlet_eigenvalues",
    "eigenvalue_flow",
]

#: tolerance for deciding whether beta sits exactly at an integer
CROSSING_TOL = 1e-9


@dataclass(frozen=True)
class EigenMode:
    j: int
    ell: int
    lam: float
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity != (1 if self.j == 0 else 2):
            raise ValueError("multiplicity is 1 for j = 0 and 2 otherwise")


@dataclass(frozen=True)
class FlowCrossing:
    s_index: int          # crossing between samples s_index and s_index + 1
    beta: float           # integer value of beta at the crossing
    j: int                # angular mode responsible (j = beta)
    ell: int = 0


def _mode_lambda(beta, j, ell):
    x = j / beta + ell
    return x * (x + 1.0)


def _check_ladder(beta, lambda_max):
    # a nonfinite beta makes j/beta = 0 for every j, so the mode ladders
    # below would never leave the window
    if not (math.isfinite(beta) and math.isfinite(lambda_max)) \
            or beta <= 0 or lambda_max < 0:
        raise ValueError("beta must be positive and lambda_max nonnegative, "
                         "both finite")


def football_eigenvalues(beta, lambda_max, tol: float = 1e-12):
    """All football modes with lambda <= lambda_max, sorted by eigenvalue."""
    _check_ladder(beta, lambda_max)
    modes = []
    j = 0
    while _mode_lambda(beta, j, 0) <= lambda_max + tol:
        ell = 0
        while True:
            lam = _mode_lambda(beta, j, ell)
            if lam > lambda_max + tol:
                break
            modes.append(EigenMode(j=j, ell=ell, lam=lam,
                                   multiplicity=1 if j == 0 else 2))
            ell += 1
        j += 1
    modes.sort(key=lambda m: (m.lam, m.j))
    return modes


def eigenvalue_count(beta, threshold=2.0, strict=False, tol: float = 1e-9):
    """Number of football eigenvalues below (or at) the threshold.

    Counts multiplicity.  With ``strict=False`` (the closed-form count)
    lambda <= threshold gives 2 + 2*[beta] at threshold 2; ``strict=True``
    counts lambda < threshold only.
    """
    modes = football_eigenvalues(beta, threshold + 1.0)
    total = 0
    for m in modes:
        if m.lam <= threshold + tol if not strict else m.lam < threshold - tol:
            total += m.multiplicity
    return total


class _RadialProfile:
    """Radial eigenfunction evaluator R(r) with R ~ r^{j/beta} at the pole."""

    def __init__(self, beta, j, ell, series_radius=1e-3, rtol=1e-11):
        self.beta = float(beta)
        self.j = int(j)
        self.ell = int(ell)
        alpha = j / beta
        lam = _mode_lambda(beta, j, ell)
        self.alpha = alpha
        self.lam = lam
        # series R = r^alpha (1 + a2 r^2 + a4 r^4) from the indicial analysis
        a2 = ((alpha + alpha ** 2) / 3.0 - lam) / (4.0 * (alpha + 1.0))
        a4 = -(a2 * (lam - (alpha + 2.0 + alpha ** 2) / 3.0)
               - alpha / 45.0 - alpha ** 2 / 15.0) / (8.0 * alpha + 16.0)
        self._a2, self._a4 = a2, a4
        self._eps = series_radius

        def rhs(r, y):
            R, dR = y
            cot = math.cos(r) / math.sin(r)
            mu2 = alpha * alpha
            return [dR, -cot * dR - (lam - mu2 / math.sin(r) ** 2) * R]

        eps = series_radius
        R0 = self._series(eps)
        dR0 = self._series_deriv(eps)
        sol = solve_ivp(rhs, (eps, math.pi / 2), [R0, dR0],
                        method="DOP853", rtol=rtol, atol=1e-13,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError("radial integration failed: " + sol.message)
        self._sol = sol
        self._norm = 1.0
        self._norm = self._l2_norm()

    def _series(self, r):
        return r ** self.alpha * (1.0 + self._a2 * r * r
                                  + self._a4 * r ** 4)

    def _series_deriv(self, r):
        a = self.alpha
        return (a * r ** (a - 1.0) * (1.0 + self._a2 * r * r + self._a4 * r ** 4)
                + r ** a * (2.0 * self._a2 * r + 4.0 * self._a4 * r ** 3))

    def _raw(self, r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        # reflect across the equator: the Gegenbauer factor has parity (-1)^ell
        sign = np.where(r > math.pi / 2, (-1.0) ** self.ell, 1.0)
        rr = np.where(r > math.pi / 2, math.pi - r, r)
        small = rr < self._eps
        if np.any(small):
            out[small] = self._series(rr[small])
        if np.any(~small):
            out[~small] = self._sol.sol(rr[~small])[0]
        return sign * out

    def _l2_norm(self):
        grid = np.linspace(1e-6, math.pi - 1e-6, 20001)
        vals = self._raw(grid) ** 2 * self.beta * np.sin(grid)
        ang = 2.0 * math.pi if self.j == 0 else math.pi
        return math.sqrt(np.trapezoid(vals, grid) * ang)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0) or np.any(r >= math.pi):
            raise ValueError("radial profile defined on the open interval "
                             "(0, pi); use the r^{j/beta} asymptotics at the "
                             "poles")
        return self._raw(r) / self._norm


def football_eigenfunction(beta, j, ell, **kwargs):
    """Unit-L^2 radial profile of the (j, ell) football eigenfunction.

    The full eigenfunctions are R(r)cos(j theta) and R(r)sin(j theta);
    normalization uses the area element beta sin(r) dr dtheta.
    """
    if beta <= 0 or j < 0 or ell < 0:
        raise ValueError("invalid mode")
    return _RadialProfile(beta, j, ell, **kwargs)


class FluxForm:
    """Cell-centred flux form of the stiffness -(sin^p f')' on (0, pi).

    Uses the first ``cells`` of the n cells of width h = pi/n (all of them
    by default).  The two end faces carry no flux: at r = 0 and r = pi that
    is the natural (Friedrichs) condition, at the equator of a half grid
    (cells = n/2) the mirror symmetry.  ``weight`` holds sin^p at the cell
    centres.  Every football operator -- the solver's axisymmetric
    Laplacian, the mode pencils and the radial oracle -- is built here.
    """

    def __init__(self, n, p, cells=None):
        cells = n if cells is None else cells
        self.h = h = math.pi / n
        self.weight = np.sin((np.arange(cells) + 0.5) * h) ** p
        self.face = np.zeros(cells + 1)
        self.face[1:-1] = np.sin(np.arange(1, cells) * h) ** p / h ** 2

    def matrix(self, potential=0.0):
        """The stiffness plus diag(potential) as a symmetric tridiagonal
        (csc) matrix."""
        f = self.face
        return sparse.diags([-f[1:-1], f[:-1] + f[1:] + potential, -f[1:-1]],
                            [-1, 0, 1], format="csc")

    def __call__(self, u):
        """The stiffness applied as gradient then divergence, so constants
        map to exactly zero (the assembled diagonal rounds)."""
        flux = self.face * np.diff(u, prepend=u[:1], append=u[-1:])
        return flux[:-1] - flux[1:]


def _sl_eigs(alpha, n, k=5):
    """Lowest k eigenvalues of the substituted radial problem at n cells.

    With R = (sin r)^alpha S the radial operator becomes the degenerate
    Sturm-Liouville problem -(w S')' = (lambda - alpha(alpha+1)) w S with
    weight w = (sin r)^{2 alpha + 1}; the zero-flux end faces of the flux
    form implement the Friedrichs choice at both poles.
    """
    form = FluxForm(n, 2 * alpha + 1)
    # Generalized shift-invert: symmetrizing by B^{-1/2} instead loses
    # ~eps * 2^{2 alpha + 1} / h^2 to roundoff near the poles, where the
    # weight varies by orders of magnitude across a single cell.
    vals = eigsh(form.matrix(), k=k, M=sparse.diags(form.weight), sigma=-1.0,
                 which="LM", return_eigenvectors=False)
    return np.sort(vals) + alpha * (alpha + 1.0)


def radial_sturm_liouville(beta, j, n_grid=2048, k=5, richardson=True):
    """Numeric oracle: lowest k radial eigenvalues for angular mode j.

    Second-order flux finite differences on a cell-centered grid, with
    Richardson extrapolation across n_grid and 2*n_grid when requested.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    alpha = j / beta
    coarse = _sl_eigs(alpha, n_grid, k)
    if not richardson:
        return coarse
    fine = _sl_eigs(alpha, 2 * n_grid, k)
    return (4.0 * fine - coarse) / 3.0


def triangle_dirichlet_eigenvalues(beta, lambda_max, tol: float = 1e-12):
    """Dirichlet spectrum of the (pi/2, pi/2, pi*beta) spherical triangle.

    Enumerates (j/beta + 2l)(j/beta + 2l + 1) for j >= 1, l >= 0 up to
    lambda_max, sorted, as (j, l, lambda) triples.
    """
    _check_ladder(beta, lambda_max)
    out = []
    j = 1
    while _mode_lambda(beta, j, 0) <= lambda_max + tol:
        ell = 0
        while True:
            x = j / beta + 2 * ell
            lam = x * (x + 1.0)
            if lam > lambda_max + tol:
                break
            out.append((j, ell, lam))
            ell += 1
        j += 1
    out.sort(key=lambda t: t[2])
    return out


def strict_count_below_two(beta):
    """#{lambda < 2} for the football, counting multiplicity."""
    return eigenvalue_count(beta, threshold=2.0, strict=True,
                            tol=CROSSING_TOL)


def eigenvalue_flow(beta_path, j_max=None):
    """Crossing report at lambda = 2 along a sampled path of footballs.

    A mode (j, 0) crosses 2 exactly when j/beta = 1, i.e. when beta passes
    the integer j.  For each jump of N(s) = #{lambda < 2} between
    consecutive samples, the integers strictly between the sampled beta
    values are reported with their responsible modes.
    """
    betas = [float(b) for b in beta_path]
    if any(b <= 0 for b in betas):
        raise ValueError("beta path must be positive")
    counts = [strict_count_below_two(b) for b in betas]
    crossings = []

    def below(j, b):
        # mode (j, 0) contributes to #{lambda < 2} exactly when j < beta
        return j < b - CROSSING_TOL

    for i in range(len(betas) - 1):
        lo, hi = sorted((betas[i], betas[i + 1]))
        for j in range(max(1, math.floor(lo)), math.floor(hi) + 2):
            if below(j, betas[i]) != below(j, betas[i + 1]):
                if j_max is not None and j > j_max:
                    continue
                crossings.append(FlowCrossing(s_index=i, beta=float(j), j=j))
    return {"counts": counts, "crossings": crossings}
