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
unit-norm radial eigenfunctions, an independent Sturm-Liouville
finite-difference oracle, and the spectral-flow crossing report at
eigenvalue 2 along paths of footballs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh
from scipy.special import eval_gegenbauer, gammaln

__all__ = [
    "EigenMode",
    "FlowCrossing",
    "FluxForm",
    "football_eigenvalues",
    "eigenvalue_count",
    "football_eigenfunction",
    "radial_sturm_liouville",
    "eigenvalue_flow",
]

#: tolerance for deciding whether beta sits exactly at an integer
CROSSING_TOL = 1e-9
#: most modes a closed-form ladder may hold, so that every request ends in
#: bounded time and memory
MAX_MODES = 100_000


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
            out.append(EigenMode(j=j, ell=ell, lam=lam,
                                 multiplicity=1 if j == 0 else 2))
            ell += 1
        j += 1
    out.sort(key=lambda m: (m.lam, m.j))
    return out


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
    (cells = n/2) the mirror symmetry.  ``weight`` holds sin^p at the cell
    centres.  Every football operator -- the solver's axisymmetric
    Laplacian, the mode pencils and the radial oracle -- is built here, and
    so is the latitude part of the 2-D lat-lon Laplacian.
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


def strict_count_below_two(beta):
    """#{lambda < 2} for the football, counting multiplicity."""
    return eigenvalue_count(beta, threshold=2.0, strict=True,
                            tol=CROSSING_TOL)


def eigenvalue_flow(beta_path):
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
                crossings.append(FlowCrossing(s_index=i, beta=float(j), j=j))
    return {"counts": counts, "crossings": crossings}
