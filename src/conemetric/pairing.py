"""Obstruction pairing between eigenfunctions at 2 and splitting directions.

Near a cone point of angle 2*pi*beta an eigenfunction phi with eigenvalue 2
expands in indicial modes

    phi ~ a0 + sum_{m=1}^{[beta]} (a'_m cos(m theta) + a''_m sin(m theta))
              * r^{m/beta},

while the derivative of the conformal factor along a cone-point splitting
family carries the dual modes r^{-m/beta}.  The bilinear pairing between the
two coefficient families is a boundary integral around each cone point; its
kernel is the tangent space of splitting directions that preserve solvability
of the curvature equation.  This module extracts expansion coefficients by
least squares on annuli, evaluates the pairing both in closed form and by
quadrature, computes the kernel, classifies the local deformation behaviour,
and numerically certifies the flatness lemma that drives the pairing
derivation: vanishing of the low ``rho``-derivatives of the splitting
conformal factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .angles import finite_real, int_part, is_weighted

__all__ = [
    "EigenCoeffs",
    "DirectionCoeffs",
    "extract_eigf_coeffs",
    "direction_coeffs",
    "pairing_B",
    "pairing_matrix",
    "boundary_pairing_integral",
    "solution_space",
    "classify_case",
    "direction_counts",
    "vdot_vanishing_check",
    "vdot_limit_residual",
]

#: least-squares fit (or inter-annulus disagreement) above this flags the row
FIT_TOL = 1e-4

#: singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-8

#: kernel-basis pivots whose norms agree to this relative level count as tied
_PIVOT_TIE = 1e-6

#: the two extraction annuli in the cone chart, [inner, outer] radii
ANNULI = ((0.05, 0.1), (0.1, 0.2))


@dataclass(frozen=True)
class EigenCoeffs:
    """Indicial coefficients of an eigenfunction at one cone point.

    ``modes`` holds triples (m, cos-coefficient, sin-coefficient) for the
    r^{m/beta} modes, m = 1..[beta] (m = 1 only when beta < 1).  ``residual``
    is the worst of the per-annulus fit residuals and the inter-annulus
    coefficient disagreement; rows with residual above FIT_TOL are unreliable.
    """

    beta: float
    constant: float
    modes: tuple
    residual: float
    reliable: bool

    @classmethod
    def from_report(cls, obj):
        """The EigenCoeffs whose ``vars()`` a solve report holds as obj: the
        field names as keys, finite real numbers, [m, cos, sin] triples with
        an int m and a bool ``reliable``; else ValueError."""
        keys = [f.name for f in fields(cls)]
        if type(obj) is not dict or sorted(obj) != sorted(keys):
            raise ValueError("malformed eigen_coeffs entry: need an object "
                             f"with exactly the keys {keys}")
        modes = obj["modes"]
        if type(modes) is not list or not all(
                type(t) is list and len(t) == 3 and type(t[0]) is int
                for t in modes):
            raise ValueError(f"malformed modes {modes!r}: need [m, cos, "
                             "sin] triples with an integer m")
        if type(obj["reliable"]) is not bool:
            raise ValueError(f"malformed reliable {obj['reliable']!r}: "
                             "need true or false")
        return cls(beta=finite_real(obj["beta"], "beta"),
                   constant=finite_real(obj["constant"], "constant"),
                   modes=tuple((m, finite_real(a, "a mode coefficient"),
                                finite_real(b, "a mode coefficient"))
                               for m, a, b in modes),
                   residual=finite_real(obj["residual"], "residual"),
                   reliable=obj["reliable"])


@dataclass(frozen=True)
class DirectionCoeffs:
    """Splitting-direction coefficients (e'_m, e''_m) at one cone point."""

    beta: float
    modes: tuple  # ((m, e_cos, e_sin), ...)

    @property
    def vector(self):
        return np.array([c for (_, ec, es) in self.modes for c in (ec, es)])


def extract_eigf_coeffs(phi, beta):
    """Least-squares indicial coefficients of phi(r, theta) at a cone point.

    phi is a callable on the cone chart (r = geodesic distance, theta with
    period 2*pi).  The fit basis is {1} plus the indicial pairs
    r^{m/beta} cos(m theta), r^{m/beta} sin(m theta) for m = 1..[beta], plus
    nuisance columns absorbing the next terms of the expansion: r^2 and
    r^{m/beta + 2} cos(m theta), r^{m/beta + 2} sin(m theta).  The nuisance
    keeps the constant and the indicial coefficients from soaking up those
    trends; at integer beta the r^{m/beta + 2} terms of the j = beta
    eigenfunctions would otherwise exceed FIT_TOL.
    The fit is run on each annulus of ANNULI separately and the coefficient
    disagreement between the two is folded into the reported residual.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    mmax = max(1, int_part(beta))
    results = []
    residuals = []
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for lo, hi in ANNULI:
        radii = np.geomspace(lo, hi, 8)
        rr, tt = np.meshgrid(radii, theta, indexing="ij")
        rr, tt = rr.ravel(), tt.ravel()
        cols, nuisance = [np.ones_like(rr)], [rr ** 2]
        for m in range(1, mmax + 1):
            for harmonic in (np.cos(m * tt), np.sin(m * tt)):
                cols.append(rr ** (m / beta) * harmonic)
                nuisance.append(rr ** (m / beta + 2.0) * harmonic)
        design = np.column_stack(cols + nuisance)
        rhs = np.asarray(phi(rr, tt), dtype=float)
        coef, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
        misfit = design @ coef - rhs
        residuals.append(math.sqrt(float(np.mean(misfit ** 2))))
        results.append(coef[:len(cols)])  # drop the nuisance columns
    coef = results[0]
    residual = max(*residuals, float(np.max(np.abs(coef - results[1]))))
    modes = tuple((m, float(coef[2 * m - 1]), float(coef[2 * m]))
                  for m in range(1, mmax + 1))
    return EigenCoeffs(beta=float(beta), constant=float(coef[0]), modes=modes,
                       residual=residual, reliable=residual <= FIT_TOL)


def direction_coeffs(A, beta0):
    """Direction coefficients from splitting polynomial coefficients.

    Inverts A_m = beta0^{m/beta0} (e'_m + i e''_m) componentwise.
    """
    if beta0 <= 0:
        raise ValueError("beta0 must be positive")
    coeffs = tuple(complex(a) for a in A)
    if not np.isfinite(coeffs).all():
        raise ValueError("direction coefficients must be finite")
    modes = []
    for m, a in enumerate(coeffs, start=1):
        try:
            e = a / beta0 ** (m / beta0)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"beta0^(m/beta0) = {beta0!r}^{m / beta0!r} "
                             "leaves the float range")
        modes.append((m, e.real, e.imag))
    return DirectionCoeffs(beta=float(beta0), modes=tuple(modes))


def pairing_B(rows, direction):
    """Pairing values B_i between eigenfunction rows and a direction.

    ``rows`` holds one row per basis eigenfunction, each a sequence of
    EigenCoeffs, one per cone point; ``direction`` is the matching sequence
    of DirectionCoeffs.  Returns the vector (B_i), the pairing matrix
    applied to the assembled direction vector.
    """
    dirs = list(direction)
    for row in rows:
        if len(row) != len(dirs):
            raise ValueError("row and direction cone-point counts differ")
        for e, d in zip(row, dirs):
            if [m for m, _, _ in e.modes] != [m for m, _, _ in d.modes]:
                raise ValueError("eigenfunction and direction mode counts "
                                 "or indices differ")
    if not rows:
        return np.array([])
    with np.errstate(over="ignore", invalid="ignore"):
        values = pairing_matrix(rows) @ np.concatenate([d.vector
                                                        for d in dirs])
    if not np.isfinite(values).all():
        raise ValueError("the pairing values leave the float range")
    return values


def pairing_matrix(rows):
    """The pairing as a matrix acting on assembled direction vectors.

    Row i lists the coefficients of B_i as a linear functional of the
    direction vector (e'_{11}, e''_{11}, e'_{12}, ...) concatenated over cone
    points; the kernel of this matrix is the solution space.
    """
    out = []
    for row in rows:
        entries = []
        for eig in row:
            for (m, ac, asn) in eig.modes:
                # the m weight applies at weighted points only; the other
                # terms enter unweighted
                w = float(m) if is_weighted(eig.beta) else 1.0
                entries.extend((w * ac, w * asn))
        out.append(entries)
    return np.array(out, dtype=float)


def boundary_pairing_integral(phi_expansion, vdot_expansion, epsilons, beta):
    """Quadrature limit of the pairing boundary integral at a cone point.

    The expansions are coefficient lists [(m, c_cos, c_sin), ...] with m = 0
    allowed for constants; phi carries r^{m/beta} and vdot carries
    r^{-m/beta}.  Evaluates the flux integral

        I(eps) = \\oint_{r=eps} (vdot d_r phi - phi d_r vdot) beta r dtheta

    with the cone-angle arc length beta r dtheta, by trapezoid quadrature in
    theta at each radius, then extrapolates eps -> 0 by polynomial (Neville)
    extrapolation.  For matched mode families the integrand is exactly
    radius-independent and the limit equals 2 pi sum_m m (a'e' + a''e'').
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 2 or any(e <= 0 for e in epsilons):
        raise ValueError("need at least two positive radii")
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)

    def fields(expansion, sign, r):
        val = np.zeros_like(theta)
        dval = np.zeros_like(theta)
        for m, cc, cs in expansion:
            ang = cc * np.cos(m * theta) + cs * np.sin(m * theta)
            p = sign * m / beta
            val += ang * r ** p
            if m != 0:
                dval += ang * p * r ** (p - 1.0)
        return val, dval

    vals = []
    for eps in epsilons:
        phi, dphi = fields(phi_expansion, +1, eps)
        vdot, dvdot = fields(vdot_expansion, -1, eps)
        integrand = (vdot * dphi - phi * dvdot) * beta * eps
        vals.append(float(np.mean(integrand)) * 2.0 * math.pi)

    # Neville extrapolation to eps = 0
    table = list(vals)
    xs = epsilons
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i] * (0.0 - xs[i + level])
                        - table[i + 1] * (0.0 - xs[i])) / (xs[i] - xs[i + level])
    limit = table[0]
    spread = max(abs(v - limit) for v in vals)
    scale = 1.0 + max(abs(v) for v in vals)
    if spread > 1e-6 * scale and abs(vals[-1] - limit) > 0.5 * spread:
        raise ValueError("boundary integral did not converge as eps -> 0; "
                         "mismatched mode exponents?")
    return limit


def solution_space(B_matrix, atol=0.0):
    """Kernel basis and rank report of the assembled pairing matrix.

    Returns (V, report) where the columns of V span the kernel and report
    carries the rank (singular values below RANK_TOL * sigma_max, or below
    the absolute floor ``atol``, count as zero) and the kernel dimension.
    Pass the coefficient-extraction accuracy as ``atol`` when the matrix
    entries are only known to that level.

    V is canonical rather than the SVD's own kernel vectors, which may turn
    by any rotation within the kernel when the entries move by rounding: it
    is the Gram-Schmidt basis of the kernel projector's columns, taken
    greedily by largest remaining norm (the lowest index among near-ties),
    so each column has a positive entry at its pivot.  At rank 0 V is the
    identity.
    """
    B = np.atleast_2d(np.asarray(B_matrix, dtype=float))
    if not np.isfinite(B).all():
        raise ValueError("the pairing matrix is not finite")
    u, s, vt = np.linalg.svd(B)
    if not np.isfinite(s).all():
        raise ValueError("the pairing matrix's singular values overflow")
    if s.size and s[0] > 0:
        rank = int(np.sum(s > max(RANK_TOL * s[0], atol)))
    else:
        rank = 0
    dim = B.shape[1] - rank
    rest = np.eye(B.shape[1]) - vt[:rank].T @ vt[:rank]
    kernel = np.zeros((B.shape[1], dim))
    for k in range(dim):
        norms = np.linalg.norm(rest, axis=0)
        pivot = int(np.argmax(norms >= (1.0 - _PIVOT_TIE) * norms.max()))
        kernel[:, k] = rest[:, pivot] / norms[pivot]
        rest -= np.outer(kernel[:, k], kernel[:, k])
    return kernel, {"rank": rank, "dim": dim}


def direction_counts(betas):
    """Direction-space counts (K, K0, k0) for a tuple of cone angles.

    K0 sums [beta_j] over the k0 weighted points (beta_j > 1) and
    K = K0 + (k - k0) adds one slot for each remaining point, so K is the
    number of points the cone points split into.
    """
    betas = [float(b) for b in betas]
    if any(b <= 0 for b in betas):
        raise ValueError("angles must be positive")
    weighted = [b for b in betas if is_weighted(b)]
    K0 = sum(int_part(b) for b in weighted)
    return K0 + len(betas) - len(weighted), K0, len(weighted)


def classify_case(ell, K, K0, rank):
    """Local deformation case from the eigenspace and pairing data.

    ell = 0 gives the unobstructed case; ell = 2*K0 with K = K0 gives
    rigidity; otherwise 1 <= ell < 2K gives partial rigidity.  The solution
    dimension is 2K minus the computed rank (the rank equals ell in the
    generic case, but degenerate pairings -- the football -- have smaller
    rank and a correspondingly larger solution space).
    """
    if ell < 0 or K < 0 or K0 < 0 or rank < 0:
        raise ValueError("counts must be nonnegative")
    if rank > min(ell, 2 * K) if ell > 0 else rank > 0:
        raise ValueError("rank cannot exceed min(ell, 2K)")
    if ell > 2 * K:
        raise ValueError("ell exceeds 2K; inconsistent with the rank bound")
    dim = 2 * K - rank
    if ell == 0:
        return {"case": "unobstructed", "dim": dim}
    if K == K0 and ell == 2 * K0:
        return {"case": "rigidity", "dim": dim}
    return {"case": "partial_rigidity", "dim": dim}


#: where the splitting conformal factor is sampled: 64 points on |z| = 0.5
_CIRCLE = 0.5 * np.exp(2j * math.pi * np.arange(64) / 64)


def _vdot_fd(coeffs, J, k, h):
    """k-th central difference in rho of log|z^J + rho^J Q(z)| at rho = 0."""
    z = _CIRCLE

    def v(rho):
        poly = z ** J
        for m, a in enumerate(coeffs, start=1):
            poly = poly + rho ** J * a * z ** (J - m)
        return np.log(np.abs(poly))

    # nodes rho = (i - k/2) h, second-order accurate
    acc = np.zeros(len(z))
    for i in range(k + 1):
        acc += (-1.0) ** (k - i) * math.comb(k, i) * v((i - k / 2.0) * h)
    return acc / h ** k


def vdot_vanishing_check(A, J, k, h=1e-2):
    """Finite-difference residual of the k-th rho-derivative of the
    splitting conformal factor at rho = 0.

    v(rho, z) = log|z^J + rho^J (A_1 z^{J-1} + ... + A_J)| sampled on
    _CIRCLE.  The k-th derivative vanishes identically for k < J and
    the central difference decays at rate h^2; at k = J it converges to
    J! * Re(sum_l A_l z^{-l}).
    """
    coeffs = tuple(complex(a) for a in A)
    if len(coeffs) != J:
        raise ValueError("need J polynomial coefficients")
    if not 1 <= k <= J:
        raise ValueError("derivative order must satisfy 1 <= k <= J")
    return float(np.max(np.abs(_vdot_fd(coeffs, J, k, h))))


def vdot_limit_residual(A, J):
    """Pointwise misfit of the J-th rho-derivative against its closed form.

    Compares the Richardson-extrapolated J-th central difference of the
    splitting conformal factor at rho = 0 with the analytic value
    J! * Re(sum_l A_l z^{-l}) on _CIRCLE and returns the sup misfit.
    """
    coeffs = tuple(complex(a) for a in A)
    if len(coeffs) != J:
        raise ValueError("need J polynomial coefficients")
    coarse = _vdot_fd(coeffs, J, J, 2e-2)
    fine = _vdot_fd(coeffs, J, J, 1e-2)
    fd = (4.0 * fine - coarse) / 3.0
    limit = math.factorial(J) * np.real(
        sum(a * _CIRCLE ** (-m) for m, a in enumerate(coeffs, start=1)))
    return float(np.max(np.abs(fd - limit)))

