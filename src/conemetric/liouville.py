"""Liouville solvers for constant-curvature conic metrics on the sphere.

Conformal factors are split as u = v + s + w: v = sum_j (beta_j - 1) log m_j
carries the exact log singularities (m_j the chordal distance to point j),
s = sum_j A_j sigma_j is an explicit local correction that removes the
leading A_j m_j^{2 beta_j - 2} source at angles < 2*pi, and w is a bounded
remainder.  With div/grad taken in the round background metric the
equation reads

    div grad u + K e^{2u} - 1 = 0      (K = +1, closed sphere),

equivalently K_{e^{2u} g_0} = K away from the cone points.  On the closed
sphere one damped Newton solves for w and the A_j together, the A_j as a
border of the w system.  The Jacobian of the w-equation is singular
exactly when 2 lies in the spectrum of the current conic Laplacian;
footballs are solved on a half interval with the equatorial symmetry,
which removes the translation mode, and the general projected solve treats
the eigenvalue-2 directions with a bordered system.

A closed solve keeps its stiffness K in a ``_Stiffness``, which applies
K, knows its rounding floor and solves the bordered Newton step; a step
hands it the shift 2 W rho of the Jacobian K - diag(2 W rho) as a vector
and the border rows as it built them.  Football, projected and disk steps
factor their tridiagonal Jacobians once by LAPACK (dgttrf) and solve every
right-hand side of the step on that factor (dgttrs), with no sparse matrix
built.  A 2-D step runs GMRES on the bordered system, preconditioned by
the Jacobian with the density averaged in longitude: an FFT in longitude
splits that operator into one latitude tridiagonal per Fourier mode (the
separable structure of FISHPACK-style sphere solvers), all factored by one
LAPACK ``tridiag_solver``.  An iteration costs O(N log n) on the N = 2 n^2
cells, where sparse LU grows like n^3.  The spectrum near 2 bisects each
football mode pencil by its Sturm count, polishes every eigenvalue on the
same tridiagonal LU and checks the count against the closed form.  The 2-D
pencil is shift-inverted on one sparse LU, and one ARPACK pass, its k
doubled until the returned eigenvalues settle the window, finds the
eigenvalues to report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, gmres, splu
# bench/spans.py counts linear solves by wrapping liouville.spsolve
from scipy.sparse.linalg import spsolve  # noqa: F401

from .angles import (AngleVector, conic_euler_char, int_part, is_integer,
                     same_angle, subcritical_check)
from .spectrum import (FluxForm, football_eigenvalues, mode_multiplicity,
                       tridiag_matvec, tridiag_pencil_eigs, tridiag_solver)

__all__ = [
    "ConicProblem",
    "DiscreteConicMetric",
    "ObstructionBundleFiber",
    "SolverError",
    "damped_newton",
    "solve_liouville",
    "spectrum_near_two",
    "projected_solve",
    "friedrichs_fit",
]

NEWTON_TOL = 1e-9
MAX_NEWTON = 60
#: most grid cells a solve may ask for (n for footballs and disks, 2 n^2
#: for 2-D solves), so that every request ends in bounded time and memory
MAX_CELLS = 200_000
#: GMRES of a 2-D Newton step: relative residual and the length of its one
#: cycle.  A step that stops short of the tolerance is judged, like any
#: other, by the merit of damped_newton.
KRYLOV_RTOL = 1e-12
KRYLOV_RESTART = 40
#: the first spectral window |lambda - 2| < WINDOW spectrum_near_two tries
WINDOW = 0.5
#: relative residual at which ARPACK accepts a 2-D eigenvalue.  A Ritz value
#: of a symmetric pencil errs by about the square of its residual, so 1e-6
#: gives eigenvalues near 2 to round-off, far inside the tenth of a window
#: by which every eigenvalue must clear the window's edges.
ARPACK_TOL = 1e-6


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def damped_newton(residual, step, x0, tol, floor):
    """Newton iteration with step halving; returns (x, sup|residual(x)|).

    ``step(x, F)`` is the caller's linear solve for the Newton correction.
    ``floor`` is the rounding floor of the residual evaluation per unit of
    x, one value for all rows or one per row.  Row i is converged once
    |F_i| < tol_i = max(tol, floor_i (1 + sup|x|)), and the iteration stops
    when the merit max_i |F_i| / tol_i falls below 1, which is the only
    way it converges.  Each correction is halved up to 40 times until the
    merit decreases; trials that overflow count as no decrease, and a
    correction that no halving helps is a SolverError.  So is a step whose
    linear solve raises numpy.linalg.LinAlgError: the Jacobian is singular.
    """
    def merit(x, F):
        return np.max(np.abs(F) / np.maximum(
            tol, floor * (1.0 + np.max(np.abs(x)))))

    x, F = x0, residual(x0)
    for _ in range(MAX_NEWTON):
        res = merit(x, F)
        if res < 1.0:
            return x, np.max(np.abs(F))
        try:
            dx = step(x, F)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"{exc} in a Newton step",
                              residual=np.max(np.abs(F))) from exc
        t = 1.0
        for _ls in range(40):
            trial = x + t * dx
            with np.errstate(over="ignore", invalid="ignore"):
                F_trial = residual(trial)
                decreased = merit(trial, F_trial) < res
            if decreased:
                x, F = trial, F_trial
                break
            t *= 0.5
        else:
            raise SolverError("Newton line search stalled",
                              residual=np.max(np.abs(F)))
    raise SolverError("Newton did not converge", residual=np.max(np.abs(F)))


class _Stiffness(NamedTuple):
    """A stiffness matrix K, held by the solve it belongs to.

    ``apply(w)`` is K w.  ``floor`` is eps times the row sums of |K|, the
    rounding floor of K w per unit of sup|w|, for the ``floor`` of
    damped_newton.  ``solve(shift, cols, rows, corner, rhs)`` solves the
    bordered Newton system

        [[K - diag(shift), cols], [rows, corner]] x = rhs

    for k border unknowns, so a step hands over its shift as a vector.
    """
    apply: Callable
    floor: np.ndarray
    solve: Callable


def _border(x0, Z, rows, corner, rhs):
    """The solution of [[J, cols], [rows, corner]] x = rhs from x0 = J^-1
    rhs[:n] and Z = J^-1 cols, by the k x k Schur complement in the k
    border unknowns."""
    y = np.linalg.solve(corner - rows @ Z, rhs[len(x0):] - rows @ x0)
    return np.concatenate([x0 - Z @ y, y])


def _band_stiffness(bands):
    """The _Stiffness of the tridiagonal K with these (sub, diag, sup)
    bands.  Its solve factors K - diag(shift) once by ``tridiag_solver``
    for all k + 1 right-hand sides."""
    sub, diag, sup = bands

    def solve(shift, cols, rows, corner, rhs):
        X = tridiag_solver(sub, diag - shift, sup)(
            np.column_stack([rhs[:len(diag)], cols]))
        return _border(X[:, 0], X[:, 1:], rows, corner, rhs)

    return _Stiffness(
        lambda w: tridiag_matvec(bands, w),
        np.finfo(float).eps * tridiag_matvec([abs(b) for b in bands],
                                             np.ones(len(diag))),
        solve)


# ---------------------------------------------------------------------------
# geometry helpers (unit sphere; points as colatitude/longitude pairs)

def sphere_point(colat, lon):
    """Unit vectors, shape (..., 3), at colatitudes colat, longitudes lon."""
    return np.stack([np.sin(colat) * np.cos(lon),
                     np.sin(colat) * np.sin(lon), np.cos(colat)], axis=-1)


def _chord(x, p):
    """m = |x - p|, the chordal distance; x may have shape (..., 3)."""
    return np.linalg.norm(x - p, axis=-1)


def _bearing_frame(p):
    """Orthonormal tangent frame at p fixing the chart angle theta."""
    ref = np.array([0.0, 0.0, 1.0])
    if abs(p[2]) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    e1 = ref - p * (ref @ p)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    return e1, e2


def _exp_map(p, m, theta):
    """Point at chordal distance m <= 2 from p in direction theta: the
    geodesic distance d has cos d = 1 - m^2/2, sin d = m sqrt(1 - m^2/4)."""
    e1, e2 = _bearing_frame(p)
    v = np.cos(theta)[..., None] * e1 + np.sin(theta)[..., None] * e2
    return (1.0 - m * m / 2.0)[..., None] * p \
        + (m * np.sqrt(1.0 - m * m / 4.0))[..., None] * v


# ---------------------------------------------------------------------------
# the cone-point rules shared by the football and the 2-D solver; each takes
# the chords m_j to the cone points, as arrays, so the football can pass its
# exact 2 sin(phi/2) and 2 sin((pi - phi)/2)

def _background_density(chords, betas):
    """e^{2v} = prod_j m_j^{2(beta_j - 1)} for the log terms v."""
    out = 1.0
    for m, b in zip(chords, betas):
        out = out * m ** (2.0 * (b - 1.0))
    return out


def _corrected(betas):
    """The points that carry the local correction: those with beta_j < 1."""
    return [j for j, b in enumerate(betas) if b < 1.0]


def _correction(chords, betas):
    """(sigma_j, div grad sigma_j) for each point of ``_corrected``.

    The local correction is s = sum_j A_j sigma_j, sigma_j = -m_j^{2 beta_j}
    / (4 beta_j^2); its div grad cancels the leading A_j m_j^{2 beta_j - 2}
    part of the density source.  m^2 = 2 - 2 x.p is smooth on the whole
    sphere, so no cutoff is needed: div grad m^{2 beta} = 4 beta^2
    m^{2 beta - 2} - beta(beta+1) m^{2 beta} holds globally.
    """
    out = []
    for j in _corrected(betas):
        b, m = betas[j], chords[j]
        f = m ** (2.0 * b)
        with np.errstate(divide="ignore"):
            lap = 4.0 * b * b * m ** (2.0 * b - 2.0) - b * (b + 1.0) * f
        out.append((-f / (4.0 * b * b), -lap / (4.0 * b * b)))
    return out


# ---------------------------------------------------------------------------
# problem description

@dataclass(frozen=True)
class ConicProblem:
    """Conic constant-curvature problem on the round sphere or flat disk."""
    background: str                      # "sphere" | "disk"
    points: tuple                        # sphere: (colat, lon); disk: radii
    beta: AngleVector
    curvature: int = 1

    def __post_init__(self):
        if self.background not in ("sphere", "disk"):
            raise ValueError("background must be 'sphere' or 'disk'")
        if self.curvature not in (-1, 0, 1):
            raise ValueError("curvature must be -1, 0 or 1")
        beta = self.beta if isinstance(self.beta, AngleVector) else \
            AngleVector(genus=0, beta=tuple(self.beta))
        object.__setattr__(self, "beta", beta)
        for b in beta.beta:
            if is_integer(b) and int_part(b) == 0:
                raise ValueError(f"angle parameter {b!r} counts as the "
                                 "integer 0 (within INT_TOL): a cone of "
                                 "angle 0 has no conic metric")
        object.__setattr__(self, "points", tuple(tuple(np.atleast_1d(p))
                                                 for p in self.points))
        if not all(np.all(np.isfinite(p)) for p in self.points):
            raise ValueError("cone point coordinates must be finite")
        if len(self.points) != len(beta.beta):
            raise ValueError("need one point per angle parameter")
        if self.background == "disk":
            if any(len(p) != 1 for p in self.points):
                raise ValueError("disk points are single radii")
        else:
            if any(len(p) != 2 for p in self.points):
                raise ValueError("sphere points are (colatitude, longitude) "
                                 "pairs")
            xs = self.unit_points()
            for i in range(len(xs)):
                for k in range(i + 1, len(xs)):
                    if _chord(xs[i], xs[k]) < 1e-12:
                        raise ValueError("cone points must be distinct")

    @property
    def chi(self):
        return conic_euler_char(self.beta)

    @property
    def is_football(self):
        """Two antipodal sphere points of equal angle (``same_angle``): the
        axisymmetric (football) solve applies."""
        if self.background != "sphere" or len(self.points) != 2:
            return False
        x, y = self.unit_points()
        return same_angle(*self.beta.beta) and _chord(x, -y) < 1e-12

    def unit_points(self):
        return [sphere_point(*p) for p in self.points]


# ---------------------------------------------------------------------------
# discrete solution container

@dataclass
class DiscreteConicMetric:
    problem: ConicProblem
    kind: str                       # "football" | "sphere2d" | "disk"
    n: int
    w: np.ndarray                   # bounded remainder at cell centres
    rho: np.ndarray                 # e^{2u} there; None for disks
    sing_coeffs: tuple              # A_j of the local corrections
    residual: float
    mesh: dict = field(default_factory=dict)

    @property
    def beta(self):
        return self.problem.beta.beta

    def area(self):
        """Gauss-Bonnet area sum(rho * measure); the football measure
        counts its half grid twice.  The leading A_j m_j^{2 beta_j - 2} part
        of rho is integrated exactly: int_{S^2} m^{2 beta - 2} dA = 2 pi
        4^beta / (2 beta) (m dm substitution).
        """
        rho, extra = self.density(), 0.0
        for j in _corrected(self.beta):
            b, A = self.beta[j], self.sing_coeffs[j]
            rho = rho - A * self.mesh["chords"][j] ** (2.0 * b - 2.0)
            extra += A * 2.0 * math.pi * 4.0 ** b / (2.0 * b)
        return float(np.sum(rho * self.mesh["measure"]) + extra)

    def density(self, full=False):
        """e^{2u} relative to the round metric at cell centres, as the solve
        converged it; for footballs ``full`` mirrors the half grid (0, pi/2)
        across the equator onto all n cells of (0, pi)."""
        if self.rho is None:
            raise ValueError("density and area defined for closed solves "
                             "only")
        if full and self.kind == "football":
            return np.concatenate([self.rho, self.rho[::-1]])
        return self.rho

    def _cone_beta(self, point_index):
        """beta_j for a point index j in 0..k-1, not counted from the end."""
        if not 0 <= point_index < len(self.beta):
            raise ValueError(f"point index {point_index!r} outside 0.."
                             f"{len(self.beta) - 1}")
        return self.beta[point_index]

    def bounded_part(self, point_index, m, theta):
        """u - (beta_j - 1) log m_j at chordal distance m, chart angle
        theta, by interpolation."""
        if self.kind != "sphere2d":
            raise ValueError("bounded part extraction for 2-D solves")
        self._cone_beta(point_index)
        g, pts = self.mesh, self.problem.unit_points()
        x = _exp_map(pts[point_index], np.asarray(m, dtype=float),
                     np.asarray(theta, dtype=float))
        chords = [_chord(x, q) for q in pts]
        logs = sum((b - 1.0) * np.log(c)
                   for i, (c, b) in enumerate(zip(chords, self.beta))
                   if i != point_index)
        s = sum(self.sing_coeffs[j] * sig for j, (sig, _) in
                zip(_corrected(self.beta), _correction(chords, self.beta)))
        w_interp = _interp_matrix(g["phi"], g["theta"], x) @ self.w.ravel()
        return logs + s + w_interp.reshape(x.shape[:-1])


@dataclass
class ObstructionBundleFiber:
    eigenvalues_near_2: list
    axisymmetric: list          # b-unit football j = 0 eigenvectors
    ell: int
    window: float


# ---------------------------------------------------------------------------
# closed-sphere solve: one Newton on w and the cone coefficients

def _solve_closed(problem, K, W, chords, pair_chords, P):
    """One damped Newton for x = (w, A_j of ``_corrected``); returns (w and
    the density rho it converged, shaped like the chord fields, all A_j
    with 0 for the other points, sup|F|).

    div grad w = -K w / W for the stiffness K and cell measure W; the rows
    of P map w to its value at each cone point.  The residual rows are

        -(K w) / W + div grad s + c_v + E e^{2(s + w)} - 1      (cells)
        A_j - e_reg,j exp(2 (P_j w + sum_{i != j} s_i(p_j)))    (points)

    A_j is the limit of the density over m_j^{2 beta_j - 2} at p_j, and
    e_reg,j the other points' background density there.  s is linear in
    A, so the Jacobian is J = K - diag(2 W rho) bordered by the A_j, with
    the rows diag(-2 g) P for g the A_j rule.  K is a ``_Stiffness``, which
    owns its matrix, and a step hands its ``solve`` the shift 2 W rho and
    those rows: ``_band_stiffness`` for footballs, whose step is a LAPACK
    tridiagonal LU, and ``_lon_fft_stiffness`` for 2-D solves.
    """
    betas = problem.beta.beta
    idx = _corrected(betas)
    shape, N, k = np.shape(chords[0]), len(W), len(idx)
    with np.errstate(over="ignore", invalid="ignore"):
        E = _background_density(chords, betas).ravel()
    if not np.all(np.isfinite(E)):
        raise ValueError(f"beta = {list(betas)}: the background density "
                         "e^(2v) is not finite on the grid")
    corr = _correction(chords, betas)
    sig = np.reshape([f.ravel() for f, _ in corr], (k, N))
    lap = np.reshape([f.ravel() for _, f in corr], (k, N))
    # div grad v = c_v away from the points, for the log terms v
    c_v = -0.5 * sum(b - 1.0 for b in betas)
    e_reg = np.array([_background_density(np.delete(pair_chords[j], j),
                                          np.delete(betas, j)) for j in idx])
    at_pts = np.array([[f for f, _ in _correction(pair_chords[j], betas)]
                       for j in idx]).reshape(k, k)
    P = P[idx]
    # rounding floor of each cell row: the stiffness amplifies eps |w| by
    # its row sum over the cell measure (~ h^-2 for the football and at the
    # equator, ~ h^-4 at the grid poles of the 2-D solve)
    floor = np.append(K.floor / W, np.zeros(k))

    def fields(x):
        """The density rho and the A_j rule g at x."""
        w, A = x[:N], x[N:]
        return (E * np.exp(2.0 * (A @ sig + w)),
                e_reg * np.exp(2.0 * (P @ w + at_pts @ A)))

    def residual(x):
        rho, g = fields(x)
        return np.concatenate([-K.apply(x[:N]) / W + x[N:] @ lap + c_v + rho
                               - 1.0, x[N:] - g])

    def step(x, F):
        rho, g = fields(x)
        # the football's P is dense, and its path builds no sparse matrix
        rows = (sparse.diags(-2.0 * g) @ P if sparse.issparse(P)
                else -2.0 * g[:, None] * P)
        return K.solve(2.0 * W * rho, -(W * (lap + 2.0 * rho * sig)).T, rows,
                       np.eye(k) - 2.0 * g[:, None] * at_pts,
                       np.concatenate([W * F[:N], -F[N:]]))

    # constant w balancing the mean of the equation, and the A_j rule at it
    w0 = 0.5 * math.log(max((1.0 - c_v) * np.sum(W) / np.sum(E * W), 1e-6))
    x, resid = damped_newton(
        residual, step, np.concatenate([np.full(N, w0),
                                        e_reg * math.exp(2.0 * w0)]),
        NEWTON_TOL, floor)
    rho = fields(x)[0]
    # the row tolerance grows with sup|w|, so a w falling without bound can
    # pass it with e^{2u} underflowed to 0
    if not np.all(rho > 0.0):
        raise SolverError("Newton converged to a density that is not "
                          "positive in every cell", residual=resid)
    A = np.zeros(len(betas))
    A[idx] = x[N:]
    return (x[:N].reshape(shape), rho.reshape(shape),
            tuple(float(a) for a in A), float(resid))


# ---------------------------------------------------------------------------
# football (axisymmetric) solver: half interval [0, pi/2], cell centred

def _solve_football(problem, n):
    # n even puts the equator on a cell face; n >= 4 gives the half grid the
    # two cells the pole extrapolation reads
    if n < 4 or n % 2:
        raise ValueError(f"football meshes need an even n >= 4, got {n}")
    form = FluxForm(n, 1, cells=n // 2)
    phi = form.centre
    chords = (2.0 * np.sin(phi / 2.0), 2.0 * np.sin((math.pi - phi) / 2.0))
    # both poles see the even quadratic extrapolation (9 w_0 - w_1) / 8 of
    # the half grid, by the equatorial symmetry
    P = np.zeros((2, n // 2))
    P[:, :2] = (9.0 / 8.0, -1.0 / 8.0)
    w, rho, A, resid = _solve_closed(
        problem, _band_stiffness(form.bands()), form.weight, chords,
        np.array([[0.0, 2.0], [2.0, 0.0]]), P)
    # "form", the full grid's, serves the j = 0 pencil and projected_solve
    return DiscreteConicMetric(
        problem=problem, kind="football", n=n, w=w, rho=rho, sing_coeffs=A,
        residual=resid, mesh={"phi": phi, "chords": chords,
                              "measure": 4.0 * math.pi * form.weight * form.h,
                              "form": FluxForm(n, 1)})


# ---------------------------------------------------------------------------
# full 2-D lat-lon solver (genus 0, all angles < 2 pi with the local
# correction; cone points may sit anywhere: rotated, off-grid points
# converge at the same order 2 as grid-aligned ones)

def _assemble_laplacian(form):
    """Symmetric flux form A (so that div grad w = -A w / M) and measure M.

    On the lat-lon grid (row-major, longitude fastest) A is the Kronecker
    sum

        A = h^2 K (x) I_{2n} + diag(1 / sin phi) (x) C,

    where K is the latitude stiffness -(sin phi w')' of ``form =
    FluxForm(n, 1)`` and C the periodic second difference in longitude, so
    A is circulant in longitude; M = sin phi h^2 is the cell area.
    """
    n_lon = 2 * len(form.weight)
    h = form.h
    shift = sparse.eye(n_lon, k=1) + sparse.eye(n_lon, k=1 - n_lon)
    C = 2.0 * sparse.eye(n_lon) - shift - shift.T
    K = sparse.diags(form.bands(), [-1, 0, 1], format="csc")
    A = sparse.kron(h * h * K, sparse.eye(n_lon)) \
        + sparse.kron(sparse.diags(1.0 / form.weight), C)
    M = np.repeat(form.weight, n_lon) * h * h
    return A.tocsc(), M


def _lon_fft_stiffness(form, A):
    """The _Stiffness of the flux form A of the n x 2n grid whose latitude
    stiffness is ``form = FluxForm(n, 1)`` (``_assemble_laplacian``).  Its
    ``solve`` runs GMRES on the whole (N + k) system, applying the Jacobian
    J = A - diag(shift) as A x - shift x, with no N x N matrix built per
    step, and the border rows as the k x N matrix the step built: one
    cycle of at most KRYLOV_RESTART iterations, with no restart, since
    later cycles gain little once the step nears the rounding floor of the
    residual.

    The preconditioner is the same bordered system with J = A - 2 diag(M
    rho) replaced by Q = A - 2 diag(M rhobar), rhobar(phi) the longitude
    mean of the density; Q is J with its diagonal averaged over each
    latitude row, and the diagonal of A is read once per _Stiffness.  Q is
    circulant in longitude like A, so an rfft in longitude splits it into
    n + 1 real symmetric latitude tridiagonals, one per Fourier mode m,

        h^2 K + diag((2 - 2 cos(pi m / n)) / sin phi - 2 M rhobar),

    which are stacked mode-major and factored once per step.  The border
    goes through ``_border`` with Q^-1 cols, also computed once per step.
    Both the rfft and the row mean commute with rotations in longitude, so
    the iterates keep the symmetries of the grid.
    """
    n_lat = len(form.weight)
    n_lon = 2 * n_lat
    off = form.h ** 2 * form.bands()[0]
    # the tridiagonals side by side, with no coupling between modes
    sub = np.tile(np.append(off, 0.0), n_lat + 1)[:-1]
    # C contributes 2 - 2 cos(pi m / n) on mode m; the row mean of J's
    # diagonal already holds the 2
    modal = (-2.0 * np.cos(np.pi * np.arange(n_lat + 1) / n_lat)[:, None]
             / form.weight).ravel()
    diag = A.diagonal()

    def solve(shift, cols, rows, corner, rhs):
        N, k = cols.shape
        mean = (diag - shift).reshape(n_lat, n_lon).mean(axis=1)
        modes = tridiag_solver(sub, np.tile(mean, n_lat + 1) + modal, sub)

        def precond(B):
            """Q^-1 B for an N x c block B."""
            c = B.shape[1]
            F = np.fft.rfft(B.reshape(n_lat, n_lon, c), axis=1)
            F = F.transpose(1, 0, 2).reshape(-1, c)
            X = modes(np.hstack([F.real, F.imag]))
            F = (X[:, :c] + 1j * X[:, c:]).reshape(n_lat + 1, n_lat, c)
            return np.fft.irfft(F.transpose(1, 0, 2), n_lon,
                                axis=1).reshape(N, c)

        def bordered(x):
            return np.concatenate([A @ x[:N] - shift * x[:N] + cols @ x[N:],
                                   rows @ x[:N] + corner @ x[N:]])

        Z = precond(cols)

        def preconditioned(r):
            return _border(precond(r[:N, None])[:, 0], Z, rows, corner, r)

        shape = (N + k, N + k)
        x, _ = gmres(LinearOperator(shape, bordered, dtype=float), rhs,
                     rtol=KRYLOV_RTOL, atol=0.0, restart=KRYLOV_RESTART,
                     maxiter=1,
                     M=LinearOperator(shape, preconditioned, dtype=float))
        return x

    return _Stiffness(
        A.__matmul__,
        np.finfo(float).eps * np.asarray(abs(A).sum(axis=1)).ravel(), solve)


def _interp_matrix(phi, theta, x):
    """Bilinear interpolation of cell-centred samples at the points x
    (shape (..., 3)), as a sparse matrix acting on the flattened grid."""
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    h, n_lat, n_lon = math.pi / len(phi), len(phi), len(theta)
    fi = np.arctan2(np.hypot(x[:, 0], x[:, 1]), x[:, 2]) / h - 0.5
    fk = np.arctan2(x[:, 1], x[:, 0]) % (2.0 * math.pi) / h - 0.5
    i0 = np.clip(np.floor(fi), 0, n_lat - 2).astype(int)
    ti, tk = fi - i0, fk - np.floor(fk)
    k0 = np.floor(fk).astype(int) % n_lon
    k1 = (k0 + 1) % n_lon
    cols = np.stack([i0 * n_lon + k0, i0 * n_lon + k1,
                     (i0 + 1) * n_lon + k0, (i0 + 1) * n_lon + k1], axis=1)
    vals = np.stack([(1 - ti) * (1 - tk), (1 - ti) * tk,
                     ti * (1 - tk), ti * tk], axis=1)
    rows = np.repeat(np.arange(len(x)), 4)
    return sparse.csr_matrix((vals.ravel(), (rows, cols.ravel())),
                             shape=(len(x), n_lat * n_lon))


def _solve_sphere2d(problem, n_lat):
    pts = np.array(problem.unit_points())
    pair_chords = _chord(pts[:, None], pts)
    # the correction and the bilinear A_j rows need cells between the
    # points: no chord below 2 sin(pi / n), the chord of 2h, capped at the
    # diameter 2 for n <= 2, where 2h >= pi and sin(pi / n) falls back to 0
    bound = 2.0 * math.sin(min(math.pi / n_lat, math.pi / 2.0))
    close = np.argwhere(np.triu(pair_chords < bound, 1))
    if len(close):
        i, k = close[0]
        raise ValueError(
            f"cone points {i} and {k} lie a chord {pair_chords[i, k]:.3g} "
            f"apart, closer than 2h = 2 pi / n, whose chord is {bound:.3g}; "
            "refine the mesh")
    # the cell centres and their unit vectors; the longitude centres
    # continue the colatitude ones of the latitude stiffness at spacing h
    form = FluxForm(n_lat, 1)
    phi, theta = form.centre, np.arange(0.5, 2 * n_lat) * form.h
    xyz = sphere_point(*np.meshgrid(phi, theta, indexing="ij"))
    chords = [_chord(xyz, p) for p in pts]
    for j, m in enumerate(chords):
        cell = np.unravel_index(np.argmin(m), m.shape)
        if m[cell] == 0.0:
            colat, lon = map(float, problem.points[j])
            raise ValueError(
                f"cone point {j} at ({colat!r}, {lon!r}) lies on the centre "
                f"of cell {tuple(map(int, cell))} of the n = {n_lat} grid, "
                "where its density is infinite; move it or change the mesh")
    A, M = _assemble_laplacian(form)
    w, rho, coeffs, resid = _solve_closed(
        problem, _lon_fft_stiffness(form, A), M, chords, pair_chords,
        _interp_matrix(phi, theta, pts))
    return DiscreteConicMetric(
        problem=problem, kind="sphere2d", n=n_lat, w=w, rho=rho,
        sing_coeffs=coeffs, residual=resid,
        mesh={"phi": phi, "theta": theta, "A": A, "chords": chords,
              "measure": M.reshape(w.shape)})


# ---------------------------------------------------------------------------
# flat disk solver (radial, one cone point at the origin)

def _solve_disk(problem, n):
    b = problem.beta.beta[0]
    K = problem.curvature
    h = 1.0 / n
    r = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    lo = faces[:-1] / h ** 2
    hi = faces[1:] / h ** 2
    diag = -(lo + hi) / r
    # w = 0 at r = 1, the exact flat-cone data, by the ghost value -w_{n-1}
    diag[-1] -= hi[-1] / r[-1]
    sub, sup = lo[1:] / r[1:], hi[:-1] / r[:-1]
    L = _band_stiffness((sub, diag, sup))
    E = r ** (2.0 * b - 2.0)

    # div grad u = -K e^{2u} on a flat background
    w, resid = damped_newton(
        lambda w: L.apply(w) + K * E * np.exp(2.0 * w),
        lambda w, F: tridiag_solver(
            sub, diag + 2.0 * K * E * np.exp(2.0 * w), sup)(-F),
        np.zeros(n), NEWTON_TOL, L.floor)
    return DiscreteConicMetric(problem=problem, kind="disk", n=n, w=w,
                               rho=None, sing_coeffs=(0.0,),
                               residual=float(resid), mesh={"r": r})


# ---------------------------------------------------------------------------
# public solve dispatch

def solve_liouville(problem, n):
    """Solve for the bounded conformal remainder at the mesh resolution n, a
    positive integer (a bool is not one); see the module docstring."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"mesh size must be an integer, got {n!r}")
    if n <= 0:
        raise ValueError(f"mesh size must be positive, got n = {n}")
    football = problem.is_football
    cells = n if football or problem.background == "disk" else 2 * n * n
    if cells > MAX_CELLS:
        raise ValueError(f"mesh n = {n} asks for {cells} grid cells; the "
                         f"limit is MAX_CELLS = {MAX_CELLS}")
    if problem.background == "disk":
        if len(problem.points) != 1 or np.any(problem.points[0]):
            raise ValueError("the disk solver takes one cone point, at "
                             "radius 0")
        if problem.curvature > 0:
            raise SolverError("disk solver covers K <= 0")
        return _solve_disk(problem, n)
    if problem.curvature != 1:
        raise SolverError("closed-sphere solves require K = 1")
    if problem.chi <= 0:
        # Gauss-Bonnet: a K = 1 metric would have area 2 pi chi
        raise ValueError(f"no spherical metric exists for chi = "
                         f"{problem.chi:.6g} <= 0")
    if football:
        return _solve_football(problem, n)
    if any(b >= 1.0 for b in problem.beta.beta):
        raise SolverError("general 2-D solves require all angles < 2 pi "
                          "(subcritical regime)")
    if not subcritical_check(problem.beta):
        raise SolverError("angle vector outside the subcritical regime")
    return _solve_sphere2d(problem, n)


# ---------------------------------------------------------------------------
# the spectrum of the Friedrichs Delta_g near 2, one pencil at a time

def _football_modes(metric):
    """(j, bands, b) with Delta_g = pencil(A, diag(b)) per angular mode j.

    A football splits into the angular modes j: the radial factor
    R = (sin phi)^j S gives A = -(p S')' + j(j+1) p S, as its
    (sub, diag, sup) bands, and b = p e^{2u} with p = sin^{2j+1}, which
    builds the Friedrichs condition (excluding the r^{-j/beta} branch) into
    the discretization.  The flux part of A is positive semidefinite and
    b <= max(rho) p, so no eigenvalue of mode j lies below j(j+1) / max(rho)
    (Rayleigh); only the modes with j(j+1) <= 1.1 (2 + 1.5 WINDOW) max(rho)
    can reach the band ``spectrum_near_two`` reads, and only those below
    2 ceil(beta) + 5 are kept (ceil in the sense of ``angles.int_part`` and
    ``is_integer``); j = 0 reads the solve's own full-grid ``FluxForm(n,
    1)``.
    """
    rho, b = metric.density(full=True), metric.beta[0]
    reach = 1.1 * (2.0 + 1.5 * WINDOW) * np.max(rho)
    forms = [FluxForm(metric.n, 2 * j + 1) if j else metric.mesh["form"]
             for j in range(2 * (int_part(b) - is_integer(b)) + 7)
             if j * (j + 1) <= reach]
    return [(j, form.bands(potential=j * (j + 1.0) * form.weight),
             form.weight * rho)
            for j, form in enumerate(forms)]


def _shift_solver(A, b):
    """(sigma, the inverse of A - sigma diag(b)) for the 2-D pencil, a
    symmetric-mode sparse LU (the ordering of A + A^T, diagonal pivots
    preferred) factored once at sigma = 2, or at 2 + 1e-8 where that is
    exactly singular."""
    for sigma in (2.0, 2.0 + 1e-8):
        try:
            return sigma, splu(sparse.csc_matrix(A - sigma * sparse.diags(b)),
                               permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.1,
                               options=dict(SymmetricMode=True)).solve
        except RuntimeError:
            if sigma != 2.0:
                raise


def spectrum_near_two(metric):
    """Eigenvalues of Delta_g with |lambda - 2| < window, and among them
    the football j = 0 eigenvectors that ``projected_solve`` reads.

    The window checks read the band |lambda - 2| < 1.1 * 1.5 WINDOW, the
    outer edge of the widest window's margin.  A mode of ``_football_modes``
    yields exactly the eigenvalues of that band: ``tridiag_pencil_eigs``
    brackets them by Sturm bisection and polishes each by one
    inverse-iteration step.  The 2-D pencil, the stiffness and the mass
    M e^{2u}, is factored once by ``_shift_solver``; ARPACK applies that
    factor as OPinv and the mass as a product with its diagonal, from one
    fixed start vector, and asks for the k eigenvalues nearest 2, without
    vectors, to the relative tolerance ARPACK_TOL with a Krylov space of
    max(2k + 1, 8) vectors.  From k = 2 it doubles k (up to N - 2) until
    every returned eigenvalue lies at least 1.1 WINDOW from 2, so that
    every eigenvalue clears the first window's edge margin, or one lies
    outside the band, so that the returned ones hold the whole band.
    The reported window is the first of WINDOW, 1.5 WINDOW and WINDOW / 1.5
    whose edges every eigenvalue clears by a tenth of that window; if none
    does, SolverError.  So is a football count that differs from the count,
    with multiplicity, of ``spectrum.football_eigenvalues`` in that window:
    lambda = 2 is a football eigenvalue at every beta, and a mesh too coarse
    for small beta moves it out of the window.
    """
    wide = 1.5 * WINDOW
    if metric.kind == "football":
        lams, mults, axisym = [], [], []
        for j, bands, b in _football_modes(metric):
            try:
                vals, vecs = tridiag_pencil_eigs(bands, b, 2.0 - 1.1 * wide,
                                                 2.0 + 1.1 * wide)
            except np.linalg.LinAlgError as exc:
                raise SolverError(str(exc)) from exc
            if j == 0:
                # mode 0 comes first: these are lams[:len(axisym)]
                axisym = list(vecs.T)
            lams.extend(vals)
            mults.extend([mode_multiplicity(j)] * len(vals))
    elif metric.kind == "sphere2d":
        b = (metric.mesh["measure"] * metric.density()).ravel()
        N = len(b)
        k = min(2, N - 2)
        v0 = np.random.default_rng(0).standard_normal(N)
        sigma, solve = _shift_solver(metric.mesh["A"], b)
        OPinv = LinearOperator((N, N), solve, dtype=float)
        B = LinearOperator((N, N), b.__mul__, dtype=float)
        while True:
            # with OPinv given, shift-invert eigsh reads only the shape of A
            lams = eigsh(OPinv, k=k, M=B, sigma=sigma, which="LM", v0=v0,
                         ncv=min(max(2 * k + 1, 8), N - 1), tol=ARPACK_TOL,
                         OPinv=OPinv, return_eigenvectors=False)
            dist = np.abs(lams - 2.0)
            if (k == N - 2 or np.all(dist >= 1.1 * WINDOW)
                    or np.any(dist >= 1.1 * wide)):
                break
            k = min(2 * k, N - 2)
        mults, axisym = [1] * len(lams), []
    else:
        raise ValueError("the spectrum near 2 is defined for closed solves "
                         "only")
    dist = np.abs(np.array(lams) - 2.0)
    for window in (WINDOW, wide, WINDOW / 1.5):
        # a band with no eigenvalue at all clears every edge
        if np.all(np.abs(dist - window) >= 0.1 * window):
            break
    else:
        raise SolverError("spectral window boundary too close to an "
                          "eigenvalue")
    inside = [i for i in np.argsort(dist, kind="stable") if dist[i] < window]
    ell = sum(mults[i] for i in inside)
    if metric.kind == "football":
        want = sum(mode.multiplicity for mode in
                   football_eigenvalues(metric.beta[0], 2.0 + window)
                   if abs(mode.lam - 2.0) < window)
        if ell != want:
            raise SolverError(
                f"the football spectrum at n = {metric.n} has {ell} "
                f"eigenvalues within {window:.6g} of 2, where the closed "
                f"form has {want}; refine the mesh")
    return ObstructionBundleFiber(
        eigenvalues_near_2=[float(lams[i]) for i in inside],
        axisymmetric=[axisym[i] for i in inside if i < len(axisym)],
        ell=ell, window=window)


# ---------------------------------------------------------------------------
# projected solve (bordered Newton, axisymmetric reduction)

def projected_solve(metric, fiber, density_perturbation=None):
    """Solve the Liouville equation with right side confined to the fiber.

    Works in the axisymmetric reduction on a football background g2 (the
    fiber direction there is the simple j = 0 eigenfunction).  Returns
    (u samples on the full interval, Lambda coefficients).  With ell = 0
    the call delegates to a plain Newton solve.
    """
    if metric.kind != "football":
        raise NotImplementedError("projected solve in the axisymmetric "
                                  "reduction only")
    n, form = metric.n, metric.mesh["form"]
    h, K, W = form.h, _band_stiffness(form.bands()), form.weight
    # rho2 K_{g2} = 1 - div grad(log rho2)/2, with div grad u = -(K u) / W
    # as in _solve_closed.  For the base solution that equals rho2_0 by its
    # own discrete equation; a conformal perturbation delta adds
    # -div grad delta.  This makes u = 0 an exact discrete solution when the
    # input metric is the converged solve itself.
    rho0 = rho2 = curv_term = metric.density(full=True)
    if density_perturbation is not None:
        delta = np.asarray(density_perturbation, dtype=float)
        rho2 = rho0 * np.exp(2.0 * delta)
        curv_term = rho0 + K.apply(delta) / W

    # unknowns x = (u, Lambda); the last ell residuals are the constraints
    # along the fiber's axisymmetric directions, unit in L^2(g2)
    B = rho2 * W * h * 2.0 * math.pi
    V = np.reshape([v / math.sqrt(v @ (v * B)) for v in fiber.axisymmetric],
                   (-1, n))
    ell = len(V)

    def residual(x):
        u, lam_c = x[:n], x[n:]
        # div grad u + rho2 e^{2u} - rho2 K_{g2} in the round frame
        F = -K.apply(u) / W + rho2 * np.exp(2.0 * u) - curv_term \
            - rho2 * (lam_c @ V)
        return np.concatenate([F, V @ (u * B)])

    def step(x, F):
        # the cell rows times -W, as in _solve_closed
        return K.solve(2.0 * W * rho2 * np.exp(2.0 * x[:n]),
                       (V * rho2 * W).T, V * B, np.zeros((ell, ell)),
                       np.concatenate([W * F[:n], -F[n:]]))

    x, _ = damped_newton(residual, step, np.zeros(n + ell), 1e-11,
                         np.append(K.floor / W, np.zeros(ell)))
    return x[:n], x[n:]


# ---------------------------------------------------------------------------
# Friedrichs expansion fit near a cone point of a 2-D solve

@dataclass
class FriedrichsFit:
    a0: float
    indicial: list             # (exponent, a_cos, a_sin) per indicial term
    residuals: np.ndarray      # sup residual per radius after the fit
    slope: float               # log-log decay rate of the residuals


def friedrichs_fit(metric, point_index):
    """Fit a0 + sum r^{j/beta}(a cos + b sin) near a cone point.

    J is the largest integer strictly below 2 beta, in the sense of
    ``angles.int_part`` and ``is_integer``; the remainder must decay like
    r^2 in the uniformized radial variable.
    """
    b = metric._cone_beta(point_index)
    radii = np.geomspace(0.45, 1.0, 8)     # uniformized r = m^beta / beta
    J = int_part(2.0 * b) - is_integer(2.0 * b)
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    # all 8 x 64 samples, radius by radius, in one bounded_part call
    r, t = np.repeat(radii, len(theta)), np.tile(theta, len(radii))
    y = metric.bounded_part(point_index,
                            np.minimum((b * r) ** (1.0 / b), 2.0), t)
    # nuisance r^2 column last: decorrelates a0 from the quadratic tail so
    # the remainder below isolates the claimed O(r^2) decay
    X = np.column_stack([np.ones_like(r)]
                        + [r ** (j / b) * f(j * t) for j in range(1, J + 1)
                           for f in (np.cos, np.sin)] + [r * r])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    model_wo_tail = X[:, :-1] @ coef[:-1]
    resid = np.abs(y - model_wo_tail).reshape(len(radii), -1).max(axis=1)
    slope = np.polyfit(np.log(radii), np.log(resid), 1)[0]
    indicial = [(j / b, coef[2 * j - 1], coef[2 * j]) for j in range(1, J + 1)]
    return FriedrichsFit(a0=float(coef[0]), indicial=indicial,
                         residuals=resid, slope=float(slope))
