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

A football step factors its tridiagonal Jacobian directly.  A 2-D step
runs GMRES on the bordered system, preconditioned by the Jacobian with the
density averaged in longitude: an FFT in longitude splits that operator
into one latitude tridiagonal per Fourier mode (the separable structure of
FISHPACK-style sphere solvers).  An iteration costs O(N log n) on the
N = 2 n^2 cells, where sparse LU grows like n^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, eigsh, gmres, spsolve

from .angles import AngleVector, conic_euler_char, subcritical_check, troyanov_check
from .spectrum import FluxForm

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
#: GMRES of a 2-D Newton step: relative residual, restart length and most
#: restart cycles.  A step cut off by the cap is judged, like any other, by
#: the merit of damped_newton.
KRYLOV_RTOL = 1e-12
KRYLOV_RESTART = 40
KRYLOV_CYCLES = 3


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def damped_newton(residual, step, x0, tol, floor=0.0):
    """Newton iteration with step halving; returns (x, sup|residual(x)|).

    ``step(x, F)`` is the caller's linear solve for the Newton correction.
    ``floor`` is the rounding floor of the residual evaluation per unit of
    x, one value for all rows or one per row.  Row i is converged once
    |F_i| < tol_i = max(tol, floor_i (1 + sup|x|)), and the iteration stops
    when the merit max_i |F_i| / tol_i falls below 1.  Each correction is
    halved up to 40 times until the merit decreases; trials that overflow
    count as no decrease.  If no halving helps, x is accepted when the
    merit is below 8, since the iteration has then stagnated at the
    rounding floor.
    """
    def merit(x, F):
        return np.max(np.abs(F) / np.maximum(
            tol, floor * (1.0 + np.max(np.abs(x)))))

    x, F = x0, residual(x0)
    for _ in range(MAX_NEWTON):
        res = merit(x, F)
        if res < 1.0:
            return x, np.max(np.abs(F))
        dx = step(x, F)
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
            if res < 8.0:
                return x, np.max(np.abs(F))
            raise SolverError("Newton line search stalled",
                              residual=np.max(np.abs(F)))
    raise SolverError("Newton did not converge", residual=np.max(np.abs(F)))


def _border(x0, Z, rows, corner, rhs):
    """The solution of [[J, cols], [rows, corner]] x = rhs from x0 = J^-1
    rhs[:n] and Z = J^-1 cols, by the k x k Schur complement in the k
    border unknowns."""
    y = np.linalg.solve(corner - rows @ Z, rhs[len(x0):] - rows @ x0)
    return np.concatenate([x0 - Z @ y, y])


def _bordered_solve(J, cols, rows, corner, rhs):
    """Solve [[J, cols], [rows, corner]] x = rhs for sparse J and k border
    unknowns: one factorization of J serves k + 1 right-hand sides."""
    n = J.shape[0]
    X = spsolve(J, np.column_stack([rhs[:n], cols])).reshape(n, -1)
    return _border(X[:, 0], X[:, 1:], rows, corner, rhs)


# ---------------------------------------------------------------------------
# geometry helpers (unit sphere; points as colatitude/longitude pairs)

def sphere_point(colat, lon):
    return np.array([math.sin(colat) * math.cos(lon),
                     math.sin(colat) * math.sin(lon),
                     math.cos(colat)])


def _distance(x, p):
    """Great-circle distance; x may be an array of shape (..., 3)."""
    dots = np.clip(np.asarray(x) @ p, -1.0, 1.0)
    return np.arccos(dots)


def _chord(d):
    """m = 2 sin(d/2), the chordal distance."""
    return 2.0 * np.sin(np.asarray(d) / 2.0)


def _bearing_frame(p):
    """Orthonormal tangent frame at p fixing the chart angle theta."""
    ref = np.array([0.0, 0.0, 1.0])
    if abs(p[2]) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    e1 = ref - p * (ref @ p)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    return e1, e2


def _exp_map(p, d, theta):
    """Point at geodesic distance d from p in direction theta."""
    e1, e2 = _bearing_frame(p)
    v = np.cos(theta)[..., None] * e1 + np.sin(theta)[..., None] * e2
    return np.cos(d)[..., None] * p + np.sin(d)[..., None] * v


# ---------------------------------------------------------------------------
# the cone-point rules shared by the football and the 2-D solver; each takes
# the distances d_j to the cone points, so the football can pass its exact
# phi and pi - phi

def _background_density(dists, betas):
    """e^{2v} = prod_j m_j^{2(beta_j - 1)} for the log terms v."""
    out = 1.0
    for d, b in zip(dists, betas):
        out = out * _chord(d) ** (2.0 * (b - 1.0))
    return out


def _correction(dists, betas):
    """(sigma_j, div grad sigma_j) for each point with beta_j < 1.

    The local correction is s = sum_j A_j sigma_j, sigma_j = -m_j^{2 beta_j}
    / (4 beta_j^2); its div grad cancels the leading A_j m_j^{2 beta_j - 2}
    part of the density source.  m^2 = 2 - 2 cos d is smooth on the whole
    sphere, so no cutoff is needed: div grad m^{2 beta} = 4 beta^2
    m^{2 beta - 2} - beta(beta+1) m^{2 beta} holds globally.
    """
    out = []
    for d, b in zip(dists, betas):
        if b < 1.0:
            m = _chord(d)
            f = m ** (2.0 * b)
            with np.errstate(divide="ignore"):
                lap = 4.0 * b * b * m ** (2.0 * b - 2.0) - b * (b + 1.0) * f
            out.append((-f / (4.0 * b * b), -lap / (4.0 * b * b)))
    return out


def _area(rho, measure, dists, betas, coeffs):
    """Gauss-Bonnet area sum(rho * measure) of the density rho.

    The leading A_j m_j^{2 beta_j - 2} part of rho is integrated exactly:
    int_{S^2} m^{2 beta - 2} dA = 2 pi 4^beta / (2 beta) (m dm substitution).
    """
    extra = 0.0
    for d, b, A in zip(dists, betas, coeffs):
        if b < 1.0:
            rho = rho - A * _chord(d) ** (2.0 * b - 2.0)
            extra += A * 2.0 * math.pi * 4.0 ** b / (2.0 * b)
    return float(np.sum(rho * measure) + extra)


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
        object.__setattr__(self, "points", tuple(tuple(np.atleast_1d(p))
                                                 for p in self.points))
        if not all(np.all(np.isfinite(p)) for p in self.points):
            raise ValueError("cone point coordinates must be finite")
        if len(self.points) != len(beta.beta):
            raise ValueError("one position per cone angle required")
        if self.background == "sphere":
            xs = [sphere_point(*p) for p in self.points]
            for i in range(len(xs)):
                for k in range(i + 1, len(xs)):
                    if _distance(xs[i], xs[k]) < 1e-12:
                        raise ValueError("cone points must be distinct")

    @property
    def chi(self):
        return conic_euler_char(self.beta)

    @property
    def flags(self):
        """Existence-region bookkeeping for the K = 1 genus-0 case."""
        if self.curvature != 1 or self.background != "sphere":
            return {}
        try:
            troy = troyanov_check(self.beta)
        except Exception:
            troy = False
        return {"troyanov": bool(troy),
                "subcritical": bool(subcritical_check(self.beta))}

    @property
    def is_football(self):
        """Two antipodal sphere points of equal angle: the axisymmetric
        (football) solve applies."""
        if self.background != "sphere" or len(self.points) != 2:
            return False
        b = self.beta.beta
        if abs(b[0] - b[1]) > 1e-14:
            return False
        x, y = self.unit_points()
        return abs(_distance(x, y) - math.pi) < 1e-12

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
    sing_coeffs: tuple              # A_j of the local corrections
    residual: float
    mesh: dict = field(default_factory=dict)

    @property
    def beta(self):
        return self.problem.beta.beta

    def area(self):
        """Gauss-Bonnet area; the football measure counts its half grid
        twice."""
        g = self.mesh
        return _area(self.density(), g["measure"], g["dists"], self.beta,
                     self.sing_coeffs)

    def density(self, full=False):
        """e^{2u} relative to the round metric at cell centres.

        Footballs are solved on the half grid (0, pi/2); ``full`` mirrors w
        across the equator and evaluates on all n cells of (0, pi).
        """
        if self.kind == "disk":
            raise ValueError("density and area defined for closed solves "
                             "only")
        w, dists = self.w, self.mesh["dists"]
        if full and self.kind == "football":
            phi = _football_grid(self.n)
            w, dists = np.concatenate([w, w[::-1]]), (phi, math.pi - phi)
        return _background_density(dists, self.beta) \
            * np.exp(2.0 * (self._correction_at(dists) + w))

    def _correction_at(self, dists):
        """The local correction s at the given distances to the points."""
        coeffs = [A for A, b in zip(self.sing_coeffs, self.beta) if b < 1.0]
        return sum(A * sig for A, (sig, _) in
                   zip(coeffs, _correction(dists, self.beta)))

    def bounded_part(self, point_index, d, theta):
        """u - (beta_j - 1) log m_j at distance d, chart angle theta, by
        interpolation."""
        if self.kind != "sphere2d":
            raise ValueError("bounded part extraction for 2-D solves")
        g = self.mesh
        p = g["points"][point_index]
        x = _exp_map(p, np.asarray(d, dtype=float),
                     np.asarray(theta, dtype=float))
        dists = [_distance(x, q) for q in g["points"]]
        logs = sum((b - 1.0) * np.log(_chord(d))
                   for i, (d, b) in enumerate(zip(dists, self.beta))
                   if i != point_index)
        w_interp = _interp_matrix(g["phi"], g["theta"], x) @ self.w.ravel()
        return logs + self._correction_at(dists) \
            + w_interp.reshape(x.shape[:-1])


@dataclass
class ObstructionBundleFiber:
    eigenvalues_near_2: list
    eigenvectors: list          # {"j", "vector", "multiplicity"}
    ell: int
    window: float


# ---------------------------------------------------------------------------
# closed-sphere solve: one Newton on w and the cone coefficients

def _solve_closed(problem, K, W, dists, pair_dists, P, solve):
    """One damped Newton for x = (w, A_j for beta_j < 1); returns (w shaped
    like the distance fields, all A_j with 0 for beta_j >= 1, sup|F|).

    div grad w = -K w / W for the stiffness K and cell measure W; the rows
    of P map w to its value at each cone point.  The residual rows are

        -(K w) / W + div grad s + c_v + E e^{2(s + w)} - 1      (cells)
        A_j - e_reg,j exp(2 (P_j w + sum_{i != j} s_i(p_j)))    (points)

    A_j is the limit of the density over m_j^{2 beta_j - 2} at p_j, and
    e_reg,j the other points' background density there.  s is linear in
    A, so the Jacobian is J = K - 2 W rho bordered by the A_j, and a step
    is one ``solve(J, cols, rows, corner, rhs)`` of that bordered system:
    ``_bordered_solve`` for footballs, ``_lon_fft_solver`` for 2-D solves.
    """
    betas = problem.beta.beta
    idx = [j for j, b in enumerate(betas) if b < 1.0]
    shape, N, k = np.shape(dists[0]), len(W), len(idx)
    with np.errstate(over="ignore", invalid="ignore"):
        E = _background_density(dists, betas).ravel()
    if not np.all(np.isfinite(E)):
        raise ValueError(f"beta = {list(betas)}: the background density "
                         "e^(2v) is not finite on the grid")
    corr = _correction(dists, betas)
    sig = np.reshape([f.ravel() for f, _ in corr], (k, N))
    lap = np.reshape([f.ravel() for _, f in corr], (k, N))
    # div grad v = c_v away from the points, for the log terms v
    c_v = -0.5 * sum(b - 1.0 for b in betas)
    e_reg = np.array([_background_density(np.delete(pair_dists[j], j),
                                          np.delete(betas, j)) for j in idx])
    at_pts = np.array([[f for f, _ in _correction(pair_dists[j], betas)]
                       for j in idx]).reshape(k, k)
    P = P[idx]
    # rounding floor of each cell row: the stiffness amplifies eps |w| by
    # its row sum over the cell measure (~ h^-2 for the football and at the
    # equator, ~ h^-4 at the grid poles of the 2-D solve)
    floor = np.finfo(float).eps * np.concatenate(
        [np.asarray(abs(K).sum(axis=1)).ravel() / W, np.zeros(k)])

    def fields(x):
        """The density rho and the A_j rule g at x."""
        w, A = x[:N], x[N:]
        return (E * np.exp(2.0 * (A @ sig + w)),
                e_reg * np.exp(2.0 * (P @ w + at_pts @ A)))

    def residual(x):
        rho, g = fields(x)
        return np.concatenate([-(K @ x[:N]) / W + x[N:] @ lap + c_v + rho
                               - 1.0, x[N:] - g])

    def step(x, F):
        rho, g = fields(x)
        return solve(K - sparse.diags(2.0 * W * rho),
                     -(W * (lap + 2.0 * rho * sig)).T,
                     sparse.diags(-2.0 * g) @ P,
                     np.eye(k) - 2.0 * g[:, None] * at_pts,
                     np.concatenate([W * F[:N], -F[N:]]))

    # constant w balancing the mean of the equation, and the A_j rule at it
    w0 = 0.5 * math.log(max((1.0 - c_v) * np.sum(W) / np.sum(E * W), 1e-6))
    x, resid = damped_newton(
        residual, step, np.concatenate([np.full(N, w0),
                                        e_reg * math.exp(2.0 * w0)]),
        NEWTON_TOL, floor)
    A = np.zeros(len(betas))
    A[idx] = x[N:]
    return x[:N].reshape(shape), tuple(float(a) for a in A), float(resid)


# ---------------------------------------------------------------------------
# football (axisymmetric) solver: half interval [0, pi/2], cell centred

def _football_grid(n):
    """Centres of the n cells of (0, pi); the solve keeps the first n/2.

    n must be even, so that the equator is a cell face, and at least 4, so
    that the half grid holds the two cells the pole extrapolation reads.
    """
    if n < 4 or n % 2:
        raise ValueError(f"football meshes need an even n >= 4, got {n}")
    return (np.arange(n) + 0.5) * (math.pi / n)


def _axisym_laplacian(form):
    """Round div grad of axisymmetric samples: -K / sin at the cell centres."""
    return (sparse.diags(-1.0 / form.weight) @ form.matrix()).tocsc()


def _solve_football(problem, n):
    phi = _football_grid(n)[:n // 2]
    form = FluxForm(n, 1, cells=n // 2)
    dists = (phi, math.pi - phi)
    # both poles see the even quadratic extrapolation (9 w_0 - w_1) / 8 of
    # the half grid, by the equatorial symmetry
    P = np.zeros((2, n // 2))
    P[:, :2] = (9.0 / 8.0, -1.0 / 8.0)
    w, A, resid = _solve_closed(problem, form.matrix(), form.weight, dists,
                                ((0.0, math.pi), (math.pi, 0.0)), P,
                                _bordered_solve)
    return DiscreteConicMetric(
        problem=problem, kind="football", n=n, w=w, sing_coeffs=A,
        residual=resid, mesh={"phi": phi, "dists": dists,
                              "measure": 4.0 * math.pi * form.weight * form.h})


# ---------------------------------------------------------------------------
# full 2-D lat-lon solver (genus 0, all angles < 2 pi with the local
# correction; cone points may sit anywhere: rotated, off-grid points
# converge at the same order 2 as grid-aligned ones)

def _grid2d(n_lat):
    """Cell centres (phi, theta) of the n x 2n grid and their unit vectors."""
    phi = (np.arange(n_lat) + 0.5) * (math.pi / n_lat)
    theta = (np.arange(2 * n_lat) + 0.5) * (math.pi / n_lat)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    return phi, theta, np.stack([np.sin(P) * np.cos(T),
                                 np.sin(P) * np.sin(T), np.cos(P)], axis=-1)


def _assemble_laplacian(n_lat):
    """Symmetric flux form A (so that div grad w = -A w / M) and measure M.

    On the lat-lon grid (row-major, longitude fastest) A is the Kronecker
    sum

        A = h^2 K (x) I_{2n} + diag(1 / sin phi) (x) C,

    where K = FluxForm(n, 1).matrix() is the latitude stiffness
    -(sin phi w')' and C the periodic second difference in longitude, so A
    is circulant in longitude; M = sin phi h^2 is the cell area.
    """
    n_lon = 2 * n_lat
    form = FluxForm(n_lat, 1)
    h = form.h
    shift = sparse.eye(n_lon, k=1) + sparse.eye(n_lon, k=1 - n_lon)
    C = 2.0 * sparse.eye(n_lon) - shift - shift.T
    A = sparse.kron(h * h * form.matrix(), sparse.eye(n_lon)) \
        + sparse.kron(sparse.diags(1.0 / form.weight), C)
    M = np.repeat(form.weight, n_lon) * h * h
    return A.tocsc(), M


def _lon_fft_solver(n_lat):
    """The bordered Newton step of the n x 2n grid, ``solve(J, cols, rows,
    corner, rhs)``, by GMRES on the whole (N + k) system.

    The preconditioner is the same bordered system with J = A - 2 diag(M
    rho) replaced by P = A - 2 diag(M rhobar), rhobar(phi) the longitude
    mean of the density; P is J with its diagonal averaged over each
    latitude row.  P is circulant in longitude like A, so an rfft in
    longitude splits it into n + 1 real symmetric latitude tridiagonals,
    one per Fourier mode m,

        h^2 K + diag((2 - 2 cos(pi m / n)) / sin phi - 2 M rhobar),

    which are stacked mode-major and factored once per step.  The border
    goes through ``_border`` with P^-1 cols, also computed once per step.
    Both the rfft and the row mean commute with rotations in longitude, so
    the iterates keep the symmetries of the grid.
    """
    n_lon = 2 * n_lat
    form = FluxForm(n_lat, 1)
    off = -form.h ** 2 * form.face[1:-1]
    # the tridiagonals side by side, with no coupling between modes
    sub = np.tile(np.append(off, 0.0), n_lat + 1)[:-1]
    # C contributes 2 - 2 cos(pi m / n) on mode m; the row mean of J's
    # diagonal already holds the 2
    shift = (-2.0 * np.cos(np.pi * np.arange(n_lat + 1) / n_lat)[:, None]
             / form.weight).ravel()

    def solve(J, cols, rows, corner, rhs):
        N, k = cols.shape
        mean = J.diagonal().reshape(n_lat, n_lon).mean(axis=1)
        *lu, info = dgttrf(sub, np.tile(mean, n_lat + 1) + shift, sub)
        if info:
            raise SolverError("the longitude-mean Jacobian is singular")

        def precond(B):
            """P^-1 B for an N x c block B."""
            c = B.shape[1]
            F = np.fft.rfft(B.reshape(n_lat, n_lon, c), axis=1)
            F = F.transpose(1, 0, 2).reshape(-1, c)
            X, _ = dgttrs(*lu, np.hstack([F.real, F.imag]))
            F = (X[:, :c] + 1j * X[:, c:]).reshape(n_lat + 1, n_lat, c)
            return np.fft.irfft(F.transpose(1, 0, 2), n_lon,
                                axis=1).reshape(N, c)

        def bordered(x):
            return np.concatenate([J @ x[:N] + cols @ x[N:],
                                   rows @ x[:N] + corner @ x[N:]])

        Z = precond(cols)

        def preconditioned(r):
            return _border(precond(r[:N, None])[:, 0], Z, rows, corner, r)

        shape = (N + k, N + k)
        x, _ = gmres(LinearOperator(shape, bordered, dtype=float), rhs,
                     rtol=KRYLOV_RTOL, atol=0.0, restart=KRYLOV_RESTART,
                     maxiter=KRYLOV_CYCLES,
                     M=LinearOperator(shape, preconditioned, dtype=float))
        return x

    return solve


def _interp_matrix(phi, theta, x):
    """Bilinear interpolation of cell-centred samples at the points x
    (shape (..., 3)), as a sparse matrix acting on the flattened grid."""
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    h, n_lat, n_lon = math.pi / len(phi), len(phi), len(theta)
    fi = np.arccos(np.clip(x[:, 2], -1.0, 1.0)) / h - 0.5
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
    pts = problem.unit_points()
    pair_dists = np.array([[_distance(p, q) for q in pts] for p in pts])
    # the arccos of a rounded p . p reads 1.5e-8, not 0, on the diagonal
    np.fill_diagonal(pair_dists, 0.0)
    # the correction and the bilinear A_j rows need cells between the points
    close = np.argwhere(np.triu(pair_dists < 2.0 * math.pi / n_lat, 1))
    if len(close):
        i, k = close[0]
        raise ValueError(
            f"cone points {i} and {k} lie {pair_dists[i, k]:.3g} apart, "
            f"closer than 2h = 2 pi / n = {2.0 * math.pi / n_lat:.3g}; "
            "refine the mesh")
    phi, theta, xyz = _grid2d(n_lat)
    dists = [_distance(xyz, p) for p in pts]
    for j, d in enumerate(dists):
        cell = np.unravel_index(np.argmin(d), d.shape)
        if d[cell] == 0.0:
            colat, lon = map(float, problem.points[j])
            raise ValueError(
                f"cone point {j} at ({colat!r}, {lon!r}) lies on the centre "
                f"of cell {tuple(map(int, cell))} of the n = {n_lat} grid, "
                "where its density is infinite; move it or change the mesh")
    A, M = _assemble_laplacian(n_lat)
    w, coeffs, resid = _solve_closed(problem, A, M, dists, pair_dists,
                                     _interp_matrix(phi, theta, pts),
                                     _lon_fft_solver(n_lat))
    return DiscreteConicMetric(
        problem=problem, kind="sphere2d", n=n_lat, w=w, sing_coeffs=coeffs,
        residual=resid, mesh={"phi": phi, "theta": theta, "A": A, "M": M,
                              "measure": M.reshape(w.shape), "dists": dists,
                              "points": pts})


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
    L = sparse.diags([lo[1:] / r[1:], diag, hi[:-1] / r[:-1]], [-1, 0, 1],
                     format="csc")
    E = r ** (2.0 * b - 2.0)

    # div grad u = -K e^{2u} on a flat background
    w, resid = damped_newton(
        lambda w: L @ w + K * E * np.exp(2.0 * w),
        lambda w, F: spsolve(L + sparse.diags(2.0 * K * E * np.exp(2.0 * w)),
                             -F),
        np.zeros(n), NEWTON_TOL)
    return DiscreteConicMetric(problem=problem, kind="disk", n=n, w=w,
                               sing_coeffs=(0.0,), residual=float(resid),
                               mesh={"r": r, "h": h})


# ---------------------------------------------------------------------------
# public solve dispatch

def solve_liouville(problem, mesh_params=None):
    """Solve for the bounded conformal remainder; see the module docstring.

    mesh_params: {"n": resolution}.
    """
    n = int((mesh_params or {}).get("n", 256))
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

def _pencils(metric):
    """(j, multiplicity, A, B) with Delta_g = pencil(A, B) on each block.

    A football splits into the angular modes j <= 2 ceil(beta) + 4: the
    radial factor R = (sin phi)^j S gives A = -(p S')' + j(j+1) p S and
    B = p e^{2u} with p = sin^{2j+1}, which builds the Friedrichs condition
    (excluding the r^{-j/beta} branch) into the discretization.  A 2-D
    solve is one pencil (j = None): the stiffness and the mass M e^{2u}.
    """
    if metric.kind == "football":
        rho = metric.density(full=True)
        forms = [FluxForm(metric.n, 2 * j + 1)
                 for j in range(2 * math.ceil(metric.beta[0]) + 5)]
        return [(j, 1 if j == 0 else 2,
                 form.matrix(potential=j * (j + 1.0) * form.weight),
                 sparse.diags(form.weight * rho))
                for j, form in enumerate(forms)]
    if metric.kind == "sphere2d":
        return [(None, 1, metric.mesh["A"],
                 sparse.diags(metric.mesh["M"] * metric.density().ravel()))]
    raise ValueError("the spectrum near 2 is defined for closed solves only")


def spectrum_near_two(metric, window=0.5):
    """Eigenpairs of Delta_g with |lambda - 2| < window (shift-invert at 2).

    One pass solves each pencil of ``_pencils`` once, for the widened
    window 1.5 window: k = 8 eigenpairs from a fixed start vector, with k
    doubled (up to N - 2) while all returned ones lie inside it.  The
    window widens to 1.5 window if an eigenvalue sits within 0.1 window of
    its edge; one as close to the widened edge is a SolverError.
    """
    wide = 1.5 * window
    lams, reps = [], []
    for j, mult, A, B in _pencils(metric):
        N = A.shape[0]
        k = min(8, N - 2)
        v0 = np.random.default_rng(0).standard_normal(N)
        while True:
            vals, vecs = eigsh(A, k=k, M=B, sigma=2.0, which="LM", v0=v0)
            if k == N - 2 or not np.all(np.abs(vals - 2.0) < wide):
                break
            k = min(2 * k, N - 2)
        lams.extend(vals)
        reps.extend({"j": j, "vector": vec, "multiplicity": mult}
                    for vec in vecs.T)
    dist = np.abs(np.array(lams) - 2.0)
    if np.min(np.abs(dist - window)) < 0.1 * window:
        window = wide
        if np.min(np.abs(dist - window)) < 0.1 * window:
            raise SolverError("spectral window boundary too close to an "
                              "eigenvalue")
    inside = [i for i in np.argsort(dist, kind="stable") if dist[i] < window]
    return ObstructionBundleFiber(
        eigenvalues_near_2=[float(lams[i]) for i in inside],
        eigenvectors=[reps[i] for i in inside],
        ell=sum(reps[i]["multiplicity"] for i in inside), window=window)


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
    n = metric.n
    form = FluxForm(n, 1)
    h, centers = form.h, form.weight
    L = _axisym_laplacian(form)
    rho0 = metric.density(full=True)
    rho2 = rho0
    if density_perturbation is not None:
        rho2 = rho0 * np.exp(2.0 * np.asarray(density_perturbation))

    # axisymmetric fiber directions, normalized in L^2(g2)
    modes = []
    for lam, rep in zip(fiber.eigenvalues_near_2, fiber.eigenvectors):
        if rep["j"] == 0:
            v = rep["vector"]
            nrm = math.sqrt(np.sum(v * v * rho2 * centers) * h * 2 * math.pi)
            modes.append(v / nrm)
    ell = len(modes)

    # rho2 K_{g2} = 1 - div grad(log rho2)/2.  For the base solution that
    # equals rho2_0 by its own discrete equation; a conformal perturbation
    # delta_p adds -L delta_p.  This makes u = 0 an exact discrete solution
    # when the input metric is the converged solve itself.
    if density_perturbation is not None:
        curv_term = rho0 - L @ np.asarray(density_perturbation, dtype=float)
    else:
        curv_term = rho0

    # unknowns x = (u, Lambda); the last ell residuals are the constraints
    B = rho2 * centers * h * 2.0 * math.pi
    V = np.reshape(modes, (ell, n))

    def residual(x):
        u, lam_c = x[:n], x[n:]
        # div grad u + rho2 e^{2u} - rho2 K_{g2} in the round frame
        F = L @ u + rho2 * np.exp(2.0 * u) - curv_term - rho2 * (lam_c @ V)
        return np.concatenate([F, V @ (u * B)])

    def step(x, F):
        return _bordered_solve(
            L + sparse.diags(2.0 * rho2 * np.exp(2.0 * x[:n])),
            -(V * rho2).T, V * B, np.zeros((ell, ell)), -F)

    x, _ = damped_newton(residual, step, np.zeros(n + ell), 1e-11)
    return x[:n], x[n:]


# ---------------------------------------------------------------------------
# Friedrichs expansion fit near a cone point of a 2-D solve

@dataclass
class FriedrichsFit:
    point_index: int
    radii: np.ndarray          # uniformized radii r = m^beta / beta
    a0: float
    indicial: list             # (exponent, a_cos, a_sin) per indicial term
    residuals: np.ndarray      # sup residual per radius after the fit
    slope: float               # log-log decay rate of the residuals


def friedrichs_fit(metric, point_index):
    """Fit a0 + sum r^{j/beta}(a cos + b sin) near a cone point.

    J is the largest integer strictly below 2 beta; the remainder must
    decay like r^2 in the uniformized radial variable.
    """
    b = metric.beta[point_index]
    radii = np.geomspace(0.45, 1.0, 8)
    J = math.ceil(2.0 * b) - 1
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    cols, samples = [], []
    for r in radii:
        m = (b * r) ** (1.0 / b)
        d = 2.0 * math.asin(min(m / 2.0, 1.0))
        vals = metric.bounded_part(point_index, np.full_like(theta, d), theta)
        samples.append(vals)
        row = [np.ones_like(theta)]
        for j in range(1, J + 1):
            row.append(r ** (j / b) * np.cos(j * theta))
            row.append(r ** (j / b) * np.sin(j * theta))
        # nuisance r^2 column: decorrelates a0 from the quadratic tail so
        # the remainder below isolates the claimed O(r^2) decay
        row.append(np.full_like(theta, r * r))
        cols.append(np.stack(row, axis=1))
    X = np.concatenate(cols, axis=0)
    y = np.concatenate(samples)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    model_wo_tail = X[:, :-1] @ coef[:-1]
    resid = np.abs(y - model_wo_tail).reshape(len(radii), -1).max(axis=1)
    slope = np.polyfit(np.log(radii), np.log(resid), 1)[0]
    indicial = [(j / b, coef[2 * j - 1], coef[2 * j]) for j in range(1, J + 1)]
    return FriedrichsFit(point_index=point_index, radii=radii,
                         a0=float(coef[0]), indicial=indicial,
                         residuals=resid, slope=float(slope))
