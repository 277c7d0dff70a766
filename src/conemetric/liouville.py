"""Liouville solvers for constant-curvature conic metrics on the sphere.

Conformal factors are split as u = v + s + w: v carries the exact log
singularities (``singular_background``), s is an explicit local correction
that removes the leading m^{2 beta - 2} source at angles < 2*pi, and w is a
bounded remainder solved for by damped Newton.  With div/grad taken in the
round background metric the equation reads

    div grad u + K e^{2u} - 1 = 0      (K = +1, closed sphere),

equivalently K_{e^{2u} g_0} = K away from the cone points.  The Jacobian of
the w-equation is singular exactly when 2 lies in the spectrum of the
current conic Laplacian; footballs are solved on a half interval with the
equatorial symmetry, which removes the translation mode, and the general
projected solve treats the eigenvalue-2 directions with a bordered system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh, spsolve

from .angles import AngleVector, conic_euler_char, subcritical_check, troyanov_check
from .spectrum import FluxForm

__all__ = [
    "ConicProblem",
    "DiscreteConicMetric",
    "ObstructionBundleFiber",
    "SingularBackground",
    "LinearizedOperator",
    "SolverError",
    "damped_newton",
    "singular_background",
    "solve_liouville",
    "linearized_operator",
    "spectrum_near_two",
    "projected_solve",
    "friedrichs_fit",
]

NEWTON_TOL = 1e-9
MAX_NEWTON = 60


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def damped_newton(residual, step, x0, tol, floor=0.0):
    """Newton iteration with step halving; returns (x, sup|residual(x)|).

    ``step(x, F)`` is the caller's linear solve for the Newton correction.
    The iteration stops once sup|F| < tol_eff = max(tol, floor (1 + sup|x|));
    ``floor`` is the rounding floor of the residual evaluation per unit of
    x.  Each correction is halved up to 40 times until sup|F| decreases.
    If no halving helps, x is accepted when sup|F| < 8 tol_eff, since the
    iteration has then stagnated at the rounding floor.
    """
    x = x0
    F = residual(x)
    for _ in range(MAX_NEWTON):
        res = np.max(np.abs(F))
        tol_eff = max(tol, floor * (1.0 + np.max(np.abs(x))))
        if res < tol_eff:
            return x, res
        dx = step(x, F)
        t = 1.0
        for _ls in range(40):
            trial = x + t * dx
            F_trial = residual(trial)
            if np.max(np.abs(F_trial)) < res:
                x, F = trial, F_trial
                break
            t *= 0.5
        else:
            if res < 8.0 * tol_eff:
                return x, res
            raise SolverError("Newton line search stalled", residual=res)
    raise SolverError("Newton did not converge", residual=res)


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
# the local singular correction

def _sing_corr(d, beta):
    """m^{2 beta} (m = 2 sin(d/2)) and its spherical Laplacian (div grad).

    m^2 = 2 - 2 cos d is smooth on the whole sphere, so no cutoff is
    needed: the correction is singular only at the cone point itself and
    div grad m^{2 beta} = 4 beta^2 m^{2 beta - 2} - beta(beta+1) m^{2 beta}
    holds globally.
    """
    d = np.asarray(d, dtype=float)
    m = _chord(d)
    f = m ** (2.0 * beta)
    with np.errstate(divide="ignore"):
        lap = (4.0 * beta ** 2 * m ** (2.0 * beta - 2.0)
               - beta * (beta + 1.0) * f)
    return f, lap


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

    def unit_points(self):
        return [sphere_point(*p) for p in self.points]


class SingularBackground:
    """The field v = sum_j (beta_j - 1) log(2 sin(d_j / 2)) on the sphere.

    div grad v = -sum(beta_j - 1)/2 away from the points.
    """

    def __init__(self, problem: ConicProblem):
        self.problem = problem
        self.points = problem.unit_points()
        self.beta = problem.beta.beta

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for p, b in zip(self.points, self.beta):
            out = out + (b - 1.0) * np.log(_chord(_distance(x, p)))
        return out

    def bulk_laplacian(self):
        return -0.5 * sum(b - 1.0 for b in self.beta)

    def density(self, x):
        """e^{2v} = prod (2 sin(d_j/2))^{2(beta_j - 1)}."""
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for p, b in zip(self.points, self.beta):
            out = out * _chord(_distance(x, p)) ** (2.0 * (b - 1.0))
        return out


def singular_background(problem):
    if problem.background != "sphere":
        raise ValueError("singular background implemented on the sphere")
    return SingularBackground(problem)


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
        if self.kind == "football":
            return _football_area(self)
        if self.kind == "sphere2d":
            return _sphere2d_area(self)
        raise ValueError("area defined for closed solves only")

    def density(self, full=False):
        """e^{2u} relative to the round metric at cell centres.

        Footballs are solved on the half grid (0, pi/2); ``full`` mirrors w
        across the equator and evaluates on all n cells of (0, pi).
        """
        if self.kind == "football":
            phi, w = _football_grid(self.n), self.w
            if full:
                w = np.concatenate([w, w[::-1]])
            else:
                phi = phi[:len(w)]
            E, s, _ = _football_background(phi, self.beta[0],
                                           self.sing_coeffs[0])
            return E * np.exp(2.0 * (s + w))
        if self.kind == "sphere2d":
            g = self.mesh
            return g["E"] * np.exp(2.0 * (g["s"] + self.w))
        raise ValueError("no density for this kind")

    def bounded_part(self, point_index, d, theta):
        """u - (beta_j - 1) log m_j at distance d, chart angle theta, by
        interpolation."""
        if self.kind != "sphere2d":
            raise ValueError("bounded part extraction for 2-D solves")
        g = self.mesh
        p = g["points"][point_index]
        x = _exp_map(p, np.asarray(d, dtype=float),
                     np.asarray(theta, dtype=float))
        out = np.zeros(x.shape[:-1])
        betas = self.beta
        for i, (q, b) in enumerate(zip(g["points"], betas)):
            if i != point_index:
                out += (b - 1.0) * np.log(_chord(_distance(x, q)))
            a = -self.sing_coeffs[i] / (4.0 * b * b)
            val, _ = _sing_corr(_distance(x, q), b)
            out += a * val
        flat = x.reshape(-1, 3)
        w_interp = np.array([_point_interp(self.w, g["phi"], g["theta"], xx)
                             for xx in flat]).reshape(out.shape)
        return out + w_interp


@dataclass
class ObstructionBundleFiber:
    eigenvalues_near_2: list
    eigenvectors: list          # discrete representations (kind-specific)
    ell: int
    window: float


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


def _football_background(phi, b, A):
    """(E, s, div grad s) at colatitudes phi for cone coefficient A.

    E = (2 sin phi)^{2b - 2} = e^{2v} for the two antipodal log terms, and
    s = -(A / 4 b^2)(m_N^{2b} + m_S^{2b}) is the local correction, whose
    div grad cancels the leading A m^{2b - 2} part of the density source at
    both poles while keeping the half-grid symmetry intact (zero for b >= 1).
    """
    E = (2.0 * np.sin(phi)) ** (2.0 * b - 2.0)
    if b >= 1.0:
        return E, 0.0, 0.0
    a = -A / (4.0 * b * b)
    vN, lN = _sing_corr(phi, b)
    vS, lS = _sing_corr(math.pi - phi, b)
    return E, a * (vN + vS), a * (lN + lS)


def _axisym_laplacian(form):
    """Round div grad of axisymmetric samples: -K / sin at the cell centres."""
    return (sparse.diags(-1.0 / form.weight) @ form.matrix()).tocsc()


def _pole_value(w):
    """Even quadratic extrapolation of cell-centred samples to phi = 0."""
    return (9.0 * w[0] - w[1]) / 8.0


def _solve_football(problem, n):
    b = problem.beta.beta[0]
    phi = _football_grid(n)[:n // 2]
    form = FluxForm(n, 1, cells=n // 2)
    L = _axisym_laplacian(form)
    h = form.h
    c_v = -(b - 1.0)        # bulk div grad of the two log terms
    A = (2.0 ** (2.0 * b - 2.0)) if b < 1.0 else 0.0

    # constant initial guess balancing the mean of the equation
    E, _, _ = _football_background(phi, b, A)
    mass = np.sum(E * np.sin(phi) * h)
    w = np.full_like(phi, 0.5 * math.log(
        max((1.0 - c_v) * np.sum(np.sin(phi) * h) / mass, 1e-6)))

    for _outer in range(8):
        E, s, lap_s = _football_background(phi, b, A)

        def rho(w):
            return E * np.exp(2.0 * (s + w))

        w, resid = damped_newton(
            lambda w: L @ w + lap_s + c_v + rho(w) - 1.0,
            lambda w, F: spsolve((L + sparse.diags(2.0 * rho(w))).tocsc(), -F),
            w, NEWTON_TOL)
        if b >= 1.0:
            break
        # density/m^{2b-2} at the pole; the opposite correction contributes
        # s_S(0) = -(A / 4 b^2) 4^b there
        s_far = (-A / (4.0 * b * b)) * 4.0 ** b
        A_new = (2.0 ** (2.0 * b - 2.0)) * math.exp(
            2.0 * (s_far + _pole_value(w)))
        converged = abs(A_new - A) < 1e-13
        A = A_new
        if converged:
            break
    return DiscreteConicMetric(problem=problem, kind="football", n=n, w=w,
                               sing_coeffs=(A, A), residual=float(resid),
                               mesh={"phi": phi, "h": h})


def _football_area(metric):
    b = metric.beta[0]
    phi, h = metric.mesh["phi"], metric.mesh["h"]
    rho = metric.density()
    integrand = rho * np.sin(phi)
    extra = 0.0
    if b < 1.0:
        A = metric.sing_coeffs[0]
        mN, mS = _chord(phi), _chord(math.pi - phi)
        integrand = integrand - A * (mN ** (2.0 * b - 2.0)
                                     + mS ** (2.0 * b - 2.0)) * np.sin(phi)
        # exact: each pole correction integrates to 2 pi 4^beta / (2 beta)
        # over the whole sphere (m dm substitution); halved for the half grid
        extra = A * 2.0 * math.pi * 4.0 ** b / (2.0 * b)
    # half interval -> double; full angular factor 2 pi
    return 2.0 * (2.0 * math.pi * np.sum(integrand) * h + extra)


# ---------------------------------------------------------------------------
# full 2-D lat-lon solver (genus 0, all angles < 2 pi with the local
# correction; cone points may sit anywhere: rotated, off-grid points
# converge at the same order 2 as grid-aligned ones)

def _grid2d(n_lat):
    n_lon = 2 * n_lat
    h = math.pi / n_lat
    phi = (np.arange(n_lat) + 0.5) * h
    theta = (np.arange(n_lon) + 0.5) * h
    return phi, theta, h


def _grid_xyz(phi, theta):
    P, T = np.meshgrid(phi, theta, indexing="ij")
    return np.stack([np.sin(P) * np.cos(T), np.sin(P) * np.sin(T),
                     np.cos(P)], axis=-1)


def _assemble_laplacian(n_lat):
    """Symmetric flux form A (so that div grad w = -A w / M) and measure M."""
    n_lon = 2 * n_lat
    h = math.pi / n_lat
    phi, theta, _ = _grid2d(n_lat)
    N = n_lat * n_lon

    def idx(i, k):
        return i * n_lon + (k % n_lon)

    rows, cols, vals = [], [], []

    def add(i1, k1, i2, k2, wgt):
        a, b = idx(i1, k1), idx(i2, k2)
        rows.extend([a, b, a, b])
        cols.extend([a, b, b, a])
        vals.extend([wgt, wgt, -wgt, -wgt])

    sin_face = np.sin(np.arange(1, n_lat) * h)
    for i in range(n_lat - 1):
        wgt = sin_face[i] * h / h          # (h_theta / h_phi) = 1
        for k in range(n_lon):
            add(i, k, i + 1, k, wgt)
    for i in range(n_lat):
        wgt = h / (np.sin(phi[i]) * h)     # h_phi / (sin phi * h_theta)
        for k in range(n_lon):
            add(i, k, i, k + 1, wgt)
    A = sparse.csc_matrix((vals, (rows, cols)), shape=(N, N))
    M = (np.sin(phi)[:, None] * np.ones(n_lon)[None, :] * h * h).ravel()
    return A, M


def _point_interp(w2, phi, theta, p):
    """Bilinear interpolation of cell-centred samples at the point p."""
    colat = math.acos(np.clip(p[2], -1, 1))
    lon = math.atan2(p[1], p[0]) % (2.0 * math.pi)
    h = phi[1] - phi[0]
    fi = colat / h - 0.5
    fk = lon / h - 0.5
    i0 = int(np.clip(math.floor(fi), 0, len(phi) - 2))
    k0 = int(math.floor(fk)) % len(theta)
    ti, tk = fi - i0, fk - math.floor(fk)
    k1 = (k0 + 1) % len(theta)
    return ((1 - ti) * (1 - tk) * w2[i0, k0] + (1 - ti) * tk * w2[i0, k1]
            + ti * (1 - tk) * w2[i0 + 1, k0] + ti * tk * w2[i0 + 1, k1])


def _solve_sphere2d(problem, n_lat):
    betas = problem.beta.beta
    pts = problem.unit_points()
    sb = SingularBackground(problem)
    phi, theta, h = _grid2d(n_lat)
    xyz = _grid_xyz(phi, theta)
    n_lon = 2 * n_lat

    A, M = _assemble_laplacian(n_lat)
    E = sb.density(xyz)
    c_v = sb.bulk_laplacian()
    dists = [_distance(xyz, p) for p in pts]

    # regular parts of the density at each cone point, for the fixed point
    def e_reg(j):
        out = 1.0
        for i, (p, b) in enumerate(zip(pts, betas)):
            if i != j:
                out *= _chord(_distance(pts[j], p)) ** (2.0 * (b - 1.0))
        return out

    Avals = [e_reg(j) for j in range(len(pts))]

    w = np.zeros((n_lat, n_lon))
    mass0 = np.sum(E * np.sin(phi)[:, None]) * h * h
    w[:] = 0.5 * math.log(max((1.0 - c_v) * 4.0 * math.pi / mass0, 1e-6))

    # rounding floor of the residual evaluation: the 1/sin^2(phi) angular
    # weights at the grid poles amplify eps |w| by the row sum over the
    # cell measure (~ h^-4 there)
    amp = float(np.max(np.asarray(np.abs(A).sum(axis=1)).ravel() / M))
    floor = 4.0 * np.finfo(float).eps * amp

    for _outer in range(12):
        s = np.zeros_like(w)
        lap_s = np.zeros_like(w)
        for j, (b, d) in enumerate(zip(betas, dists)):
            a = -Avals[j] / (4.0 * b * b)
            val, lap = _sing_corr(d, b)
            s += a * val
            lap_s += a * lap

        def rho(w):
            return E * np.exp(2.0 * (s + w))

        def residual(w):
            return (-(A @ w.ravel()) / M).reshape(w.shape) + lap_s + c_v \
                + rho(w) - 1.0

        def step(w, F):
            J = A - sparse.diags(2.0 * (M * rho(w).ravel()))
            return spsolve(J, (M * F.ravel())).reshape(w.shape)

        w, resid = damped_newton(residual, step, w, NEWTON_TOL, floor)
        new = [e_reg(j) * math.exp(
            2.0 * (_point_interp(w, phi, theta, pts[j])
                   + sum(-Avals[i] / (4 * betas[i] ** 2)
                         * _sing_corr(_distance(pts[j], pts[i]),
                                      betas[i])[0]
                         for i in range(len(pts)) if i != j)))
            for j in range(len(pts))]
        if max(abs(a - b) for a, b in zip(new, Avals)) < 1e-13:
            Avals = new
            break
        Avals = new
    return DiscreteConicMetric(
        problem=problem, kind="sphere2d", n=n_lat, w=w,
        sing_coeffs=tuple(Avals), residual=float(resid),
        mesh={"phi": phi, "theta": theta, "h": h, "E": E, "s": s,
              "A": A, "M": M, "xyz": xyz, "dists": dists, "points": pts})


def _sphere2d_area(metric):
    g = metric.mesh
    betas = metric.beta
    rho = metric.density()
    integrand = rho * np.sin(g["phi"])[:, None]
    extra = 0.0
    for j, (b, d) in enumerate(zip(betas, g["dists"])):
        Aj = metric.sing_coeffs[j]
        integrand = integrand - Aj * _chord(d) ** (2.0 * b - 2.0) \
            * np.sin(g["phi"])[:, None]
        # int_{S^2} m^{2 beta - 2} dA = 2 pi 4^beta / (2 beta) exactly
        extra += Aj * 2.0 * math.pi * 4.0 ** b / (2.0 * b)
    return float(np.sum(integrand) * g["h"] ** 2 + extra)


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

def _is_football(problem):
    if problem.background != "sphere" or len(problem.points) != 2:
        return False
    b = problem.beta.beta
    if abs(b[0] - b[1]) > 1e-14:
        return False
    x, y = problem.unit_points()
    return abs(_distance(x, y) - math.pi) < 1e-12


def solve_liouville(problem, mesh_params=None):
    """Solve for the bounded conformal remainder; see the module docstring.

    mesh_params: {"n": resolution}.
    """
    n = int((mesh_params or {}).get("n", 256))
    if problem.background == "disk":
        if problem.curvature > 0:
            raise SolverError("disk solver covers K <= 0")
        return _solve_disk(problem, n)
    if problem.curvature != 1:
        raise SolverError("closed-sphere solves require K = 1")
    if _is_football(problem):
        return _solve_football(problem, n)
    if any(b >= 1.0 for b in problem.beta.beta):
        raise SolverError("general 2-D solves require all angles < 2 pi "
                          "(subcritical regime)")
    if not subcritical_check(problem.beta):
        raise SolverError("angle vector outside the subcritical regime")
    return _solve_sphere2d(problem, n)


# ---------------------------------------------------------------------------
# linearized operator L = Delta_g - 2 (Friedrichs) and its spectrum near 2

@dataclass
class LinearizedOperator:
    metric: DiscreteConicMetric
    kind: str

    def mode_matrices(self, j):
        """Football only: (A, B) with Delta_g = pencil(A, B) on mode j.

        Radial factor R = (sin phi)^j S; A = -(p S')' + j(j+1) p S with
        p = sin^{2j+1}, B = p e^{2u}.  The substitution builds the
        Friedrichs condition (excluding the r^{-j/beta} branch) into the
        discretization.
        """
        if self.kind != "football":
            raise ValueError("mode decomposition applies to footballs")
        form = FluxForm(self.metric.n, 2 * j + 1)
        A = form.matrix(potential=j * (j + 1.0) * form.weight)
        B = sparse.diags(form.weight * self.metric.density(full=True))
        return A, B

    def matrices(self):
        """2-D case: symmetric stiffness A and diagonal mass B = M e^{2u}."""
        if self.kind != "sphere2d":
            raise ValueError("assembled matrices apply to 2-D solves")
        m = self.metric
        A = m.mesh["A"]
        B = sparse.diags(m.mesh["M"] * m.density().ravel())
        return A, B

    def apply_axisym(self, values):
        """(Delta_g - 2) f for axisymmetric cell-centred samples (football)."""
        form = FluxForm(self.metric.n, 1)
        f = np.asarray(values, dtype=float)
        return form(f) / form.weight / self.metric.density(full=True) \
            - 2.0 * f


def linearized_operator(metric):
    if metric.kind not in ("football", "sphere2d"):
        raise ValueError("linearized operator for closed solves only")
    return LinearizedOperator(metric=metric, kind=metric.kind)


def spectrum_near_two(metric, window=0.5):
    """Eigenpairs of Delta_g with |lambda - 2| < window (shift-invert at 2).

    If an eigenvalue sits within 0.1*window of the window boundary the
    window is enlarged once and the solve retried.
    """
    op = linearized_operator(metric)

    def solve(win):
        pairs = []
        if op.kind == "football":
            b = metric.beta[0]
            jmax = 2 * math.ceil(b) + 4
            all_vals = []
            for j in range(jmax + 1):
                A, B = op.mode_matrices(j)
                k = min(8, A.shape[0] - 2)
                vals, vecs = eigsh(A, k=k, M=B, sigma=2.0, which="LM")
                all_vals.extend(vals)
                for lam, vec in zip(vals, vecs.T):
                    if abs(lam - 2.0) < win:
                        mult = 1 if j == 0 else 2
                        pairs.append((float(lam), {"j": j, "profile": vec,
                                                   "multiplicity": mult}))
        else:
            A, B = op.matrices()
            vals, vecs = eigsh(A, k=12, M=B, sigma=2.0, which="LM")
            all_vals = list(vals)
            for lam, vec in zip(vals, vecs.T):
                if abs(lam - 2.0) < win:
                    pairs.append((float(lam), {"grid": vec,
                                               "multiplicity": 1}))
        margin = min((abs(abs(lam - 2.0) - win) for lam in all_vals),
                     default=win)
        return pairs, margin

    pairs, margin = solve(window)
    if margin < 0.1 * window:
        window *= 1.5
        pairs, margin = solve(window)
        if margin < 0.1 * window:
            raise SolverError("spectral window boundary too close to an "
                              "eigenvalue")
    evs, vecs, ell = [], [], 0
    for lam, rep in sorted(pairs, key=lambda t: abs(t[0] - 2.0)):
        evs.append(lam)
        vecs.append(rep)
        ell += rep["multiplicity"]
    return ObstructionBundleFiber(eigenvalues_near_2=evs, eigenvectors=vecs,
                                  ell=ell, window=window)


# ---------------------------------------------------------------------------
# projected solve (bordered Newton, axisymmetric reduction)

def projected_solve(metric, fiber, density_perturbation=None, tol=1e-11):
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
        if rep.get("j", None) == 0:
            v = rep["profile"]
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

    def residual(x):
        u, lam_c = x[:n], x[n:]
        # div grad u + rho2 e^{2u} - rho2 K_{g2} in the round frame
        F = L @ u + rho2 * np.exp(2.0 * u) - curv_term \
            - sum(lam_c[i] * modes[i] * rho2 for i in range(ell))
        cons = [np.sum(u * modes[i] * B) for i in range(ell)]
        return np.concatenate([F, cons])

    def step(x, F):
        J = L + sparse.diags(2.0 * rho2 * np.exp(2.0 * x[:n]))
        if ell:
            cols = np.stack([-modes[i] * rho2 for i in range(ell)], axis=1)
            rows = np.stack([modes[i] * B for i in range(ell)], axis=0)
            J = sparse.bmat([[J, sparse.csc_matrix(cols)],
                             [sparse.csc_matrix(rows), None]], format="csc")
        return spsolve(J, -F)

    x, _ = damped_newton(residual, step, np.zeros(n + ell), tol)
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


def friedrichs_fit(metric, point_index, radii=None, n_theta=64):
    """Fit a0 + sum r^{j/beta}(a cos + b sin) near a cone point.

    J is the largest integer strictly below 2 beta; the remainder must
    decay like r^2 in the uniformized radial variable.
    """
    b = metric.beta[point_index]
    if radii is None:
        radii = np.geomspace(0.45, 1.0, 8)
    radii = np.asarray(radii, dtype=float)
    J = math.ceil(2.0 * b) - 1
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
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
    resid = np.abs(y - model_wo_tail).reshape(len(radii), n_theta).max(axis=1)
    slope = np.polyfit(np.log(radii), np.log(resid), 1)[0]
    indicial = [(j / b, coef[2 * j - 1], coef[2 * j]) for j in range(1, J + 1)]
    return FriedrichsFit(point_index=point_index, radii=radii,
                         a0=float(coef[0]), indicial=indicial,
                         residuals=resid, slope=float(slope))
