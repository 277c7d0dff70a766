"""Weighted factorization of a splitting cone point.

A cone point of angle 2*pi*beta0 splitting into J points with weights
b_j = J*(B_j - 1)/(beta0 - 1) is described by the correspondence between
the positions z_1..z_J of the split points and the coefficient vector
A_1..A_J of the monic polynomial whose weighted log-modulus

    v(A; z) = sum_j b_j log|z - z_j|  ~  log|P(A; z)|

approximates the conformal factor of the split metric.  This module
implements the forward map (generalized-binomial expansion), the Newton
power sums, the inverse branches (a weight homotopy from the unit-weight
root orderings: all J! for the inverse map, one for a ray expansion), the
Jacobian/discriminant proximity test, the power-series cascade for the
ray expansion z_i = sum_k c_ik rho^k, and the explicit two-point blowup
chart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightVector",
    "CoeffVector",
    "RootConfiguration",
    "ExpansionData",
    "BlowupChart",
    "ContinuationError",
    "forward_map",
    "power_sums",
    "inverse_map",
    "jacobian",
    "multiplicative_error",
    "expansion_coeffs",
    "blowup_chart_J2",
]

#: condition number beyond which a configuration is flagged near-discriminant
COND_THRESHOLD = 1e8
#: minimum continuation step in the weight homotopy
MIN_STEP = 1e-8
#: Newton correction tolerance during continuation
NEWTON_TOL = 1e-12
#: most split points: inverse_map tracks J! branches, and J = 8 already
#: takes over a minute and overflows inside the homotopy
MAX_J = 7


class ContinuationError(RuntimeError):
    """Homotopy continuation failed near the discriminant locus."""

    def __init__(self, branch_id, s):
        self.branch_id = branch_id
        self.s = s
        super().__init__(
            f"continuation stalled on branch {branch_id} at s={s}")


@dataclass(frozen=True)
class WeightVector:
    """Splitting weights b_1..b_J with sum J and no zero subset sum."""

    b: tuple

    def __post_init__(self):
        b = tuple(float(x) for x in self.b)
        object.__setattr__(self, "b", b)
        J = len(b)
        if J == 0:
            raise ValueError("empty weight vector")
        if J > MAX_J:
            raise ValueError(f"J={J} split points ask for {J}! branches; "
                             f"the limit is J = {MAX_J}")
        # a NaN or inf weight makes the sum NaN or inf, which fails too
        if not abs(sum(b) - J) <= 1e-9:
            raise ValueError(f"weights must be finite and sum to J={J}, "
                             f"got {sum(b)}")
        for r in range(1, J + 1):
            for I in itertools.combinations(range(J), r):
                if abs(sum(b[i] for i in I)) <= 1e-12:
                    raise ValueError(
                        f"subset {I} of weights sums to zero (excluded set)")

    @property
    def J(self):
        return len(self.b)

    @property
    def is_equal(self):
        return all(abs(x - 1.0) <= 1e-14 for x in self.b)


@dataclass(frozen=True)
class CoeffVector:
    """Coefficients A_1..A_J of the monic polynomial z^J + A_1 z^{J-1} + ..."""

    A: tuple

    def __post_init__(self):
        A = tuple(complex(a) for a in self.A)
        if not A or not all(np.isfinite([a.real for a in A] + [a.imag for a in A])):
            raise ValueError("coefficients must be finite and nonempty")
        object.__setattr__(self, "A", A)

    @property
    def J(self):
        return len(self.A)

    @property
    def rho(self):
        return abs(self.A[-1]) ** (1.0 / self.J)

    @property
    def theta(self):
        return math.atan2(self.A[-1].imag, self.A[-1].real)

    @property
    def Atilde(self):
        aJ = abs(self.A[-1])
        if aJ == 0:
            raise ValueError("A_J = 0: normalized coefficients undefined")
        return tuple(a / aJ for a in self.A)


@dataclass(frozen=True)
class RootConfiguration:
    """One inverse branch: positions of the split points.

    ``condition`` is the condition number of the Jacobian at z.
    """

    z: tuple
    branch_id: int
    near_discriminant: bool = False
    condition: float = math.nan


@dataclass(frozen=True)
class ExpansionData:
    """Ray-expansion coefficients: z_i(rho) = sum_k c[i, k-1] * rho^k."""

    c: np.ndarray        # J x J complex, column k-1 holds the rho^k coefficients
    theta: float
    branch_id: int

    def evaluate(self, rho):
        """Evaluate the truncated expansion at radial parameter rho."""
        powers = np.array([rho ** k for k in range(1, self.c.shape[1] + 1)])
        return self.c @ powers


@dataclass(frozen=True)
class BlowupChart:
    """Exact and leading-order projective coordinates for a J=2 split."""

    R: float
    phi: float
    z0_2: complex
    R_lead: float
    phi_lead: float
    z0_2_lead: complex
    z0: complex
    branch: tuple


def _binom_series(exponent, zj, order):
    """Coefficients of (1 - zj*w)^exponent in w, up to the given order."""
    out = np.empty(order + 1, dtype=complex)
    out[0] = 1.0
    acc = 1.0 + 0j
    for n in range(1, order + 1):
        acc *= (exponent - n + 1) / n * (-zj)
        out[n] = acc
    return out


def forward_map(Z, b: WeightVector) -> CoeffVector:
    """Coefficients of the weighted factorization product.

    Expands each (z - z_j)^{b_j} = z^{b_j} (1 - z_j/z)^{b_j} as a series in
    1/z to degree J, multiplies the factors, and keeps the top
    J + 1 coefficients of the formal product z^J (1 + A_1/z + ...).  For
    unit weights this reproduces the exact monic polynomial coefficients
    (signed elementary symmetric functions of the roots).
    """
    if isinstance(Z, RootConfiguration):
        Z = Z.z
    zs = [complex(z) for z in Z]
    J = b.J
    if len(zs) != J:
        raise ValueError("number of points must match number of weights")
    prod = np.zeros(J + 1, dtype=complex)
    prod[0] = 1.0
    for bj, zj in zip(b.b, zs):
        prod = np.convolve(prod, _binom_series(bj, zj, J))[:J + 1]
    return CoeffVector(tuple(prod[1:]))


def power_sums(A) -> tuple:
    """Newton power sums R_l of the roots of P(A; .), from coefficients only.

    R_l = -sum_{i<l} A_i R_{l-i} - l*A_l, so R_1 = -A_1,
    R_2 = A_1^2 - 2 A_2, R_3 = -A_1^3 + 3 A_1 A_2 - 3 A_3, ...
    """
    if isinstance(A, CoeffVector):
        A = A.A
    A = [complex(a) for a in A]
    J = len(A)
    R = []
    for ell in range(1, J + 1):
        s = -ell * A[ell - 1]
        for i in range(1, ell):
            s -= A[i - 1] * R[ell - i - 1]
        R.append(s)
    return tuple(R)


def _power_jacobian(z, bvec):
    """[l * b_j * z_j^{l-1}], batched over leading axes of z."""
    ells = np.arange(1, z.shape[-1] + 1).reshape(-1, 1)
    return ells * bvec * z[..., np.newaxis, :] ** (ells - 1)


def jacobian(Z, b: WeightVector):
    """Jacobian [l * b_j * z_j^{l-1}] of the weighted power-sum map.

    Factors as diag(1..J) . Vandermonde(z)^T . diag(b); singular exactly
    when two points coincide.  Returns (matrix, condition number); Z may
    stack configurations along leading axes, and both results then carry
    the same leading axes.
    """
    if isinstance(Z, RootConfiguration):
        Z = Z.z
    M = _power_jacobian(np.asarray(Z, dtype=complex), np.asarray(b.b))
    try:
        cond = np.linalg.cond(M)
    except np.linalg.LinAlgError:
        cond = np.full(M.shape[:-2], math.inf)
    return M, float(cond) if cond.ndim == 0 else cond


def _residual(z, bvec, R):
    """G_l(z) = sum_j b_j z_j^l - R_l, batched over leading axes of z."""
    ells = np.arange(1, z.shape[-1] + 1)
    powers = z[..., np.newaxis, :] ** ells[:, np.newaxis]
    return (powers * bvec).sum(axis=-1) - R


def _newton_correct(z, bvec, R, tol, max_iter=25):
    """Batched Newton iterations on the weighted power-sum system; returns
    z and the sup residual of each configuration, converged if all < tol."""
    for _ in range(max_iter):
        G = _residual(z, bvec, R)
        if np.max(np.abs(G)) < tol:
            break
        try:
            dz = np.linalg.solve(_power_jacobian(z, bvec),
                                 G[..., np.newaxis])[..., 0]
        except np.linalg.LinAlgError:
            break
        z = z - dz
    else:
        G = _residual(z, bvec, R)
    return z, np.max(np.abs(G), axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _track(z, b: WeightVector, R):
    """Follow the stacked start configurations z (roots of P(A; .) for unit
    weights) to solutions of sum_j b_j z_j^l = R_l, l = 1..J.

    Homotopy continuation along b(s) = (1-s)*1 + s*b with batched Newton
    prediction-correction and adaptive step halving, then a final polish;
    equal weights skip the homotopy.  Overflow on the way only fails a
    step.  A stall, or a polish that does not converge, raises
    ContinuationError naming the stack index of the worst path.
    """
    scale = max(1.0, float(np.max(np.abs(R))))
    tol = NEWTON_TOL * scale
    if not b.is_equal:
        btarget = np.asarray(b.b)
        bones = np.ones(b.J)
        s = 0.0
        ds = 0.25
        while s < 1.0:
            step = min(ds, 1.0 - s)
            s_new = s + step
            bvec = (1.0 - s_new) * bones + s_new * btarget
            # Euler prediction: dG/ds = sum (b_target - 1)_j z_j^l
            Jac = _power_jacobian(z, (1.0 - s) * bones + s * btarget)
            dGds = _residual(z, btarget - bones, 0.0)
            try:
                dzds = -np.linalg.solve(Jac, dGds[..., np.newaxis])[..., 0]
                z_pred = z + step * dzds
                z_new, res = _newton_correct(z_pred, bvec, R, tol)
                # forbid branch jumps much larger than the predicted motion
                jump = np.max(np.abs(z_new - z_pred), axis=-1)
                allowed = 10.0 * (step * np.max(np.abs(dzds), axis=-1) + 1e-9)
                allowed = np.maximum(allowed, 1e-6)
                ok = np.max(res) < tol and np.all(jump <= allowed)
            except np.linalg.LinAlgError:
                ok, res = False, None
            if ok:
                z, s = z_new, s_new
                ds = min(2.0 * ds, 0.25)
            else:
                ds *= 0.5
                if ds < MIN_STEP:
                    # the path that missed by the worse of its two ratios
                    worst = 0 if res is None else np.argmax(
                        np.maximum(res / tol, jump / allowed))
                    raise ContinuationError(int(worst), s)
    # final polish
    z, res = _newton_correct(z, np.asarray(b.b), R, 1e-13 * scale,
                             max_iter=50)
    if not np.max(res) < 1e-13 * scale:
        raise ContinuationError(int(np.argmax(res)), 1.0)
    return z


def inverse_map(A, b: WeightVector):
    """All J! inverse branches of the weighted factorization map.

    Solves sum_j b_j z_j^l = R_l(A), l = 1..J.  For unit weights the
    branches are the orderings of the roots of P(A; .), in the order of
    itertools.permutations; ``_track`` carries them to general weights.
    Branches whose Jacobian condition number exceeds COND_THRESHOLD are
    marked near-discriminant.
    """
    if not isinstance(A, CoeffVector):
        A = CoeffVector(tuple(A))
    J = b.J
    if A.J != J:
        raise ValueError("coefficient and weight dimensions disagree")
    R = np.asarray(power_sums(A), dtype=complex)
    if not np.all(np.isfinite(R)):
        raise ValueError("the power sums R_l(A) of the coefficients "
                         "overflow; scale A down")
    roots = np.roots(np.concatenate(([1.0], np.asarray(A.A))))
    z = _track(roots[np.array(list(itertools.permutations(range(J))))], b, R)

    _, conds = jacobian(z, b)
    return [RootConfiguration(z=tuple(zi), branch_id=i,
                              near_discriminant=bool(c > COND_THRESHOLD),
                              condition=float(c))
            for i, (zi, c) in enumerate(zip(z, conds))]


def multiplicative_error(A, Z, b: WeightVector, samples) -> float:
    """Sup over samples of | log|P(A;z)| - sum_j b_j log|z - z_j| |.

    Samples must lie in the annulus max|z_j| < |z| < 1.
    """
    if not isinstance(A, CoeffVector):
        A = CoeffVector(tuple(A))
    if isinstance(Z, RootConfiguration):
        Z = Z.z
    zs = np.asarray(Z, dtype=complex)
    rmax = float(np.max(np.abs(zs))) if len(zs) else 0.0
    worst = 0.0
    coeffs = np.concatenate(([1.0], np.asarray(A.A)))
    for zq in samples:
        zq = complex(zq)
        if abs(zq) <= rmax or abs(zq) >= 1.0:
            raise ValueError(
                f"sample {zq} outside the annulus ({rmax:.3g}, 1)")
        p = np.polyval(coeffs, zq)
        v = float(np.sum(np.asarray(b.b) * np.log(np.abs(zq - zs))))
        worst = max(worst, abs(math.log(abs(p)) - v))
    return worst


def expansion_coeffs(theta, Atilde, b: WeightVector, branch: int = 0,
                     ) -> ExpansionData:
    """Ray-expansion coefficients c_{ik} of one inverse branch.

    With A_l = Atilde_l * rho^J for l < J and A_J = e^{i theta} rho^J, each
    inverse branch expands as z_i = sum_k c_{ik} rho^k + O(rho^{J+1}).
    Column 1 solves the nonlinear leading system

        sum_i b_i c_{i1}^l = 0 (l < J),   sum_i b_i c_{i1}^J = -J e^{i theta}

    whose equal-weight solutions are the orderings of the J-th roots of
    -e^{i theta}; only the ``branch``-th ordering, in the order of
    ``inverse_map``, is tracked to the weights b.  With z_i(rho) known
    through rho^{k-1}, column k >= 2 solves the linear cascade T c_k = y_k
    with T = diag(1..J) Vandermonde(c_1)^T diag(b) and

        y_l = rhs_l - [rho^{l+k-1}] sum_i b_i z_i(rho)^l,

    where rhs_l = -l Atilde_l at the matched order l + k - 1 = J and 0
    otherwise; c_k enters that coefficient only through T.
    """
    J = b.J
    Atilde = [complex(a) for a in Atilde]
    if len(Atilde) == J:
        Atilde = Atilde[:J - 1]
    if len(Atilde) != J - 1:
        raise ValueError("need the J-1 normalized coefficients A~_1..A~_{J-1}")
    Afull = Atilde + [np.exp(1j * theta)]
    if not 0 <= branch < math.factorial(J):
        raise ValueError(f"branch index must lie in [0, {math.factorial(J)})")

    # P = z^J + e^{i theta}: power sums R_l = 0 (l < J), R_J = -J e^{i theta}
    lead = np.zeros(J + 1, dtype=complex)
    lead[0], lead[J] = 1.0, Afull[-1]
    perm = list(itertools.permutations(range(J)))[branch]
    try:
        c1 = _track(np.roots(lead)[np.array([perm])], b, -J * lead[1:])[0]
    except ContinuationError as exc:   # _track sees one path, index 0
        raise ContinuationError(branch, exc.s) from None

    # coincidence makes the Vandermonde cascade singular
    for i in range(J):
        for j in range(i + 1, J):
            if abs(c1[i] - c1[j]) <= 1e-10:
                raise np.linalg.LinAlgError(
                    f"leading coefficients c_{i+1},1 and c_{j+1},1 coincide; "
                    "cascade matrix is singular")

    # row i holds the power series of z_i(rho) through rho^{2J-1}
    Z = np.zeros((J, 2 * J), dtype=complex)
    Z[:, 1] = c1
    T = _power_jacobian(c1, np.asarray(b.b))
    for k in range(2, J + 1):
        y = np.zeros(J, dtype=complex)
        y[J - k] = -(J - k + 1) * Afull[J - k]
        for bi, zi in zip(b.b, Z):
            power = np.ones(1, dtype=complex)
            for ell in range(1, J + 1):
                power = np.convolve(power, zi)[:2 * J]
                y[ell - 1] -= bi * power[ell + k - 1]
        Z[:, k] = np.linalg.solve(T, y)
    return ExpansionData(c=Z[:, 1:J + 1], theta=float(theta), branch_id=branch)


def blowup_chart_J2(A, b: WeightVector, branch: int = 0) -> BlowupChart:
    """Projective (blown-up) coordinates for a two-point split.

    Uses the closed-form branches

        z1 = (-A_1 + bbar*sqrt(A_1^2 - 4 A_2)) / 2,
        z2 = (-A_1 - sqrt(A_1^2 - 4 A_2)/bbar) / 2,    bbar = sqrt(b_2/b_1)

    (or the branch with the square root negated), passes to the midpoint
    z0 and half-difference R e^{i phi}, and applies the two radial blowups
    z0 -> z0/rho_hat -> (z0/rho_hat - c)/rho_hat with rho_hat = R/c' the
    radial scale, c = ((bbar - 1/bbar)/2) sqrt(-e^{i theta}) and
    c' = (bbar + 1/bbar)/2.  The returned leading terms are
    (c' rho, arg sqrt(-e^{i theta}), -Atilde_1/2).
    """
    if not isinstance(A, CoeffVector):
        A = CoeffVector(tuple(A))
    if A.J != 2 or b.J != 2:
        raise ValueError("blowup chart is implemented for J = 2")
    A1, A2 = A.A
    if A2 == 0:
        raise ValueError("A_2 = 0 lies outside the chart domain")
    rho = abs(A2) ** 0.5
    theta = math.atan2(A2.imag, A2.real)
    At1 = A1 / abs(A2)
    bbar = math.sqrt(b.b[1] / b.b[0])
    sq = np.sqrt(complex(A1 * A1 - 4.0 * A2))
    if branch == 1:
        sq = -sq
    elif branch != 0:
        raise ValueError("branch must be 0 or 1")
    z1 = (-A1 + bbar * sq) / 2.0
    z2 = (-A1 - sq / bbar) / 2.0
    z0 = (z1 + z2) / 2.0
    zt = (z1 - z2) / 2.0
    R = abs(zt)
    phi = math.atan2(zt.imag, zt.real)

    s0 = np.sqrt(-np.exp(1j * theta))
    if branch == 1:
        s0 = -s0
    cprime = (bbar + 1.0 / bbar) / 2.0
    c = ((bbar - 1.0 / bbar) / 2.0) * s0
    rho_hat = R / cprime
    z0_1 = z0 / rho_hat
    z0_2 = (z0_1 - c) / rho_hat
    return BlowupChart(
        R=R, phi=phi, z0_2=z0_2,
        R_lead=cprime * rho,
        phi_lead=float(np.angle(s0)),
        z0_2_lead=-At1 / 2.0,
        z0=z0, branch=(z1, z2))

