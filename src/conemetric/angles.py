"""Arithmetic tests on cone-angle data.

A surface with conical singularities is described here purely through its
combinatorial data: the genus of the underlying surface and the list of
angle parameters beta_j (cone angle = 2*pi*beta_j).  This module collects
the elementary membership tests used everywhere else in the package:

* the conic Euler characteristic and the Gauss-Bonnet sign,
* the Troyanov inequalities governing existence of a constant-curvature
  representative with angles < 2*pi,
* the l^1 distance to the odd-sum integer lattice which cuts out the
  region of angle vectors admitting non-coaxial spherical metrics,
* the subcritical (coercive-energy) inequality,
* the coaxial (reducible monodromy) conditions, and
* validation of cone-point splitting data: cluster sizes, split angles
  B_i and the associated weights, and
* the arithmetic of angles: when two angles count as equal, the integer
  part [beta], whether it sits at an integer, and whether its point is
  weighted (beta > 1), each to within INT_TOL.  The pairing, the spectral
  counts, the football solve and the command line take these rules from
  here.

Everything is plain arithmetic on small vectors; all functions are pure.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AngleVector",
    "SplitSpec",
    "CoaxialResult",
    "AdmissibilityError",
    "conic_euler_char",
    "troyanov_check",
    "mp_distance",
    "mp_membership",
    "subcritical_check",
    "coaxial_check",
    "splitting_spec",
    "same_angle",
    "int_part",
    "is_integer",
    "is_weighted",
    "finite_real",
]

#: tolerance for angle comparisons: integer angles and the splitting checks
INT_TOL = 1e-9
#: most angles coaxial_check and split angles splitting_spec take: their
#: sign-vector and subcluster searches take time exponential in the count
MAX_ANGLES = 16
#: most unit entries k1 + k2 a coaxial_check witness may carry: it lists
#: them one by one, so a large integer angle would ask for that many
MAX_UNIT_ENTRIES = 10_000


def finite_real(x, what):
    """x as a float, if x is a finite real number: an int or a float, but
    not a bool, a str or an int beyond the float range."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool) \
            and abs(x) <= sys.float_info.max:
        return float(x)
    raise ValueError(f"{what} must be a finite real number, got {x!r}")


@dataclass(frozen=True)
class AngleVector:
    """Cone-angle data: the genus, an integer in [0, 2^53), plus the
    ordered list of angle parameters, positive finite real numbers."""

    genus: int
    beta: tuple

    def __post_init__(self):
        g = finite_real(self.genus, "genus")
        if not (0 <= g < 2 ** 53 and g.is_integer()):
            raise ValueError(f"genus must be an integer in [0, 2^53), got {g}")
        if not isinstance(self.beta, (list, tuple)):
            raise ValueError(f"malformed angle list {self.beta!r}")
        beta = tuple(finite_real(b, "each angle parameter") for b in self.beta)
        if not beta or not all(b > 0 for b in beta):
            raise ValueError("need a nonempty list of positive angles")
        object.__setattr__(self, "genus", int(g))
        object.__setattr__(self, "beta", beta)

    @property
    def k(self):
        return len(self.beta)


@dataclass(frozen=True)
class SplitSpec:
    """Validated cone-point splitting data.

    ``order`` maps position in the descending-sorted angle list back to the
    index in the original input vector, so callers can recover the original
    labelling of cone points.
    """

    k0: int
    cluster_sizes: tuple
    K: int
    B: tuple            # grouped by cluster, in descending-sorted angle order
    weights: tuple      # per cluster, same grouping as B
    order: tuple        # sorted position -> original index


@dataclass(frozen=True)
class CoaxialResult:
    """Outcome of the reducible-monodromy test.

    ``status`` is one of ``"true"``, ``"false"`` or ``"indeterminate"``.
    The remaining fields form the witness when one exists: which of the two
    cases applied, the sign vector over the non-integer angles, the derived
    integers k1 (= k') and k2 (= k''), and, when computable, the coprime
    integer vector ``b`` with scale ``eta``.
    """

    status: str
    case: str = ""
    epsilon: tuple = ()
    k1: int | None = None
    k2: int | None = None
    b: tuple = ()
    eta: Fraction | None = None


class AdmissibilityError(ValueError):
    """Raised when splitting data violates an admissibility constraint."""


def conic_euler_char(av: AngleVector) -> float:
    """chi(M, beta) = (2 - 2*genus) + sum(beta_j - 1)."""
    return (2 - 2 * av.genus) + sum(b - 1.0 for b in av.beta)


def troyanov_check(av: AngleVector) -> bool:
    """Angle-region test for constant positive curvature with angles < 2*pi.

    Requires chi(M, beta) > 0.  For genus > 0 the test is vacuous; on the
    sphere with k >= 3 points it is the system of strict inequalities
    beta_j - 1 > sum_{i != j} (beta_i - 1), while for k = 2 a solution
    (a football) exists iff the two angles are equal.
    """
    chi = conic_euler_char(av)
    if chi <= 0:
        raise ValueError(
            "troyanov_check requires positive conic Euler characteristic "
            f"(got chi = {chi})"
        )
    if av.genus > 0:
        return True
    beta = av.beta
    if len(beta) == 1:
        # a single cone point on the sphere is smooth only if beta = 1
        return same_angle(beta[0], 1.0)
    if len(beta) == 2:
        return same_angle(*beta)
    total = sum(b - 1.0 for b in beta)
    return all((b - 1.0) > total - (b - 1.0) for b in beta)


def mp_distance(av: AngleVector) -> float:
    """Exact l^1 distance from beta - 1 to the odd-sum integer lattice.

    Round each coordinate to the nearest integer; if the rounded sum is
    even, pay the cheapest single-coordinate parity flip.
    """
    if av.genus != 0:
        raise ValueError("mp_distance is defined for genus 0")
    x = [b - 1.0 for b in av.beta]
    n = [math.floor(xi + 0.5) for xi in x]
    frac = [abs(xi - ni) for xi, ni in zip(x, n)]
    base = sum(frac)
    if sum(n) % 2 != 0:
        return base
    # flipping coordinate i to its second-nearest integer costs 1 - 2*frac_i
    return base + min(1.0 - 2.0 * f for f in frac)


def mp_membership(av: AngleVector) -> str:
    """Classify against the distance-1 region: interior/boundary/outside."""
    d = mp_distance(av) - 1.0
    if abs(d) <= 1e-12:
        return "boundary"
    return "interior" if d > 0 else "outside"


def subcritical_check(av: AngleVector) -> bool:
    """Literal evaluation of chi(M, beta) < min(2, 2*min_j beta_j)."""
    return conic_euler_char(av) < min(2.0, 2.0 * min(av.beta))


def same_angle(a: float, b: float) -> bool:
    """Whether two angle parameters count as equal: within INT_TOL."""
    return abs(a - b) <= INT_TOL


def is_integer(b: float) -> bool:
    """Whether b sits within INT_TOL of an integer."""
    return same_angle(b, round(b))


def int_part(b: float) -> int:
    """Integer part [b], robust against angles sitting at an integer."""
    return int(round(b)) if is_integer(b) else math.floor(b)


def is_weighted(b: float) -> bool:
    """Whether a cone point of angle 2*pi*b is weighted: b > 1 + INT_TOL.
    Only weighted points split, and only they carry m-weighted modes."""
    return b > 1 + INT_TOL


def _as_fraction(x: float):
    """Rational recognition of a float, or None.

    Only denominators up to 1000 are recognized; keeping the bound
    small ensures floats produced from irrational angles stay unrecognized
    (continued-fraction convergents with huge denominators approximate any
    float to within the tolerance).
    """
    fr = Fraction(x).limit_denominator(1000)
    if abs(float(fr) - x) <= INT_TOL:
        return fr
    return None


def _coprime_rescaling(values):
    """Write a positive rational vector as eta * (coprime integers).

    Returns (eta, b) or None when some entry is not recognizably rational.
    """
    fracs = [_as_fraction(v) for v in values]
    if None in fracs:
        return None
    lcm = math.lcm(*(fr.denominator for fr in fracs))
    ints = [int(fr * lcm) for fr in fracs]
    g = math.gcd(*ints)
    b = tuple(m // g for m in ints)
    return Fraction(g, lcm), b


def coaxial_check(av: AngleVector) -> CoaxialResult:
    """Test the reducible-monodromy (coaxial) angle conditions.

    Integer-angle case: all beta_i in N, l^1 distance from beta - 1 to the
    odd-sum lattice equal to 1, and 2*max(beta_i - 1) <= sum(beta_i - 1).

    Mixed case: with the non-integer angles beta_1..beta_m (m >= 2) and
    integer angles beta_{m+1}..beta_n, search sign vectors eps in {+-1}^m
    for k' = sum eps_i beta_i >= 0 integral, k'' = sum_int beta_i - n - k'
    + 2 >= 0 and even, and the coprime-normalization inequality
    2*max_int beta_i <= sum b_i whenever integers b_i with gcd 1 and
    (beta_1..beta_m, 1,...,1) = eta * b exist.

    Irrational inputs leave the last premise undecidable, in which case the
    result is "indeterminate" rather than "true".  At most MAX_ANGLES angles,
    and a witness of at most MAX_UNIT_ENTRIES unit entries.
    """
    if av.genus != 0:
        raise ValueError("coaxial_check is defined for genus 0")
    if av.k > MAX_ANGLES:
        raise ValueError(f"coaxial_check takes at most {MAX_ANGLES} angles, "
                         f"got {av.k}")
    beta = av.beta
    n = len(beta)
    nonint = [b for b in beta if not is_integer(b)]
    ints = [int_part(b) for b in beta if is_integer(b)]
    m = len(nonint)

    if m == 0:
        dist_ok = (sum(b - 1 for b in ints) % 2) == 0  # distance exactly 1
        max_ok = 2 * max(b - 1 for b in ints) <= sum(b - 1 for b in ints)
        if dist_ok and max_ok:
            return CoaxialResult(status="true", case="integer")
        return CoaxialResult(status="false")

    if m == 1:
        # the mixed case requires at least two non-integer angles
        return CoaxialResult(status="false")

    sum_int = sum(ints)
    indeterminate_witness = None
    for eps in itertools.product((1, -1), repeat=m):
        k1f = sum(e * b for e, b in zip(eps, nonint))
        if k1f < -INT_TOL or not is_integer(k1f):
            continue
        k1 = int_part(k1f)
        k2 = sum_int - n - k1 + 2
        if k2 < 0 or k2 % 2 != 0:
            continue
        if k1 + k2 > MAX_UNIT_ENTRIES:
            raise ValueError(f"the coaxial witness needs k1 + k2 = {k1 + k2} "
                             "unit entries; coaxial_check takes at most "
                             f"MAX_UNIT_ENTRIES = {MAX_UNIT_ENTRIES}")
        values = list(nonint) + [1.0] * (k1 + k2)
        scaled = _coprime_rescaling(values)
        if scaled is None:
            # sign/evenness bullets hold but the gcd premise is undecidable
            if indeterminate_witness is None:
                indeterminate_witness = CoaxialResult(
                    status="indeterminate", case="mixed",
                    epsilon=eps, k1=k1, k2=k2)
            continue
        eta, b = scaled
        if ints and 2 * max(ints) > sum(b):
            continue
        return CoaxialResult(status="true", case="mixed",
                             epsilon=eps, k1=k1, k2=k2, b=b, eta=eta)
    if indeterminate_witness is not None:
        return indeterminate_witness
    return CoaxialResult(status="false")


def splitting_spec(av: AngleVector, B) -> SplitSpec:
    """Validate splitting data and compute the per-cluster weights.

    ``B`` is the flat list of K target angle parameters grouped by cluster
    in descending order of the original angles: the cluster of the j-th
    largest angle receives max([beta_j], 1) entries.  Each split cluster
    must preserve the Gauss-Bonnet sum, contain no angle exactly 2*pi, and
    contain no nonempty subcluster whose angle excesses sum to zero.  ``B``
    is a list or tuple of at most MAX_ANGLES entries.
    """
    if not isinstance(B, (list, tuple)) or len(B) > MAX_ANGLES:
        raise ValueError(f"split angles B must be a list of at most "
                         f"{MAX_ANGLES} numbers")
    order = sorted(range(av.k), key=lambda i: -av.beta[i])
    beta_sorted = [av.beta[i] for i in order]
    k0 = sum(1 for b in beta_sorted if is_weighted(b))
    sizes = tuple(max(int_part(b), 1) for b in beta_sorted)
    K = sum(sizes)
    B = tuple(finite_real(x, "each split angle") for x in B)
    if len(B) != K:
        raise AdmissibilityError(
            f"expected {K} split angles (clusters {sizes}), got {len(B)}")
    if any(x <= 0 for x in B):
        raise AdmissibilityError("split angle parameters must be positive")

    weights = []
    pos = 0
    for j, (bj, Nj) in enumerate(zip(beta_sorted, sizes)):
        cluster = B[pos:pos + Nj]
        pos += Nj
        if Nj == 1:
            if not same_angle(cluster[0], bj):
                raise AdmissibilityError(
                    f"unsplit cluster {j} must keep its angle {bj}, "
                    f"got {cluster[0]}")
            weights.append(float(int_part(bj)))
            continue
        excess = [x - 1.0 for x in cluster]
        if abs(sum(excess) - (bj - 1.0)) > INT_TOL:
            raise AdmissibilityError(
                f"cluster {j}: sum of (B_i - 1) = {sum(excess)} does not "
                f"match beta_j - 1 = {bj - 1}")
        for i, x in enumerate(cluster):
            if same_angle(x, 1.0):
                raise AdmissibilityError(
                    f"cluster {j}: B_{i} = 1 (angle 2*pi) is forbidden in a "
                    "split cluster")
        for r in range(1, Nj):
            for I in itertools.combinations(range(Nj), r):
                if abs(sum(excess[i] for i in I)) <= INT_TOL:
                    raise AdmissibilityError(
                        f"cluster {j}: subcluster {I} merges to angle 2*pi "
                        "(excess sums to zero)")
        J = int_part(bj)
        weights.extend(J * e / (bj - 1.0) for e in excess)
    return SplitSpec(k0=k0, cluster_sizes=sizes, K=K, B=B,
                     weights=tuple(weights), order=tuple(order))

