import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conemetric.angles import (AdmissibilityError, AngleVector,
                               coaxial_check, conic_euler_char, mp_distance,
                               mp_membership, splitting_spec,
                               subcritical_check, troyanov_check)


def _mp_bruteforce(betas):
    """l^1 distance to the odd-sum integer lattice by direct enumeration."""
    x = [b - 1.0 for b in betas]
    ranges = [range(math.floor(xi) - 1, math.floor(xi) + 3) for xi in x]
    best = math.inf
    for n in itertools.product(*ranges):
        if sum(n) % 2 == 1:
            best = min(best, sum(abs(xi - ni) for xi, ni in zip(x, n)))
    return best


class TestEulerChar:
    def test_round_sphere(self):
        assert conic_euler_char(AngleVector(0, (1.0,))) == pytest.approx(2.0)

    def test_football(self):
        av = AngleVector(0, (1.7, 1.7))
        assert conic_euler_char(av) == pytest.approx(2 * 1.7)

    def test_affine_in_each_angle(self):
        base = AngleVector(0, (0.7, 1.3, 2.1))
        for i in range(3):
            for t in (0.25, -0.1):
                beta = list(base.beta)
                beta[i] += t
                shifted = AngleVector(0, tuple(beta))
                assert conic_euler_char(shifted) - conic_euler_char(base) \
                    == pytest.approx(t)

    def test_genus_shift(self):
        a0 = conic_euler_char(AngleVector(0, (0.5, 0.5, 0.5)))
        a1 = conic_euler_char(AngleVector(1, (0.5, 0.5, 0.5)))
        assert a0 - a1 == pytest.approx(2.0)


class TestTroyanov:
    def test_classic_triple(self):
        assert troyanov_check(AngleVector(0, (0.5, 0.5, 0.5)))

    def test_violating_triple(self):
        # one large deficit dominates the other two
        assert not troyanov_check(AngleVector(0, (0.2, 0.9, 0.9)))

    def test_football_equal_angles_only(self):
        assert troyanov_check(AngleVector(0, (1.3, 1.3)))
        assert not troyanov_check(AngleVector(0, (1.3, 1.4)))

    def test_requires_positive_chi(self):
        with pytest.raises(ValueError):
            troyanov_check(AngleVector(0, (0.2, 0.2, 0.2, 0.2, 0.2)))


class TestMondelloPanov:
    @given(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_distance_matches_bruteforce(self, betas):
        av = AngleVector(0, tuple(betas))
        assert mp_distance(av) == pytest.approx(_mp_bruteforce(betas),
                                                abs=1e-12)

    def test_interior_example(self):
        assert mp_membership(AngleVector(0, (0.5, 0.5, 0.5))) == "interior"

    def test_boundary_example(self):
        # beta - 1 = (1, 0.5, 0.5): distance 1 to (1, 1, 1) and (1, 0, 0)
        assert mp_membership(AngleVector(0, (2.0, 1.5, 1.5))) == "boundary"

    def test_outside_example(self):
        # beta - 1 = (1, 0.1, 0.05): distance 0.15 to (1, 0, 0)
        assert mp_membership(AngleVector(0, (2.0, 1.1, 1.05))) == "outside"

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=100)
    def test_troyanov_inside_mp(self, k, data):
        # deficits 1 - beta_j = T p_j: a total T < 2 keeps the conic Euler
        # characteristic positive, and shares p_j proportional to weights in
        # [1, k - 1.1] stay below 1/2, so each deficit is smaller than the
        # sum of the others -- every draw is a Troyanov vector
        total = data.draw(st.floats(0.05, 1.9))
        weights = [data.draw(st.floats(1.0, k - 1.1)) for _ in range(k)]
        betas = [1.0 - total * wj / sum(weights) for wj in weights]
        av = AngleVector(0, tuple(betas))
        assert troyanov_check(av)
        assert mp_distance(av) >= 1.0 - 1e-9


class TestSubcritical:
    def test_equilateral_small_angles(self):
        assert subcritical_check(AngleVector(0, (0.6, 0.6, 0.6)))

    def test_round_sphere_not_subcritical(self):
        assert not subcritical_check(AngleVector(0, (1.0,)))

    def test_large_football_not_subcritical(self):
        assert not subcritical_check(AngleVector(0, (1.7, 1.7)))


class TestCoaxial:
    def test_rational_football(self):
        res = coaxial_check(AngleVector(0, (1.5, 1.5)))
        assert res.status == "true"
        assert bool(res)

    def test_irrational_football_indeterminate(self):
        res = coaxial_check(AngleVector(0, (math.sqrt(2), math.sqrt(2))))
        assert res.status == "indeterminate"
        assert not bool(res)

    def test_integer_case_true(self):
        res = coaxial_check(AngleVector(0, (3.0, 2.0, 2.0)))
        assert res.status == "true"
        assert res.case == "integer"

    def test_integer_case_false_parity(self):
        assert coaxial_check(AngleVector(0, (2.0, 2.0, 2.0))).status \
            == "false"

    def test_single_nonintegral_angle(self):
        assert coaxial_check(AngleVector(0, (1.5, 2.0))).status == "false"


class TestSplitting:
    def test_valid_spec(self):
        av = AngleVector(0, (2.5, 0.7))
        spec = splitting_spec(av, (1.75, 1.75, 0.7))
        assert spec.k0 == 1
        assert spec.K == 3
        assert spec.cluster_sizes == (2, 1)
        assert sum(spec.weights[:2]) == pytest.approx(2.0)

    def test_wrong_count_rejected(self):
        av = AngleVector(0, (2.5, 0.7))
        with pytest.raises(AdmissibilityError):
            splitting_spec(av, (1.75, 0.7))

    def test_angle_two_pi_rejected(self):
        av = AngleVector(0, (3.0, 0.5))
        with pytest.raises(AdmissibilityError):
            splitting_spec(av, (1.0, 1.5, 1.5, 0.5))

    def test_unbalanced_cluster_rejected(self):
        av = AngleVector(0, (2.5, 0.7))
        with pytest.raises(AdmissibilityError):
            splitting_spec(av, (1.9, 1.4, 0.7))

    @given(st.floats(1.05, 4.0))
    @settings(max_examples=50)
    def test_equal_split_always_admissible(self, beta0):
        assume(abs(beta0 - round(beta0)) > 1e-6)
        J = math.floor(beta0)
        if J < 2:
            return
        av = AngleVector(0, (beta0, 0.5))
        spec = splitting_spec(av, (1 + (beta0 - 1) / J,) * J + (0.5,))
        assert spec.K == J + 1
