import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemetric import factorization
from conemetric.factorization import (CoeffVector, ContinuationError,
                                      RootConfiguration, WeightVector,
                                      blowup_chart_J2, expansion_coeffs,
                                      forward_map, inverse_map, jacobian,
                                      multiplicative_error, power_sums)

RNG = np.random.default_rng(7)


def random_weights(rng, J):
    while True:
        raw = rng.uniform(0.3, 2.0, size=J)
        try:
            return WeightVector(tuple(raw * J / raw.sum()))
        except ValueError:
            continue


def random_coeffs(rng, J, scale=0.3):
    return CoeffVector(tuple(
        rng.uniform(0.05, scale) * np.exp(2j * math.pi * rng.random())
        for _ in range(J)))


class TestWeightVector:
    def test_sum_constraint(self):
        with pytest.raises(ValueError):
            WeightVector((1.0, 0.5))

    def test_zero_subset_sum_rejected(self):
        with pytest.raises(ValueError):
            WeightVector((2.0, 2.0, -1.0, 1.0, -1.0, 3.0))

    def test_equal_weights_flag(self):
        assert WeightVector((1.0, 1.0, 1.0)).is_equal
        assert not WeightVector((0.5, 1.5)).is_equal

    @pytest.mark.parametrize("make,message", [
        (lambda: WeightVector(()), "empty weight vector"),
        (lambda: CoeffVector(()), "finite and nonempty"),
        (lambda: forward_map((0.1, 0.2j), WeightVector((1.0, 1.0, 1.0))),
         "number of points must match")],
        ids=["no-weights", "no-coeffs", "point-count"])
    def test_empty_or_mismatched_input_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestPowerSums:
    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60)
    def test_against_actual_roots(self, J, data):
        coeffs = [complex(data.draw(st.floats(-1, 1)),
                          data.draw(st.floats(-1, 1))) for _ in range(J)]
        A = CoeffVector(tuple(coeffs))
        roots = np.roots([1.0] + list(A.A))
        R = power_sums(A)
        for ell in range(1, J + 1):
            direct = np.sum(roots ** ell)
            assert abs(R[ell - 1] - direct) < 1e-8 * max(
                1.0, abs(direct))

    def test_first_three_closed_forms(self):
        A1, A2, A3 = 0.3 + 0.1j, -0.2j, 0.05
        R = power_sums(CoeffVector((A1, A2, A3)))
        assert R[0] == pytest.approx(-A1)
        assert R[1] == pytest.approx(A1 * A1 - 2 * A2)
        assert R[2] == pytest.approx(-A1 ** 3 + 3 * A1 * A2 - 3 * A3)


class TestForwardInverse:
    def test_unit_weights_are_elementary_symmetric(self):
        z = (0.1 + 0.2j, -0.3, 0.05 - 0.1j)
        b = WeightVector((1.0, 1.0, 1.0))
        A = forward_map(z, b)
        poly = np.poly(z)
        assert np.allclose(A.A, poly[1:], atol=1e-12)

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_roundtrip_all_branches(self, J, seed):
        rng = np.random.default_rng(seed)
        b = random_weights(rng, J)
        A = random_coeffs(rng, J)
        branches = inverse_map(A, b)
        assert len(branches) == math.factorial(J)
        if any(br.near_discriminant for br in branches):
            return
        scale = max(abs(a) for a in A.A)
        for br in branches:
            out = forward_map(br.z, b)
            err = max(abs(x - y) for x, y in zip(out.A, A.A))
            assert err < 1e-9 * scale

    def test_branches_are_permutations_for_unit_weights(self):
        b = WeightVector((1.0, 1.0, 1.0))
        A = random_coeffs(np.random.default_rng(3), 3)
        branches = inverse_map(A, b)
        base = sorted(branches[0].z, key=lambda z: (z.real, z.imag))
        for br in branches:
            assert sorted(br.z, key=lambda z: (z.real, z.imag)) \
                == pytest.approx(base)

    def test_near_discriminant_flagged(self):
        # A_1^2 = 4 A_2 makes the two roots collide
        b = WeightVector((1.0, 1.0))
        A = CoeffVector((0.2, 0.2 * 0.2 / 4.0))
        branches = inverse_map(A, b)
        assert all(br.near_discriminant for br in branches)

    def test_jacobian_singular_at_collision(self):
        b = WeightVector((0.5, 1.5))
        _, cond = jacobian((0.3 + 0.1j, 0.3 + 0.1j), b)
        assert cond > 1e12

    def test_jacobian_condition_infinite_where_svd_fails(self):
        # the SVD behind numpy's cond does not converge on a NaN entry
        _, cond = jacobian((math.nan, 0.0), WeightVector((1.0, 1.0)))
        assert cond == math.inf

    def test_stacked_jacobian_matches_single(self):
        b = WeightVector((0.8, 1.2, 1.0))
        branches = inverse_map(random_coeffs(np.random.default_rng(5), 3), b)
        Ms, conds = jacobian(np.array([br.z for br in branches]), b)
        assert conds.shape == (6,)
        for br, M, cond in zip(branches, Ms, conds):
            assert np.array_equal(M, jacobian(br.z, b)[0])
            assert cond == jacobian(br.z, b)[1] == br.condition


class TestRelabelling:
    """sum_j b_j z_j^l = R_l is symmetric under relabelling j, so permuted
    weights b o pi must give back the branch set {z o pi}, one to one; a
    repeated branch fails the match."""

    @pytest.mark.parametrize("J", [3, 4])
    def test_permuted_weights_permute_branches(self, J):
        rng = np.random.default_rng(19)
        for _ in range(5):
            w = rng.uniform(0.5, 1.5, size=J)
            w *= J / w.sum()
            A = CoeffVector(tuple(
                complex(*rng.standard_normal(2)) * 0.3 ** ell
                for ell in range(1, J + 1)))
            pi = rng.permutation(J)
            base = np.array([br.z for br in inverse_map(A, WeightVector(
                tuple(w)))])[:, pi]
            perm = np.array([br.z for br in inverse_map(A, WeightVector(
                tuple(w[pi])))])
            dist = np.max(np.abs(perm[:, None, :] - base[None, :, :]),
                          axis=2)
            match = dist <= 1e-12
            assert np.all(match.sum(axis=0) == 1)
            assert np.all(match.sum(axis=1) == 1)


class TestTwoPointRadicals:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        b = random_weights(rng, 2)
        A = random_coeffs(rng, 2)
        A1, A2 = A.A
        bbar = math.sqrt(b.b[1] / b.b[0])
        sq = cmath.sqrt(A1 * A1 - 4.0 * A2)
        exact = []
        for s in (sq, -sq):
            exact.append(((-A1 + bbar * s) / 2.0, (-A1 - s / bbar) / 2.0))
        for br in inverse_map(A, b):
            err = min(max(abs(br.z[0] - e[0]), abs(br.z[1] - e[1]))
                      for e in exact)
            assert err < 1e-11


class TestExpansion:
    def test_equal_weight_three_point_values(self):
        theta = 0.83
        At1 = 0.2 - 0.1j
        At2 = -0.15 + 0.25j
        b = WeightVector((1.0, 1.0, 1.0))
        tau = (-1.0 + math.sqrt(3.0) * 1j) / 2.0
        want1 = np.array([-cmath.exp(1j * theta / 3.0) * tau ** j
                          for j in (1, 2, 3)])
        ph = cmath.exp(-1j * theta / 3.0)
        want2 = np.array([
            -(1.0 + 1j * math.sqrt(3.0)) / 6.0 * At2 * ph,
            (3j + math.sqrt(3.0)) / (3.0 * (-3j + math.sqrt(3.0)))
            * At2 * ph,
            At2 * ph / 3.0])
        want3 = np.full(3, -At1 / 3.0)
        found = False
        for branch in range(6):
            data = expansion_coeffs(theta, (At1, At2), b, branch=branch)
            if np.max(np.abs(data.c[:, 0] - want1)) < 1e-8:
                found = True
                assert np.max(np.abs(data.c[:, 1] - want2)) < 1e-10
                assert np.max(np.abs(data.c[:, 2] - want3)) < 1e-10
        assert found

    def test_stall_names_requested_branch(self):
        # the weight path (1 + 2s, 1 - 2s) crosses b_2 = 0 at s = 1/2, where
        # both branches stall
        with pytest.raises(ContinuationError) as info:
            expansion_coeffs(0.3, (0.2,), WeightVector((3.0, -1.0)), branch=1)
        assert info.value.branch_id == 1
        assert info.value.s == pytest.approx(0.5)

    def test_leading_system_residual(self):
        theta = 1.2
        b = WeightVector((0.8, 1.2))
        data = expansion_coeffs(theta, (0.1,), b)
        c1 = data.c[:, 0]
        assert abs(np.dot(b.b, c1)) < 1e-12
        assert abs(np.dot(b.b, c1 ** 2) + 2.0 * cmath.exp(1j * theta)) \
            < 1e-12

    def test_expansion_tracks_inverse_branch(self):
        theta = 0.4
        Atilde = (0.2 + 0.1j, -0.05)
        b = WeightVector((0.9, 1.3, 0.8))
        data = expansion_coeffs(theta, Atilde, b, branch=0)
        for rho in (1e-3, 5e-4):
            A = CoeffVector(tuple(
                [a * rho ** 3 for a in Atilde]
                + [cmath.exp(1j * theta) * rho ** 3]))
            z_pred = data.evaluate(rho)
            best = min(
                max(abs(x - y) for x, y in zip(br.z, z_pred))
                for br in inverse_map(A, b))
            # truncation error of the degree-J expansion is O(rho^{J+1})
            assert best < 50.0 * rho ** 4

    def test_unequal_weights_truncation_order(self):
        theta = 0.7
        Atilde = (0.3 - 0.2j, 0.1 + 0.25j, -0.15j)
        b = WeightVector((0.7, 1.1, 0.9, 1.3))
        data = expansion_coeffs(theta, Atilde, b, branch=5)
        errs = []
        for rho in (0.04, 0.02):
            A = CoeffVector(tuple(
                [a * rho ** 4 for a in Atilde]
                + [cmath.exp(1j * theta) * rho ** 4]))
            z_pred = data.evaluate(rho)
            errs.append(min(
                max(abs(x - y) for x, y in zip(br.z, z_pred))
                for br in inverse_map(A, b)))
        # O(rho^{J+1}) = O(rho^5) truncation error
        assert math.log2(errs[0] / errs[1]) >= 4.5

    def test_branch_matches_inverse_map_row(self):
        for J in range(1, 7):
            rng = np.random.default_rng(J)
            b = random_weights(rng, J)
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            lead = CoeffVector(tuple([0.0] * (J - 1)
                                     + [cmath.exp(1j * theta)]))
            branches = inverse_map(lead, b)
            ids = range(math.factorial(J)) if J <= 4 else \
                rng.choice(math.factorial(J), 20, replace=False)
            for i in ids:
                data = expansion_coeffs(theta, [0.1] * (J - 1), b,
                                        branch=int(i))
                assert np.max(np.abs(data.c[:, 0]
                                     - np.array(branches[i].z))) <= 1e-12

    def test_takes_exactly_j_minus_one_coefficients(self):
        b = WeightVector((0.8, 1.2, 1.0))
        for Atilde in ((0.1,), (0.1, 0.2, 1.0)):
            with pytest.raises(ValueError, match="J-1 normalized"):
                expansion_coeffs(0.3, Atilde, b)

    def test_tracks_one_path(self, monkeypatch):
        stacks = []
        newton = factorization._newton_correct

        def recorder(z, *args, **kwargs):
            stacks.append(z.shape[0])
            return newton(z, *args, **kwargs)
        monkeypatch.setattr(factorization, "_newton_correct", recorder)
        b = random_weights(np.random.default_rng(2), 5)
        expansion_coeffs(0.3, (0.1, -0.2j, 0.05, 0.1 + 0.1j), b, branch=77)
        assert stacks and set(stacks) == {1}

    @pytest.mark.parametrize("branch", [-1, 6])
    def test_branch_out_of_range(self, monkeypatch, branch):
        def no_tracking(*args):
            raise AssertionError("tracked before the branch check")
        monkeypatch.setattr(factorization, "_track", no_tracking)
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            expansion_coeffs(0.3, (0.1, 0.2), WeightVector((0.8, 1.2, 1.0)),
                             branch=branch)


class TestMultiplicativeError:
    def test_vanishes_for_unit_weights(self):
        b = WeightVector((1.0, 1.0))
        A = CoeffVector((0.1 + 0.05j, 0.04))
        br = inverse_map(A, b)[0]
        samples = [0.6 * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
        assert multiplicative_error(A, br.z, b, samples) < 1e-12

    def test_superlinear_decay_along_ray(self):
        rng = np.random.default_rng(11)
        b = random_weights(rng, 3)
        A0 = tuple(0.25 * np.exp(2j * math.pi * rng.random())
                   for _ in range(3))
        samples = [0.7 * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
        ts = np.geomspace(0.02, 0.3, 6)
        errs = []
        for t in ts:
            A = CoeffVector(tuple(t * a for a in A0))
            errs.append(max(multiplicative_error(A, br.z, b, samples)
                            for br in inverse_map(A, b)))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope >= 1.2

    def test_rejects_samples_outside_annulus(self):
        b = WeightVector((1.0, 1.0))
        A = CoeffVector((0.1, 0.04))
        br = inverse_map(A, b)[0]
        with pytest.raises(ValueError):
            multiplicative_error(A, br.z, b, [1.5])


class TestBlowupChart:
    def test_leading_order_limits(self):
        b = WeightVector((0.7, 1.3))
        theta = 0.9
        At1 = 0.3 - 0.2j
        gaps = []
        for rho in (1e-2, 1e-3):
            A = CoeffVector((At1 * rho ** 2,
                             cmath.exp(1j * theta) * rho ** 2))
            chart = blowup_chart_J2(A, b, inverse_map(A, b)[0])
            gaps.append(max(abs(chart.R - chart.R_lead) / rho,
                            abs(chart.z0_2 - chart.z0_2_lead)))
        assert gaps[1] < 0.2 * gaps[0]

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.7, 1.3)])
    @pytest.mark.parametrize("theta", [0.0, 0.9])
    def test_phase_tends_to_leading_phase(self, theta, weights):
        b = WeightVector(weights)
        for k in (0, 1):
            gaps = []
            for rho in (1e-2, 1e-3):
                A = CoeffVector(((0.3 - 0.2j) * rho ** 2,
                                 cmath.exp(1j * theta) * rho ** 2))
                chart = blowup_chart_J2(A, b, inverse_map(A, b)[k])
                gaps.append(abs(cmath.phase(
                    cmath.exp(1j * (chart.phi - chart.phi_lead)))))
            assert gaps[1] < 0.2 * gaps[0] and gaps[1] < 1e-3

    def test_branch_points_factor(self):
        b = WeightVector((0.7, 1.3))
        A = CoeffVector((0.1 + 0.2j, 0.05))
        branch = inverse_map(A, b)[0]
        out = forward_map(branch.z, b)
        assert np.allclose(out.A, A.A, atol=1e-10)
        z1, z2 = branch.z
        assert blowup_chart_J2(A, b, branch).z0 == (z1 + z2) / 2.0

    def test_two_points_only(self):
        b = WeightVector((0.8, 1.2, 1.0))
        A = CoeffVector((0.1, 0.04, 0.01))
        with pytest.raises(ValueError, match="implemented for J = 2"):
            blowup_chart_J2(A, b, inverse_map(A, b)[0])

