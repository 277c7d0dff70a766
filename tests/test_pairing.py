import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemetric.angles import AngleVector, int_part, splitting_spec
from conemetric.pairing import (FIT_TOL, DirectionCoeffs,
                                EigenCoeffs, boundary_pairing_integral,
                                classify_case, direction_coeffs,
                                direction_counts, extract_eigf_coeffs,
                                pairing_B, pairing_matrix, solution_space,
                                vdot_limit_residual, vdot_vanishing_check)


def eig_row(beta, modes, constant=0.0):
    return EigenCoeffs(beta=beta, constant=constant, modes=tuple(modes),
                       residual=0.0, reliable=True)


class TestExtraction:
    def test_exact_basis_function_recovered(self):
        beta = 2.2

        def phi(r, t):
            return (0.3 + 1.0 * r ** (1 / beta) * np.cos(t)
                    + 0.5 * r ** (2 / beta) * np.cos(2 * t)
                    - 0.2 * r ** (2 / beta) * np.sin(2 * t)
                    + 0.05 * r ** 2)

        out = extract_eigf_coeffs(phi, beta)
        assert out.constant == pytest.approx(0.3, abs=1e-10)
        assert out.modes[0][1:] == pytest.approx((1.0, 0.0), abs=1e-10)
        assert out.modes[1][1:] == pytest.approx((0.5, -0.2), abs=1e-10)
        assert out.reliable
        assert out.residual < 1e-10

    def test_small_angle_single_mode(self):
        beta = 0.8

        def phi(r, t):
            return 3.0 + r ** (1 / beta) * np.sin(t)

        out = extract_eigf_coeffs(phi, beta)
        assert len(out.modes) == 1
        assert out.modes[0] == pytest.approx((1, 0.0, 1.0), abs=1e-10)

    def test_smooth_tail_absorbed_by_nuisance(self):
        out = extract_eigf_coeffs(lambda r, t: 1.0 - r ** 2 / 2.0, 1.6)
        assert out.constant == pytest.approx(1.0, abs=1e-10)
        assert np.allclose([m[1:] for m in out.modes], 0.0, atol=1e-12)

    def test_integer_beta_next_order_absorbed(self):
        # sin(r) cos(2 theta) = (r - r^3/6 + ...) cos(2 theta) at beta = 2:
        # the r^3 term is r^{m/beta + 2} with m = 2
        out = extract_eigf_coeffs(lambda r, t: np.sin(r) * np.cos(2 * t), 2.0)
        assert out.residual < FIT_TOL
        assert out.modes[1][1:] == pytest.approx((1.0, 0.0), abs=1e-4)

    def test_unmodelled_component_flags_unreliable(self):
        beta = 1.6

        def phi(r, t):
            return r ** (1 / beta) * np.cos(t) + 0.5 * r ** 0.37 * np.cos(3 * t)

        out = extract_eigf_coeffs(phi, beta)
        assert not out.reliable
        assert out.residual > FIT_TOL

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_eigf_coeffs(lambda r, t: r, 0.0)


class TestDirectionCoeffs:
    def test_componentwise_inversion(self):
        beta0 = 2.5
        e = [(1.0, -0.5), (0.25, 0.75)]
        A = [beta0 ** (m / beta0) * complex(*e[m - 1]) for m in (1, 2)]
        d = direction_coeffs(A, beta0)
        for m, (ec, es) in enumerate(e, start=1):
            assert d.modes[m - 1] == pytest.approx((m, ec, es))
        assert d.vector == pytest.approx([1.0, -0.5, 0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            direction_coeffs((0.1,), -1.0)


class TestPairing:
    def test_hand_computed_value(self):
        # beta > 1 rows carry the m weight; beta < 1 rows do not
        row = [eig_row(2.5, [(1, 1.0, 0.0), (2, 0.0, 3.0)]),
               eig_row(0.7, [(1, 2.0, 0.0)])]
        dirs = [DirectionCoeffs(2.5, ((1, 0.5, 0.0), (2, 0.0, 0.25))),
                DirectionCoeffs(0.7, ((1, 4.0, 0.0),))]
        want = 1 * 1.0 * 0.5 + 2 * 3.0 * 0.25 + 2.0 * 4.0
        assert pairing_B([row], dirs) == pytest.approx([want])

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=50)
    def test_bilinear(self, s, ac, ec):
        row = [eig_row(1.5, [(1, ac, 0.3)])]
        dirs = [DirectionCoeffs(1.5, ((1, ec, -0.4),))]
        scaled = [eig_row(1.5, [(1, s * ac, s * 0.3)])]
        assert pairing_B([scaled], dirs)[0] == pytest.approx(
            s * pairing_B([row], dirs)[0], abs=1e-12)

    def test_matrix_action_matches_direct_value(self):
        rows = [[eig_row(2.5, [(1, 0.2, -0.1), (2, 0.4, 0.3)]),
                 eig_row(0.7, [(1, 1.1, 0.6)])],
                [eig_row(2.5, [(1, -0.5, 0.8), (2, 0.0, 0.2)]),
                 eig_row(0.7, [(1, 0.3, -0.9)])]]
        dirs = [DirectionCoeffs(2.5, ((1, 0.5, 0.1), (2, -0.2, 0.25))),
                DirectionCoeffs(0.7, ((1, 0.4, 0.7),))]
        B = pairing_matrix(rows)
        vec = np.concatenate([d.vector for d in dirs])
        assert B.shape == (2, 6)
        assert B @ vec == pytest.approx(pairing_B(rows, dirs))

    def test_mode_count_mismatch_rejected(self):
        row = [eig_row(2.5, [(1, 1.0, 0.0)])]
        dirs = [DirectionCoeffs(2.5, ((1, 1.0, 0.0), (2, 0.0, 1.0)))]
        with pytest.raises(ValueError):
            pairing_B([row], dirs)

    def test_no_rows_pair_to_nothing(self):
        dirs = [DirectionCoeffs(2.5, ((1, 1.0, 0.0),))]
        assert pairing_B([], dirs).shape == (0,)

    def test_overflowing_values_rejected(self):
        # each term is about 1e600
        row = [eig_row(2.0, [(1, 1e300, 1e300), (2, 1e300, 1e300)])]
        dirs = [direction_coeffs((1e300, 1e300), 2.0)]
        with pytest.raises(ValueError, match="leave the float range"):
            pairing_B([row], dirs)

    def test_point_count_mismatch_rejected(self):
        row = [eig_row(2.5, [(1, 1.0, 0.0)])]
        dirs = [DirectionCoeffs(2.5, ((1, 1.0, 0.0),)),
                DirectionCoeffs(0.7, ((1, 4.0, 0.0),))]
        with pytest.raises(ValueError, match="cone-point counts differ"):
            pairing_B([row], dirs)


class TestBoundaryIntegral:
    EPS = (0.05, 0.1, 0.2)

    def test_pure_mode_closed_form(self):
        val = boundary_pairing_integral([(2, 0.7, 0.0)], [(2, 0.3, 0.0)],
                                        self.EPS, beta=2.5)
        assert val == pytest.approx(2.0 * math.pi * 2 * 0.7 * 0.3, rel=1e-12)

    def test_radius_independent_for_matched_modes(self):
        for eps in self.EPS:
            val = boundary_pairing_integral([(1, 1.0, 0.5)], [(1, 0.2, -0.3)],
                                            (eps, 2 * eps), beta=1.5)
            want = 2.0 * math.pi * (1.0 * 0.2 + 0.5 * (-0.3))
            assert val == pytest.approx(want, rel=1e-12)

    def test_orthogonal_families_pair_to_zero(self):
        val = boundary_pairing_integral([(1, 1.0, 0.0)], [(1, 0.0, 1.0)],
                                        self.EPS, beta=1.5)
        assert abs(val) < 1e-12

    def test_constants_drop_out(self):
        val = boundary_pairing_integral([(0, 2.0, 0.0), (1, 1.0, 0.0)],
                                        [(0, -3.0, 0.0), (1, 0.5, 0.0)],
                                        self.EPS, beta=1.5)
        assert val == pytest.approx(2.0 * math.pi * 0.5, rel=1e-12)

    def test_random_expansion_closed_form(self):
        rng = np.random.default_rng(5)
        beta = 2.7
        phi = [(m, rng.normal(), rng.normal()) for m in range(3)]
        vdot = [(m, rng.normal(), rng.normal()) for m in range(3)]
        want = 2.0 * math.pi * sum(m * (ac * ec + asn * es)
                                   for (m, ac, asn), (_, ec, es)
                                   in zip(phi, vdot))
        val = boundary_pairing_integral(phi, vdot, self.EPS, beta)
        assert val == pytest.approx(want, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_pairing_integral([(1, 1, 0)], [(1, 1, 0)], (0.1,), 1.5)
        with pytest.raises(ValueError):
            boundary_pairing_integral([(1, 1, 0)], [(1, 1, 0)], (0.1, -0.2),
                                      1.5)

    def test_mismatched_exponents_do_not_converge(self):
        # r^{1/beta} against r^{-1.5/beta}: the integrand grows like
        # eps^{-0.5/beta}, so no limit exists as eps -> 0
        with pytest.raises(ValueError, match="did not converge"):
            boundary_pairing_integral([(1, 1.0, 0.0)], [(1.5, 1.0, 0.0)],
                                      self.EPS, beta=1.5)


class TestSolutionSpace:
    def test_zero_matrix_with_certified_atol(self):
        B = np.full((2, 6), 1e-15)
        V, rep = solution_space(B, atol=1e-8)
        assert rep["rank"] == 0
        assert rep["dim"] == 6
        assert V.shape == (6, 6)

    def test_full_rank_random(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((3, 8))
        V, rep = solution_space(B)
        assert rep["rank"] == 3
        assert rep["dim"] == 5
        assert np.max(np.abs(B @ V)) < 1e-12
        # kernel basis is orthonormal
        assert np.allclose(V.T @ V, np.eye(5), atol=1e-12)

    def test_rank_zero_kernel_is_identity(self):
        B = np.full((1, 4), 1e-16)
        V, rep = solution_space(B, atol=1e-8)
        assert rep["rank"] == 0
        assert np.array_equal(V, np.eye(4))

    def test_zero_matrix_kernel_is_identity(self):
        V, rep = solution_space(np.zeros((1, 4)))
        assert (rep["rank"], rep["dim"]) == (0, 4)
        assert np.array_equal(V, np.eye(4))

    def test_kernel_basis_ignores_rounding(self):
        # the SVD's kernel vectors of a rank-2 matrix with a 6-dimensional
        # kernel turn with the rounding; the reported basis must not
        rng = np.random.default_rng(3)
        B = np.zeros((3, 8))
        B[1, [2, 6]] = 0.69
        B[2, [3, 7]] = 0.69
        V, rep = solution_space(B)
        assert rep["rank"] == 2
        for _ in range(3):
            W, _ = solution_space(B + 1e-15 * rng.standard_normal(B.shape))
            assert np.max(np.abs(W - V)) < 1e-12
        expected = np.zeros((8, 6))
        for k, i in enumerate((0, 1, 4, 5)):
            expected[i, k] = 1.0
        expected[[2, 6], 4] = (math.sqrt(0.5), -math.sqrt(0.5))
        expected[[3, 7], 5] = (math.sqrt(0.5), -math.sqrt(0.5))
        assert np.max(np.abs(V - expected)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            solution_space([[1.0, bad]])

    def test_rank_plus_dim_is_column_count(self):
        rng = np.random.default_rng(2)
        for rows, cols in [(1, 4), (5, 4), (2, 2)]:
            B = rng.standard_normal((rows, cols))
            _, rep = solution_space(B)
            assert rep["rank"] + rep["dim"] == cols


class TestCounts:
    def test_mixed_angles(self):
        assert direction_counts((2.5, 0.7)) == (3, 2, 1)

    def test_football_large_angle(self):
        # K = 2 [beta] at both poles
        assert direction_counts((2.5, 2.5)) == (4, 4, 2)

    def test_football_small_angle(self):
        assert direction_counts((0.8, 0.8)) == (2, 0, 0)

    @pytest.mark.parametrize("beta", [1 + 5e-10, 1.9999999995, 2.0,
                                      2.0000000008, 2.5, 3 - 2e-10])
    def test_near_integer_agrees_with_splitting_spec(self, beta):
        # each point splits into [beta] points when weighted, else stays
        n = max(1, int_part(beta))
        cluster = [beta] if n == 1 else [1 + (beta - 1) / n] * n
        spec = splitting_spec(AngleVector(0, (beta, beta)), cluster * 2)
        K, K0, k0 = direction_counts((beta, beta))
        assert (K, k0) == (sum(spec.cluster_sizes), spec.k0)
        assert K0 == (K if k0 else 0)     # both points weighted, or neither

    def test_validation(self):
        with pytest.raises(ValueError):
            direction_counts((1.5, -0.5))


class TestClassify:
    def test_unobstructed(self):
        out = classify_case(ell=0, K=3, K0=2, rank=0)
        assert out == {"case": "unobstructed", "dim": 6}

    def test_rigidity(self):
        out = classify_case(ell=4, K=2, K0=2, rank=4)
        assert out == {"case": "rigidity", "dim": 0}

    def test_partial_rigidity(self):
        out = classify_case(ell=1, K=3, K0=2, rank=1)
        assert out == {"case": "partial_rigidity", "dim": 5}

    def test_degenerate_football_pairing(self):
        # rank below ell enlarges the solution space
        out = classify_case(ell=3, K=4, K0=4, rank=0)
        assert out["dim"] == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_case(ell=-1, K=3, K0=2, rank=0)
        with pytest.raises(ValueError):
            classify_case(ell=1, K=3, K0=2, rank=2)
        with pytest.raises(ValueError):
            classify_case(ell=9, K=3, K0=2, rank=3)


class TestVdotFlatness:
    A3 = (0.2, 0.1j, 0.3)

    def test_low_derivatives_vanish_identically_J2(self):
        assert vdot_vanishing_check((0.3, 0.2), 2, 1, h=1e-2) == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_low_derivative_residual_decays_J3(self, k):
        res = [vdot_vanishing_check(self.A3, 3, k, h=h)
               for h in (2e-2, 1e-2)]
        assert res[0] < 1e-3
        assert res[1] < 0.3 * res[0]

    def test_top_derivative_limit(self):
        assert vdot_limit_residual((0.3 + 0.2j, 0.25), 2) < 1e-6
        assert vdot_limit_residual(self.A3, 3) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            vdot_vanishing_check(self.A3, 2, 1)      # wrong coefficient count
        with pytest.raises(ValueError):
            vdot_vanishing_check(self.A3, 3, 0)      # order out of range
        with pytest.raises(ValueError):
            vdot_vanishing_check(self.A3, 3, 4)
        with pytest.raises(ValueError, match="need J polynomial"):
            vdot_limit_residual(self.A3, 2)     # wrong coefficient count

