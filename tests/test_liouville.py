import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from conemetric.liouville import (ConicProblem, SolverError,
                                  friedrichs_fit, linearized_operator,
                                  projected_solve, singular_background,
                                  solve_liouville, spectrum_near_two,
                                  sphere_point, _exp_map)

ANTIPODAL = ((0.0, 0.0), (math.pi, 0.0))
EQUATOR3 = ((math.pi / 2, 0.0), (math.pi / 2, 2 * math.pi / 3),
            (math.pi / 2, 4 * math.pi / 3))


def football_problem(beta):
    return ConicProblem("sphere", points=ANTIPODAL, beta=(beta, beta))


def stereographic_density(beta, phi):
    """e^{2u} of the exact football relative to the round metric."""
    t = np.tan(phi / 2.0)
    return (beta ** 2 * t ** (2.0 * beta - 2.0) * (1.0 + t * t) ** 2
            / (1.0 + t ** (2.0 * beta)) ** 2)


@pytest.fixture(scope="module")
def football17():
    return solve_liouville(football_problem(1.7), {"n": 256})


@pytest.fixture(scope="module")
def sphere2d():
    prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
    return solve_liouville(prob, {"n": 72})


class TestSingularBackground:
    def test_single_point_log_singularity(self):
        prob = ConicProblem("sphere", points=((0.0, 0.0),), beta=(2.0,))
        v = singular_background(prob)
        d = 0.01
        x = _exp_map(np.array([0.0, 0.0, 1.0]), np.array(d), np.array(0.0))
        assert float(v(x)) == pytest.approx(math.log(2.0 * math.sin(d / 2)),
                                            abs=1e-10)
        assert v.bulk_laplacian() == pytest.approx(-0.5)

    def test_trivial_angle_gives_zero_field(self):
        # beta = 1 is a removable point: no log term, unit density
        prob = ConicProblem("sphere", points=((0.3, 0.1),), beta=(1.0,))
        v = singular_background(prob)
        xs = np.stack([sphere_point(c, l)
                       for c, l in [(0.5, 0.2), (1.5, 3.0), (2.8, 5.0)]])
        assert np.max(np.abs(v(xs))) == 0.0
        assert v.density(xs) == pytest.approx(np.ones(3))

    def test_density_matches_chord_product(self):
        prob = ConicProblem("sphere", points=ANTIPODAL, beta=(0.8, 1.4))
        v = singular_background(prob)
        x = sphere_point(1.1, 0.7)
        mN = 2.0 * math.sin(1.1 / 2.0)
        mS = 2.0 * math.sin((math.pi - 1.1) / 2.0)
        want = mN ** (2 * (0.8 - 1.0)) * mS ** (2 * (1.4 - 1.0))
        assert float(v.density(x)) == pytest.approx(want, rel=1e-12)

    def test_sphere_only(self):
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=0)
        with pytest.raises(ValueError):
            singular_background(prob)


class TestProblemValidation:
    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            ConicProblem("sphere", points=((0.5, 0.1), (0.5, 0.1)),
                         beta=(0.8, 0.8))

    @pytest.mark.parametrize("points,beta", [
        (ANTIPODAL, (math.nan, math.nan)),
        (ANTIPODAL, (math.inf, math.inf)),
        (((math.nan, 0.0), (math.pi, 0.0)), (0.8, 0.8)),
    ])
    def test_nonfinite_input_rejected(self, points, beta):
        with pytest.raises(ValueError):
            ConicProblem("sphere", points=points, beta=beta)

    @pytest.mark.parametrize("n", [2, 3, 257])
    def test_football_mesh_rule(self, n):
        # the equator must be a cell face of a grid with >= 2 half cells
        with pytest.raises(ValueError, match="even n >= 4"):
            solve_liouville(football_problem(1.7), {"n": n})

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConicProblem("sphere", points=ANTIPODAL, beta=(0.8,))

    def test_existence_flags(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
        assert prob.flags == {"troyanov": True, "subcritical": True}

    def test_chi(self):
        assert football_problem(1.7).chi == pytest.approx(2 * 1.7)


class TestFootballSolve:
    def test_converged(self, football17):
        assert football17.residual < 1e-9

    def test_matches_stereographic_oracle(self, football17):
        phi = football17.mesh["phi"]
        exact = stereographic_density(1.7, phi)
        assert np.max(np.abs(football17.density() / exact - 1.0)) < 5e-4

    def test_small_angle_oracle(self):
        m = solve_liouville(football_problem(0.8), {"n": 256})
        phi = m.mesh["phi"]
        exact = stereographic_density(0.8, phi)
        assert np.max(np.abs(m.density() / exact - 1.0)) < 1e-5

    def test_fine_mesh_small_angle_converges(self):
        # at n = 4096 the residual stagnates near 1e-9, the rounding floor
        m = solve_liouville(football_problem(0.8), {"n": 4096})
        assert m.residual < 8e-9

    def test_gauss_bonnet_convergence(self):
        prob = football_problem(1.7)
        errs = [abs(solve_liouville(prob, {"n": n}).area()
                    - 2 * math.pi * prob.chi) for n in (128, 256)]
        assert errs[0] < 1e-3
        assert math.log2(errs[0] / errs[1]) >= 1.8


class TestSphere2dSolve:
    def test_converged(self, sphere2d):
        assert sphere2d.residual < 1e-9

    def test_gauss_bonnet(self, sphere2d):
        chi = sphere2d.problem.chi
        assert chi == pytest.approx(0.8)
        assert abs(sphere2d.area() - 2 * math.pi * chi) < 1e-3

    def test_gauss_bonnet_order(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
        errs = [abs(solve_liouville(prob, {"n": n}).area()
                    - 2 * math.pi * prob.chi) for n in (48, 96)]
        assert math.log2(errs[0] / errs[1]) >= 1.8


class TestDiskSolve:
    def test_flat_cone_recovered_exactly(self):
        # Dirichlet data from the exact flat cone makes w = 0 a fixed point
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=0)
        m = solve_liouville(prob, {"n": 64})
        assert np.max(np.abs(m.w)) == 0.0

    def test_hyperbolic_disk_converges(self):
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=-1)
        m = solve_liouville(prob, {"n": 64})
        assert m.residual < 1e-9
        assert np.max(np.abs(m.w)) > 0.2


class TestSolveDispatch:
    def test_disk_rejects_positive_curvature(self):
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=1)
        with pytest.raises(SolverError):
            solve_liouville(prob)

    def test_sphere_requires_unit_curvature(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6),
                            curvature=0)
        with pytest.raises(SolverError):
            solve_liouville(prob)

    def test_large_angle_nonfootball_rejected(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(1.5, 0.6, 0.6))
        with pytest.raises(SolverError):
            solve_liouville(prob)

    def test_supercritical_rejected(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.95, 0.9, 0.2))
        with pytest.raises(SolverError):
            solve_liouville(prob)


class TestLinearizedOperator:
    def test_football_mode_spectra_match_closed_form(self, football17):
        op = linearized_operator(football17)
        beta = 1.7
        for j in (0, 1, 2):
            A, B = op.mode_matrices(j)
            vals = sorted(eigsh(A, k=4, M=B, sigma=-0.1, which="LM")[0])
            exact = [(j / beta + ell) * (j / beta + ell + 1.0)
                     for ell in range(4)]
            assert np.max(np.abs(np.array(vals) - exact)) < 2e-2

    def test_constants(self, football17):
        op = linearized_operator(football17)
        out = op.apply_axisym(np.ones(football17.n))
        assert np.max(np.abs(out + 2.0)) == 0.0

    def test_eigenfunction_cos_r(self, football17):
        # cos r on the football in round coordinates
        beta = 1.7
        n = football17.n
        h = math.pi / n
        phi = (np.arange(n) + 0.5) * h
        t = np.tan(phi / 2.0)
        f = (1.0 - t ** (2 * beta)) / (1.0 + t ** (2 * beta))
        op = linearized_operator(football17)
        out = op.apply_axisym(f)
        # second-order pointwise accuracy degrades within O(h log h) of the
        # poles where the profile is only Hoelder; check away from them
        interior = slice(n // 8, -n // 8)
        assert np.max(np.abs(out[interior])) < 1e-3

    def test_2d_stiffness_symmetric(self, sphere2d):
        A, B = linearized_operator(sphere2d).matrices()
        assert abs(A - A.T).max() < 1e-12

    def test_fd_consistency_of_linearization(self, football17):
        # directional derivative of the residual map vs central differences
        from scipy import sparse
        m = football17
        n, h = m.n, math.pi / m.n
        phi = (np.arange(n) + 0.5) * h
        rho0 = m.density(full=True)
        faces = np.sin(np.arange(n + 1) * h)
        centers = np.sin(phi)
        lo, hi = faces[:-1] / h ** 2, faces[1:] / h ** 2
        L = sparse.diags([lo[1:] / centers[1:], -(lo + hi) / centers,
                          hi[:-1] / centers[:-1]], [-1, 0, 1], format="csc")

        def residual(u):
            return L @ u + rho0 * np.exp(2.0 * u) - rho0

        v = np.random.default_rng(0).standard_normal(n)
        eps = 1e-6
        fd = (residual(eps * v) - residual(-eps * v)) / (2.0 * eps)
        lin = L @ v + 2.0 * rho0 * v
        assert np.max(np.abs(fd - lin)) / np.max(np.abs(lin)) < 1e-5

    def test_kind_validation(self, football17, sphere2d):
        with pytest.raises(ValueError):
            linearized_operator(football17).matrices()
        with pytest.raises(ValueError):
            linearized_operator(sphere2d).mode_matrices(0)


class TestSpectrumNearTwo:
    def test_noninteger_football(self, football17):
        fib = spectrum_near_two(football17)
        assert fib.ell == 1
        assert abs(fib.eigenvalues_near_2[0] - 2.0) < 1e-3

    def test_integer_football(self):
        m = solve_liouville(football_problem(2.0), {"n": 128})
        fib = spectrum_near_two(m)
        assert fib.ell == 3

    def test_subcritical_has_empty_fiber(self, sphere2d):
        fib = spectrum_near_two(sphere2d)
        assert fib.ell == 0
        assert fib.eigenvalues_near_2 == []

    def test_subcritical_first_eigenvalue_above_two(self, sphere2d):
        A, B = linearized_operator(sphere2d).matrices()
        vals = sorted(eigsh(A, k=3, M=B, sigma=-0.1, which="LM")[0])
        assert vals[0] == pytest.approx(0.0, abs=1e-8)   # constants
        assert vals[1] > 2.0


class TestProjectedSolve:
    def test_spherical_base_is_exact_zero(self, football17):
        fib = spectrum_near_two(football17)
        u, lam = projected_solve(football17, fib)
        assert np.max(np.abs(u)) == 0.0
        assert np.max(np.abs(lam)) == 0.0

    def test_fiber_direction_perturbation_linear_response(self, football17):
        fib = spectrum_near_two(football17)
        n = football17.n
        phi = (np.arange(n) + 0.5) * (math.pi / n)
        out = {}
        for d in (1e-2, 1e-3):
            u, lam = projected_solve(football17, fib,
                                     density_perturbation=d * np.cos(phi))
            assert np.max(np.abs(u)) < 0.5 * d
            assert abs(lam[0]) < 1e-3 * d
            out[d] = (np.max(np.abs(u)), lam[0])
        # both the remainder and the coefficient scale linearly in delta
        assert out[1e-2][0] / out[1e-3][0] == pytest.approx(10.0, rel=0.05)
        assert out[1e-2][1] / out[1e-3][1] == pytest.approx(10.0, rel=0.05)

    def test_orthogonal_perturbation_is_pure_gauge(self, football17):
        # e^{2 delta p} g is conformally round, so u ~ -delta p, Lambda ~ 0
        fib = spectrum_near_two(football17)
        n = football17.n
        phi = (np.arange(n) + 0.5) * (math.pi / n)
        d = 1e-2
        u, lam = projected_solve(football17, fib,
                                 density_perturbation=d * np.cos(2 * phi))
        assert np.max(np.abs(u)) < 1.5 * d
        assert abs(lam[0]) < 1e-12

    def test_requires_football(self, sphere2d):
        fib = spectrum_near_two(sphere2d)
        with pytest.raises(NotImplementedError):
            projected_solve(sphere2d, fib)


class TestFriedrichsFit:
    def test_remainder_decays_quadratically(self, sphere2d):
        for i in range(3):
            fit = friedrichs_fit(sphere2d, i)
            assert fit.slope >= 1.9
            assert np.all(np.diff(fit.residuals) > 0)

    def test_symmetry_across_equivalent_points(self, sphere2d):
        a0 = [friedrichs_fit(sphere2d, i).a0 for i in range(3)]
        assert max(a0) - min(a0) < 1e-10

    def test_indicial_exponent_set(self, sphere2d):
        fit = friedrichs_fit(sphere2d, 0)
        # 2 beta = 1.2, so a single indicial pair with exponent 1/beta
        assert len(fit.indicial) == 1
        assert fit.indicial[0][0] == pytest.approx(1.0 / 0.6)
