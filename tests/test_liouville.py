import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse._base import _spbase
from scipy.sparse.linalg import eigsh, gmres, spsolve
from scipy.sparse.linalg._dsolve import _superlu

from conemetric import liouville, spectrum
from conemetric.liouville import (ConicProblem, SolverError,
                                  friedrichs_fit, projected_solve,
                                  solve_liouville, spectrum_near_two,
                                  sphere_point, _assemble_laplacian,
                                  _background_density, _band_stiffness,
                                  _chord, _correction, _corrected,
                                  _football_modes, _lon_fft_stiffness,
                                  _shift_solver)
from conemetric.spectrum import (FluxForm, football_eigenvalues,
                                 tridiag_matvec, tridiag_pencil_eigs)

ANTIPODAL = ((0.0, 0.0), (math.pi, 0.0))
EQUATOR3 = ((math.pi / 2, 0.0), (math.pi / 2, 2 * math.pi / 3),
            (math.pi / 2, 4 * math.pi / 3))
TETRAHEDRON = tuple((math.acos(z / math.sqrt(3.0)), math.atan2(y, x))
                    for x, y, z in ((1, 1, 1), (1, -1, -1), (-1, 1, -1),
                                    (-1, -1, 1)))


def football_problem(beta):
    return ConicProblem("sphere", points=ANTIPODAL, beta=(beta, beta))


def stereographic_density(beta, phi):
    """e^{2u} of the exact football relative to the round metric."""
    t = np.tan(phi / 2.0)
    return (beta ** 2 * t ** (2.0 * beta - 2.0) * (1.0 + t * t) ** 2
            / (1.0 + t ** (2.0 * beta)) ** 2)


@pytest.fixture(scope="module")
def football17():
    return solve_liouville(football_problem(1.7), 256)


@pytest.fixture(scope="module")
def sphere2d():
    prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
    return solve_liouville(prob, 72)


def pencil_matrices(bands, b):
    """A football mode of ``_football_modes``, given by its (sub, diag,
    sup) bands and b, as the sparse matrices (A, diag(b))."""
    return sparse.diags(bands, [-1, 0, 1]), sparse.diags(b)


def pencil_2d(metric):
    """The one pencil of a 2-D solve as the sparse matrices (A, diag(b)):
    the stiffness and the mass M e^{2u} that ``spectrum_near_two`` reads."""
    return metric.mesh["A"], sparse.diags(
        (metric.mesh["measure"] * metric.density()).ravel())


def all_pencils(metric):
    """Every pencil ``spectrum_near_two`` solves, as sparse (A, diag(b))."""
    if metric.kind == "football":
        return [pencil_matrices(bands, b)
                for _, bands, b in _football_modes(metric)]
    return [pencil_2d(metric)]


def background_density(points, beta, x):
    """e^{2v} at x for the log terms v of cone points (colat, lon)."""
    return _background_density([_chord(x, sphere_point(*p))
                                for p in points], beta)


class TestSingularBackground:
    def test_trivial_angle_gives_zero_field(self):
        # beta = 1 is a removable point: no log term, unit density
        xs = np.stack([sphere_point(c, l)
                       for c, l in [(0.5, 0.2), (1.5, 3.0), (2.8, 5.0)]])
        density = background_density(((0.3, 0.1),), (1.0,), xs)
        assert np.max(np.abs(0.5 * np.log(density))) == 0.0
        assert density == pytest.approx(np.ones(3))

    def test_density_matches_chord_product(self):
        x = sphere_point(1.1, 0.7)
        mN = 2.0 * math.sin(1.1 / 2.0)
        mS = 2.0 * math.sin((math.pi - 1.1) / 2.0)
        want = mN ** (2 * (0.8 - 1.0)) * mS ** (2 * (1.4 - 1.0))
        assert float(background_density(ANTIPODAL, (0.8, 1.4), x)) \
            == pytest.approx(want, rel=1e-12)


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
            solve_liouville(football_problem(1.7), n)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("problem", [
        ConicProblem("disk", points=((0.0,),), beta=(0.7,), curvature=-1),
        football_problem(1.7),
        ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.7, 0.8)),
    ], ids=["disk", "football", "2d"])
    def test_nonpositive_mesh_rejected(self, problem, n):
        with pytest.raises(ValueError, match="mesh size must be positive"):
            solve_liouville(problem, n)

    @pytest.mark.parametrize("n", [100.7, 96.0, True, "96", None])
    def test_non_integer_mesh_rejected(self, n):
        # no rounding, no parsing, and no default mesh
        with pytest.raises(ValueError, match="mesh size must be an integer"):
            solve_liouville(football_problem(1.7), n)

    def test_sphere_points_are_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            ConicProblem("sphere", points=((0.0,), (math.pi, 0.0)),
                         beta=(1.7, 1.7))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConicProblem("sphere", points=ANTIPODAL, beta=(0.8,))

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.0, 0.0, 0.0)])
    def test_disk_points_are_radii(self, point):
        with pytest.raises(ValueError, match="disk points are single radii"):
            ConicProblem("disk", points=(point,), beta=(0.7,), curvature=0)

    @pytest.mark.parametrize("background,curvature,message", [
        ("plane", 1, "background must be 'sphere' or 'disk'"),
        ("sphere", 2, "curvature must be -1, 0 or 1"),
    ], ids=["background", "curvature"])
    def test_unknown_background_or_curvature_rejected(self, background,
                                                      curvature, message):
        with pytest.raises(ValueError, match=message):
            ConicProblem(background, points=ANTIPODAL, beta=(1.7, 1.7),
                         curvature=curvature)

    def test_chi(self):
        assert football_problem(1.7).chi == pytest.approx(2 * 1.7)

    @pytest.mark.parametrize("beta", [1e-9, 1e-10, 1e-300])
    def test_angle_counting_as_zero_rejected(self, beta):
        # within INT_TOL of 0, as angles.is_integer and int_part read it
        with pytest.raises(ValueError, match="counts as the integer 0"):
            ConicProblem("sphere", points=ANTIPODAL, beta=(beta, beta))
        with pytest.raises(ValueError, match="counts as the integer 0"):
            ConicProblem("disk", points=((0.0,),), beta=(beta,),
                         curvature=-1)
        assert ConicProblem("sphere", points=ANTIPODAL,
                            beta=(2e-9, 2e-9)).is_football


class TestFootballSolve:
    def test_converged(self, football17):
        assert football17.residual < 1e-9

    def test_matches_stereographic_oracle(self, football17):
        phi = football17.mesh["phi"]
        exact = stereographic_density(1.7, phi)
        assert np.max(np.abs(football17.density() / exact - 1.0)) < 5e-4

    def test_small_angle_oracle(self):
        m = solve_liouville(football_problem(0.8), 256)
        phi = m.mesh["phi"]
        exact = stereographic_density(0.8, phi)
        assert np.max(np.abs(m.density() / exact - 1.0)) < 1e-5

    def test_fine_mesh_small_angle_converges(self):
        # at n = 4096 the residual stagnates near 1e-9, the rounding floor
        m = solve_liouville(football_problem(0.8), 4096)
        assert m.residual < 8e-9

    @pytest.mark.parametrize("beta", [1.7, 0.7])
    def test_angles_equal_within_int_tol_solve_as_a_football(self, beta):
        # the equal-angle rule of angles.same_angle, as troyanov_check reads
        ref = solve_liouville(football_problem(beta), 256)
        prob = ConicProblem("sphere", ANTIPODAL, (beta, beta + 1e-10))
        assert prob.is_football
        m = solve_liouville(prob, 256)
        assert m.kind == "football"
        assert m.area() == pytest.approx(ref.area(), rel=1e-8)
        assert spectrum_near_two(m).eigenvalues_near_2 == pytest.approx(
            spectrum_near_two(ref).eigenvalues_near_2, rel=1e-8)

    def test_gauss_bonnet_convergence(self):
        prob = football_problem(1.7)
        errs = [abs(solve_liouville(prob, n).area()
                    - 2 * math.pi * prob.chi) for n in (128, 256)]
        assert errs[0] < 1e-3
        assert math.log2(errs[0] / errs[1]) >= 1.8


class TestConvergedDensity:
    @pytest.mark.parametrize("beta,n", [((1.7, 1.7), 256),
                                        ((0.6, 0.7, 0.8), 48)])
    def test_density_is_the_newton_density(self, beta, n):
        # the stored density is e^{2v} e^{2(s + w)} of the returned w and
        # A_j, with s = sum_j A_j sigma_j summed as the Newton residual sums
        points = ANTIPODAL if len(beta) == 2 else EQUATOR3
        m = solve_liouville(ConicProblem("sphere", points, beta), n)
        chords = m.mesh["chords"]
        sig = np.reshape([f.ravel() for f, _ in _correction(chords, beta)],
                         (-1, m.w.size))
        s = np.take(m.sing_coeffs, _corrected(beta)) @ sig
        want = _background_density(chords, beta) \
            * np.exp(2.0 * (s.reshape(m.w.shape) + m.w))
        assert np.all(np.abs(m.density() - want) <= 4 * np.spacing(want))

    def test_reports_evaluate_no_density_again(self, football17, sphere2d,
                                               monkeypatch):
        def again(*args):
            raise AssertionError("the density was evaluated again")
        monkeypatch.setattr(liouville, "_background_density", again)
        monkeypatch.setattr(liouville, "_correction", again)
        for m in (football17, sphere2d):
            m.area()
            spectrum_near_two(m)
        projected_solve(football17, spectrum_near_two(football17))

    def test_full_football_density_mirrors_the_solve(self, football17):
        rho = football17.density(full=True)
        assert np.array_equal(rho[:128], football17.density())
        assert np.array_equal(rho[128:], football17.density()[::-1])

    def test_disk_has_no_density(self):
        m = solve_liouville(ConicProblem("disk", points=((0.0,),),
                                         beta=(0.7,), curvature=-1),
                            16)
        with pytest.raises(ValueError, match="closed solves only"):
            m.density()


class TestUnderflowedDensity:
    def test_tiny_angle_football_is_solver_error(self):
        # at beta = 1e-3, n = 16 Newton drives w to about -4e12; the row
        # tolerance floor (1 + sup|w|) then passes the residual of a density
        # that is 0 in every cell, with area 0 against 4 pi beta
        with pytest.raises(SolverError, match="not positive in every cell"):
            solve_liouville(football_problem(1e-3), 16)


class TestSingularNewtonStep:
    """Every solver's Newton step goes through damped_newton, which turns a
    singular Jacobian into a SolverError carrying the residual."""

    def test_small_angle_football(self):
        # at beta = 0.005, n = 16 the Jacobian K - diag(2 W rho) of a step
        # is exactly singular
        with pytest.raises(SolverError, match="^singular tridiagonal "
                           "matrix in a Newton step$") as exc:
            solve_liouville(football_problem(0.005), 16)
        assert np.isfinite(exc.value.residual) and exc.value.residual > 0.0

    def test_disk_and_projected_steps(self, monkeypatch, football17):
        fib = spectrum_near_two(football17)
        delta = 1e-2 * np.cos(football17.mesh["form"].centre)

        def singular(*args):
            raise np.linalg.LinAlgError("singular tridiagonal matrix")
        monkeypatch.setattr(liouville, "tridiag_solver", singular)
        disk = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=-1)
        for solve in (lambda: solve_liouville(disk, 64),
                      lambda: projected_solve(football17, fib, delta)):
            with pytest.raises(SolverError, match="in a Newton step$") \
                    as exc:
                solve()
            assert exc.value.residual > 0.0


SYM_POINTS = ((1.0, 0.7), (2.0, 2.9), (1.4, 4.6))
SYM_BETA = (0.6, 0.7, 0.8)


def symmetry_report(order, image, n=48):
    """(area, eigenvalues near 2, sing_coeffs) of the 2-D solve of the
    points SYM_POINTS[order] mapped by image, with their angles."""
    m = solve_liouville(ConicProblem(
        "sphere", points=[image(*SYM_POINTS[k]) for k in order],
        beta=[SYM_BETA[k] for k in order]), n)
    return m.area(), spectrum_near_two(m).eigenvalues_near_2, m.sing_coeffs


@pytest.fixture(scope="module")
def symmetry_base():
    return symmetry_report((0, 1, 2), lambda c, l: (c, l))


class TestExactSymmetry:
    """The n x 2n lat-lon grid maps onto itself under a relabelling of the
    points, a longitude shift by whole cells and the two reflections, so
    the 2-D solve must give the same answer up to rounding."""

    @pytest.mark.parametrize("order,image", [
        ((2, 0, 1), lambda c, l: (c, l)),
        ((0, 1, 2), lambda c, l: (c, l + 3.0 * math.pi / 48)),
        ((0, 1, 2), lambda c, l: (math.pi - c, l)),
        ((0, 1, 2), lambda c, l: (c, 2.0 * math.pi - l)),
    ], ids=["permute", "shift-3-cells", "reflect-colatitude",
            "reflect-longitude"])
    def test_grid_symmetry(self, symmetry_base, order, image):
        area, eigs, coeffs = symmetry_report(order, image)
        base_area, base_eigs, base_coeffs = symmetry_base
        assert area == pytest.approx(base_area, rel=1e-10, abs=0.0)
        np.testing.assert_allclose(eigs, base_eigs, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(coeffs, [base_coeffs[k] for k in order],
                                   rtol=1e-10, atol=0.0)


def rotated(points, axis=(0.3, -0.5, 0.8), angle=0.77):
    """The (colatitude, longitude) points turned about axis by angle
    (Rodrigues' formula)."""
    k = np.asarray(axis) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]],
                      [-k[1], k[0], 0.0]])
    R = np.eye(3) + math.sin(angle) * cross \
        + (1.0 - math.cos(angle)) * cross @ cross
    out = []
    for p in points:
        x = R @ sphere_point(*p)
        out.append((math.acos(np.clip(x[2], -1.0, 1.0)),
                    math.atan2(x[1], x[0]) % (2.0 * math.pi)))
    return out


class TestRotation:
    """A rotation of the round sphere is an isometry, so it changes a 2-D
    solve only by the discretization error, which must fall with n.  The
    area is read; the A_j and the eigenvalue near 2 of the SYM input do not
    yet converge monotonically between these meshes (ROADMAP item 10)."""

    @pytest.mark.parametrize("points,beta", [
        (SYM_POINTS, SYM_BETA), (EQUATOR3, (0.6, 0.6, 0.6))],
        ids=["sym", "equator"])
    def test_frame_difference_falls(self, points, beta):
        diff = []
        for n in (48, 96):
            area, turned = (solve_liouville(ConicProblem(
                "sphere", points=p, beta=beta), n).area()
                for p in (points, rotated(points)))
            diff.append(abs(turned - area) / area)
        assert diff[0] >= 3.0 * diff[1]

    @pytest.mark.parametrize("beta", [0.7, 1.7])
    @pytest.mark.parametrize("colat,lon", [(1.2, 0.3), (0.3, 1.0)])
    def test_antipodal_pair_is_a_football_in_any_frame(self, colat, lon,
                                                       beta):
        # the rounded x.y of these pairs sits one ulp above -1, where
        # arccos(x.y) reads pi - 1.5e-8
        def report(points):
            m = solve_liouville(ConicProblem("sphere", points, (beta, beta)),
                                512)
            return m.kind, m.area(), spectrum_near_two(m).eigenvalues_near_2

        kind, area, eigs = report(((colat, lon),
                                   (math.pi - colat, lon + math.pi)))
        assert kind == "football"
        assert (area, eigs) == report(ANTIPODAL)[1:]


class TestSphere2dSolve:
    def test_converged(self, sphere2d):
        assert sphere2d.residual < 1e-9

    def test_gauss_bonnet(self, sphere2d):
        chi = sphere2d.problem.chi
        assert chi == pytest.approx(0.8)
        assert abs(sphere2d.area() - 2 * math.pi * chi) < 1e-3

    def test_gauss_bonnet_order(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
        errs = [abs(solve_liouville(prob, n).area()
                    - 2 * math.pi * prob.chi) for n in (48, 96)]
        assert math.log2(errs[0] / errs[1]) >= 1.8

    def test_cone_point_next_to_a_grid_sample(self):
        # the third point sits 0.005 cells from a cell centre at n = 96
        prob = ConicProblem("sphere", points=(
            (1.718030815583588, 6.135759968549558),
            (0.5563455250063225, 3.763055441353943),
            (2.3496830622891625, 2.4520539537246813)), beta=(0.6, 0.6, 0.6))
        m = solve_liouville(prob, 96)
        assert m.sing_coeffs == pytest.approx([0.27745] * 3, abs=1e-5)
        assert abs(m.area() - 2 * math.pi * prob.chi) < 1e-3

    def test_unequal_angles(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.7, 0.8))
        errs = [abs(solve_liouville(prob, n).area()
                    - 2 * math.pi * prob.chi) for n in (48, 96)]
        assert errs[0] < 3e-3
        assert math.log2(errs[0] / errs[1]) >= 1.8

    @pytest.mark.parametrize("n", [48, 144])
    def test_converged_is_a_newton_fixed_point(self, n, monkeypatch):
        # two more full Newton steps move the returned solve by round-off
        newton = liouville.damped_newton

        def continued(residual, step, x0, tol, floor):
            x, res = newton(residual, step, x0, tol, floor)
            for _ in range(2):
                x = x + step(x, residual(x))
            return x, res

        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
        m = solve_liouville(prob, n)
        monkeypatch.setattr(liouville, "damped_newton", continued)
        ref = solve_liouville(prob, n)
        assert np.max(np.abs(m.w - ref.w)) < 1e-9
        assert np.max(np.abs(np.subtract(m.sing_coeffs, ref.sing_coeffs))) \
            < 1e-9


class TestDampedNewton:
    @pytest.mark.parametrize("merit", [1.5, 7.5])
    def test_stalled_line_search_is_an_error(self, merit):
        # no halving lowers a merit between 1 and 8: that is not convergence
        with pytest.raises(SolverError, match="line search stalled"):
            liouville.damped_newton(lambda x: np.full(3, merit * 1e-9),
                                    lambda x, F: np.ones(3), np.zeros(3),
                                    1e-9, 0.0)

    def test_unconverged_after_max_newton_steps_is_an_error(self):
        # every step halves the residual x: the merit falls at each of the
        # MAX_NEWTON steps and still ends far above 1
        steps = []

        def step(x, F):
            steps.append(x)
            return -0.5 * F
        with pytest.raises(SolverError, match="Newton did not converge") \
                as exc:
            liouville.damped_newton(lambda x: x, step, np.ones(3), 1e-300,
                                    0.0)
        assert len(steps) == liouville.MAX_NEWTON
        assert exc.value.residual == 2.0 ** -liouville.MAX_NEWTON

    def test_singular_step_is_an_error(self):
        def singular(x, F):
            raise np.linalg.LinAlgError("Singular matrix")
        with pytest.raises(SolverError,
                           match="^Singular matrix in a Newton step$") as exc:
            liouville.damped_newton(lambda x: x - 3.0, singular, np.zeros(2),
                                    1e-9, 0.0)
        assert exc.value.residual == 3.0
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def forbid_superlu(monkeypatch):
    """Make every SuperLU factorization fail: spsolve, splu and factorized
    all end in its gssv or gstrf."""
    def no_lu(*args, **kwargs):
        raise AssertionError("a sparse LU was factored")
    for name in ("gssv", "gstrf"):
        monkeypatch.setattr(_superlu, name, no_lu)
    with pytest.raises(AssertionError, match="sparse LU"):
        spsolve(sparse.eye(2, format="csc"), np.ones(2))


class TestBorderedSolve:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_dense_solve(self, k):
        # the band solve of J = K - diag(shift) bordered by k unknowns; J
        # has zeros on its diagonal, where no LU without row exchanges
        # exists
        rng = np.random.default_rng(k)
        n = 40
        bands = (rng.uniform(-1.0, 1.0, n - 1), rng.uniform(3.0, 4.0, n),
                 rng.uniform(-1.0, 1.0, n - 1))
        shift = rng.uniform(-0.5, 0.5, n)
        shift[[0, 17, n - 1]] = bands[1][[0, 17, n - 1]]
        J = np.diag(bands[1] - shift) + np.diag(bands[0], -1) \
            + np.diag(bands[2], 1)
        assert np.count_nonzero(np.diag(J) == 0.0) == 3
        cols = rng.standard_normal((n, k))
        scale = rng.uniform(1.0, 2.0, k)
        P = rng.standard_normal((k, n))
        corner = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        rhs = rng.standard_normal(n + k)
        want = np.linalg.solve(np.block([[J, cols], [scale[:, None] * P,
                                                     corner]]), rhs)
        got = _band_stiffness(bands).solve(shift, cols, scale[:, None] * P,
                                           corner, rhs)
        assert got.shape == (n + k,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_floor_is_eps_times_the_row_sums(self):
        bands = tuple(np.random.default_rng(5).standard_normal(m)
                      for m in (9, 10, 9))
        K = np.diag(bands[1]) + np.diag(bands[0], -1) + np.diag(bands[2], 1)
        assert np.allclose(_band_stiffness(bands).floor,
                           np.finfo(float).eps * np.abs(K).sum(axis=1),
                           rtol=1e-15, atol=0)

    @pytest.mark.parametrize("beta", [0.7, 2.0])
    def test_football_path_builds_no_sparse_matrix(self, beta, monkeypatch):
        # beta = 0.7 borders its Newton steps with the two cone
        # coefficients; both border their projected solve with the j = 0
        # eigenvector at 2
        built = []
        init = _spbase.__init__

        def recorded(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        forbid_superlu(monkeypatch)
        monkeypatch.setattr(_spbase, "__init__", recorded)
        m = solve_liouville(football_problem(beta), 512)
        u, lam = projected_solve(m, spectrum_near_two(m))
        assert built == []
        assert sum(a != 0.0 for a in m.sing_coeffs) == 2 * (beta < 1.0)
        assert len(lam) == 1
        assert np.max(np.abs(u)) < 1e-9
        sparse.eye(2)
        assert built


def bordered_lu(A, shift, cols, rows, corner, rhs):
    """The 2-D bordered Newton system [[A - diag(shift), cols], [rows,
    corner]] x = rhs solved by one sparse LU of the whole system."""
    return spsolve(sparse.bmat([[A - sparse.diags(shift), cols],
                                [rows, corner]], format="csc"), rhs)


def newton_systems(monkeypatch, points, beta, n):
    """The stiffness A and the bordered systems (shift, cols, rows, corner,
    rhs) of every Newton step of a 2-D solve, stepped by
    ``bordered_lu``."""
    systems = []

    def direct(form, A):
        def solve(*system):
            systems.append(system)
            return bordered_lu(A, *system)
        return _lon_fft_stiffness(form, A)._replace(solve=solve)

    monkeypatch.setattr(liouville, "_lon_fft_stiffness", direct)
    solve_liouville(ConicProblem("sphere", points=points, beta=beta), n)
    return _assemble_laplacian(FluxForm(n, 1))[0], systems


class TestKrylovStep:
    @pytest.mark.parametrize("points,beta,n", [
        (EQUATOR3, (0.6, 0.7, 0.8), 48), (TETRAHEDRON, (0.8,) * 4, 24)],
        ids=["k3", "k4"])
    def test_matches_direct_step(self, monkeypatch, points, beta, n):
        A, systems = newton_systems(monkeypatch, points, beta, n)
        assert len(systems) >= 3
        krylov = _lon_fft_stiffness(FluxForm(n, 1), A).solve
        for system in systems:
            want = bordered_lu(A, *system)
            got = krylov(*system)
            assert np.max(np.abs(got - want)) \
                <= 1e-10 * np.max(np.abs(want))

    def test_singular_mean_jacobian_is_solver_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("singular tridiagonal matrix")
        monkeypatch.setattr(liouville, "tridiag_solver", singular)
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
        with pytest.raises(SolverError,
                           match="singular tridiagonal matrix in a Newton "
                                 "step"):
            solve_liouville(prob, 24)

    def test_newton_step_builds_no_square_sparse_matrix(self, monkeypatch):
        # the step applies A x - shift x; only the k x N border rows are
        # sparse.  Matrices are recorded while a Newton step runs: it builds
        # its border rows and runs GMRES
        n = 24
        A = _assemble_laplacian(FluxForm(n, 1))[0]
        built, stepping = [], []
        init, newton = _spbase.__init__, liouville.damped_newton

        def recorded(self, *args, **kwargs):
            if stepping:
                built.append(self)
            init(self, *args, **kwargs)

        def recording_newton(residual, step, *args):
            def recorded_step(x, F):
                stepping.append(True)
                try:
                    return step(x, F)
                finally:
                    stepping.clear()
            return newton(residual, recorded_step, *args)

        monkeypatch.setattr(_spbase, "__init__", recorded)
        monkeypatch.setattr(liouville, "damped_newton", recording_newton)
        solve_liouville(ConicProblem("sphere", points=EQUATOR3,
                                     beta=(0.6, 0.7, 0.8)), n)
        shapes = {m.shape for m in built}
        assert shapes and A.shape not in shapes
        assert all(rows == 3 for rows, _ in shapes)

    def test_2d_solve_makes_no_sparse_lu(self, monkeypatch):
        forbid_superlu(monkeypatch)
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.7, 0.8))
        assert solve_liouville(prob, 24).residual < 1e-9

    def test_exact_for_longitude_constant_density(self, monkeypatch):
        # the preconditioner is J itself, bordered the same way
        n, k = 24, 3
        A, M = _assemble_laplacian(FluxForm(n, 1))
        phi = (np.arange(n) + 0.5) * (math.pi / n)
        shift = 2.0 * M * np.repeat(0.3 + 0.2 * np.cos(phi) ** 2, 2 * n)
        rng = np.random.default_rng(0)
        N = A.shape[0]
        cols = rng.standard_normal((N, k))
        scale = rng.uniform(1.0, 2.0, k)
        P = rng.standard_normal((k, N))
        corner = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        rhs = rng.standard_normal(N + k)
        residuals = []

        def counted(*args, **kwargs):
            return gmres(*args, callback=residuals.append,
                         callback_type="pr_norm", **kwargs)

        monkeypatch.setattr(liouville, "gmres", counted)
        system = (shift, cols, sparse.diags(scale) @ P, corner, rhs)
        got = _lon_fft_stiffness(FluxForm(n, 1), A).solve(*system)
        want = bordered_lu(A, *system)
        assert 1 <= len(residuals) <= 2
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestDiskSolve:
    def test_flat_cone_recovered_exactly(self):
        # Dirichlet data from the exact flat cone makes w = 0 a fixed point
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=0)
        m = solve_liouville(prob, 64)
        assert np.max(np.abs(m.w)) == 0.0

    def test_hyperbolic_disk_converges(self):
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=-1)
        m = solve_liouville(prob, 64)
        assert m.residual < 1e-9
        assert np.max(np.abs(m.w)) > 0.2

    @pytest.mark.parametrize("beta", [0.3, 0.7, 3.0])
    def test_converges_at_fine_meshes(self, beta):
        # the rounding of L @ w grows as n^2 and passes NEWTON_TOL near
        # n = 8000; the per-row floor of damped_newton judges those rows
        prob = ConicProblem("disk", points=((0.0,),), beta=(beta,),
                            curvature=-1)
        fine, coarse = (solve_liouville(prob, n)
                        for n in (liouville.MAX_CELLS, 8000))
        w = np.interp(coarse.mesh["r"], fine.mesh["r"], fine.w)
        assert np.max(np.abs(w - coarse.w)) < 0.01 * np.max(np.abs(fine.w))


class TestSolveDispatch:
    def test_disk_rejects_positive_curvature(self):
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=1)
        with pytest.raises(SolverError):
            solve_liouville(prob, 24)

    def test_sphere_requires_unit_curvature(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6),
                            curvature=0)
        with pytest.raises(SolverError):
            solve_liouville(prob, 24)

    def test_large_angle_nonfootball_rejected(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(1.5, 0.6, 0.6))
        with pytest.raises(SolverError):
            solve_liouville(prob, 24)

    def test_supercritical_rejected(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.95, 0.9, 0.2))
        with pytest.raises(SolverError):
            solve_liouville(prob, 24)


class TestLinearizedOperator:
    def test_football_mode_spectra_match_closed_form(self, football17):
        pencils = _football_modes(football17)
        beta = 1.7
        for j in (0, 1, 2):
            A, B = pencil_matrices(*pencils[j][1:])
            vals = sorted(eigsh(A, k=4, M=B, sigma=-0.1, which="LM")[0])
            exact = [(j / beta + ell) * (j / beta + ell + 1.0)
                     for ell in range(4)]
            assert np.max(np.abs(np.array(vals) - exact)) < 2e-2

    def test_eigenfunction_cos_r(self, football17):
        # cos r on the football in round coordinates
        beta = 1.7
        n = football17.n
        h = math.pi / n
        phi = (np.arange(n) + 0.5) * h
        t = np.tan(phi / 2.0)
        f = (1.0 - t ** (2 * beta)) / (1.0 + t ** (2 * beta))
        form = FluxForm(n, 1)
        out = tridiag_matvec(form.bands(), f) / form.weight \
            / football17.density(full=True) - 2.0 * f
        # second-order pointwise accuracy degrades within O(h log h) of the
        # poles where the profile is only Hoelder; check away from them
        interior = slice(n // 8, -n // 8)
        assert np.max(np.abs(out[interior])) < 1e-3

    def test_2d_stiffness_symmetric(self, sphere2d):
        A, _ = pencil_2d(sphere2d)
        assert abs(A - A.T).max() < 1e-12

    def test_2d_laplacian_matches_football_on_axisymmetric_samples(self):
        n = 24
        form = FluxForm(n, 1)
        A, M = _assemble_laplacian(form)
        f = np.cos(form.centre) + form.centre ** 3
        want = -tridiag_matvec(form.bands(), f) / form.weight
        got = (-(A @ np.repeat(f, 2 * n)) / M).reshape(n, 2 * n)
        assert np.max(np.abs(got - want[:, None])) \
            <= 1e-12 * np.max(np.abs(want))
        assert (A != A.T).nnz == 0
        assert np.max(np.abs(A @ np.ones(2 * n * n))) \
            <= 1e-14 * abs(A).max()

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

    def test_kind_validation(self):
        prob = ConicProblem("disk", points=((0.0,),), beta=(0.7,),
                            curvature=0)
        with pytest.raises(ValueError):
            spectrum_near_two(solve_liouville(prob, 16))


class TestSpectrumNearTwo:
    def test_noninteger_football(self, football17):
        fib = spectrum_near_two(football17)
        assert fib.ell == 1
        assert abs(fib.eigenvalues_near_2[0] - 2.0) < 1e-3

    def test_integer_football(self):
        m = solve_liouville(football_problem(2.0), 128)
        fib = spectrum_near_two(m)
        assert fib.ell == 3

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_round_sphere_at_coarse_meshes(self, n):
        # rho = 1 exactly makes A - 2B of the j = 1 pencil exactly singular
        m = solve_liouville(football_problem(1.0), n)
        assert np.max(np.abs(m.density() - 1.0)) == 0.0
        fib = spectrum_near_two(m)
        assert fib.ell == 3
        assert np.all(np.abs(np.subtract(fib.eigenvalues_near_2, 2.0))
                      < 2.0 * (math.pi / n) ** 2)

    def test_2d_ell_counts_the_whole_window(self, monkeypatch):
        # the window holds more eigenvalues than the first eigsh call returns
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.6, 0.6))
        m = solve_liouville(prob, 24)
        monkeypatch.setattr(liouville, "WINDOW", 36.0)
        fib = spectrum_near_two(m)
        A, B = pencil_2d(m)
        vals = eigh(A.toarray(), B.toarray(), eigvals_only=True)
        assert fib.ell == np.sum(np.abs(vals - 2.0) < fib.window) > 12

    def test_football_ell_counts_the_whole_window(self, monkeypatch):
        # the j = 0 pencil holds nine eigenvalues in the window, more than
        # the first eigsh call returns
        m = solve_liouville(football_problem(0.5), 256)
        monkeypatch.setattr(liouville, "WINDOW", 78.0)
        fib = spectrum_near_two(m)
        want = sum(mode.multiplicity for mode in
                   football_eigenvalues(0.5, 2.0 + fib.window)
                   if abs(mode.lam - 2.0) < fib.window)
        assert fib.ell == want == 41

    @pytest.mark.parametrize("beta", np.arange(0.5, 6.01, 0.25).tolist())
    def test_football_count_is_the_closed_form_count(self, beta):
        # ell is a Sturm count of each mode pencil; it must equal the
        # closed-form count, with multiplicity, of the reported window,
        # integer beta (2 a triple or higher eigenvalue) included
        fib = spectrum_near_two(solve_liouville(football_problem(beta), 512))
        assert fib.ell == sum(
            mode.multiplicity
            for mode in football_eigenvalues(beta, 2.0 + fib.window)
            if abs(mode.lam - 2.0) < fib.window)

    def test_empty_band(self, monkeypatch):
        # no eigenvalue within 1.65e-9 of 2: the window checks see none
        m = solve_liouville(football_problem(1.7), 128)
        monkeypatch.setattr(liouville, "WINDOW", 1e-9)
        fib = spectrum_near_two(m)
        assert (fib.ell, fib.eigenvalues_near_2, fib.window) == (0, [], 1e-9)

    @pytest.mark.parametrize("beta,n,window", [
        ((0.6, 0.6, 0.6), 24, 36.0), ((0.5, 0.5), 256, 78.0),
        ((2.0, 2.0), 512, 0.5), ((3.0, 3.0), 512, 0.5)],
        ids=["sphere2d", "football", "obstructed2", "obstructed3"])
    def test_eigenvalues_match_dense_pencil(self, beta, n, window,
                                            monkeypatch):
        # the first two windows need several k doublings; at the obstructed
        # footballs 2 is a triple eigenvalue, from j = 0 and j = beta.  The
        # values, not only the count, must be those of a dense solve of
        # every pencil
        points = ANTIPODAL if len(beta) == 2 else EQUATOR3
        m = solve_liouville(ConicProblem("sphere", points=points, beta=beta),
                            n)
        monkeypatch.setattr(liouville, "WINDOW", window)
        fib = spectrum_near_two(m)
        want = []
        for A, B in all_pencils(m):
            # as the pencil (B, A + B), whose two sides share the grading
            # of the mode weight sin^{2j+1} at the poles
            vals = 1.0 / eigh(B.toarray(), (A + B).toarray(),
                              eigvals_only=True) - 1.0
            want.extend(vals[np.abs(vals - 2.0) < fib.window])
        want, got = np.sort(want), np.sort(fib.eigenvalues_near_2)
        assert len(got) == len(want)
        assert np.all(np.abs(got - want)
                      <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_fiber_keeps_only_the_axisymmetric_vectors(self, monkeypatch):
        # projected_solve reads the football's j = 0 directions alone, so a
        # 2-D pencil is solved for its eigenvalues only and the fiber keeps
        # no 2-D vector
        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs.get("return_eigenvectors", True))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(liouville, "eigsh", recorded)
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.7, 0.8))
        fib = spectrum_near_two(solve_liouville(prob, 48))
        assert calls == [False]
        assert (fib.ell, len(fib.eigenvalues_near_2), fib.axisymmetric) \
            == (1, 1, [])
        # at beta = 2, 2 is a triple eigenvalue, from j = 0 and the pair
        # j = 2; the fiber holds the j = 0 in-window vectors, b-unit and
        # exactly as the j = 0 pencil gives them, and no j = 2 vector
        m = solve_liouville(football_problem(2.0), 512)
        fib = spectrum_near_two(m)
        j, A, b = _football_modes(m)[0]
        band = 1.1 * 1.5 * liouville.WINDOW
        vals, vecs = tridiag_pencil_eigs(A, b, 2.0 - band, 2.0 + band)
        inside = np.abs(vals - 2.0) < fib.window
        assert j == 0 and np.sum(inside) == 1
        assert (fib.ell, len(fib.eigenvalues_near_2)) == (3, 2)
        assert len(fib.axisymmetric) == 1
        assert np.array_equal(fib.axisymmetric[0], vecs[:, inside][:, 0])
        assert fib.axisymmetric[0] @ (b * fib.axisymmetric[0]) \
            == pytest.approx(1.0, abs=1e-12)
        assert set(vars(fib)) == {"eigenvalues_near_2", "axisymmetric",
                                  "ell", "window"}

    @pytest.mark.parametrize("beta,n,window,pencils,want,ell", [
        ((3.45, 3.45), 512, (0.5, 0.75), 6,
         {"eigsh": 0, "splu": 0, "dstebz": 6, "dgttrf": 3}, 5),
        ((0.6, 0.7, 0.8), 48, (0.5, 0.75), 1,
         {"eigsh": 1, "splu": 1, "dstebz": 0, "dgttrf": 0}, 1),
        ((0.6, 0.6, 0.6), 24, (36.0, 36.0), 1,
         {"eigsh": 5, "splu": 1, "dstebz": 0, "dgttrf": 0}, 16)],
        ids=["football", "sphere2d", "doubling"])
    def test_each_pencil_solved_once(self, beta, n, window, pencils, want,
                                     ell, monkeypatch):
        # an eigenvalue sits within 0.05 of the edge of |lambda - 2| < 0.5
        # (2.5036 for the football's j = 4), so the window widens to 0.75
        # using the eigenvalues already computed; the doubling case asks
        # eigsh for k = 2, 4, 8, 16 and 32 eigenpairs of one factorization.
        # Each football mode is bisected by one dstebz, and each of its
        # eigenvalues in |lambda - 2| < 1.1 * 0.75 -- (j, l) = (0, 1),
        # (3, 0) and (4, 0) -- polished on one dgttrf; the 2-D pencil is
        # factored by one splu.  The Rayleigh bound leaves the football
        # modes j <= 5 of the 13 below 2 ceil(beta) + 5
        points = ANTIPODAL if len(beta) == 2 else EQUATOR3
        m = solve_liouville(ConicProblem("sphere", points=points, beta=beta),
                            n)
        calls = dict.fromkeys(want, 0)

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for module, name in ((liouville, "eigsh"), (liouville, "splu"),
                             (spectrum, "dstebz"), (spectrum, "dgttrf")):
            monkeypatch.setattr(module, name, counted(module, name))
        monkeypatch.setattr(liouville, "WINDOW", window[0])
        fib = spectrum_near_two(m)
        assert len(all_pencils(m)) == pencils
        assert calls == want
        assert (fib.window, fib.ell) == (window[1], ell)

    @pytest.mark.parametrize("beta", [1.3, 2.0, 2.4, 3.0, 3.45])
    def test_dropped_modes_clear_the_band(self, beta):
        # every mode below 2 ceil(beta) + 5 that _football_modes leaves out
        # has its least eigenvalue, in a dense solve, above the Rayleigh
        # bound j(j+1) / max rho and outside the band the window checks read
        m = solve_liouville(football_problem(beta), 256)
        rho = m.density(full=True)
        kept = [j for j, _, _ in _football_modes(m)]
        limit = 2 * math.ceil(beta) + 5
        assert kept == list(range(len(kept))) and 0 < len(kept) < limit
        for j in range(len(kept), limit):
            form = FluxForm(m.n, 2 * j + 1)
            A, B = pencil_matrices(
                form.bands(potential=j * (j + 1.0) * form.weight),
                form.weight * rho)
            least = 1.0 / np.max(eigh(B.toarray(), (A + B).toarray(),
                                      eigvals_only=True)) - 1.0
            assert least >= j * (j + 1) / np.max(rho) * (1.0 - 1e-12)
            assert least > 2.0 + 1.1 * 1.5 * liouville.WINDOW

    def test_cutoff_keeps_every_mode_below_one(self):
        # max rho = 24 lets j <= 8 pass the Rayleigh bound here; the limit
        # 2 ceil(beta) + 5 keeps the count at 7
        m = solve_liouville(football_problem(0.7), 512)
        assert [j for j, _, _ in _football_modes(m)] == list(range(7))

    def test_narrower_window_when_both_wider_fail(self):
        # j = 2 sits 0.028 inside |lambda - 2| < 0.5 and j = 3 (2.8125) 0.0625
        # from the edge of 0.75; every eigenvalue clears 1/3 by a tenth of it
        fib = spectrum_near_two(solve_liouville(football_problem(2.4), 512))
        assert (fib.window, fib.ell) == (0.5 / 1.5, 1)
        assert abs(fib.eigenvalues_near_2[0] - 2.0) < 1e-4

    def test_exactly_singular_shift_moves_off_two(self):
        # A = 2B: bisection brackets 2 exactly, where the tridiagonal factor
        # of A - 2B has a zero pivot; the polish factors at 2 (1 + 1e-13)
        # and lands back on 2
        n = 6
        b = np.linspace(1.0, 2.0, n)
        vals, vecs = tridiag_pencil_eigs(
            (np.zeros(n - 1), 2.0 * b, np.zeros(n - 1)), b, 1.0, 3.0)
        assert np.all(np.abs(vals - 2.0) <= 4.0 * np.finfo(float).eps)
        assert np.allclose(np.sum(vecs * vecs * b[:, None], axis=0), 1.0)

    def test_exactly_singular_2d_shift_moves_off_two(self):
        n = 6
        b = np.linspace(1.0, 2.0, n)
        sigma, solve = _shift_solver(sparse.diags(2.0 * b, format="csc"), b)
        assert sigma == 2.0 + 1e-8
        assert np.allclose(solve(np.ones(n)), 1.0 / ((2.0 - sigma) * b))

    def test_2d_shift_singular_at_both_shifts_raises(self):
        # A - sigma B has a zero pivot at sigma = 2 and at 2 + 1e-8
        sigmas = np.array([2.0, 2.0 + 1e-8, 3.0, 4.0])
        with pytest.raises(RuntimeError, match="singular"):
            _shift_solver(sparse.diags(sigmas, format="csc"), np.ones(4))

    def test_reproducible(self):
        prob = ConicProblem("sphere", points=EQUATOR3, beta=(0.6, 0.7, 0.8))
        m = solve_liouville(prob, 48)
        evs = [spectrum_near_two(m).eigenvalues_near_2 for _ in range(3)]
        assert evs[0] == evs[1] == evs[2]

    def test_subcritical_has_empty_fiber(self, sphere2d):
        fib = spectrum_near_two(sphere2d)
        assert fib.ell == 0
        assert fib.eigenvalues_near_2 == []

    def test_subcritical_first_eigenvalue_above_two(self, sphere2d):
        A, B = pencil_2d(sphere2d)
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

    def test_point_near_a_grid_pole(self):
        # EQUATOR3 turned about the y axis so that point 0 sits at
        # colatitude 0.3, where the chart angle takes its bearing from the
        # x axis, not from the z axis
        tilt = math.pi / 2 - 0.3
        points = [(math.acos(math.cos(lon) * math.sin(tilt)),
                   math.atan2(math.sin(lon), math.cos(lon) * math.cos(tilt)))
                  for lon in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
        assert abs(sphere_point(*points[0])[2]) > 0.9
        m = solve_liouville(ConicProblem("sphere", points=points,
                                         beta=(0.6, 0.6, 0.6)), 96)
        fits = [friedrichs_fit(m, i) for i in range(3)]
        assert all(fit.slope >= 1.9 for fit in fits)
        a0 = [fit.a0 for fit in fits]
        assert max(a0) - min(a0) < 1e-4

    @pytest.mark.parametrize("index", [-1, 3])
    def test_point_index_in_range(self, sphere2d, index):
        # -1 would fit the last point but keep its own log term
        for fit in (lambda: friedrichs_fit(sphere2d, index),
                    lambda: sphere2d.bounded_part(index, 0.1, 0.0)):
            with pytest.raises(ValueError, match=f"point index {index} "
                               "outside 0..2"):
                fit()

    def test_requires_2d_solve(self, football17):
        with pytest.raises(ValueError, match="for 2-D solves"):
            friedrichs_fit(football17, 0)

    def test_integer_two_beta_counts_as_angles_does(self):
        # at 2 beta = 1 the r^{1/beta} = r^2 column would repeat the fit's
        # nuisance r^2 column; 2 beta = 1 + 2e-12 is the integer 1 too
        prob = ConicProblem("sphere", points=EQUATOR3,
                            beta=(0.5, 0.5 + 1e-12, 0.5))
        m = solve_liouville(prob, 48)
        assert [len(friedrichs_fit(m, i).indicial) for i in range(3)] \
            == [0, 0, 0]
