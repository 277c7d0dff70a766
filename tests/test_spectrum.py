import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conemetric import spectrum
from conemetric.spectrum import (FluxForm, _sl_eigs, eigenvalue_count,
                                 eigenvalue_flow, football_eigenfunction,
                                 football_eigenvalues,
                                 radial_sturm_liouville,
                                 strict_count_below_two, tridiag_matvec,
                                 tridiag_solver)


class TestClosedForm:
    def test_round_sphere(self):
        modes = football_eigenvalues(1.0, 6.5)
        lams = sorted(m.lam for m in modes for _ in range(m.multiplicity))
        # l(l+1) with multiplicity 2l+1 for l = 0, 1, 2
        assert lams == pytest.approx([0.0] + [2.0] * 3 + [6.0] * 5)

    def test_multiplicity_rule(self):
        for m in football_eigenvalues(2.3, 5.0):
            assert m.multiplicity == (1 if m.j == 0 else 2)

    @pytest.mark.parametrize("beta,lambda_max", [(math.inf, 2.0),
                                                 (math.nan, 2.0),
                                                 (1.5, math.inf),
                                                 (-1.0, 2.0),
                                                 (2e5, 2.0),
                                                 (1.5, 3e5)])
    def test_invalid_input_rejected(self, beta, lambda_max):
        # beta = inf gives j/beta = 0 for every mode: the ladder never ends;
        # beta = 2e5 and lambda_max = 3e5 ask for more than MAX_MODES modes
        with pytest.raises(ValueError):
            football_eigenvalues(beta, lambda_max)

    def test_sorted_by_eigenvalue(self):
        lams = [m.lam for m in football_eigenvalues(1.7, 10.0)]
        assert lams == sorted(lams)

    @given(st.floats(0.2, 4.0), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=100)
    def test_member_value(self, beta, j, ell):
        x = j / beta + ell
        lam = x * (x + 1.0)
        modes = football_eigenvalues(beta, lam + 1.0)
        match = [m for m in modes if m.j == j and m.ell == ell]
        assert len(match) == 1
        assert match[0].lam == pytest.approx(lam)


class TestCounts:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.5, 2.5, 3.5, 4.2])
    def test_count_formula(self, beta):
        assert eigenvalue_count(beta) == 2 + 2 * math.floor(beta)

    def test_strict_vs_inclusive(self):
        # at lambda = 2 the (0, 1) mode always sits exactly on the threshold
        assert eigenvalue_count(1.7) - strict_count_below_two(1.7) == 1

    def test_integer_beta_gains_double_mode(self):
        # j = beta contributes a double eigenvalue exactly at 2
        assert eigenvalue_count(2.0) - strict_count_below_two(2.0) == 3


class TestOracle:
    @pytest.mark.parametrize("beta,j", [(0.5, 0), (0.5, 2), (1.5, 1),
                                        (2.7, 3)])
    def test_sturm_liouville_matches(self, beta, j):
        vals = radial_sturm_liouville(beta, j)
        exact = [(j / beta + ell) * (j / beta + ell + 1.0)
                 for ell in range(5)]
        assert np.max(np.abs(vals - exact)) < 1e-6

    def test_richardson_improves(self, monkeypatch):
        beta, j = 2.7, 2
        exact = [(j / beta + ell) * (j / beta + ell + 1.0)
                 for ell in range(5)]
        raw = _sl_eigs(j / beta, 512)
        monkeypatch.setattr(spectrum, "N_GRID", 512)
        extrap = radial_sturm_liouville(beta, j)
        assert np.max(np.abs(extrap - exact)) \
            < 0.1 * np.max(np.abs(raw - exact))

    def test_independent_of_call_order(self):
        # a fixed ARPACK start vector: no call leaves state for the next
        first = _sl_eigs(1 / 1.5, 256)
        _sl_eigs(2 / 0.5, 128)
        assert np.array_equal(_sl_eigs(1 / 1.5, 256), first)


class TestTridiagSolver:
    def test_matches_dense_solve(self):
        # the bands of a mode pencil shifted to 2, which is indefinite
        form = FluxForm(64, 5)
        sub, diag, sup = form.bands(potential=6.0 * form.weight)
        diag = diag - 2.0 * form.weight
        dense = np.diag(sub, -1) + np.diag(diag) + np.diag(sup, 1)
        rhs = np.random.default_rng(0).standard_normal((64, 3))
        solve = tridiag_solver(sub, diag, sup)
        for b in (rhs[:, 0], rhs):
            want = np.linalg.solve(dense, b)
            got = solve(b)
            assert got.shape == b.shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            tridiag_solver(np.zeros(3), np.array([1.0, 0.0, 1.0, 1.0]),
                           np.zeros(3))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matvec_is_the_sparse_product(self, n):
        # bit for bit, so the football residual sums as a csc product did
        rng = np.random.default_rng(n)
        bands = (rng.standard_normal(n - 1), rng.standard_normal(n),
                 rng.standard_normal(n - 1))
        x = rng.standard_normal(n)
        want = sparse.diags(bands, [-1, 0, 1], format="csc") @ x
        assert np.array_equal(tridiag_matvec(bands, x), want)


class TestEigenfunctions:
    @pytest.mark.parametrize("beta,j,ell", [(2.5, 1, 0), (2.5, 2, 1),
                                            (0.7, 1, 2), (3.3, 2, 0)])
    def test_gegenbauer_closed_form(self, beta, j, ell):
        alpha = j / beta
        lam = alpha + 0.5
        R = football_eigenfunction(beta, j, ell)
        r = np.linspace(0.3, 2.8, 9)
        x = np.cos(r)
        # C_0, C_1 and C_2 of parameter lam, written out
        gegenbauer = (np.ones_like(x), 2.0 * lam * x,
                      2.0 * lam * (lam + 1.0) * x ** 2 - lam)[ell]
        closed = np.sin(r) ** alpha * gegenbauer
        ratio = R(r) / closed
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_axisymmetric_modes_are_legendre(self):
        R0 = football_eigenfunction(1.6, 0, 0)
        R1 = football_eigenfunction(1.6, 0, 1)
        r = np.linspace(0.2, 2.9, 7)
        assert np.std(R0(r)) < 1e-10              # constant
        ratio = R1(r) / np.cos(r)                 # cos r up to scale
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_ode_residual(self):
        # the radial equation, by finite differences of the profile; at
        # (0.6, 4, 3) the eigenvalue is about 103, and the rounding of the
        # second difference (eps |R| / h^2, times the terms' cancellation)
        # reaches 2e-5
        for beta, j, ell, tol in [(2.2, 2, 1, 1e-5), (2.0, 2, 0, 1e-5),
                                  (3.0, 3, 1, 1e-5), (2.5, 1, 2, 1e-5),
                                  (0.6, 4, 3, 5e-5)]:
            alpha = j / beta
            lam = (alpha + ell) * (alpha + ell + 1.0)
            R = football_eigenfunction(beta, j, ell)
            r = np.linspace(0.4, 2.6, 31)
            h = 1e-5
            d2 = (R(r + h) - 2.0 * R(r) + R(r - h)) / h ** 2
            d1 = (R(r + h) - R(r - h)) / (2.0 * h)
            resid = d2 + d1 / np.tan(r) \
                + (lam - alpha ** 2 / np.sin(r) ** 2) * R(r)
            assert np.max(np.abs(resid)) < tol, (beta, j, ell)

    def test_unit_norm(self):
        # trapezoid quadrature with the area element beta sin(r) dr dtheta;
        # (2.5, 1, 2) has j/beta < 1, so R' is unbounded at the poles
        r = np.linspace(1e-6, math.pi - 1e-6, 40001)
        for beta, j, ell in [(1.9, 1, 1), (2.0, 2, 0), (3.0, 3, 0),
                             (2.5, 1, 2), (1.6, 0, 2), (0.6, 4, 1)]:
            R = football_eigenfunction(beta, j, ell)
            w = R(r) ** 2 * beta * np.sin(r)
            # angular factor: integral of cos^2(j theta) over the circle
            angular = 2.0 * math.pi if j == 0 else math.pi
            total = np.trapezoid(w, r) * angular
            assert total == pytest.approx(1.0, abs=1e-6), (beta, j, ell)

    def test_orthogonality_same_mode(self):
        r = np.linspace(1e-6, math.pi - 1e-6, 40001)
        for beta, j, ell_a, ell_b in [(2.4, 1, 0, 2), (2.0, 2, 0, 2),
                                      (3.0, 3, 0, 2), (2.5, 1, 1, 3),
                                      (0.6, 4, 0, 2)]:
            Ra = football_eigenfunction(beta, j, ell_a)
            Rb = football_eigenfunction(beta, j, ell_b)
            inner = np.trapezoid(Ra(r) * Rb(r) * beta * np.sin(r), r) \
                * math.pi
            assert abs(inner) < 1e-6, (beta, j, ell_a, ell_b)

    def test_domain_validation(self):
        R = football_eigenfunction(1.5, 1, 0)
        with pytest.raises(ValueError):
            R(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("beta,j,ell", [(1.5, -1, 0), (1.5, 0, -1),
                                            (0.0, 0, 0)])
    def test_invalid_mode_rejected(self, beta, j, ell):
        with pytest.raises(ValueError, match="invalid mode"):
            football_eigenfunction(beta, j, ell)


class TestFlow:
    def test_forward_path(self):
        path = [round(1.5 + 0.1 * i, 10) for i in range(21)]
        flow = eigenvalue_flow(path)
        got = sorted((c.beta, c.j) for c in flow["crossings"])
        assert got == [(2.0, 2), (3.0, 3)]

    def test_reverse_path_sees_same_crossings(self):
        path = [round(3.5 - 0.1 * i, 10) for i in range(21)]
        flow = eigenvalue_flow(path)
        got = sorted((c.beta, c.j) for c in flow["crossings"])
        assert got == [(2.0, 2), (3.0, 3)]

    def test_sample_exactly_on_integer(self):
        flow = eigenvalue_flow([1.9, 2.0, 2.1])
        got = [(c.beta, c.j) for c in flow["crossings"]]
        assert got == [(2.0, 2)]

    def test_monotone_counts(self):
        path = [1.2, 1.8, 2.4, 3.1]
        flow = eigenvalue_flow(path)
        assert flow["counts"] == [strict_count_below_two(b) for b in path]

    @pytest.mark.parametrize("beta", [1 + 5e-10, 1.9999999995, 2.0,
                                      2.0000000008, 2.5, 3 - 2e-10])
    def test_count_changes_only_at_crossings(self, beta):
        path = [beta - 0.5, beta, beta + 0.5]
        for p in (path, path[::-1]):
            flow = eigenvalue_flow(p)
            counts = flow["counts"]
            assert counts == [strict_count_below_two(b) for b in p]
            for i in range(len(p) - 1):
                crossed = sum(c.s_index == i for c in flow["crossings"])
                assert 2 * crossed == abs(counts[i + 1] - counts[i])

    def test_wiggle_counts_each_crossing(self):
        flow = eigenvalue_flow([1.8, 2.2, 1.8, 2.2])
        got = [(c.s_index, c.beta) for c in flow["crossings"]]
        assert got == [(0, 2.0), (1, 2.0), (2, 2.0)]
