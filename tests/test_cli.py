import cmath
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import conemetric
from conemetric import acceptance, cli, liouville, spectrum
from conemetric.acceptance import run_acceptance
from conemetric.cli import (MAX_FLOW_SAMPLES, MAX_RAY_SAMPLES, canonical_json,
                            main)
from conemetric.factorization import MAX_J
from conemetric.pairing import EigenCoeffs


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert "0.10000000000000001" in text

    def test_complex_as_pair(self):
        assert canonical_json(1.5 + 0.25j) == "[1.5, 0.25]"

    def test_empty_containers(self):
        assert canonical_json({"a": [], "b": {}}) \
            == '{\n  "a": [],\n  "b": {}\n}'

    def test_bool_and_none(self):
        assert canonical_json([True, None]) == "[\n  true,\n  null\n]"

    def test_numpy_arrays_as_lists(self):
        real = np.array([[0.1, -2.0], [np.inf, 3.0]])
        assert canonical_json(real) == canonical_json(real.tolist())
        assert canonical_json(np.array([1.5 + 0.25j, -1j])) \
            == "[\n  [1.5, 0.25],\n  [-0, -1]\n]"
        assert canonical_json(np.zeros((0, 3))) == "[]"


class TestAngles:
    def test_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"genus": 0, "beta": [0.5, 0.5, 0.5]})
        code, out, _ = run(capsys, ["angles", cfg])
        assert code == 0
        report = json.loads(out)
        assert report["troyanov"] is True
        assert report["subcritical"] is True
        assert report["chi"] == pytest.approx(0.5)
        assert report["mp_membership"] == "interior"
        assert report["coaxial"]["status"] in ("true", "false",
                                               "indeterminate")

    def test_splitting_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"beta": [2.5, 0.7],
                                      "B": [1.75, 1.75, 0.7]})
        code, out, _ = run(capsys, ["angles", cfg])
        assert code == 0
        split = json.loads(out)["splitting"]
        assert split["k0"] == 1
        assert split["K"] == 3
        assert split["cluster_sizes"] == [2, 1]

    @pytest.mark.parametrize("payload,troyanov", [
        ({"genus": 1, "beta": [1.5, 0.7]}, True),
        ({"genus": 2, "beta": [3.5]}, True),
        ({"beta": [0.5, 0.5, 0.5, 0.5]}, False),
        # genus > 0 runs no coaxial search, so any number of angles reports
        ({"genus": 1, "beta": [1.5] * 17}, True),
    ], ids=["genus-1", "genus-2", "chi-0", "genus-1-17-angles"])
    def test_any_genus_and_chi(self, tmp_path, capsys, payload, troyanov):
        code, out, _ = run(capsys, ["angles",
                                    write_config(tmp_path, payload)])
        assert code == 0
        report = json.loads(out)
        assert report["troyanov"] is troyanov
        # the lattice and coaxial tests are reported on the sphere only
        for key in ("coaxial", "mp_distance", "mp_membership"):
            assert (report[key] is None) == (report["genus"] > 0)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"beta": [0.5], "betas": [0.5]})
        code, _, err = run(capsys, ["angles", cfg])
        assert code == 2
        assert "unknown config keys" in err

    def test_missing_beta_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"genus": 0})
        assert run(capsys, ["angles", cfg])[0] == 2

    def test_missing_file(self, capsys):
        assert run(capsys, ["angles", "/nonexistent/config.json"])[0] == 2

    @pytest.mark.parametrize("payload", [
        3, {"beta": 5}, {"beta": None}, {"beta": [2.5, 0.7], "B": 3},
        {"beta": [0.5, True]}, {"beta": [10 ** 400]}, {"beta": [math.nan]},
        {"beta": [0.5 + 0.01 * i for i in range(17)]},
        {"beta": [0.5], "genus": 1.5}, {"beta": [0.5], "genus": [0]},
        # a coaxial witness of 1e12 - 1 unit entries
        {"beta": [0.5, 0.5, 1e12]},
    ], ids=["number", "beta-number", "beta-null", "B-number", "beta-bool",
            "beta-huge-int", "beta-nan", "17-angles", "genus-fraction",
            "genus-list", "huge-coaxial-witness"])
    def test_malformed_config_rejected(self, tmp_path, capsys, payload):
        code, out, err = run(capsys, ["angles",
                                      write_config(tmp_path, payload)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("payload,message", [
        ({"beta": [2.5, 0.7], "B": [1.75, 1.75, -0.7]},
         "split angle parameters must be positive"),
        ({"beta": [2.5, 0.7], "B": [1.75, 1.75, 0.8]},
         "unsplit cluster 1 must keep its angle 0.7"),
        ({"beta": [2.5, 0.7], "B": [1.0, 2.5, 0.7]},
         "cluster 0: B_0 = 1 (angle 2*pi) is forbidden"),
        ({"beta": [3.5], "B": [1.5, 0.5, 3.5]},
         "cluster 0: subcluster (0, 1) merges to angle 2*pi"),
        ({"beta": [2.5, 0.7], "B": None},
         "split angles B must be a list of at most 16 numbers"),
        ({"genus": 1, "beta": [1.5] * 17, "B": [1.5] * 17},
         "split angles B must be a list of at most 16 numbers")],
        ids=["nonpositive", "unsplit-moved", "split-angle-one",
             "subcluster-one", "B-null", "17-split-angles"])
    def test_inadmissible_splitting_rejected(self, tmp_path, capsys,
                                             payload, message):
        code, out, err = run(capsys, ["angles",
                                      write_config(tmp_path, payload)])
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid input: ") and message in err
        assert len(err.splitlines()) == 1


class TestSplit:
    def test_branch_count(self, capsys):
        code, out, _ = run(capsys, ["split", "--weights", "0.8,1.2,1.0",
                                    "--coeffs", "0.1+0.05j,0.04,0.01"])
        assert code == 0
        report = json.loads(out)
        assert len(report["branches"]) == math.factorial(3)

    def test_branch_filter_and_blowup(self, capsys):
        code, out, _ = run(capsys, ["split", "--weights", "1.0,1.0",
                                    "--coeffs", "0.1,0.04", "--branch", "1"])
        assert code == 0
        report = json.loads(out)
        assert len(report["branches"]) == 1
        assert report["branches"][0]["branch_id"] == 1
        assert "blowup" in report          # J = 2 chart always reported

    @pytest.mark.parametrize("weights", ["1.0,1.0", "0.7,1.3"])
    def test_blowup_describes_printed_branch(self, capsys, weights):
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = 0.1 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            for branch in ("0", "1"):
                code, out, _ = run(capsys, [
                    "split", "--weights", weights, "--branch", branch,
                    "--coeffs", ",".join(str(complex(a)) for a in A)])
                assert code == 0
                report = json.loads(out)
                (x1, y1), (x2, y2) = report["branches"][0]["z"]
                half = complex(x1 - x2, y1 - y2) / 2.0
                gap = report["blowup"]["phi"] - cmath.phase(half)
                assert abs(cmath.phase(cmath.exp(1j * gap))) < 1e-12

    def test_bad_weight_sum(self, capsys):
        code, _, err = run(capsys, ["split", "--weights", "1.0,0.5",
                                    "--coeffs", "0.1,0.04"])
        assert code == 2

    def test_length_mismatch(self, capsys):
        assert run(capsys, ["split", "--weights", "1.0,1.0",
                            "--coeffs", "0.1"])[0] == 2

    def test_zero_a2_outside_the_blowup_chart(self, capsys):
        code, out, err = run(capsys, ["split", "--weights", "1,1",
                                      "--coeffs", "0.1,0"])
        assert (code, out) == (2, "")
        assert err == ("error: invalid input: A_2 = 0 lies outside the chart "
                       "domain\n")

    @pytest.mark.parametrize("weights,coeffs", [
        ("1.565694329437171,-0.1677033309422706,1.2148375889145602,"
         "1.3871714125905394",
         "(-445911.37041949516+1e-05j),0j,0j,(-445911.37041949516+1e-05j)"),
        ("1,1,1", "0,1e200,0"),
        ("1,1,1", "0,1e300,0"),
    ], ids=["homotopy-overflow", "unpolished-roots", "nan-roots"])
    def test_unconverged_branches_fail(self, capsys, weights, coeffs):
        # roots so large that Newton overflows on the way or cannot
        # polish them: a solver failure, with no warning
        code, out, err = run(capsys, ["split", "--weights=" + weights,
                                      "--coeffs=" + coeffs])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("samples", ["-1", str(MAX_RAY_SAMPLES + 1)])
    def test_ray_samples_capped(self, capsys, samples):
        code, _, err = run(capsys, ["split", "--weights", "1.0,1.0",
                                    "--coeffs", "0.1,0.04",
                                    "--ray-samples=" + samples])
        assert code == 2
        assert f"--ray-samples must lie in [0, {MAX_RAY_SAMPLES}]" in err

    @pytest.mark.parametrize("weights,coeffs,message", [
        ("nan,nan", "0.1,0.04", "weights must be finite"),
        ("inf,-inf", "0.1,0.04", "weights must be finite"),
        ("1,1", "1e200,1e200", "power sums R_l(A) of the coefficients "
                               "overflow"),
    ], ids=["nan-weights", "inf-weights", "overflowing-coeffs"])
    def test_nonfinite_input_is_config_error(self, capsys, weights, coeffs,
                                             message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, ["split", "--weights", weights,
                                        "--coeffs", coeffs])
        assert code == 2
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--branch", "1000000"], "branch must lie in [0, 6)"),
        (["--branch", "-1"], "branch must lie in [0, 6)"),
        (["--coeffs", "0.1,0.04,0", "--ray-samples", "4"], "A_J = 0"),
    ], ids=["branch-too-large", "negative-branch", "zero-last-coeff"])
    def test_parsed_input_checked_before_homotopy(self, capsys, monkeypatch,
                                                  argv, message):
        def no_homotopy(*args):
            raise AssertionError("input was checked after inverse_map")
        monkeypatch.setattr(cli, "inverse_map", no_homotopy)
        code, _, err = run(capsys, ["split", "--weights", "0.8,1.2,1.0",
                                    "--coeffs", "0.1+0.05j,0.04,0.01"]
                           + argv)
        assert code == 2
        assert message in err

    def test_split_point_count_capped(self, capsys):
        J = MAX_J + 1
        code, _, err = run(capsys, ["split", "--weights", ",".join(["1"] * J),
                                    "--coeffs", ",".join(["0.1"] * J)])
        assert code == 2
        assert f"the limit is J = {MAX_J}" in err


class TestSpectrum:
    def test_one_row_per_eigenvalue(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--beta", "2.5",
                                    "--lambda-max", "2"])
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "j,ell,lambda,multiplicity"
        assert len(lines) - 1 == 6          # 2 + 2 [beta] at lambda <= 2
        doubled = [ln for ln in lines[1:] if ln.endswith(",2")]
        assert len(doubled) == 4

    def test_flow_crossings_in_comments(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--flow", "1.5:3.5:21"])
        assert code == 0
        assert "crossing beta=2 j=2" in out
        assert "crossing beta=3 j=3" in out
        data = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(data) - 1 == 21

    def test_bad_flow_spec(self, capsys):
        assert run(capsys, ["spectrum", "--flow", "1.5:3.5"])[0] == 2

    @pytest.mark.parametrize("flow", ["1.5:1e300:2", "1.5:inf:2", "nan:2:3"])
    def test_flow_beta_bounded(self, capsys, flow):
        # each step reports one crossing per integer it passes
        start = time.perf_counter()
        code, out, err = run(capsys, ["spectrum", "--flow", flow])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert time.perf_counter() - start < 1.0

    def test_flow_count_capped(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, ["spectrum", "--flow", "1:3:100000000"])
        assert code == 2
        assert f"the limit is {MAX_FLOW_SAMPLES}" in err
        assert time.perf_counter() - start < 1.0

    def test_nan_beta_rejected(self, capsys):
        assert run(capsys, ["spectrum", "--beta", "nan"])[0] == 2

    def test_tiny_beta_counts_one_eigenvalue_below_two(self, capsys):
        # a beta within INT_TOL of 0 is the integer 0: only (0, 0) lies
        # below 2, and no mode crosses 2 on the way to 0.5
        code, out, _ = run(capsys, ["spectrum", "--beta", "1e-10",
                                    "--lambda-max", "0"])
        assert code == 0
        assert "# count_below_2_strict=1\n" in out
        code, out, _ = run(capsys, ["spectrum", "--flow", "1e-10:0.5:3"])
        assert code == 0
        assert "crossing" not in out
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert [row.split(",")[2] for row in rows[1:]] == ["1", "1", "1"]

    def test_beta_required_without_flow(self, capsys):
        assert run(capsys, ["spectrum"])[0] == 2

    def test_beta_and_flow_exclusive(self, capsys):
        code, out, err = run(capsys, ["spectrum", "--beta", "2",
                                      "--flow", "1:2:3"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: invalid input: provide exactly one of --beta and --flow"]


class TestSolve:
    FOOTBALL = ["solve", "--points", "0,0;3.141592653589793,0",
                "--beta", "1.7,1.7", "--mesh", "128"]
    EQUATOR3 = "1.5708,0;1.5708,2.0944;1.5708,4.1888"

    def test_football_diagnostics(self, tmp_path, capsys):
        out_path = tmp_path / "diag.json"
        code, _, _ = run(capsys, self.FOOTBALL + ["--output", str(out_path)])
        assert code == 0
        diag = json.loads(out_path.read_text())
        assert diag["kind"] == "football"
        assert diag["residual"] < 1e-9
        assert diag["ell"] == 1
        assert diag["area"] == pytest.approx(diag["area_target"], abs=1e-2)
        assert diag["Lambda"] == [0.0]
        assert len(diag["eigen_coeffs"]) == 1      # noninteger angle: cos r
        assert len(diag["eigen_coeffs"][0]) == 2   # one entry per pole

    def test_deterministic_output(self, tmp_path, capsys):
        paths = [tmp_path / f"d{i}.json" for i in range(2)]
        for p in paths:
            assert run(capsys, self.FOOTBALL + ["--output", str(p)])[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_samples_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        code, _, _ = run(capsys, self.FOOTBALL
                         + ["--samples", str(csv_path), "--output",
                            str(tmp_path / "d.json")])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "colatitude,w,density"
        assert len(lines) == 2 + 64            # half-grid cell centres

    def test_disk_samples_csv(self, tmp_path, capsys):
        # one row per radial cell centre, the solve's w read back exactly
        csv_path = tmp_path / "samples.csv"
        code, out, _ = run(capsys, ["solve", "--background", "disk",
                                    "--points", "0", "--beta", "0.5",
                                    "--curvature", "-1", "--mesh", "32",
                                    "--samples", str(csv_path)])
        assert code == 0
        assert json.loads(out)["kind"] == "disk"
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# disk solve, version ")
        assert lines[1] == "r,w"
        r, w = np.loadtxt(lines[2:], delimiter=",").T
        metric = liouville.solve_liouville(liouville.ConicProblem(
            "disk", points=(0.0,), beta=(0.5,), curvature=-1), 32)
        assert np.array_equal(r, metric.mesh["r"])
        assert np.array_equal(w, metric.w)

    @pytest.mark.parametrize("beta,same", [("1,1", "1,1"),
                                           ("1.7,1.7000000001", "1.7,1.7"),
                                           ("0.7,0.7000000001", "0.7,0.7")])
    def test_round_and_nearly_equal_footballs(self, capsys, beta, same):
        # the round sphere at a coarse mesh (an exactly singular A - 2B),
        # and two angles equal within angles.INT_TOL
        diags = []
        for b in (beta, same):
            code, out, _ = run(capsys, ["solve", "--points",
                                        "0,0;3.141592653589793,0", "--beta",
                                        b, "--mesh", "16"])
            assert code == 0
            diags.append(json.loads(out))
        assert diags[0]["kind"] == "football"
        assert diags[0]["ell"] == diags[1]["ell"]
        assert diags[0]["eigenvalues_near_2"] == pytest.approx(
            diags[1]["eigenvalues_near_2"], rel=1e-8)

    def test_football_beyond_both_wider_windows(self, capsys):
        # exited 3 "spectral window boundary too close to an eigenvalue"
        # while only |lambda - 2| < 0.5 and 0.75 were tried
        code, out, _ = run(capsys, ["solve", "--points",
                                    "0,0;3.141592653589793,0", "--beta",
                                    "2.4,2.4", "--mesh", "512"])
        assert code == 0
        assert json.loads(out)["ell"] == 1

    @pytest.mark.parametrize("argv,code", [
        (["--beta", "0.6,0.6", "--mesh", "4"], 0),
        (["--beta", "1.7,1.7", "--mesh", "4"], 3),
        (["--beta", "2,2", "--mesh", "4"], 3),
        (["--beta", "3,3", "--mesh", "4"], 3),
        (["--background", "disk", "--points", "0", "--beta", "0.5",
          "--curvature", "-1", "--mesh", "1"], 0),
        (["--background", "disk", "--points", "0", "--beta", "0.5",
          "--curvature", "-1", "--mesh", "2"], 0)],
        ids=["football-0.6", "football-1.7", "football-2", "football-3",
             "disk-1", "disk-2"])
    def test_smallest_meshes_solve_or_ask_for_refinement(self, capsys, argv,
                                                         code):
        # their Newton steps factor tridiagonals of size 1 and 2; a coarse
        # football spectrum misses the closed-form count and exits 3
        got, out, err = run(capsys, self.FOOTBALL + argv)
        assert got == code
        if code:
            assert out == "" and err.endswith("; refine the mesh\n")
        else:
            assert err == "" and json.loads(out)["residual"] < 1e-9

    def test_football_missing_the_closed_form_count_exits_3(self, capsys):
        # at beta = 0.1 the mode that should be lambda = 2 reads 5.9 at
        # n = 512, so the window holds none of the closed form's one
        code, out, err = run(capsys, ["solve", "--points",
                                      "0,0;3.141592653589793,0", "--beta",
                                      "0.1,0.1", "--mesh", "512"])
        assert (code, out) == (3, "")
        assert err == ("error: solver failure: the football spectrum at "
                       "n = 512 has 0 eigenvalues within 0.5 of 2, where the "
                       "closed form has 1; refine the mesh\n")

    def test_help_example_solves_as_football(self, capsys):
        # the --points example of `solve --help` must be antipodal within
        # is_football's 1e-12, or it solves as a 2-D problem
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        example = re.search(r"e\.g\.\s+'([^']+)'",
                            capsys.readouterr().out)[1]
        code, out, _ = run(capsys, ["solve", "--points", example,
                                    "--beta", "1.7,1.7", "--mesh", "64"])
        assert code == 0
        assert json.loads(out)["kind"] == "football"

    def test_supercritical_is_solver_failure(self, capsys):
        code, _, err = run(capsys, ["solve", "--points", "0,0;1,0;2,0",
                                    "--beta", "0.95,0.9,0.2",
                                    "--mesh", "32"])
        assert code == 3
        assert "solver failure" in err

    @pytest.mark.parametrize("argv,message", [
        (["--points", "0,0"], "one point per angle"),
        (["--points", "0;3.141592653589793,0"], "longitude) pairs"),
        (["--points", "0,0,0;3.141592653589793,0"], "longitude) pairs"),
        (["--mesh", "257"], "even n >= 4"),     # equator inside a cell
        (["--mesh", "2"], "even n >= 4"),       # one half-grid cell
        (["--beta", "nan,nan"], "finite"),
        (["--points", "nan,0;3.141592653589793,0"], "finite"),
        # 0.016 apart at n = 48, where 2h = 0.131
        (["--points", "1.5707963267948966,0;1.5837963267948966,0.01;1.0,3.5",
          "--beta", "0.6,0.6,0.6", "--mesh", "48"], "closer than 2h"),
        # at n = 1, 2h = 2 pi: every pair of points is too close
        (["--points", "0,0;1,1;2,2", "--beta", "0.6,0.6,0.6", "--mesh", "1"],
         "closer than 2h"),
        # chi = -0.015: a K = 1 metric would have negative area
        (["--points", "1.5896384486863002,3.352453193757162;"
          "1.872657565830276,4.786305656401352;"
          "0.8746866850321443,3.8323399521081507;"
          "0.7404081448024228,3.181843729740195",
          "--beta", "0.698,0.329,0.323,0.635", "--mesh", "48"],
         "chi = -0.015"),
        (["--background", "disk", "--points", "0.5", "--beta", "0.7",
          "--curvature", "0"], "one cone point, at radius 0"),
        (["--background", "disk", "--points", "0;0.5", "--beta", "0.7,0.8",
          "--curvature", "0"], "one cone point, at radius 0"),
        # 2 n^2 = 200,978 cells
        (["--points", "1.5708,0;1.5708,2.0944;1.5708,4.1888",
          "--beta", "0.6,0.6,0.6", "--mesh", "317"], "MAX_CELLS = 200000"),
        (["--mesh", "200002"], "MAX_CELLS = 200000"),
        (["--background", "disk", "--points", "0", "--beta", "0.7",
          "--curvature", "0", "--mesh", "200001"], "MAX_CELLS = 200000"),
        # the first point sits on the centre of cell (23, 0)
        (["--points", "1.5380714033200027,0.032724923474893676;"
          "1.5707963267948966,2.0943951023931953;"
          "1.5707963267948966,4.1887902047863905",
          "--beta", "0.6,0.6,0.6", "--mesh", "48"],
         "cone point 0 at (1.5380714033200027, 0.032724923474893676) lies "
         "on the centre of cell (23, 0)"),
        # e^{2v} = (2 sin(phi/2))^{2 (beta - 1)} overflows on the grid
        (["--beta", "1e300,1e300", "--mesh", "24"],
         "beta = [1e+300, 1e+300]: the background density"),
        (["--beta", "600,600", "--mesh", "64"],
         "beta = [600.0, 600.0]: the background density"),
    ], ids=["point-count", "point-one-coordinate",
            "point-three-coordinates", "odd-mesh", "tiny-mesh", "nan-beta",
            "nan-point", "near-coincident", "one-cell-mesh",
            "nonpositive-chi",
            "disk-off-centre", "disk-two-points", "mesh-cap-2d",
            "mesh-cap-football", "mesh-cap-disk", "point-on-cell-centre",
            "huge-beta", "overflowing-beta"])
    def test_invalid_input_is_config_error(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, self.FOOTBALL + argv)
        assert code == 2
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("points,code", [("0", 0), ("0,0", 2),
                                             ("0,0,0", 2)])
    def test_disk_point_is_one_radius(self, capsys, points, code):
        got, out, err = run(capsys, ["solve", "--background", "disk",
                                     "--points", points, "--beta", "0.7",
                                     "--curvature", "0", "--mesh", "16"])
        assert got == code
        if code:
            assert out == ""
            assert err == ("error: invalid input: disk points are single "
                           "radii\n")
        else:
            assert json.loads(out)["kind"] == "disk"

    @pytest.mark.parametrize("points,beta", [
        ("0,0;3.141592653589793,0", "1e-10,1e-10"),
        ("0,0;3.141592653589793,0", "1e-9,1e-9"),
        (EQUATOR3, "0.6,0.6,1e-10")], ids=["football", "int-tol", "2d"])
    def test_angle_counting_as_zero_is_config_error(self, capsys,
                                                    monkeypatch, points,
                                                    beta):
        # spectrum reads a beta within INT_TOL of 0 as the integer 0; solve
        # refuses it before any solve
        def unreachable(*args):
            raise AssertionError("the solver was reached")
        monkeypatch.setattr(cli, "solve_liouville", unreachable)
        code, out, err = run(capsys, ["solve", "--points", points, "--beta",
                                      beta, "--mesh", "16"])
        assert (code, out) == (2, "")
        assert "counts as the integer 0" in err
        assert len(err.splitlines()) == 1

    def test_underflowed_density_is_solver_error(self, capsys):
        # the beta = 1e-3 football converges to a density of 0 at n = 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["solve", "--points",
                                          "0,0;3.141592653589793,0",
                                          "--beta", "1e-3,1e-3",
                                          "--mesh", "16"])
        assert (code, out) == (3, "")
        assert err == ("error: solver failure: Newton converged to a "
                       "density that is not positive in every cell\n")

    def test_singular_newton_step_is_solver_error(self, capsys):
        # the beta = 0.005 football at n = 16 meets an exactly singular
        # tridiagonal Jacobian in a Newton step
        code, out, err = run(capsys, ["solve", "--points",
                                      "0,0;3.141592653589793,0",
                                      "--beta", "0.005,0.005",
                                      "--mesh", "16"])
        assert (code, out) == (3, "")
        assert err == ("error: solver failure: singular tridiagonal matrix "
                       "in a Newton step\n")

    def test_football_builds_each_flux_form_once(self, capsys, monkeypatch):
        # the half grid of the Newton solve, the full grid that the j = 0
        # pencil and the projected solve share, and the j = 1, 2 pencils
        built = []
        init = spectrum.FluxForm.__init__

        def recorded(self, n, p, cells=None):
            built.append((n, p, cells))
            init(self, n, p, cells)

        monkeypatch.setattr(spectrum.FluxForm, "__init__", recorded)
        code, _, _ = run(capsys, ["solve", "--points",
                                  "0,0;3.141592653589793,0", "--beta",
                                  "1.7,1.7", "--mesh", "512"])
        assert code == 0
        assert built.count((512, 1, None)) == 1
        assert sorted(built, key=str) == [(512, 1, 256), (512, 1, None),
                                          (512, 3, None), (512, 5, None)]

    def test_empty_point_list(self, capsys):
        code, out, err = run(capsys, ["solve", "--points", ";",
                                      "--beta", "0.7"])
        assert (code, out) == (2, "")
        assert err == "error: invalid input: empty point list\n"

    def test_eigensolver_failure_is_solver_error(self, capsys, monkeypatch):
        # ARPACK serves the 2-D pencil only
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", [], [])
        monkeypatch.setattr(liouville, "eigsh", no_convergence)
        code, _, err = run(capsys, ["solve", "--points", self.EQUATOR3,
                                    "--beta", "0.6,0.7,0.8", "--mesh", "24"])
        assert code == 3
        assert "solver failure" in err and "forced" in err
        assert "Traceback" not in err

    def test_bisection_failure_is_solver_error(self, capsys, monkeypatch):
        def failed(d, e, *args):
            n = len(d)
            return 0, np.zeros(n), np.zeros(n, dtype=np.int32), \
                np.zeros(n, dtype=np.int32), 1
        monkeypatch.setattr(spectrum, "dstebz", failed)
        with pytest.raises(liouville.SolverError, match="dstebz info 1"):
            liouville.spectrum_near_two(liouville.solve_liouville(
                liouville.ConicProblem("sphere", points=((0.0, 0.0),
                                                         (math.pi, 0.0)),
                                       beta=(1.7, 1.7)), 128))
        code, out, err = run(capsys, self.FOOTBALL)
        assert (code, out) == (3, "")
        assert err.startswith("error: solver failure: Sturm bisection failed")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_window_edges_too_close_is_solver_error(self, capsys,
                                                    monkeypatch):
        # an eigenvalue on an edge of each of the windows 0.5, 0.75 and 1/3
        def on_every_edge(A, b, lo, hi):
            return np.array([2.5, 2.75, 2.0 + 1.0 / 3.0]), np.zeros((len(b),
                                                                     3))
        monkeypatch.setattr(liouville, "tridiag_pencil_eigs", on_every_edge)
        code, out, err = run(capsys, self.FOOTBALL)
        assert (code, out) == (3, "")
        assert err == ("error: solver failure: spectral window boundary too "
                       "close to an eigenvalue\n")

    def test_singular_system_is_solver_error(self, capsys, monkeypatch):
        # LinAlgError is a ValueError, yet a singular system is no input
        # error
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(liouville, "_border", singular)
        code, out, err = run(capsys, self.FOOTBALL)
        assert (code, out) == (3, "")
        assert err.startswith("error: solver failure: Singular matrix")
        assert len(err.splitlines()) == 1


FUZZ_POINTS = [(0.0, 0.0), (math.pi, 0.0), (1.5708, 0.0), (1.5708, 2.0944),
               (1.5708, 4.1888)]
FUZZ_COORD = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.0,
                              0.0]) | st.floats(-4.0, 7.0)
FUZZ_BETA = st.sampled_from([0.0, -1.0, 1e-300, 1e300, math.nan]) \
    | st.floats(0.3, 3.5)


@st.composite
def solve_argv(draw):
    """`solve` arguments: fixed and drawn points (so some repeat), with one
    angle each; footballs are drawn as an antipodal pair of equal angles."""
    if draw(st.booleans()):
        points = [(0.0, 0.0), (math.pi, 0.0)]
        betas = [draw(FUZZ_BETA)] * 2
    else:
        k = draw(st.integers(1, 4))
        points = draw(st.lists(st.sampled_from(FUZZ_POINTS)
                               | st.tuples(FUZZ_COORD, FUZZ_COORD),
                               min_size=k, max_size=k))
        betas = draw(st.lists(FUZZ_BETA, min_size=k, max_size=k))
    background = draw(st.sampled_from(["sphere", "disk"]))
    if background == "disk":
        # disk points are radii
        text = ";".join(repr(p[0]) for p in points)
    else:
        text = ";".join(f"{p[0]!r},{p[1]!r}" for p in points)
    mesh = draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 8, 16, 24, 317,
                                 10 ** 12]))
    return ["solve", "--background", background, "--points=" + text,
            "--beta=" + ",".join(repr(b) for b in betas),
            "--curvature", str(draw(st.sampled_from([-1, 0, 1]))),
            "--mesh", str(mesh)]


def ends_cleanly(argv):
    """Run the CLI on argv: exit 0, 2, 3 or 4, no traceback, under 30 s."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert time.perf_counter() - start < 30.0


class TestSolveFuzz:
    # inputs that run a whole solve, which few drawn inputs do
    @example(["solve", "--points=0,0;3.141592653589793,0", "--beta=3.5,3.5",
              "--mesh", "8"])
    @example(["solve", "--points=1e308,0;1.5708,2.0944;1.5708,4.1888",
              "--beta=0.6,0.6,0.6", "--mesh", "16"])
    @example(["solve", "--background", "disk", "--points=0", "--beta=1e300",
              "--curvature", "-1", "--mesh", "317"])
    @given(solve_argv())
    @settings(max_examples=40)
    def test_every_input_ends_cleanly(self, argv):
        ends_cleanly(argv)


FUZZ_ANGLE = st.floats(0.05, 6.0) | st.sampled_from([0.5, 1.0, 2.0, 3.0])
FUZZ_BAD = st.sampled_from([0.0, -1.0, 1e300, math.nan, math.inf, 10 ** 400,
                            True, None, "1", [1.5]])
FUZZ_ANGLES = st.lists(FUZZ_ANGLE, min_size=1, max_size=18) \
    | st.lists(FUZZ_ANGLE | FUZZ_BAD, max_size=4) | FUZZ_BAD


@st.composite
def angles_config(draw):
    """`angles` configs: mostly objects with valid angle lists of up to 18
    entries, some with wrong types, non-finite numbers or a bad genus; some
    carry an equal-angle split B of the first angle."""
    cfg = {"beta": draw(FUZZ_ANGLES)}
    if draw(st.integers(0, 3)) == 0:
        cfg["genus"] = draw(st.sampled_from([0, 1, 0.0, 1.5, -1, 2 ** 53,
                                             math.nan, None, [0]]))
    beta = cfg["beta"]
    B = FUZZ_ANGLES
    if type(beta) is list and beta and type(beta[0]) is float \
            and 2.0 <= beta[0] <= 6.0 and draw(st.booleans()):
        J = math.floor(beta[0])
        B = st.just([1 + (beta[0] - 1) / J] * J + beta[1:])
    if draw(st.booleans()):
        cfg["B"] = draw(B)
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from([{**cfg, "betas": 1}, 3, None, [cfg]]))
    return cfg


class TestAnglesFuzz:
    # 16 non-integer angles: the largest coaxial search a config may ask for
    @example({"beta": [0.5 + 0.01 * i for i in range(16)]})
    @example({"genus": 0, "beta": [2.5, 0.7], "B": [1.75, 1.75, 0.7]})
    @given(angles_config())
    @settings(max_examples=60)
    def test_every_config_ends_cleanly(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            ends_cleanly(["angles", path])


FUZZ_WEIGHT = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0,
                               1e300]) | st.floats(-3.0, 3.0)
FUZZ_COEFF = st.sampled_from([0j, 1e200 + 0j, complex(math.nan, 0.0)]) \
    | st.complex_numbers(max_magnitude=1.0)


@st.composite
def split_argv(draw):
    """`split` arguments for 1-8 points; some weight vectors get a zero
    subset sum, and some are scaled to sum J, so that the homotopy runs."""
    J = draw(st.integers(1, 8))
    weights = draw(st.lists(FUZZ_WEIGHT, min_size=J, max_size=J))
    if J >= 2 and draw(st.integers(0, 3)) == 0:
        weights[1] = -weights[0]
    total = sum(weights)
    if draw(st.integers(0, 3)) > 0 and math.isfinite(total) and total != 0.0:
        weights = [w * J / total for w in weights]
    coeffs = draw(st.lists(FUZZ_COEFF, min_size=J, max_size=J))
    argv = ["split", "--weights=" + ",".join(repr(w) for w in weights),
            "--coeffs=" + ",".join(repr(c) for c in coeffs),
            "--ray-samples", str(draw(st.sampled_from([-1, 0, 1, 8,
                                                       10001])))]
    branch = draw(st.sampled_from([None, -1, 0, 1, 10 ** 6]))
    return argv if branch is None else argv + ["--branch", str(branch)]


class TestSplitFuzz:
    # inputs that run the homotopy, which few drawn inputs do: J = 7 with a
    # ray expansion, a weight path through zero, and R_2 = -2e200
    @example(["split", "--weights=0.6,0.8,1.2,1.4,0.9,1.1,1.0",
              "--coeffs=0.1,0.05j,0.02,0.01,-0.004,0.002j,0.001",
              "--ray-samples", "8", "--branch", "1"])
    @example(["split", "--weights=3.0,-1.0", "--coeffs=0.1,0.04",
              "--ray-samples", "8"])
    @example(["split", "--weights=0.5,1.5", "--coeffs=0j,(1e+200+0j)",
              "--ray-samples", "8"])
    @given(split_argv())
    @settings(max_examples=40)
    def test_every_input_ends_cleanly(self, argv):
        ends_cleanly(argv)


def pair_payload(**entry):
    """Diagnostics of one cone point with one eigen_coeffs row, whose entry
    takes the given keys over a well-formed beta = 1.5 entry."""
    good = {"beta": 1.5, "constant": 1.0, "modes": [[1, 0.5, -0.5]],
            "residual": 0.0, "reliable": True}
    return {"beta": [1.5], "eigen_coeffs": [[{**good, **entry}]]}


class TestPairRoundtrip:
    @pytest.fixture()
    def diag_path(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        assert main(TestSolve.FOOTBALL + ["--output", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_football_pairing_report(self, diag_path, capsys):
        code, out, _ = run(capsys, ["pair", "--diagnostics", diag_path,
                                    "--direction", "0.1+0.2j;-0.05"])
        assert code == 0
        report = json.loads(out)
        assert report["ell"] == 1
        assert (report["K"], report["K0"], report["k0"]) == (2, 2, 2)
        # the cos r row has no indicial component: degenerate pairing
        assert report["rank"] == 0
        assert abs(report["B_values"][0]) < 1e-6
        assert report["classification"]["case"] == "partial_rigidity"
        assert report["classification"]["dim"] == 4
        assert report["unreliable_rows"] == []

    @pytest.mark.parametrize("beta,direction", [
        ("2", "0.1,0.2j;-0.05,0.1"),
        ("3", "0.1,0.2j,0.05;-0.05,0.1,0.02j")])
    def test_integer_beta_rows_reliable(self, tmp_path, capsys, beta,
                                        direction):
        # the j = beta eigenfunctions carry r^{m/beta + 2} terms that the
        # fit must absorb
        diag = str(tmp_path / "diag.json")
        assert main(["solve", "--points", "0,0;3.141592653589793,0",
                     "--beta", f"{beta},{beta}", "--mesh", "64",
                     "--output", diag]) == 0
        code, out, _ = run(capsys, ["pair", "--diagnostics", diag,
                                    "--direction", direction])
        assert code == 0
        report = json.loads(out)
        assert report["ell"] == 3
        assert report["unreliable_rows"] == []

    @pytest.mark.parametrize("beta", [1 + 5e-10, 1.9999999995, 2.0,
                                      2.0000000008, 2.5, 3 - 2e-10])
    def test_near_integer_rows_reliable(self, tmp_path, capsys, beta):
        # solve and pair agree with angles on [beta] and integrality
        diag = tmp_path / "diag.json"
        assert main(["solve", "--points", "0,0;3.141592653589793,0",
                     "--beta", f"{beta!r},{beta!r}", "--mesh", "256",
                     "--output", str(diag)]) == 0
        modes = json.loads(diag.read_text())["eigen_coeffs"][0][0]["modes"]
        group = ",".join(["0.1+0.2j"] * len(modes))
        code, out, _ = run(capsys, ["pair", "--diagnostics", str(diag),
                                    "--direction", f"{group};{group}"])
        assert code == 0
        assert json.loads(out)["unreliable_rows"] == []

    # every (beta, mesh) whose solve report a test here hands to pair
    @pytest.mark.parametrize("beta,mesh", [
        ("1.7", 128), ("1.7", 64), ("2", 64), ("3", 64),
        *((repr(b), 256) for b in (1 + 5e-10, 1.9999999995, 2.0,
                                   2.0000000008, 2.5, 3 - 2e-10))])
    def test_rows_read_back_byte_identical(self, tmp_path, beta, mesh):
        path = tmp_path / "diag.json"
        assert main(["solve", "--points", "0,0;3.141592653589793,0",
                     "--beta", f"{beta},{beta}", "--mesh", str(mesh),
                     "--output", str(path)]) == 0
        text = path.read_text()
        rows = [[vars(EigenCoeffs.from_report(e)) for e in row]
                for row in json.loads(text)["eigen_coeffs"]]
        assert '"eigen_coeffs": ' + canonical_json(rows, 2).lstrip() \
            + ",\n" in text

    def test_report_without_eigen_rows_is_unobstructed(self, tmp_path,
                                                       capsys):
        # a 2-D solve writes no eigen rows, whatever its own ell; pair then
        # reports ell 0, the unobstructed case and no pairing matrix
        diag = str(tmp_path / "diag.json")
        assert main(["solve", "--points", TestSolve.EQUATOR3, "--beta",
                     "0.6,0.7,0.8", "--mesh", "24", "--output", diag]) == 0
        code, out, _ = run(capsys, ["pair", "--diagnostics", diag,
                                    "--direction", "0.1;0.1;0.1"])
        assert code == 0
        report = json.loads(out)
        assert (report["ell"], report["K"], report["K0"], report["k0"]) \
            == (0, 3, 0, 0)
        assert report["classification"] == {"case": "unobstructed", "dim": 6}
        assert not {"B_values", "B_matrix", "kernel", "rank",
                    "unreliable_rows"} & set(report)

    def test_direction_group_count_mismatch(self, diag_path, capsys):
        assert run(capsys, ["pair", "--diagnostics", diag_path,
                            "--direction", "0.1"])[0] == 2

    def test_missing_diagnostics(self, capsys):
        assert run(capsys, ["pair", "--diagnostics", "/nonexistent.json",
                            "--direction", "0.1;0.1"])[0] == 2

    @pytest.mark.parametrize("payload,message", [
        ([1, 2], "must hold a JSON object"),
        ({"beta": [1.5, 1.5], "eigen_coeffs": [[1]]}, "malformed"),
        ({"beta": [1.5, 1.5], "eigen_coeffs": [[{"beta": 1.5}]]},
         "malformed"),
        ({"beta": 3, "eigen_coeffs": []}, "malformed"),
        ({"beta": [math.inf, math.inf], "eigen_coeffs": []}, "finite"),
        ({"beta": [math.nan, 1.5], "eigen_coeffs": []}, "finite"),
        (pair_payload(modes=[[1.9, 0.0, 0.0]]), "with an integer m"),
        (pair_payload(modes=[[True, 0.0, 0.0]]), "with an integer m"),
        (pair_payload(modes=[[1, 0.0]]), "malformed modes"),
        (pair_payload(reliable="false"), "malformed reliable"),
        (pair_payload(reliable=1), "malformed reliable"),
        (pair_payload(reliable=None), "malformed reliable"),
        (pair_payload(constant="0.5"), "constant must be a finite real"),
        (pair_payload(residual=False), "residual must be a finite real"),
        (pair_payload(extra=0.0), "malformed eigen_coeffs entry"),
        ({"beta": "17", "eigen_coeffs": []}, "malformed angle list"),
        ({"beta": [True, True], "eigen_coeffs": []}, "finite real number"),
        ({"beta": ["1.5", 1.5], "eigen_coeffs": []}, "finite real number"),
        ({"beta": [1.5, 1.5], "eigen_coeffs": "[]"}, "malformed eigen_coeffs"),
        ({"beta": [1.5, 1.5]}, "must hold a JSON object with beta and"),
    ], ids=["list", "row-not-object", "row-missing-keys", "beta-not-list",
            "beta-inf", "beta-nan", "mode-index-fraction", "mode-index-bool",
            "mode-pair", "reliable-str", "reliable-int", "reliable-null",
            "constant-str", "residual-bool", "extra-key", "beta-str",
            "beta-bools", "beta-entry-str", "rows-str", "no-rows"])
    def test_malformed_diagnostics(self, tmp_path, capsys, payload, message):
        code, _, err = run(capsys, ["pair", "--diagnostics",
                                    write_config(tmp_path, payload),
                                    "--direction", "0.1;0.1"])
        assert code == 2
        assert message in err
        assert len(err.splitlines()) == 1


def football_diagnostics(beta, tmp_path):
    """solve's diagnostics of the beta football at n = 64, as a dict."""
    path = tmp_path / f"diag-{beta}.json"
    assert main(["solve", "--points", "0,0;3.141592653589793,0", "--beta",
                 f"{beta},{beta}", "--mesh", "64", "--output", str(path)]) == 0
    return json.loads(path.read_text())


class TestReportSchema:
    """The keys of each report section that the CLI takes from a result
    dataclass, so that renaming a field cannot change the JSON silently."""

    def test_angles_sections(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"beta": [2.5, 0.7],
                                      "B": [1.75, 1.75, 0.7]})
        report = json.loads(run(capsys, ["angles", cfg])[1])
        assert set(report["coaxial"]) == {"status", "case", "epsilon", "k1",
                                          "k2", "b", "eta"}
        assert set(report["splitting"]) == {"k0", "K", "cluster_sizes", "B",
                                            "weights", "order"}

    def test_split_sections(self, capsys):
        report = json.loads(run(capsys, [
            "split", "--weights", "1.0,1.0", "--coeffs", "0.1,0.04",
            "--ray-samples", "2"])[1])
        for branch in report["branches"]:
            assert set(branch) == {"branch_id", "z", "condition",
                                   "near_discriminant"}
        assert set(report["expansion"]) == {"theta", "branch_id", "c", "ray"}
        assert {frozenset(p) for p in report["expansion"]["ray"]} \
            == {frozenset({"rho", "z"})}
        assert set(report["blowup"]) == {"R", "phi", "z0_2", "R_lead",
                                         "phi_lead", "z0_2_lead", "z0"}

    def test_solve_eigen_coeffs(self, tmp_path):
        rows = football_diagnostics(2, tmp_path)["eigen_coeffs"]
        assert len(rows) == 3
        for entry in (e for row in rows for e in row):
            assert set(entry) == {"beta", "constant", "modes", "residual",
                                  "reliable"}


PAIR_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                               0.0, 10 ** 400, "nan", "0.5", None, True, 1.9,
                               [1.0]]) | st.floats(-2.0, 2.0)
PAIR_RELIABLE = st.sampled_from([True, False, "false", 1, 0, None])
PAIR_ANGLES = st.sampled_from(["17", [True, True], ["1.7", "1.7"], 1.7, None])
PAIR_DIRECTION = st.sampled_from([complex(1e308, 0.0), complex(math.inf, 0.0),
                                  complex(0.0, math.nan)]) | FUZZ_COEFF


@st.composite
def pair_case(draw, diagnostics):
    """An edit of a football's diagnostics and `pair` arguments: numbers in
    the eigen_coeffs rows replaced by non-finite, huge or mistyped ones,
    mistyped mode indices and reliable flags, extra row keys, tiny, huge or
    mistyped cone angles, and drawn direction groups and rank floor."""
    diag = json.loads(json.dumps(diagnostics[draw(st.sampled_from(
        sorted(diagnostics)))]))
    entries = [e for row in diag["eigen_coeffs"] for e in row]
    for _ in range(draw(st.integers(0, 3))):
        entry = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(["beta", "constant", "residual",
                                    "modes", "reliable", "extra"]))
        if key == "modes":
            draw(st.sampled_from(entry["modes"]))[draw(st.integers(0, 2))] \
                = draw(PAIR_NUMBER)
        else:
            entry[key] = draw(PAIR_RELIABLE if key == "reliable"
                              else PAIR_NUMBER)
    if draw(st.integers(0, 3)) == 0:
        beta = draw(st.sampled_from([1e-3, 1e-5, 1e300]))
        diag["beta"] = [beta, beta]
        for entry in entries:
            entry["beta"] = beta
    elif draw(st.integers(0, 7)) == 0:
        diag["beta"] = draw(PAIR_ANGLES)
    size = len(entries[0]["modes"]) + draw(st.sampled_from([0, 0, 0, 1]))
    groups = [",".join(repr(draw(PAIR_DIRECTION)) for _ in range(size))
              for _ in range(2)]
    return diag, ["--direction", ";".join(groups), "--rank-atol",
                  draw(st.sampled_from(["1e-8", "0", "nan", "-1", "inf"]))]


class TestPairFuzz:
    @pytest.fixture(scope="class")
    def diagnostics(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pair")
        return {beta: football_diagnostics(beta, tmp_path)
                for beta in ("1.7", "2")}

    @staticmethod
    def pair_argv(tmp, diag, argv):
        path = os.path.join(tmp, "diag.json")
        with open(path, "w") as fh:
            json.dump(diag, fh)
        return ["pair", "--diagnostics", path] + argv

    @pytest.mark.parametrize("beta,key,value,direction", [
        ("2", "modes", [[math.inf, 0.0, 0.0], [2, 0.0, 0.0]],
         "0.1,0.2j;-0.05,0.1"),
        ("2", "constant", math.nan, "0.1,0.2j;-0.05,0.1"),
        ("1.7", "modes", [[1, 1e308, 1e308]], "0.1+0.2j;-0.05"),
        ("2", None, None, "nan,0.3;0.1,0.1"),
        ("1.7", "modes", [[1.9, 0.0, 0.0]], "0.1+0.2j;-0.05"),
        ("1.7", "modes", [[True, 0.0, 0.0]], "0.1+0.2j;-0.05"),
        ("1.7", "reliable", "false", "0.1+0.2j;-0.05"),
        ("1.7", "reliable", 1, "0.1+0.2j;-0.05"),
        ("1.7", "reliable", None, "0.1+0.2j;-0.05"),
        ("1.7", "constant", "0.5", "0.1+0.2j;-0.05"),
        ("1.7", "residual", True, "0.1+0.2j;-0.05"),
        ("1.7", "extra", 0.0, "0.1+0.2j;-0.05"),
    ], ids=["mode-index-inf", "coefficient-nan", "coefficients-1e308",
            "direction-nan", "mode-index-fraction", "mode-index-bool",
            "reliable-str", "reliable-int", "reliable-null", "constant-str",
            "residual-bool", "extra-key"])
    def test_refused_with_one_line(self, diagnostics, tmp_path, capsys, beta,
                                   key, value, direction):
        diag = json.loads(json.dumps(diagnostics[beta]))
        if key:
            for entry in (e for row in diag["eigen_coeffs"] for e in row):
                entry[key] = value
        code, out, err = run(capsys, self.pair_argv(
            tmp_path, diag, ["--direction", direction]))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("beta", ["17", [True, True], ["1.7", "1.7"]],
                             ids=["str", "bools", "strs"])
    def test_mistyped_angles_refused(self, diagnostics, tmp_path, capsys,
                                     beta):
        diag = {**diagnostics["1.7"], "beta": beta}
        code, out, err = run(capsys, self.pair_argv(
            tmp_path, diag, ["--direction", "0.1+0.2j;-0.05"]))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    @given(st.data())
    @settings(max_examples=60)
    def test_every_input_ends_cleanly(self, diagnostics, data):
        diag, argv = data.draw(pair_case(diagnostics))
        with tempfile.TemporaryDirectory() as tmp:
            ends_cleanly(self.pair_argv(tmp, diag, argv))


class TestImports:
    def test_cli_import_skips_unused_scipy_subpackages(self):
        code = ("import sys, conemetric.cli; print(sorted(m for m in "
                "('scipy.integrate', 'scipy.optimize', 'scipy.cluster', "
                "'scipy.spatial') if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_scipy_special_loads_with_the_first_eigenfunction(self):
        code = ("import sys, conemetric.cli\n"
                "print('scipy.special' in sys.modules)\n"
                "conemetric.cli.football_eigenfunction(2.0, 2, 0)(1.0)\n"
                "print('scipy.special' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["pair", "--diagnostics", "{tmp}/report.json", "--direction", "0.1"],
        ["solve", "--points", "0,0;3.141592653589793,0", "--beta", "1.7,1.7",
         "--mesh", "0"],
        ["spectrum", "--beta", "2.5", "--output", "{tmp}/missing/out.csv"],
    ], ids=["pair-malformed-report", "solve-mesh-0", "unwritable-output"])
    def test_invalid_input_ends_with_one_line(self, tmp_path, argv):
        write_config(tmp_path, pair_payload(reliable="false"), "report.json")
        argv = [a.format(tmp=tmp_path) for a in argv]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-m", "conemetric.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("error: ")
        assert len(out.stderr.splitlines()) == 1


class TestBenchSpans:
    def test_traced_names_resolve(self):
        # bench/run.py --trace 1 wraps each of these names in place
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for target, _ in spans.WRAPPED:
            mod, attr = target.split(".")
            assert callable(getattr(getattr(conemetric, mod), attr, None)), \
                target


class TestVerify:
    def test_single_criterion(self, capsys):
        code, out, _ = run(capsys, ["verify", "--criteria", "2"])
        assert code == 0
        assert "[PASS] criterion  2" in out
        assert "all 1 criteria passed" in out

    def test_runner_numbers_and_times_the_criteria(self):
        results = run_acceptance([2, 12])
        assert [(r.index, r.name) for r in results] == [
            (2, "eigenvalue count formula"), (12, "spectral flow crossings")]
        assert all(r.passed and r.elapsed > 0.0 for r in results)

    def test_failing_criterion_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(
            lambda seed, i=i: (f"recorded {i}", i != 2, "stand-in")
            for i in range(1, 13)))
        code, out, _ = run(capsys, ["verify", "--criteria", "1,2,3"])
        assert code == 4
        assert "[FAIL] criterion  2 (recorded 2): stand-in" in out
        assert out.count("[PASS]") == 2
        assert out.splitlines()[-1] == "1 criterion(s) failed: [2]"

    def test_bad_criteria_list(self, capsys):
        assert run(capsys, ["verify", "--criteria", "two"])[0] == 2

    @pytest.mark.parametrize("argv,message", [
        (["--criteria", "1,99"], "criterion index 99 out of range"),
        (["--criteria", ","], "names no criterion"),
        (["--seed", "-100"], "--seed must be a non-negative integer")],
        ids=["index-99", "empty-list", "negative-seed"])
    def test_input_checked_before_any_criterion(self, capsys, monkeypatch,
                                                argv, message):
        ran = []

        def recorder(i):
            def criterion(seed):
                ran.append(i)
                return "recorded", True, ""
            return criterion
        monkeypatch.setattr(acceptance, "CRITERIA",
                            tuple(recorder(i) for i in range(1, 13)))
        code, out, err = run(capsys, ["verify", *argv])
        assert (code, out, ran) == (2, "", [])
        assert err.startswith("error: invalid input: ") and message in err
        # the recorders stand in for the criteria
        assert run(capsys, ["verify", "--criteria", "1,12"])[0] == 0
        assert ran == [1, 12]


class TestReportCorpus:
    @pytest.fixture
    def corpus(self, monkeypatch):
        # tests/report_corpus.py sets CONEMETRIC_THREADS and sys.path on
        # import; both are restored afterwards
        monkeypatch.setenv("CONEMETRIC_THREADS", "1")
        monkeypatch.setattr(sys, "path", list(sys.path))
        path = Path(__file__).resolve().parent / "report_corpus.py"
        spec = importlib.util.spec_from_file_location("report_corpus", path)
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        return corpus

    REFERENCE = {"eigenvalues_near_2": [1.9999943332765493], "ell": 3,
                 "kind": "football", "Lambda": [0], "residual": 2e-11,
                 "meta": {"tolerance": 2e-11, "uneven": False}}

    @pytest.mark.parametrize("change,bad", [
        ({}, []),
        ({"eigenvalues_near_2": [1.999994333276345]}, []),
        ({"Lambda": [3e-13], "residual": 5e-10,
          "meta": {"tolerance": 5e-10, "uneven": False}}, []),
        ({"eigenvalues_near_2": [1.99999433]}, ["eigenvalues_near_2[0]"]),
        ({"eigenvalues_near_2": []}, ["eigenvalues_near_2[0]"]),
        ({"ell": 5}, ["ell"]),
        ({"kind": "sphere2d"}, ["kind"]),
        ({"Lambda": [2e-12]}, ["Lambda[0]"]),
        ({"residual": 2e-8}, ["residual"]),
        ({"meta": {"tolerance": 2e-11, "uneven": 0}}, ["meta.uneven"]),
        ({"meta": {"tolerance": 2e-11}}, ["meta.uneven"]),
        ({"area": 1.0}, ["area"])],
        ids=["same", "round-off", "zero-Lambda-and-converged-residual",
             "moved-float", "dropped-item", "integer", "string",
             "nonzero-Lambda", "unconverged-residual", "bool-as-integer",
             "missing-key", "extra-key"])
    def test_compare(self, corpus, tmp_path, change, bad):
        sides = {"ref": self.REFERENCE, "out": {**self.REFERENCE, **change}}
        for side, report in sides.items():
            (tmp_path / side).mkdir()
            (tmp_path / side / "solve.json").write_text(
                canonical_json(report))
            (tmp_path / side / "flow.csv").write_text(
                "# flow\nsample,beta\n0,1.5\n")
        text = io.StringIO()
        code = corpus.compare(tmp_path / "ref", tmp_path / "out", text)
        lines = text.getvalue().splitlines()
        assert code == (1 if bad else 0)
        assert [line.split(": ")[1] for line in lines[:-1]
                if ": largest" not in line] == bad
        assert lines[-1] == (f"2 files, {int(bool(change))} changed, "
                             f"{len(bad)} out of tolerance")

    @pytest.mark.parametrize("after,bad", [(1.4809e-9, []),
                                           (1.2e-8, ["residual"])],
                             ids=["round-off", "unconverged"])
    def test_compare_residual_above_newton_tol(self, corpus, tmp_path,
                                               after, bad):
        # a 2-D solve converges its rows below their rounding floor, so
        # sup|F| may exceed NEWTON_TOL: 1.47e-9 for (0.6, 0.6, 0.6) at n = 96
        before = 1.4713614771011407e-09
        for side, residual in (("ref", before), ("out", after)):
            (tmp_path / side).mkdir()
            (tmp_path / side / "solve.json").write_text(canonical_json(
                {"kind": "sphere2d", "residual": residual,
                 "meta": {"tolerance": residual}}))
        text = io.StringIO()
        code = corpus.compare(tmp_path / "ref", tmp_path / "out", text)
        lines = text.getvalue().splitlines()
        assert code == (1 if bad else 0)
        assert lines[-1] == f"1 files, 1 changed, {2 * len(bad)} out of " \
            "tolerance"

    def test_compare_csv_cells_and_missing_files(self, corpus, tmp_path):
        for side, row in (("ref", "0,1.5,3"),
                          ("out", "0,1.5000000000000002,4")):
            (tmp_path / side).mkdir()
            (tmp_path / side / "flow.csv").write_text(
                f"# flow\nsample,beta,count\n{row}\n")
        (tmp_path / "out" / "extra.json").write_text("{}")
        text = io.StringIO()
        assert corpus.compare(tmp_path / "ref", tmp_path / "out", text) == 1
        assert text.getvalue().splitlines() == [
            "extra.json: present on one side only",
            "flow.csv: [2][2]: 3 -> 4",
            "flow.csv: largest change 1 at [2][2], relative 0.333 at [2][2]",
            "2 files, 1 changed, 2 out of tolerance"]

    def test_matches_reference(self, corpus, tmp_path):
        # tests/reference_corpus holds the reports of the commit, with the
        # numpy and scipy versions, that tests/reference_corpus.json names;
        # a change that moves a number beyond round-off regenerates it
        here = Path(__file__).resolve().parent
        made = json.loads((here / "reference_corpus.json").read_text())
        assert set(corpus.main_corpus(tmp_path).values()) == {0}
        text = io.StringIO()
        code = corpus.compare(here / "reference_corpus", tmp_path, text)
        assert code == 0, f"reference made by {made}:\n{text.getvalue()}"

    def test_two_runs_byte_identical(self, corpus, tmp_path):
        codes = [corpus.main_corpus(tmp_path / side) for side in ("a", "b")]
        assert codes[0] == codes[1] and set(codes[0].values()) == {0}
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(files) == 28
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name
