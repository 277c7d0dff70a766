import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from conemetric import cli, liouville
from conemetric.cli import (MAX_FLOW_SAMPLES, MAX_RAY_SAMPLES, canonical_json,
                            main)
from conemetric.factorization import MAX_J


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
    ], ids=["number", "beta-number", "beta-null", "B-number", "beta-bool",
            "beta-huge-int", "beta-nan", "17-angles", "genus-fraction",
            "genus-list"])
    def test_malformed_config_rejected(self, tmp_path, capsys, payload):
        code, out, err = run(capsys, ["angles",
                                      write_config(tmp_path, payload)])
        assert code == 2
        assert out == ""
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

    def test_bad_weight_sum(self, capsys):
        code, _, err = run(capsys, ["split", "--weights", "1.0,0.5",
                                    "--coeffs", "0.1,0.04"])
        assert code == 2

    def test_length_mismatch(self, capsys):
        assert run(capsys, ["split", "--weights", "1.0,1.0",
                            "--coeffs", "0.1"])[0] == 2

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

    def test_flow_count_capped(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, ["spectrum", "--flow", "1:3:100000000"])
        assert code == 2
        assert f"the limit is {MAX_FLOW_SAMPLES}" in err
        assert time.perf_counter() - start < 1.0

    def test_nan_beta_rejected(self, capsys):
        assert run(capsys, ["spectrum", "--beta", "nan"])[0] == 2

    def test_beta_required_without_flow(self, capsys):
        assert run(capsys, ["spectrum"])[0] == 2


class TestSolve:
    FOOTBALL = ["solve", "--points", "0,0;3.141592653589793,0",
                "--beta", "1.7,1.7", "--mesh", "128"]

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

    def test_supercritical_is_solver_failure(self, capsys):
        code, _, err = run(capsys, ["solve", "--points", "0,0;1,0;2,0",
                                    "--beta", "0.95,0.9,0.2",
                                    "--mesh", "32"])
        assert code == 3
        assert "solver failure" in err

    @pytest.mark.parametrize("argv,message", [
        (["--points", "0,0"], "one point per angle"),
        (["--mesh", "257"], "even n >= 4"),     # equator inside a cell
        (["--mesh", "2"], "even n >= 4"),       # one half-grid cell
        (["--beta", "nan,nan"], "finite"),
        (["--points", "nan,0;3.141592653589793,0"], "finite"),
        # 0.016 apart at n = 48, where 2h = 0.131
        (["--points", "1.5707963267948966,0;1.5837963267948966,0.01;1.0,3.5",
          "--beta", "0.6,0.6,0.6", "--mesh", "48"], "closer than 2h"),
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
    ], ids=["point-count", "odd-mesh", "tiny-mesh", "nan-beta", "nan-point",
            "near-coincident", "nonpositive-chi", "disk-off-centre",
            "disk-two-points", "mesh-cap-2d", "mesh-cap-football",
            "mesh-cap-disk", "point-on-cell-centre", "huge-beta",
            "overflowing-beta"])
    def test_invalid_input_is_config_error(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, self.FOOTBALL + argv)
        assert code == 2
        assert message in err
        assert len(err.splitlines()) == 1

    def test_eigensolver_failure_is_solver_error(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", [], [])
        monkeypatch.setattr(liouville, "eigsh", no_convergence)
        code, _, err = run(capsys, self.FOOTBALL)
        assert code == 3
        assert "solver failure" in err and "forced" in err
        assert "Traceback" not in err

    def test_axisym_flag_requires_football(self, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("--axisym was checked after the solve")
        monkeypatch.setattr(liouville, "_solve_sphere2d", no_solve)
        code, _, _ = run(capsys, ["solve", "--points",
                                  "1.5707963267948966,0;"
                                  "1.5707963267948966,2.0943951023931953;"
                                  "1.5707963267948966,4.1887902047863905",
                                  "--beta", "0.6,0.6,0.6", "--mesh", "24",
                                  "--axisym"])
        assert code == 2


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
    @settings(derandomize=True, deadline=None, max_examples=40)
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
    @settings(derandomize=True, deadline=None, max_examples=60)
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
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_every_input_ends_cleanly(self, argv):
        ends_cleanly(argv)


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
    ], ids=["list", "row-not-object", "row-missing-keys", "beta-not-list"])
    def test_malformed_diagnostics(self, tmp_path, capsys, payload, message):
        code, _, err = run(capsys, ["pair", "--diagnostics",
                                    write_config(tmp_path, payload),
                                    "--direction", "0.1;0.1"])
        assert code == 2
        assert message in err
        assert len(err.splitlines()) == 1


class TestImports:
    def test_cli_import_skips_unused_scipy_subpackages(self):
        code = ("import sys, conemetric.cli; print(sorted(m for m in "
                "('scipy.integrate', 'scipy.optimize', 'scipy.cluster', "
                "'scipy.spatial') if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestVerify:
    def test_single_criterion(self, capsys):
        code, out, _ = run(capsys, ["verify", "--criteria", "2"])
        assert code == 0
        assert "[PASS] criterion  2" in out
        assert "all 1 criteria passed" in out

    def test_bad_criteria_list(self, capsys):
        assert run(capsys, ["verify", "--criteria", "two"])[0] == 2
