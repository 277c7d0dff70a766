import json
import math

import pytest

from conemetric.cli import canonical_json, main


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
    ], ids=["point-count", "odd-mesh", "tiny-mesh", "nan-beta", "nan-point"])
    def test_invalid_input_is_config_error(self, capsys, argv, message):
        code, _, err = run(capsys, self.FOOTBALL + argv)
        assert code == 2
        assert message in err

    def test_axisym_flag_requires_football(self, capsys):
        code, _, _ = run(capsys, ["solve", "--points",
                                  "1.5707963267948966,0;"
                                  "1.5707963267948966,2.0943951023931953;"
                                  "1.5707963267948966,4.1887902047863905",
                                  "--beta", "0.6,0.6,0.6", "--mesh", "24",
                                  "--axisym"])
        assert code == 2


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

    def test_direction_group_count_mismatch(self, diag_path, capsys):
        assert run(capsys, ["pair", "--diagnostics", diag_path,
                            "--direction", "0.1"])[0] == 2

    def test_missing_diagnostics(self, capsys):
        assert run(capsys, ["pair", "--diagnostics", "/nonexistent.json",
                            "--direction", "0.1;0.1"])[0] == 2


class TestVerify:
    def test_single_criterion(self, capsys):
        code, out, _ = run(capsys, ["verify", "--criteria", "2"])
        assert code == 0
        assert "[PASS] criterion  2" in out
        assert "all 1 criteria passed" in out

    def test_bad_criteria_list(self, capsys):
        assert run(capsys, ["verify", "--criteria", "two"])[0] == 2
