import json
import math

import pytest

from qwalklab.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvolve:
    def test_writes_records_and_distribution(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, _, _ = run(
            ["evolve", "--coin", "hadamard", "--profile", "local",
             "--alpha", "0.7854", "--beta", "0", "--steps", "100",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,A,B_re,B_im,entropy"
        assert len(lines) == 102
        final_entropy = float(lines[-1].split(",")[4])
        # S_E(100) still oscillates around the 0.736 asymptote; value pinned
        # from the library evolve oracle
        assert final_entropy == pytest.approx(0.693836, abs=1e-4)
        dist_lines = (tmp_path / "run.csv.dist").read_text().splitlines()
        assert dist_lines[0] == "j,prob"
        assert sum(float(l.split(",")[1]) for l in dist_lines[1:]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_steps(self, tmp_path, capsys):
        out = tmp_path / "zero.csv"
        code, _, _ = run(
            ["evolve", "--steps", "0", "--out", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[4]) == 0.0

    def test_invalid_sigma_names_flag(self, tmp_path, capsys):
        code, _, err = run(
            ["evolve", "--profile", "gaussian", "--sigma", "-1",
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "--sigma" in err

    def test_window_capacity_is_a_numerical_error(self, tmp_path, capsys):
        out = tmp_path / "cap.csv"
        code, _, err = run(
            ["evolve", "--max-window", "4", "--steps", "10", "--out", str(out)], capsys
        )
        assert code == 3
        assert "numerical error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_threads_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--threads", "2", "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2

    def test_missing_out_rejected(self, capsys):
        code, _, _ = run(["evolve", "--steps", "5"], capsys)
        assert code == 2

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, _ = run(
            ["evolve", "--steps", "1", "--out", "/nonexistent-dir/x.csv"], capsys
        )
        assert code == 4


class TestAsymptotic:
    def test_local_maximum_point(self, capsys):
        code, out, _ = run(
            ["asymptotic", "--coin", "hadamard", "--profile", "local",
             "--alpha", str(3 * math.pi / 4), "--beta", "0"],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["entropy"] == pytest.approx(1.0, abs=1e-7)
        assert rec["method"] == "quadrature"
        assert rec["closed_form"]["method"] == "closed_form"
        assert "f" not in rec
        assert rec["delta_abs_difference"] < 1e-6

    def test_gaussian_reports_f(self, capsys):
        code, out, _ = run(
            ["asymptotic", "--profile", "gaussian", "--sigma", "1",
             "--alpha", str(math.pi / 4), "--beta", "0"],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["f"] == pytest.approx(0.0327, abs=5e-4)
        assert rec["entropy"] == pytest.approx(0.349, abs=1e-3)

    def test_fourier_local_maximum(self, capsys):
        code, out, _ = run(
            ["asymptotic", "--coin", "fourier", "--alpha", str(math.pi / 4),
             "--beta", str(math.pi / 2)],
            capsys,
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["entropy"] == pytest.approx(1.0, abs=1e-7)


class TestSweep:
    def test_coarse_grid_row_count(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--grid-step", str(math.pi / 4), "--out", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,entropy"
        assert len(lines) == 1 + 45 + 1  # header + 5x9 grid + stats footer
        assert lines[-1].startswith("# mean=")

    def test_simulated_mode(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, _ = run(
            ["sweep", "--mode", "simulated", "--steps", "50",
             "--grid-step", "1.0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "alpha,beta,entropy"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--grid-step", "0.7", "--profile", "gaussian",
                "--sigma", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def test_single_sigma_row(self, capsys):
        code, out, _ = run(
            ["compare", "--profile", "gaussian", "--sigmas", "1",
             "--steps", "10", "--grid-step", "1.0"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma0,mean_sim,mean_asym,delta_pct"
        assert len(lines) == 2

    def test_requires_sigmas(self, capsys):
        code, _, _ = run(["compare", "--profile", "gaussian"], capsys)
        assert code == 2

    def test_rejects_local_profile(self, capsys):
        code, _, _ = run(
            ["compare", "--profile", "local", "--sigmas", "1"], capsys
        )
        assert code == 2


class TestFit:
    def test_gaussian_average_fit(self, capsys):
        code, out, _ = run(
            ["fit", "--quantity", "avg", "--profile", "gaussian",
             "--sigmas", "1,2,3,5,10", "--grid-step", "0.3"],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"amplitude", "exponent", "offset", "rms_residual"}
        assert rec["exponent"] == pytest.approx(-2.0, abs=0.2)
        assert rec["offset"] > 0.0

    def test_min_quantity_has_no_offset(self, capsys):
        code, out, _ = run(
            ["fit", "--quantity", "min", "--profile", "gaussian",
             "--sigmas", "1,2,4", "--grid-step", "0.5"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["offset"] == 0.0

    def test_two_sigmas_rejected(self, capsys):
        code, _, _ = run(
            ["fit", "--profile", "gaussian", "--sigmas", "1,2"], capsys
        )
        assert code == 2

    def test_bad_sigma_list_rejected(self, capsys):
        code, _, _ = run(
            ["fit", "--profile", "gaussian", "--sigmas", "1,x,3"], capsys
        )
        assert code == 2


class TestConfigHandling:
    def test_config_file_merged_and_overridden(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.3561944901923449, "beta": 9.9}))
        code, out, err = run(
            ["asymptotic", "--config", str(cfg), "--beta", "0"], capsys
        )
        assert code == 0
        echoed = json.loads(err.splitlines()[0])
        assert echoed["alpha"] == pytest.approx(2.356194, abs=1e-5)
        assert echoed["beta"] == 0.0  # CLI flag wins over config file
        assert json.loads(out)["entropy"] == pytest.approx(1.0, abs=1e-7)

    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, _ = run(["asymptotic", "--config", str(cfg)], capsys)
        assert code == 2

    def test_degrees_flag_converts(self, capsys):
        _, out_deg, _ = run(
            ["asymptotic", "--alpha", "135", "--beta", "0", "--degrees"], capsys
        )
        _, out_rad, _ = run(
            ["asymptotic", "--alpha", str(3 * math.pi / 4), "--beta", "0"], capsys
        )
        assert json.loads(out_deg)["delta"] == pytest.approx(
            json.loads(out_rad)["delta"], abs=1e-12
        )

    def test_effective_config_echoed_to_stderr(self, capsys):
        code, _, err = run(["asymptotic"], capsys)
        assert code == 0
        echoed = json.loads(err.splitlines()[0])
        assert echoed["command"] == "asymptotic"
        assert echoed["coin"] == "hadamard"
