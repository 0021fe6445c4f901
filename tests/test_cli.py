import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qwalklab import analysis
from qwalklab.cli import build_parser, main
from qwalklab.kspace import LOCAL_F


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_sweep(*args):
    raise AssertionError("a sweep ran")


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
        # a 10-step Local walk reaches exactly 21 sites
        for window, want in (("21", 0), ("20", 3)):
            code, _, _ = run(["evolve", "--max-window", window, "--steps", "10",
                              "--out", str(out)], capsys)
            assert code == want, window

    @pytest.mark.parametrize("window", ["-1", "0"])
    def test_window_below_one_site_is_an_argument_error(self, tmp_path, capsys, window):
        out = tmp_path / "cap.csv"
        code, _, err = run(["evolve", "--steps", "3", "--max-window", window,
                            "--out", str(out)], capsys)
        assert code == 2
        assert "error: --max-window: " in err and "Traceback" not in err
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
        assert rec["method"] == "kspace"
        assert rec["closed_form"]["method"] == "closed_form"
        assert rec["f"] == pytest.approx(LOCAL_F, abs=1e-15)
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

    @pytest.mark.parametrize("sigma", ["1e-300", "5e-324"])
    def test_tiny_gaussian_is_the_local_state(self, sigma, capsys):
        # one initial state, the weights (0, [1.0]): one output, byte for byte
        angles = ["--alpha", "1", "--beta", "0.3"]
        local = run(["asymptotic", "--profile", "local"] + angles, capsys)
        for profile in (["rect", "--a", "0"], ["gaussian", "--sigma", sigma]):
            code, out, err = run(["asymptotic", "--profile"] + profile + angles, capsys)
            assert code == local[0] == 0 and "Traceback" not in err
            assert out == local[1], profile

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

    def test_max_window_rejected(self, capsys):
        # only evolve reads --max-window
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", "simulated", "--steps", "10", "--max-window", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--quad-points", "--quad-tol", "--format"])
    def test_quadrature_flags_removed(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, "1024"])
        assert exc.value.code == 2


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

    def test_max_window_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--profile", "gaussian", "--sigmas", "1",
                  "--steps", "10", "--max-window", "4"])
        assert exc.value.code == 2

    def test_bad_sigma_names_its_flag_before_any_sweep(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "sweep_simulated", _no_sweep)
        monkeypatch.setattr(analysis, "sweep_asymptotic", _no_sweep)
        code, out, err = run(["compare", "--profile", "gaussian", "--sigmas", "1,nan,2",
                              "--grid-step", "0.5", "--steps", "2"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: --sigmas: sigma0 must be finite and > 0, got nan"


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

    @pytest.mark.parametrize("profile, sigmas", [
        ("rect", "0.1,0.2,0.3"),  # a = 0, 0, 0
        ("rect", "1,1.2,1.4"),  # a = 1, 2, 2
        ("gaussian", "0.001,0.005,0.01"),  # each below the one-site edge
    ])
    def test_fewer_than_three_distinct_states_rejected(self, profile, sigmas, capsys):
        code, out, err = run(
            ["fit", "--profile", profile, "--sigmas", sigmas, "--grid-step", "1"], capsys
        )
        assert code == 3 and out == ""
        assert "at least 3 distinct initial states" in err

    def test_repeated_states_among_three_distinct_fit(self, capsys):
        # a = 1, 2, 2, 3: three distinct states, one of them at two sigma0
        code, out, _ = run(
            ["fit", "--profile", "rect", "--sigmas", "1,1.2,1.4,2", "--grid-step", "1"], capsys
        )
        assert code == 0 and json.loads(out)["exponent"] < 0.0

    def test_bad_sigma_list_rejected(self, capsys):
        code, _, _ = run(
            ["fit", "--profile", "gaussian", "--sigmas", "1,x,3"], capsys
        )
        assert code == 2

    def test_bad_sigma_names_its_flag_before_any_sweep(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "sweep_asymptotic", _no_sweep)
        code, out, err = run(["fit", "--profile", "rect", "--sigmas", "1,-2,3",
                              "--grid-step", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: --sigmas: sigma0 must be finite and > 0, got -2.0"


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

    @pytest.mark.parametrize(
        "key",
        ["sigma", "a", "alpha", "beta", "steps", "grid_step", "max_window"],
    )
    def test_non_numeric_config_value_is_a_config_error(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "abc"}))
        out = tmp_path / "run.csv"
        command = "sweep" if key == "grid_step" else "evolve"  # evolve has no grid
        code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert f"error: {key}:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--profile", "gaussian", "--sigma", "inf"],
         ["--profile", "gaussian", "--sigma", "nan"],
         ["--beta", "inf"]],
    )
    def test_non_finite_value_is_a_config_error(self, argv, capsys):
        code, out, err = run(["asymptotic", *argv], capsys)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_unread_config_keys_are_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_window": 4, "quad_points": 7}))
        code, out, err = run(["sweep", "--mode", "simulated", "--steps", "10",
                              "--grid-step", "1.0", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert "max_window, quad_points" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["asymptotic", "sweep", "evolve"])
    def test_removed_quad_points_key_is_a_config_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad_points": 7}))
        code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path / "o")],
                           capsys)
        assert code == 2
        assert "quad_points" in err

    def test_max_window_key_read_by_evolve_only(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_window": 64}))
        code, _, err = run(["sweep", "--grid-step", "1.0", "--config", str(cfg)], capsys)
        assert code == 2 and "max_window" in err
        out = tmp_path / "run.csv"
        code, _, err = run(["evolve", "--steps", "10", "--config", str(cfg),
                            "--out", str(out)], capsys)
        assert code == 0 and out.exists()
        assert json.loads(err.splitlines()[0])["max_window"] == 64

    def test_string_number_config_value_is_a_config_error(self, tmp_path, capsys):
        # a JSON string is refused, even where its flag would parse the token
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": "2.5"}))
        out = tmp_path / "run.json"
        code, stdout, err = run(["asymptotic", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err.splitlines()[-1] == "error: sigma: expected a finite number, got '2.5'"

    def test_fractional_integer_config_value_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "rect", "a": 1.5}))
        code, out, err = run(["asymptotic", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert "error: a:" in err

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


#: Every option each command does not read, with a value.
_UNREAD = {
    "evolve": ["--grid-step=0.5", "--mode=simulated", "--sigmas=1,2,3", "--quantity=min"],
    "asymptotic": ["--steps=5", "--grid-step=9", "--mode=simulated", "--sigmas=1,2,3",
                   "--quantity=min", "--max-window=9"],
    "sweep": ["--alpha=2", "--beta=1", "--degrees", "--sigmas=9", "--quantity=min",
              "--max-window=9"],
    "compare": ["--sigma=7", "--a=3", "--alpha=1", "--beta=1", "--degrees",
                "--mode=asymptotic", "--quantity=min", "--max-window=9"],
    "fit": ["--sigma=7", "--a=3", "--alpha=1", "--beta=1", "--degrees", "--steps=5",
            "--mode=asymptotic", "--max-window=9"],
}


class TestOptions:
    """Each command accepts exactly the options it reads."""

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, flags in _UNREAD.items() for f in flags]
    )
    def test_unread_flag_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["compare", "--sigma=1"], ["asymptotic", "--alph=1"],
                                      ["sweep", "--grid=0.5"]])
    def test_abbreviations_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", sorted(_UNREAD))
    def test_every_option_is_read_or_unread(self, command):
        unread = {flag.split("=")[0] for flag in _UNREAD[command]}
        every = set().union(*(_flags(c) for c in _UNREAD))
        assert _flags(command) | unread == every and not _flags(command) & unread
        assert len(every) == 15

    def test_effective_config_holds_the_commands_options(self, capsys):
        code, _, err = run(["fit", "--profile", "gaussian", "--sigmas", "1,2,4",
                            "--grid-step", "1.0"], capsys)
        assert code == 0
        assert set(json.loads(err.splitlines()[0])) == {
            "command", "coin", "profile", "sigmas", "grid_step", "quantity", "out"}


@pytest.mark.parametrize("argv, least", [
    (["evolve", "--steps", "-1", "--out", "{tmp}/run.csv"], 0),
    (["sweep", "--mode", "simulated", "--steps", "-1", "--grid-step", "1.0"], 0),
    (["sweep", "--mode", "asymptotic", "--steps", "-5", "--grid-step", "1.0"], 0),
    (["compare", "--profile", "gaussian", "--sigmas", "1", "--steps", "0"], 1),
    (["compare", "--profile", "gaussian", "--sigmas", "1", "--steps", "-1"], 1),
])
def test_steps_below_the_walks_minimum_exit_2(argv, least, tmp_path, monkeypatch, capsys):
    # the error names the --steps flag, as --a, --grid-step and --max-window
    # errors name theirs, before any sweep runs
    monkeypatch.setattr(analysis, "sweep_simulated", _no_sweep)
    monkeypatch.setattr(analysis, "sweep_asymptotic", _no_sweep)
    code, out, err = run([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert code == 2 and out == ""
    steps = argv[argv.index("--steps") + 1]
    assert err.splitlines()[-1] == f"error: --steps: must be >= {least}, got {steps}"
    assert not (tmp_path / "run.csv").exists()


class TestCapacity:
    """Sizes past the capacity rule exit 3 before anything is built."""

    @pytest.mark.parametrize("argv", [
        ["asymptotic", "--profile", "rect", "--a", "1000000000"],
        ["asymptotic", "--profile", "rect", "--a", "1000000"],  # 2,000,001 sites
        ["asymptotic", "--profile", "rect", "--a", "1" + "0" * 400],
        ["asymptotic", "--profile", "gaussian", "--sigma", "1e300"],
        ["sweep", "--grid-step", "1e-9"],
        ["compare", "--profile", "gaussian", "--sigmas", "1", "--grid-step", "1e-9"],
        ["fit", "--profile", "gaussian", "--sigmas", "1,2,3", "--grid-step", "1e-9"],
        ["compare", "--profile", "rect", "--sigmas", "1e200,1", "--grid-step", "1"],
        ["fit", "--profile", "rect", "--sigmas", "1,2,1.7e308", "--grid-step", "1"],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_exits_3(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert "numerical error:" in err and "Traceback" not in err


def _floats(low, high):
    return st.floats(min_value=low, max_value=high).map(repr)


#: Valid values of every option but --out, --config and --degrees.  Sizes
#: are bounded so that no draw walks far or builds a large profile:
#: --steps <= 20, --grid-step >= 0.5, dispersions and half-widths <= 20.
#: Dispersions start at the least positive double.
_VALID = {
    "--coin": st.sampled_from(["hadamard", "fourier"]),
    "--profile": st.sampled_from(["local", "gaussian", "rect"]),
    "--sigma": _floats(5e-324, 20.0),
    "--a": st.integers(min_value=0, max_value=20).map(str),
    "--alpha": _floats(0.0, math.pi),
    "--beta": _floats(-7.0, 7.0),
    "--steps": st.integers(min_value=0, max_value=20).map(str),
    "--grid-step": _floats(0.5, 4.0),
    "--mode": st.sampled_from(["asymptotic", "simulated"]),
    "--sigmas": st.lists(_floats(5e-324, 20.0), min_size=1, max_size=4).map(",".join),
    "--quantity": st.sampled_from(["avg", "min"]),
    "--max-window": st.integers(min_value=1, max_value=100).map(str),
}

#: Sizes far past the capacity rule, which must be refused before anything
#: of their size is built.
_PAST_CAP = {
    "--sigma": _floats(1e5, 1e300),
    "--sigmas": st.lists(_floats(1e6, 1e300), min_size=3, max_size=4).map(",".join),
    "--a": st.integers(min_value=10**6, max_value=10**400).map(str),
    "--grid-step": _floats(1e-300, 1e-3),
}

_NON_FINITE = ["nan", "inf", "-inf", "1e400"]

#: Invalid and non-finite values.  A flag its command does not read is
#: invalid whatever its value.
_INVALID = {
    "--coin": ["grover", ""],
    "--profile": ["delta"],
    "--sigma": ["-1", "0", "x", *_NON_FINITE],
    "--a": ["-2", "2.5", "x", "nan"],
    "--alpha": ["-1", "4", "x", *_NON_FINITE],
    "--beta": ["x", "", *_NON_FINITE],
    "--steps": ["-3", "2.5", "x", "nan", "inf"],
    "--grid-step": ["0", "-0.5", "x", *_NON_FINITE],
    "--mode": ["exact"],
    "--sigmas": ["", ",", "1,x", "nan,1,2", "inf,1,2", "-1,1,2", "0,1,2", "1,2"],
    "--quantity": ["max"],
    "--max-window": ["-1", "0", "2.5", "x", "nan", "4"],
}

#: --config file contents: valid files, and files a command must reject.
_CONFIGS = [
    '{"coin": "fourier"}',
    '{"coin": "fourier", "steps": 5, "grid_step": 1.0}',
    "{",
    "[1, 2]",
    '{"quad_points": 7}',
    '{"max_window": 4}',
    '{"sigma": NaN}',
    '{"alpha": Infinity}',
    '{"steps": "ten"}',
    '{"profile": "gaussian", "sigma": "2.5", "alpha": " 1 "}',
    '{"steps": true}',
    '{"steps": 2.5}',
    '{"a": 1e400}',
    '{"grid_step": null}',
    '{"mode": "exact"}',
    '{"quantity": "max"}',
    '{"degrees": "no"}',
    '{"out": true}',
]


def _flags(command):
    """The option strings of `command`'s own parser, -h/--help aside."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    return {flag for action in actions for flag in action.option_strings} - {"-h", "--help"}


@st.composite
def _argv(draw, command, tmp):
    """A `qwalk <command>` argv drawn from the flags of the command's parser.

    Every draw sets the command's --steps and --grid-step, and compare and fit
    a dispersion family and list; half the draws then give one flag, the
    command's or another's, an invalid or non-finite value, half give one of
    the command's sizes a value past the capacity rule, and most carry a
    --config file, valid, bad or missing.
    """
    flags = _flags(command)
    options = {flag: _VALID[flag] for flag in sorted(flags & set(_VALID))}
    values = {flag: draw(options[flag]) for flag in ("--steps", "--grid-step") if flag in options}
    if command in ("compare", "fit"):
        values["--profile"] = draw(st.sampled_from(["gaussian", "rect"]))
        values["--sigmas"] = draw(options["--sigmas"])
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=5, unique=True)):
        values[flag] = draw(options[flag])
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(_INVALID)))
        values[flag] = draw(st.sampled_from(_INVALID[flag]))
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(flags & set(_PAST_CAP))))
        values[flag] = draw(_PAST_CAP[flag])
    argv = [command] + [f"{flag}={value}" for flag, value in values.items()]
    if "--degrees" in flags and draw(st.booleans()):
        argv.append("--degrees")
    contents = draw(st.sampled_from([None, "missing", *_CONFIGS]))
    if contents == "missing":
        argv.append(f"--config={tmp / 'missing.json'}")
    elif contents is not None:
        (tmp / "config.json").write_text(contents)
        argv.append(f"--config={tmp / 'config.json'}")
    out = draw(st.sampled_from(["file", "file", "directory", None]))
    if out is not None:
        argv.append(f"--out={tmp / 'out.csv' if out == 'file' else tmp}")
    return argv


class TestFuzz:
    """Every argv exits 0, 2, 3 or 4 and none ends in a traceback."""

    @pytest.mark.parametrize("command", ["evolve", "asymptotic", "sweep", "compare", "fit"])
    def test_every_input_exits_with_a_documented_code(self, command, tmp_path_factory):
        tmp = tmp_path_factory.mktemp(f"fuzz-{command}")

        @settings(max_examples=40, deadline=None, database=None)
        @given(_argv(command, tmp))
        def check(argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
            assert code in (0, 2, 3, 4), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv

        check()
