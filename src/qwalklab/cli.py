"""Command-line reproduction harness.

Commands: evolve, asymptotic, sweep, compare, fit.  Structured single results
are emitted as JSON (stdout when --out is absent), tabular data as CSV with a
single header row, 17-significant-digit numbers, and "\n" newlines.  The
effective configuration is echoed to stderr.  Exit codes: 0 success, 2
argument/config error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis
from .core import (
    BlochAngles,
    entropy_from_delta,
    fourier_coin,
    hadamard_coin,
    spin_from_angles,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    FitError,
    NumericalError,
)
from .kspace import (
    DelocalizedForm,
    LocalForm,
    QuadratureSpec,
    asymptotic_moments,
    characteristic,
    closed_delta,
    extract_f,
)
from .lattice import Gaussian, Local, Rectangular, position_distribution, walk


class ConfigError(Exception):
    """Invalid or inconsistent command configuration (exit code 2)."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_sigmas(text: str) -> list[float]:
    try:
        values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--sigmas must be a comma-separated number list: {exc}")
    if not values:
        raise ConfigError("--sigmas must be a non-empty comma-separated list")
    return values


# Builtin defaults, applied after CLI flags and config-file values.
_DEFAULTS = {
    "coin": "hadamard",
    "profile": "local",
    "sigma": 1.0,
    "a": 1,
    "alpha": 0.0,
    "beta": 0.0,
    "steps": 1000,
    "grid_step": 0.1,
    "mode": "asymptotic",
    "quantity": "avg",
    "format": "csv",
    "quad_points": 1024,
    "quad_tol": 1e-10,
    "degrees": False,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Quantum-walk entanglement laboratory: simulate coin-position "
        "entanglement on a 1D lattice and compute its asymptotic value.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--coin", choices=["hadamard", "fourier"])
        p.add_argument("--profile", choices=["local", "gaussian", "rect"])
        p.add_argument("--sigma", type=float, help="Gaussian initial dispersion")
        p.add_argument("--a", type=int, help="rectangular half-width")
        p.add_argument("--alpha", type=float, help="polar Bloch angle")
        p.add_argument("--beta", type=float, help="azimuthal Bloch angle")
        p.add_argument("--steps", type=int)
        p.add_argument("--grid-step", dest="grid_step", type=float)
        p.add_argument("--mode", choices=["asymptotic", "simulated"])
        p.add_argument("--sigmas", help="comma-separated dispersion list")
        p.add_argument("--quantity", choices=["avg", "min"])
        p.add_argument("--out", help="output path (stdout JSON if absent)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--quad-points", dest="quad_points", type=int)
        p.add_argument("--quad-tol", dest="quad_tol", type=float)
        p.add_argument("--max-window", dest="max_window", type=int)
        p.add_argument("--degrees", action="store_const", const=True, default=None,
                       help="interpret --alpha/--beta in degrees")

    for name, help_text in [
        ("evolve", "simulate the walk and record per-step entanglement"),
        ("asymptotic", "asymptotic moments and entropy for one spin state"),
        ("sweep", "entropy over an (alpha, beta) grid"),
        ("compare", "simulated vs asymptotic grid means per dispersion"),
        ("fit", "power-law fit of entropy decay with dispersion"),
    ]:
        add_common(sub.add_parser(name, help=help_text))
    return parser


def effective_config(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over builtin defaults."""
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config {args.config}: invalid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"--config {args.config}: expected a JSON object")
        cfg.update(loaded)
    for key in ("coin", "profile", "sigma", "a", "alpha", "beta", "steps",
                "grid_step", "mode", "sigmas", "quantity", "out", "format",
                "quad_points", "quad_tol", "max_window", "degrees"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    cfg["command"] = args.command
    if cfg.get("degrees"):
        cfg["alpha"] = math.radians(cfg["alpha"])
        cfg["beta"] = math.radians(cfg["beta"])
    return cfg


def _quad_spec(cfg: dict) -> QuadratureSpec:
    try:
        return QuadratureSpec(
            initial_points=int(cfg["quad_points"]),
            rel_tolerance=float(cfg["quad_tol"]),
        )
    except DomainError as exc:
        raise ConfigError(f"--quad-points/--quad-tol: {exc}")


def _profile(cfg: dict):
    kind = cfg["profile"]
    try:
        if kind == "local":
            return Local()
        if kind == "gaussian":
            return Gaussian(float(cfg["sigma"]))
        if kind == "rect":
            return Rectangular(int(cfg["a"]))
    except DomainError as exc:
        flag = "--sigma" if kind == "gaussian" else "--a"
        raise ConfigError(f"{flag}: {exc}")
    raise ConfigError(f"--profile: unknown profile {kind!r}")


def _angles(cfg: dict) -> BlochAngles:
    try:
        return BlochAngles(float(cfg["alpha"]), float(cfg["beta"]))
    except DomainError as exc:
        raise ConfigError(f"--alpha/--beta: {exc}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def cmd_evolve(cfg: dict) -> int:
    steps = int(cfg["steps"])
    if steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {steps}")
    if not cfg.get("out"):
        raise ConfigError("evolve requires --out (records and .dist distribution)")
    coin = hadamard_coin() if cfg["coin"] == "hadamard" else fourier_coin()
    profile = _profile(cfg)
    spin = spin_from_angles(_angles(cfg))
    max_window = cfg.get("max_window")
    run = walk(profile, (spin,), coin, steps,
               max_sites=None if max_window is None else int(max_window))
    lines = ["t,A,B_re,B_im,entropy"] + [
        f"{r.t},{_fmt(r.moments.A)},{_fmt(r.moments.B.real)},"
        f"{_fmt(r.moments.B.imag)},{_fmt(r.entropy)}"
        for r in run.records()
    ]
    _write_text(cfg["out"], "\n".join(lines) + "\n")

    dist = position_distribution(run.final[0])
    dlines = ["j,prob"] + [f"{j},{_fmt(p)}" for j, p in dist]
    _write_text(cfg["out"] + ".dist", "\n".join(dlines) + "\n")
    return 0


def cmd_asymptotic(cfg: dict) -> int:
    quad = _quad_spec(cfg)
    profile = _profile(cfg)
    angles = _angles(cfg)
    spin = spin_from_angles(angles)
    moments = asymptotic_moments(profile, spin, cfg["coin"], quad)
    result = characteristic(moments)

    record = {
        "A_bar": moments.A_bar,
        "B_bar_re": moments.B_bar.real,
        "B_bar_im": moments.B_bar.imag,
        "delta": result.delta,
        "entropy": result.entropy,
        "method": "quadrature",
    }
    if isinstance(profile, Local):
        form = LocalForm()
    else:
        f = extract_f(cfg["coin"], profile, quad).f
        record["f"] = f
        form = DelocalizedForm(f)
    closed = closed_delta(cfg["coin"], form, angles)
    record["closed_form"] = {
        "delta": closed,
        "entropy": entropy_from_delta(min(max(closed, 0.0), 1.0)),
        "method": "closed_form",
    }
    record["delta_abs_difference"] = abs(result.delta - closed)
    _write_text(cfg.get("out"), json.dumps(record, indent=2) + "\n")
    return 0


def _grid(cfg: dict) -> analysis.SweepGrid:
    try:
        return analysis.grid_from_step(float(cfg["grid_step"]))
    except DomainError as exc:
        raise ConfigError(f"--grid-step: {exc}")


def _sweep_csv(result: analysis.SweepResult) -> str:
    lines = ["alpha,beta,entropy"]
    for i, a in enumerate(result.grid.alphas):
        for j, b in enumerate(result.grid.betas):
            lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(result.values[i, j])}")
    lines.append(
        f"# mean={_fmt(result.mean)} min={_fmt(result.min)} max={_fmt(result.max)}"
        f" argmin=({_fmt(result.argmin[0])},{_fmt(result.argmin[1])})"
        f" argmax=({_fmt(result.argmax[0])},{_fmt(result.argmax[1])})"
    )
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: dict) -> int:
    grid = _grid(cfg)
    profile = _profile(cfg)
    if cfg["mode"] == "asymptotic":
        result = analysis.sweep_asymptotic(cfg["coin"], profile, grid, _quad_spec(cfg))
    else:
        if cfg["steps"] < 0:
            raise ConfigError(f"--steps must be >= 0, got {cfg['steps']}")
        result = analysis.sweep_simulated(cfg["coin"], profile, grid, int(cfg["steps"]))
    _write_text(cfg.get("out"), _sweep_csv(result))
    return 0


def cmd_compare(cfg: dict) -> int:
    if not cfg.get("sigmas"):
        raise ConfigError("compare requires --sigmas")
    sigmas = _parse_sigmas(str(cfg["sigmas"]))
    if cfg["profile"] == "local":
        raise ConfigError("--profile: compare needs a delocalized family "
                          "(gaussian or rect)")
    if cfg["steps"] < 1:
        raise ConfigError(f"--steps must be >= 1, got {cfg['steps']}")
    reports = analysis.compare(
        cfg["coin"], cfg["profile"], sigmas, _grid(cfg), int(cfg["steps"]),
        _quad_spec(cfg),
    )
    lines = ["sigma0,mean_sim,mean_asym,delta_pct"]
    for r in reports:
        lines.append(
            f"{_fmt(r.sigma0)},{_fmt(r.mean_simulated)},"
            f"{_fmt(r.mean_asymptotic)},{_fmt(r.delta_pct)}"
        )
    _write_text(cfg.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_fit(cfg: dict) -> int:
    if not cfg.get("sigmas"):
        raise ConfigError("fit requires --sigmas")
    sigmas = _parse_sigmas(str(cfg["sigmas"]))
    if len(sigmas) < 3:
        raise ConfigError(f"fit needs at least 3 sigmas, got {len(sigmas)}")
    if cfg["profile"] == "local":
        raise ConfigError("--profile: fit needs a delocalized family "
                          "(gaussian or rect)")
    quad = _quad_spec(cfg)
    grid = _grid(cfg)
    points = []
    for s0 in sigmas:
        profile = analysis.family_profile(cfg["profile"], s0)
        sweep = analysis.sweep_asymptotic(cfg["coin"], profile, grid, quad)
        points.append((s0, sweep.mean if cfg["quantity"] == "avg" else sweep.min))
    # grid means decay toward the large-dispersion asymptote; minima decay to 0
    offset = (
        analysis.asymptote_offset(cfg["coin"], cfg["profile"], grid, quad)
        if cfg["quantity"] == "avg"
        else None
    )
    fit = analysis.fit_power_law(points, offset=offset)
    record = {
        "amplitude": fit.amplitude,
        "exponent": fit.exponent,
        "offset": fit.offset,
        "rms_residual": fit.rms_residual,
    }
    _write_text(cfg.get("out"), json.dumps(record, indent=2) + "\n")
    return 0


_COMMANDS = {
    "evolve": cmd_evolve,
    "asymptotic": cmd_asymptotic,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "fit": cmd_fit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
        print(json.dumps({k: v for k, v in sorted(cfg.items())}), file=sys.stderr)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError, CapacityError, FitError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
