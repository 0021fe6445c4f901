"""Command-line reproduction harness.

Commands: evolve, asymptotic, sweep, compare, fit.  Structured single results
are emitted as JSON (stdout when --out is absent), every table as CSV from one
writer, `_write_table`: a single header row, 17-significant-digit numbers, and
"\n" newlines.  The effective configuration is echoed to stderr.  Exit codes:
0 success, 2 argument/config error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import analysis
from .core import (
    COINS,
    BlochAngles,
    as_positive,
    delta_from_moments,
    entropy_from_delta,
    spin_from_angles,
)
from .errors import (
    CapacityError,
    DomainError,
    FitError,
    NumericalError,
)
from .kspace import asymptotic_moments, closed_delta, extract_f
from .lattice import (
    FAMILIES,
    Gaussian,
    Local,
    Rectangular,
    position_distribution,
    profile_weights,
    walk,
)


class ConfigError(Exception):
    """Invalid or inconsistent command configuration (exit code 2)."""


def _family_sigmas(cfg: dict) -> list[float]:
    """The --sigmas of compare and fit (`core.as_positive`), for a family of `lattice.FAMILIES`."""
    if not cfg.get("sigmas"):
        raise ConfigError(f"{cfg['command']} requires --sigmas")
    try:
        values = [as_positive(float(s), "sigma0") for s in str(cfg["sigmas"]).split(",")
                  if s.strip()]
    except (ValueError, DomainError) as exc:  # not a number, or not a dispersion
        raise ConfigError(f"--sigmas: {exc}")
    if not values:
        raise ConfigError("--sigmas must be a non-empty comma-separated list")
    if cfg["profile"] not in FAMILIES:
        raise ConfigError(f"--profile: {cfg['command']} needs a delocalized family "
                          f"({' or '.join(FAMILIES)})")
    return values


#: Every option, declared once: its builtin default (applied after CLI flags
#: and config-file values) and its argparse settings, whose type or choices
#: `_option` applies to every value a flag or the config file gives.  A
#: command has only the options `_COMMANDS` lists for it.
_OPTIONS = {
    "coin": ("hadamard", {"choices": list(COINS)}),
    "profile": ("local", {"choices": ["local", *FAMILIES]}),
    "sigma": (1.0, {"type": float, "help": "Gaussian initial dispersion"}),
    "a": (1, {"type": int, "help": "rectangular half-width"}),
    "alpha": (0.0, {"type": float, "help": "polar Bloch angle"}),
    "beta": (0.0, {"type": float, "help": "azimuthal Bloch angle"}),
    "degrees": (False, {"action": "store_const", "const": True,
                        "help": "interpret --alpha/--beta in degrees"}),
    "steps": (1000, {"type": int}),
    "grid_step": (0.1, {"type": float}),
    "mode": ("asymptotic", {"choices": ["asymptotic", "simulated"]}),
    "sigmas": (None, {"help": "comma-separated dispersion list"}),
    "quantity": ("avg", {"choices": ["avg", "min"]}),
    "max_window": (None, {"type": int, "help": "most lattice sites the walk may reach"}),
    "out": (None, {"help": "output path (stdout JSON if absent)"}),
    "config": (None, {"help": "JSON config file; flags override it"}),
}


def _number(key: str, kind, value):
    """`value` as a `kind` (int or float), or ConfigError naming `key`.

    Booleans, infinities, NaN and, for an int key, floats with a fractional
    part are rejected rather than silently converted."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if (
        number is None
        or isinstance(value, bool)
        or (kind is float and not math.isfinite(number))
        or (isinstance(value, float) and number != value)
    ):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return number


def _option(key: str, value):
    """`value` of option `key` by its declaration in `_OPTIONS`, whether a flag
    or the config file set it, or ConfigError naming `key`: a number of its
    `type` (`_number`), one of its `choices`, a boolean for a switch, else a
    string.  An option without a default may stay unset (None)."""
    default, settings = _OPTIONS[key]
    if value is None and default is None:
        return None
    if "type" in settings:
        return _number(key, settings["type"], value)
    if "choices" in settings:
        ok, expected = value in settings["choices"], f"one of {', '.join(settings['choices'])}"
    elif "const" in settings:  # the --degrees switch
        ok, expected = isinstance(value, bool), "true or false"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Quantum-walk entanglement laboratory: simulate coin-position "
        "entanglement on a 1D lattice and compute its asymptotic value.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        # no abbreviations: compare and fit would read --sigma as --sigmas
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_OPTIONS[key][1])
    return parser


def effective_config(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over builtin defaults.

    The result holds exactly the command's options.  A config file may set
    only those; any other key is a ConfigError naming it.
    """
    keys = [key for key in vars(args) if key not in ("command", "config")]
    cfg = {key: _OPTIONS[key][0] for key in keys}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config {args.config}: invalid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"--config {args.config}: expected a JSON object")
        unknown = sorted(set(loaded) - set(keys))
        if unknown:
            raise ConfigError(f"--config {args.config}: {args.command} reads no "
                              f"key {', '.join(unknown)}")
        cfg.update(loaded)
    for key in keys:
        value = getattr(args, key)
        cfg[key] = _option(key, cfg[key] if value is None else value)
    cfg["command"] = args.command
    if cfg.get("degrees"):
        cfg["alpha"] = math.radians(cfg["alpha"])
        cfg["beta"] = math.radians(cfg["beta"])
    return cfg


def _profile(cfg: dict):
    """The --profile's initial state: Local, the Gaussian of `lattice.FAMILIES`
    at its own sigma0 (--sigma), or the rectangle of half-width --a."""
    family = FAMILIES.get(cfg["profile"])
    if family is None:  # the one choice that is no family
        return Local()
    make, key = (Gaussian, "sigma") if family is Gaussian else (Rectangular, "a")
    try:
        return make(cfg[key])
    except DomainError as exc:
        raise ConfigError(f"--{key}: {exc}")


def _angles(cfg: dict) -> BlochAngles:
    try:
        return BlochAngles(cfg["alpha"], cfg["beta"])
    except DomainError as exc:
        raise ConfigError(f"--alpha/--beta: {exc}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_table(path: str | None, header: str, rows, axes=(), footer=None) -> None:
    """Write one CSV table: the `header` row, then a line per row of numbers,
    integers as they are and floats to 17 significant digits.  With `axes`,
    each line starts with its point of their product (last axis fastest), each
    axis value formatted once.  `footer` is a str.format template for a last
    line and the floats that fill it.  Every line ends in "\n".
    """
    rows = list(rows)
    line = ",".join("%d" if isinstance(x, int) else "%.17g" for x in rows[0])
    lines = map(line.__mod__, rows)
    if axes:
        points = itertools.product(*(["%.17g," % x for x in axis] for axis in axes))
        lines = map(str.__add__, map("".join, points), lines)
    lines = [header, *lines]
    if footer is not None:
        template, values = footer
        lines.append(template.format(*("%.17g" % x for x in values)))
    _write_text(path, "\n".join(lines) + "\n")


def cmd_evolve(cfg: dict) -> int:
    if not cfg.get("out"):
        raise ConfigError("evolve requires --out (records and .dist distribution)")
    if cfg["max_window"] is not None and cfg["max_window"] < 1:
        raise ConfigError(f"--max-window: must be >= 1, got {cfg['max_window']}")
    profile = _profile(cfg)
    spin = spin_from_angles(_angles(cfg))
    run = walk(profile, (spin,), cfg["coin"], cfg["steps"], max_sites=cfg["max_window"])
    _write_table(cfg["out"], "t,A,B_re,B_im,entropy",
                 ((r.t, r.moments.A, r.moments.B.real, r.moments.B.imag, r.entropy)
                  for r in run.records()))
    _write_table(cfg["out"] + ".dist", "j,prob", position_distribution(run.final[0]))
    return 0


def cmd_asymptotic(cfg: dict) -> int:
    profile = _profile(cfg)
    angles = _angles(cfg)
    spin = spin_from_angles(angles)
    moments = asymptotic_moments(profile, spin, cfg["coin"])
    delta = delta_from_moments(moments)
    record = {
        "A_bar": moments.A,
        "B_bar_re": moments.B.real,
        "B_bar_im": moments.B.imag,
        "delta": delta,
        "entropy": entropy_from_delta(delta),
        "method": "kspace",
        "f": extract_f(cfg["coin"], profile).f,
    }
    closed = closed_delta(cfg["coin"], record["f"], angles.alpha, angles.beta)
    record["closed_form"] = {
        "delta": closed,
        "entropy": entropy_from_delta(closed),
        "method": "closed_form",
    }
    record["delta_abs_difference"] = abs(delta - closed)
    _write_text(cfg.get("out"), json.dumps(record, indent=2) + "\n")
    return 0


def _grid(cfg: dict) -> analysis.SweepGrid:
    try:
        return analysis.grid_from_step(cfg["grid_step"])
    except DomainError as exc:
        raise ConfigError(f"--grid-step: {exc}")


def cmd_sweep(cfg: dict) -> int:
    grid = _grid(cfg)
    profile = _profile(cfg)
    if cfg["mode"] == "asymptotic":
        result = analysis.sweep_asymptotic(cfg["coin"], profile, grid)
    else:
        result = analysis.sweep_simulated(cfg["coin"], profile, grid, cfg["steps"])
    _write_table(cfg.get("out"), "alpha,beta,entropy", zip(result.values.ravel().tolist()),
                 axes=(grid.alphas, grid.betas),
                 footer=("# mean={} min={} max={} argmin=({},{}) argmax=({},{})",
                         (result.mean, result.min, result.max, *result.argmin, *result.argmax)))
    return 0


def cmd_compare(cfg: dict) -> int:
    sigmas = _family_sigmas(cfg)
    reports = analysis.compare(
        cfg["coin"], cfg["profile"], sigmas, _grid(cfg), cfg["steps"]
    )
    _write_table(cfg.get("out"), "sigma0,mean_sim,mean_asym,delta_pct",
                 ((r.sigma0, r.mean_simulated, r.mean_asymptotic, r.delta_pct) for r in reports))
    return 0


def cmd_fit(cfg: dict) -> int:
    sigmas = _family_sigmas(cfg)
    if len(sigmas) < 3:
        raise ConfigError(f"fit needs at least 3 sigmas, got {len(sigmas)}")
    profiles = [analysis.family_profile(cfg["profile"], s0) for s0 in sigmas]
    # sigma0 that give one initial state (rect sigma0 that round to one
    # half-width, Gaussians below the one-site edge) are one point, not several
    states = {(j_min, w.tobytes()) for j_min, w in map(profile_weights, profiles)}
    if len(states) < 3:
        raise FitError(
            f"fit needs at least 3 distinct initial states, --sigmas gives {len(states)}")
    grid = _grid(cfg)
    points = []
    for s0, profile in zip(sigmas, profiles):
        sweep = analysis.sweep_asymptotic(cfg["coin"], profile, grid)
        points.append((s0, sweep.mean if cfg["quantity"] == "avg" else sweep.min))
    # grid means decay toward the large-dispersion asymptote; minima decay to 0
    offset = (
        analysis.asymptote_offset(cfg["coin"], grid)
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


_PROFILE = ("coin", "profile", "sigma", "a")
_ANGLES = ("alpha", "beta", "degrees")
_FILES = ("out", "config")

#: Each command: its function, its help and the options it reads.
_COMMANDS = {
    "evolve": (cmd_evolve, "simulate the walk and record per-step entanglement",
               _PROFILE + _ANGLES + ("steps", "max_window") + _FILES),
    "asymptotic": (cmd_asymptotic, "asymptotic moments and entropy for one spin state",
                   _PROFILE + _ANGLES + _FILES),
    "sweep": (cmd_sweep, "entropy over an (alpha, beta) grid",
              _PROFILE + ("steps", "grid_step", "mode") + _FILES),
    "compare": (cmd_compare, "simulated vs asymptotic grid means per dispersion",
                ("coin", "profile", "sigmas", "grid_step", "steps") + _FILES),
    "fit": (cmd_fit, "power-law fit of entropy decay with dispersion",
            ("coin", "profile", "sigmas", "grid_step", "quantity") + _FILES),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
        print(json.dumps({k: v for k, v in sorted(cfg.items())}), file=sys.stderr)
        return _COMMANDS[args.command][0](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, CapacityError, FitError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
