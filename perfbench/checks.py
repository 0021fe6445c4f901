"""Output checks for benchmark ops.  They run after the timed region.

``check(op, record, qw, ref)`` returns a list of problems; an op with any
problem counts as failed.  Two kinds of check:

* invariants the repository's tests assert: probabilities sum to 1, moments
  are physical, entropies and f lie in their ranges, the lattice and k-space
  engines agree (criterion 10), simulated grid means match asymptotic ones
  (criterion 6);
* reference values recorded at the benchmark's first commit
  (``reference.json``, written by ``make_reference.py``), only where no open
  ROADMAP item means to change results: every k-space result below the 0.75
  stratum is checked by invariants alone.
"""

from __future__ import annotations

import math
import re

from workloads import build_profile, profile_key

#: Slack on [0, 1] ranges and on |B|^2 <= A(1 - A), as core.CLAMP_TOL.
PHYS_TOL = 1e-9
#: The .dist probabilities, each rounded to 17 digits, must sum to 1.
NORM_TOL = 1e-10
#: Lattice vs evolve_k_moments: criterion 10's bound, used at sigma0 >= 1.
CROSS_TOL = 1e-8
#: At the 0.75 stratum the continuum envelope differs from the lattice
#: profile's transform by about 2.4e-7 in the t = 1000 moments.
CROSS_TOL_075 = 1e-6
#: Recorded f values.  Wider than the envelope gap in f at sigma0 = 0.75
#: (1.2e-7) and at sigma0 = 1 (1e-11).
REF_TOL_F = 1e-6
#: Recorded grid means: lattice results, and results that pass through k-space.
REF_TOL_LATTICE = 1e-9
REF_TOL_KSPACE = 1e-7
#: Criterion 6: Hadamard simulated vs asymptotic grid means, in percent.
CRIT6_PCT = {"gaussian": 0.5, "rect": 1.5}
#: Where a delta computed from rounded output is compared with a printed one.
ROUND_TOL = 1e-12

_SUMMARY = re.compile(
    r"# mean=(\S+) min=(\S+) max=(\S+) argmin=\((\S+),(\S+)\) argmax=\((\S+),(\S+)\)$"
)


def check(op: dict, record, qw, ref: dict) -> list[str]:
    """Problems found in one op's output `record` (empty when it is correct)."""
    if op["kind"] == "cli":
        if record["rc"] != 0:
            return [f"exit code {record['rc']}: {record.get('stderr', '')[-300:]}"]
        return _CLI[op["command"]](op, record, qw, ref)
    return _CALLS[op["fn"]](op, record, qw, ref)


# -- helpers ----------------------------------------------------------------


def _in_unit(x: float) -> bool:
    return -PHYS_TOL <= x <= 1.0 + PHYS_TOL


def _physical(a: float, b_re: float, b_im: float) -> bool:
    return _in_unit(a) and b_re * b_re + b_im * b_im <= a * (1.0 - a) + PHYS_TOL


def _stratum(profile: dict | None) -> float | None:
    return None if profile is None else profile.get("stratum")


def _key(coin: str, profile: dict) -> str:
    return f"{coin}/{profile_key(profile)}"


def _cross_tol(profile: dict) -> float | None:
    """Lattice vs k-space tolerance, or None where ROADMAP item 2 changes the
    k-space result (strata below 0.75)."""
    stratum = _stratum(profile)
    if stratum is None or stratum >= 1.0:
        return CROSS_TOL
    return CROSS_TOL_075 if stratum >= 0.75 else None


def _has_f_reference(profile: dict) -> bool:
    stratum = _stratum(profile)
    return stratum is None or stratum >= 0.75


def _spin(qw, alpha: float, beta: float):
    return qw.spin_from_angles(qw.BlochAngles(alpha, beta))


def _cross_engine(qw, op, rows_at) -> list[str]:
    """Compare lattice moments {t: (A, B_re, B_im)} with evolve_k_moments."""
    tol = _cross_tol(op["profile"])
    if tol is None:
        return []
    problems = []
    spin = _spin(qw, op["alpha"], op["beta"])
    profile = build_profile(qw, op["profile"])
    for t, (a, b_re, b_im) in rows_at.items():
        mk = qw.evolve_k_moments(profile, spin, op["coin"], t)
        diff = max(abs(mk.A - a), abs(mk.B - complex(b_re, b_im)))
        if not diff <= tol:
            problems.append(f"t={t}: lattice vs k-space moments differ by {diff:.3e} > {tol}")
    return problems


def _csv(text: str) -> tuple[str, list[list[float]], list[str]]:
    lines = text.splitlines()
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    return (lines[0] if lines else ""), rows, comments


def _ref(ref: dict, table: str, key: str, got: float, tol: float, what: str) -> list[str]:
    want = ref.get(table, {}).get(key)
    if want is None:
        return [f"no recorded reference {table}[{key}]"]
    if not abs(got - want) <= tol:
        return [f"{what} {got!r} differs from the recorded {want!r} by more than {tol}"]
    return []


# -- qwalk commands -----------------------------------------------------------


def _check_sweep(op, record, qw, ref) -> list[str]:
    header, rows, comments = _csv(record["stdout"])
    if header != "alpha,beta,entropy":
        return [f"unexpected header {header!r}"]
    step = op["grid_step"]
    na = math.floor(math.pi / step + 1e-9) + 1
    nb = math.floor(2.0 * math.pi / step + 1e-9) + 1
    if len(rows) != na * nb or len(comments) != 1:
        return [f"{len(rows)} rows and {len(comments)} summary lines, want {na * nb} and 1"]
    problems = []
    for i, (alpha, beta, s) in enumerate(rows):
        if alpha != step * (i // nb) or beta != step * (i % nb):
            problems.append(f"row {i}: angles ({alpha}, {beta}) off the grid")
            break
        if not _in_unit(s):
            problems.append(f"row {i}: entropy {s} outside [0, 1]")
            break
    m = _SUMMARY.match(comments[0])
    if m is None:
        return problems + [f"unparsable summary {comments[0]!r}"]
    mean, lo, hi = (float(m.group(k)) for k in (1, 2, 3))
    values = [r[2] for r in rows]
    if not abs(mean - math.fsum(values) / len(values)) <= ROUND_TOL:
        problems.append(f"summary mean {mean} is not the mean of the rows")
    if lo != min(values) or hi != max(values):
        problems.append("summary min/max disagree with the rows")
    problems += _ref(ref, "sweep_simulated_mean", _key(op["coin"], op["profile"]), mean,
                     REF_TOL_LATTICE, "grid mean")
    return problems


def _check_compare(op, record, qw, ref) -> list[str]:
    header, rows, _ = _csv(record["stdout"])
    if header != "sigma0,mean_sim,mean_asym,delta_pct":
        return [f"unexpected header {header!r}"]
    if [r[0] for r in rows] != op["sigmas"]:
        return [f"sigma0 column {[r[0] for r in rows]} is not the input {op['sigmas']}"]
    problems = []
    for (s0, sim, asym, pct), stratum in zip(rows, op["strata"]):
        if not (_in_unit(sim) and _in_unit(asym)):
            problems.append(f"sigma0={s0}: grid means outside [0, 1]")
        if not abs(pct - 100.0 * abs(sim - asym) / asym) <= ROUND_TOL * max(1.0, pct):
            problems.append(f"sigma0={s0}: delta_pct {pct} inconsistent with the means")
        if op["coin"] == "hadamard" and not pct <= CRIT6_PCT[op["family"]]:
            problems.append(f"sigma0={s0}: delta_pct {pct} > {CRIT6_PCT[op['family']]}")
        key = f"{op['coin']}/{op['family']}/{s0!r}"
        problems += _ref(ref, "compare_sim", key, sim, REF_TOL_LATTICE, "simulated mean")
        if stratum >= 0.75:
            problems += _ref(ref, "compare_asym", key, asym, REF_TOL_KSPACE, "asymptotic mean")
    return problems


def _check_evolve(op, record, qw, ref) -> list[str]:
    header, rows, _ = _csv(record["files"][""])
    if header != "t,A,B_re,B_im,entropy":
        return [f"unexpected header {header!r}"]
    problems = _check_walk(op, rows)
    dheader, dist, _ = _csv(record["files"][".dist"])
    if dheader != "j,prob" or not dist:
        return problems + ["malformed .dist"]
    total = math.fsum(p for _, p in dist)
    if not abs(total - 1.0) <= NORM_TOL:
        problems.append(f".dist probabilities sum to {total!r}")
    if any(p <= 0.0 for _, p in dist):
        problems.append(".dist lists a probability <= 0")
    if problems:
        return problems
    t_end = op["steps"]
    return _cross_engine(qw, op, {t: tuple(rows[t][1:4]) for t in (64, t_end)})


def _check_walk(op, rows) -> list[str]:
    """Shared by the evolve command and the library call: t runs 0..T, every
    row is physical, and the product state starts unentangled."""
    if [int(r[0]) for r in rows] != list(range(op["steps"] + 1)):
        return ["time column is not 0..T"]
    for t, a, b_re, b_im, s in rows:
        if not (_physical(a, b_re, b_im) and _in_unit(s)):
            return [f"t={int(t)}: unphysical row A={a} B=({b_re}, {b_im}) S={s}"]
    if not rows[0][4] <= PHYS_TOL:
        return [f"t=0 entropy {rows[0][4]} of a product state"]
    return []


_CLI = {
    "sweep": _check_sweep,
    "compare": _check_compare,
    "evolve": _check_evolve,
}


# -- library calls ------------------------------------------------------------


def _check_average_trace(op, record, qw, ref) -> list[str]:
    if [t for t, _ in record] != list(range(op["steps"] + 1)):
        return ["time column is not 0..T"]
    problems = [f"t={t}: grid-mean entropy {s} outside [0, 1]"
                for t, s in record if not _in_unit(s)][:1]
    if not record[0][1] <= PHYS_TOL:
        problems.append(f"t=0 grid-mean entropy {record[0][1]} of product states")
    key = _key(op["coin"], op["profile"])
    for t in (1, 10, 100, op["steps"]):
        problems += _ref(ref, "average_trace", f"{key}@{t}", record[t][1],
                         REF_TOL_LATTICE, f"t={t} grid mean")
    return problems


def _check_evolve_call(op, record, qw, ref) -> list[str]:
    problems = _check_walk(op, record)
    if problems:
        return problems
    t_end = op["steps"]
    return _cross_engine(qw, op, {t: tuple(record[t][1:4]) for t in (64, t_end)})


def _check_extract_f(op, record, qw, ref) -> list[str]:
    problems = []
    if record["coin"] != op["coin"]:
        problems.append(f"coin {record['coin']} for a {op['coin']} request")
    if not 0.0 <= record["f"] <= 0.25:
        problems.append(f"f {record['f']} outside [0, 1/4]")
    if _has_f_reference(op["profile"]):
        problems += _ref(ref, "f", _key(op["coin"], op["profile"]), record["f"], REF_TOL_F, "f")
    return problems


def _check_k_moments(op, record, qw, ref) -> list[str]:
    a, b_re, b_im = record["A"], record["B_re"], record["B_im"]
    if not _physical(a, b_re, b_im):
        return [f"unphysical moments A={a} B=({b_re}, {b_im})"]
    tol = _cross_tol(op["profile"])
    if tol is None:
        return []
    coin = qw.hadamard_coin() if op["coin"] == "hadamard" else qw.fourier_coin()
    spin = _spin(qw, op["alpha"], op["beta"])
    last = qw.evolve(build_profile(qw, op["profile"]), spin, coin, op["t"])[-1].moments
    diff = max(abs(last.A - a), abs(last.B - complex(b_re, b_im)))
    if not diff <= tol:
        return [f"k-space vs lattice moments differ by {diff:.3e} > {tol}"]
    return []


_CALLS = {
    "average_trace": _check_average_trace,
    "evolve": _check_evolve_call,
    "extract_f": _check_extract_f,
    "evolve_k_moments": _check_k_moments,
}
