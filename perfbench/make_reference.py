"""Record the reference values that checks.py compares outputs against.

Run once from the root of a checkout:

    python3 perfbench/make_reference.py

The values were recorded at the commit that added the benchmark; rerunning
this at a later commit would hide any change in results since then.  It
covers every dispersion a seed can draw (workloads.JITTER) in the strata
where no open ROADMAP item means to change results.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import qwalklab as qw  # noqa: E402
from qwalklab import analysis  # noqa: E402

import workloads as W  # noqa: E402


def _gaussians(strata):
    return [{"profile": "gaussian", "sigma": s} for st in strata if st >= 0.75
            for s in W.jitter_values(st)]


def main() -> None:
    warnings.simplefilter("ignore")
    local = {"profile": "local"}
    grid = analysis.grid_from_step(0.1)
    ref = {"f": {}, "sweep_simulated_mean": {}, "compare_sim": {}, "compare_asym": {},
           "average_trace": {}}
    lattice_profiles = [local] + _gaussians((2.0,)) + [{"profile": "rect", "a": 5}]
    for coin in W.COINS:
        for spec in _gaussians(W.F_CURVE_STRATA):
            key = f"{coin}/{W.profile_key(spec)}"
            ref["f"][key] = qw.extract_f(coin, W.build_profile(qw, spec)).f
        for spec in lattice_profiles:
            key = f"{coin}/{W.profile_key(spec)}"
            ref["sweep_simulated_mean"][key] = qw.sweep_simulated(
                coin, W.build_profile(qw, spec), grid, W.STEPS).mean
            trace = qw.average_trace(coin, W.build_profile(qw, spec), qw.paper_grid(), W.STEPS)
            for t in (1, 10, 100, W.STEPS):
                ref["average_trace"][f"{key}@{t}"] = trace[t][1]
        for family in ("gaussian", "rect"):
            for stratum in W.LATTICE_SWEEP_STRATA:
                for s in W.jitter_values(stratum):
                    (rep,) = qw.compare(coin, family, [s], analysis.grid_from_step(0.3), W.STEPS)
                    ref["compare_sim"][f"{coin}/{family}/{s!r}"] = rep.mean_simulated
                    ref["compare_asym"][f"{coin}/{family}/{s!r}"] = rep.mean_asymptotic
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
