"""Tests of the benchmark itself: op generation, tracer, checker, runner.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import types
import warnings

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qwalklab  # noqa: E402
from qwalklab import cli, lattice  # noqa: E402,F401  (cli: import before the snapshot)

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import BoundaryTracer  # noqa: E402

STEPS = 40


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


def _small_ops():
    """A few quick ops touching every layer; short walks on coarse grids."""
    g = workloads._gauss(2.0, 2.0)
    ops = [
        workloads._cli("sweep", "hadamard", g, ["--mode", "simulated", "--steps", str(STEPS),
                                                "--grid-step", "0.5"],
                       mode="simulated", grid_step=0.5, steps=STEPS),
        workloads._cli("evolve", "fourier", g, ["--alpha", "0.7", "--beta", "1.1",
                                                "--steps", str(STEPS)],
                       alpha=0.7, beta=1.1, steps=STEPS),
        workloads._cli("asymptotic", "hadamard", workloads._rect(5),
                       ["--alpha", "0.7", "--beta", "1.1"], alpha=0.7, beta=1.1),
        workloads._cli("asymptotic", "hadamard", workloads._rect(5),
                       ["--alpha", "1.7", "--beta", "-2.1"], alpha=1.7, beta=-2.1),
        workloads._call("average_trace", "fourier", workloads._local(), steps=STEPS),
        workloads._call("extract_f", "hadamard", workloads._gauss(1.0, 1.0)),
        workloads._call("evolve_k_moments", "hadamard", g, alpha=0.7, beta=1.1, t=STEPS),
    ]
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _run_ops(ops, tmp_path, tracer=None):
    if tracer is not None:
        tracer.install(qwalklab)
    try:
        return [worker.execute(op, qwalklab, str(tmp_path), tracer) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()


def _bindings():
    """Every name in every qwalklab namespace, with the object it refers to."""
    mods = [m for name, m in sys.modules.items()
            if name == "qwalklab" or name.startswith("qwalklab.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
           if k != "__warningregistry__"}  # the warnings machinery adds it
    out[("BasisEvolution", "moments_arrays")] = lattice.BasisEvolution.__dict__["moments_arrays"]
    return out


# -- op generation ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_op_list(name):
    assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)
    assert workloads.make_ops(name, 7) != workloads.make_ops(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_covers_every_stratum_and_draws_from_its_jitter_set(name):
    strata = None
    for seed in range(5):
        ops = workloads.make_ops(name, seed)
        seen = set()
        for op in ops:
            for prof in [op.get("profile")] + [None]:
                if prof and prof["profile"] == "gaussian":
                    seen.add(prof["stratum"])
                    assert prof["sigma"] in workloads.jitter_values(prof["stratum"])
            for s, st in zip(op.get("sigmas", []), op.get("strata", [])):
                assert s in workloads.jitter_values(st)
        strata = seen if strata is None else strata
        assert seen == strata
    assert strata


# -- tracer ---------------------------------------------------------------------


def test_tracer_leaves_outputs_bit_identical_and_restores_every_name(tmp_path):
    ops = _small_ops()
    before = _bindings()
    plain = _run_ops(ops, tmp_path)
    tracer = BoundaryTracer()
    traced = _run_ops(ops, tmp_path, tracer)
    after = _bindings()

    assert [r["error"] for r in plain + traced] == [None] * (2 * len(ops))
    assert [worker.digest(r["record"]) for r in traced] == \
        [worker.digest(r["record"]) for r in plain]
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    patched = set(tracer.patched_names)
    for name in [("qwalklab.cli", "walk_step"), ("qwalklab.cli", "main"),
                 ("qwalklab.analysis", "_asymptotic_kernels"),
                 ("qwalklab.analysis", "evolve_basis"), ("qwalklab.lattice", "step"),
                 ("qwalklab", "average_trace"), ("BasisEvolution", "moments_arrays")]:
        assert name in patched
    assert all(isinstance(v, types.FunctionType) or k[1] == "moments_arrays"
               for k, v in before.items() if k in patched)


def test_tracer_counts_at_the_boundaries(tmp_path):
    ops = _small_ops()
    tracer = BoundaryTracer()
    _run_ops(ops, tmp_path, tracer)
    m = tracer.metrics()
    # two basis-pair evolutions (sweep, average_trace) and one walk
    assert m["lattice.step.calls"] == 5 * STEPS
    assert m["cli.calls"] == 4
    # Rectangular(5) kernels: cold on the first asymptotic op, warm on its
    # extract_f and on the whole second op; Gaussian(1.0) cold once
    assert (m["kspace.kernels.cold_calls"], m["kspace.kernels.warm_calls"]) == (2, 3)
    assert m["trace.hook_errors"] == 0
    # the sweep reads only t = T of its moments, average_trace reads all of them
    computed, used = tracer.moments_usage()
    sweep_elems = 2 * 7 * 13 * (STEPS + 1)  # grid step 0.5: 7 x 13 angles
    trace_elems = 2 * 32 * 63 * (STEPS + 1)
    assert computed == sweep_elems + trace_elems
    assert used == 2 * 7 * 13 + trace_elems
    spans = tracer.spans
    assert {s[4] for s in spans} == set(range(len(ops)))
    assert all(s[3] == -1 or spans[s[3]][4] == s[4] for s in spans)
    assert all(s[2] - s[1] >= s[5] >= 0 for s in spans)


# -- checker --------------------------------------------------------------------


def _sweep_op():
    return workloads._cli("sweep", "hadamard", workloads._local(),
                          ["--mode", "simulated", "--steps", str(workloads.STEPS)],
                          mode="simulated", grid_step=0.1, steps=workloads.STEPS, id=0)


def test_checker_passes_real_outputs(tmp_path, reference):
    ops = [_sweep_op(),
           workloads._call("extract_f", "fourier", workloads._gauss(5.0 * 1.005, 5.0), id=1)]
    for op in ops:
        r = worker.execute(op, qwalklab, str(tmp_path))
        assert r["error"] is None
        assert checks.check(op, r["record"], qwalklab, reference) == []


def test_checker_flags_a_corrupted_output_as_a_failed_op(tmp_path, reference):
    op = _sweep_op()
    good = worker.execute(op, qwalklab, str(tmp_path))["record"]
    lines = good["stdout"].splitlines()
    alpha, beta, _ = lines[5].split(",")
    lines[5] = f"{alpha},{beta},1.5"
    bad = dict(good, stdout="\n".join(lines) + "\n")
    problems = checks.check(op, bad, qwalklab, reference)
    assert any("1.5" in p for p in problems)

    f_op = workloads._call("extract_f", "fourier", workloads._gauss(5.0, 5.0), id=1)
    assert checks.check(f_op, {"f": 0.3, "coin": "fourier"}, qwalklab, reference)

    row = {"latency_s": 0.01, "error": None, "warnings": 0, "out_bytes": 0,
           "id": 0, "digest": worker.digest(bad),
           "problems": worker.checks_for(checks, op, bad, qwalklab, reference)}
    passes = [{"ops": [row], "traced": False, "rss_mb": 50.0, "env": {}},
              {"ops": [dict(row, problems=None)], "traced": False, "rss_mb": 50.0}]
    passes[1]["ops"][0].pop("problems")
    args = run.parse_args(["--workload", "trace-kspace", "--seed", "1", "--seconds", "1"])
    report = run.summarize(args, [op], passes, [0.1, 0.1])
    # the later pass reproduced the bad output, so it fails too
    assert (report["attempted"], report["failed"]) == (2, 2)


def test_a_pass_whose_output_differs_counts_as_failed():
    op = {"id": 0, "argv": ["fit"]}
    row = {"latency_s": 0.01, "error": None, "warnings": 0, "out_bytes": 0, "id": 0,
           "digest": "a", "problems": []}
    other = dict(row, digest="b")
    other.pop("problems")
    passes = [{"ops": [row], "traced": False, "rss_mb": 1.0, "env": {}},
              {"ops": [other], "traced": True, "rss_mb": 1.0,
               "layers": {"trace.hook_errors": 0}, "per_op_self": {}}]
    args = run.parse_args(["--workload", "trace-kspace", "--seed", "1", "--seconds", "1",
                           "--trace", "1"])
    report = run.summarize(args, [op], passes, [0.1])
    assert report["failed"] == 1
    assert "traced output differs" in report["failures"][0]["why"]


def test_warnings_are_counted_and_kept_off_the_output(tmp_path, capsys):
    op = workloads._call("average_trace", "hadamard", workloads._local(), steps=3, id=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = worker.execute(op, qwalklab, str(tmp_path))
    assert r["error"] is None
    assert r["warnings"] >= 0
    assert capsys.readouterr().err == ""


# -- runner ---------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert run.percentile(xs, 87) == (87.0, 13)
    assert run.percentile(xs[:20], 50) == (10.0, 10)
    assert run.percentile([3.0], 99) == (3.0, 0)


def test_runner_fails_without_a_program_to_measure(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-kspace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert copy.deepcopy(spec["paths"]) == ["perfbench"]
