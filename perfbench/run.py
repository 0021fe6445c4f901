"""qwalklab benchmark: reproduction time end to end, per-layer numbers traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-sweep --seed 1 --seconds 60 --trace 0

Each pass of the workload's op list runs in a fresh worker process (one at a
time, BLAS pinned to one thread, a closed loop with one client), so caches
start cold on every pass as they do for every ``qwalk`` invocation.  Passes
repeat while the next one is expected to end within ``--seconds``.  The first
pass's outputs are checked (``checks.py``); every later pass must reproduce
them bit for bit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, the tracing overhead, and fails an op whose traced output differs from
its untraced one.  Human-readable lines come first; the last line of stdout
is one JSON object.  A full report goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import TAIL_PERCENTILE, WORKLOADS, make_ops  # noqa: E402

#: Set-up-only workers per run; each pass contributes one more sample.
SETUP_PROBES = 5
#: The run gives up (and fails) if it would exceed this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "lattice.step.calls": "count",
    "lattice.step.self_s": "s",
    "lattice.step.site_updates": "count",
    "lattice.step.bytes_computed": "B",
    "lattice.evolve_basis.self_s": "s",
    "lattice.evolve.self_s": "s",
    "lattice.coin_moments.self_s": "s",
    "lattice.moments_arrays.self_s": "s",
    "lattice.moments_arrays.elements": "count",
    "lattice.moments_arrays.used_ratio": "ratio",
    "lattice.self_s": "s",
    "kspace.kernels.cold_calls": "count",
    "kspace.kernels.cold_s": "s",
    "kspace.kernels.warm_calls": "count",
    "kspace.kernels.warm_s": "s",
    "kspace.kernels.hit_ratio": "ratio",
    "kspace.extract_f.self_s": "s",
    "kspace.evolve_k_moments.self_s": "s",
    "kspace.self_s": "s",
    "core.entropy.calls": "count",
    "core.entropy.elements": "count",
    "core.entropy.self_s": "s",
    "core.self_s": "s",
    "core.warnings": "count",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op failing)."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts workers one at a time and collects their JSON results."""

    def __init__(self, root: str, out_dir: str, started: float) -> None:
        self.root = root
        self.out_dir = out_dir
        self.started = started
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

    def worker(self, **job) -> dict:
        job = {"root": self.root, "out_dir": self.out_dir, "setup_only": False,
               "trace": False, "check": False, "ops": [], **job}
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"out of time after {DEADLINE_S} s")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py")],
                input=json.dumps(job), capture_output=True, text=True,
                env=self.env, cwd=self.root, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running at the {DEADLINE_S} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(latencies: list[float], q: float) -> tuple[float, int]:
    """(value, ops beyond it) of the q-th percentile by the nearest-rank rule."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(q * len(xs) / 100))
    return xs[rank - 1], len(xs) - rank


def run(args: argparse.Namespace) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qwalklab", "__init__.py")):
        print(f"error: no src/qwalklab under {root}; run from a qwalklab checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    out_dir = os.path.join(root, ".perfbench_out")
    tmp_dir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(out_dir, f"spans-{tag}.tsv")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    runner = Runner(root, tmp_dir, started)
    ops = make_ops(args.workload, args.seed)

    try:
        # unmeasured: keeps bytecode compilation and a cold page cache out of
        # the set-up samples
        runner.worker(setup_only=True)
        setup = [runner.worker(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        passes, durations = [], []
        loop_start = time.monotonic()
        # at least two passes (one untraced, one traced with --trace 1); no
        # pass is started that would be expected to end after --seconds
        while len(passes) < 2 or (time.monotonic() - loop_start
                                  + statistics.median(durations) <= args.seconds):
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.monotonic()
            result = runner.worker(ops=ops, trace=traced, check=not passes,
                                   spans_path=spans_path, pass_index=len(passes))
            durations.append(time.monotonic() - t0)
            result["traced"] = traced
            passes.append(result)
            setup.append(result["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(tmp_dir):
            for name in os.listdir(tmp_dir):
                os.remove(os.path.join(tmp_dir, name))
            os.rmdir(tmp_dir)

    report = summarize(args, ops, passes, setup)
    with open(os.path.join(out_dir, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(args, report)
    return 0


def summarize(args, ops, passes, setup) -> dict:
    first = passes[0]
    failures = []
    for index, p in enumerate(passes):
        for row, op in zip(p["ops"], ops):
            checked = first["ops"][op["id"]]
            why = row["error"]
            if not why and row["digest"] != checked["digest"]:
                kind = "traced" if p["traced"] else "untraced"
                why = f"{kind} output differs from pass 0"
            if not why:  # the output pass 0's checks saw, in this pass too
                why = "; ".join(checked.get("problems", []))
            if why:
                failures.append({"pass": index, "op": op["id"], "argv": op.get("argv"),
                                 "fn": op.get("fn"), "why": why})
    attempted = len(ops) * len(passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    walls = [sum(r["latency_s"] for r in p["ops"]) for p in plain]
    latencies = [r["latency_s"] for p in plain for r in p["ops"]]
    q = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(latencies, q)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "op_ms.tail": 1e3 * tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": first["env"], "ops_per_pass": len(ops),
        "passes": len(passes), "attempted": attempted, "failed": len(failures),
        "failures": failures, "tail_percentile": q, "tail_beyond": beyond,
        "tail_ops": len(latencies), "setup_samples": setup,
        "warnings": statistics.median(sum(r["warnings"] for r in p["ops"]) for p in plain),
        "end_to_end": end_to_end, "ops": ops,
        "latencies": [[r["latency_s"] for r in p["ops"]] for p in passes],
        "traced_pass": [p["traced"] for p in passes],
    }
    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["cli.out_bytes"] = statistics.median(
            sum(r["out_bytes"] for r in p["ops"]) for p in traced)
        layers["core.warnings"] = statistics.median(
            sum(r["warnings"] for r in p["ops"]) for p in traced)
        traced_walls = [sum(r["latency_s"] for r in p["ops"]) for p in traced]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        report["hook_errors"] = sum(p["layers"]["trace.hook_errors"] for p in traced)
        report["per_layer"] = layers
        report["per_op_self"] = traced[-1]["per_op_self"]
    return report


def print_report(args, report) -> None:
    print(f"# qwalklab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# ops/pass={report['ops_per_pass']} passes={report['passes']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for f in report["failures"][:10]:
        print(f"# FAILED pass {f['pass']} op {f['op']} {f['argv'] or f['fn']}: {f['why']}")
    e2e = report["end_to_end"]
    error_rate = report["failed"] / report["attempted"]
    if report.get("hook_errors"):
        print(f"# tracer hooks raised {report['hook_errors']} times: some counts are incomplete")
    if args.trace:
        units = PER_LAYER_UNITS
        metrics = {k: report["per_layer"][k] for k in units}
        for name, value in metrics.items():
            print(f"{name:36s} {value!r:>24} {units[name]}")
    else:
        units = END_TO_END_UNITS
        metrics = dict(e2e)
        for name, value in metrics.items():
            note = ""
            if name == "op_ms.tail":
                note = (f"  (p{report['tail_percentile']} of {report['tail_ops']} ops, "
                        f"{report['tail_beyond']} beyond)")
            print(f"{name:14s} {value!r:>24} {units[name]}{note}")
        print(f"{'error_rate':14s} {error_rate!r:>24} fraction")
        print(f"{'core.warnings':14s} {report['warnings']!r:>24} count per pass")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
