"""One pass of a workload, in a fresh process.

Reads a job (JSON) on stdin and prints one JSON line with the pass's
measurements.  The set-up it times is the first thing it does: ``import
qwalklab`` from the checkout's ``src`` and building the CLI parser, which is
what every ``qwalk`` invocation pays.  Nothing imported above that point
loads numpy.

Job keys: ``root`` (checkout), ``ops`` (from workloads.make_ops),
``setup_only``, ``trace``, ``check``, ``out_dir``, ``spans_path``,
``pass_index``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import warnings

from workloads import build_profile

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import qwalklab
    from qwalklab import cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    if not os.path.realpath(qwalklab.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"qwalklab imported from {qwalklab.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not job["setup_only"]:
        result.update(run_pass(job, qwalklab))
    print(json.dumps(result))
    return 0


def run_pass(job: dict, qw) -> dict:
    """Run every op of the job, then (outside the timed region) digest and
    check the outputs."""
    tracer = None
    if job["trace"]:
        from tracer import BoundaryTracer

        tracer = BoundaryTracer()
        tracer.install(qw)
    runs = []
    try:
        for op in job["ops"]:
            runs.append(execute(op, qw, job["out_dir"], tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = None
    if job["check"]:
        import checks

        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
    ops_out = []
    for op, run in zip(job["ops"], runs):
        row = {k: run[k] for k in ("latency_s", "error", "warnings", "out_bytes")}
        row["id"] = op["id"]
        row["digest"] = digest(run["record"])
        if ref is not None and run["error"] is None:
            row["problems"] = checks_for(checks, op, run["record"], qw, ref)
        ops_out.append(row)

    out = {"ops": ops_out, "rss_mb": rss_mb}
    if job["check"]:
        out["env"] = environment(qw)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["per_op_self"] = tracer.per_op_self()
        tracer.write_spans(job["spans_path"], job["pass_index"])
    return out


def checks_for(checks, op, record, qw, ref) -> list[str]:
    try:
        return checks.check(op, record, qw, ref)
    except Exception as exc:  # a malformed output must fail the op, not the run
        return [f"check raised {type(exc).__name__}: {exc}"]


def execute(op: dict, qw, out_dir: str, tracer=None) -> dict:
    """Run one op.  Only the call itself is timed; inputs are built before
    it and its output is read back after it."""
    call, finish = _prepare(op, qw, out_dir)
    error = raw = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op_id = op["id"]
            tracer.active = True
        start = time.perf_counter()
        try:
            raw = call()
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    record, out_bytes = (None, 0) if error is not None else finish(raw)
    if op["kind"] == "cli" and error is None and record["rc"] != 0:
        error = f"exit code {record['rc']}: {record['stderr'][-300:]}"
    return {"latency_s": latency, "error": error, "warnings": len(caught),
            "record": record, "out_bytes": out_bytes}


def digest(record) -> str | None:
    if record is None:
        return None
    payload = {k: v for k, v in record.items() if k != "stderr"} if isinstance(record, dict) else record
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _prepare(op: dict, qw, out_dir: str):
    """(zero-argument call, finish(raw) -> (record, bytes)) for one op."""
    if op["kind"] == "cli":
        return _prepare_cli(op, qw, out_dir)
    fn = op["fn"]
    profile = build_profile(qw, op["profile"])
    coin = op["coin"]
    if fn == "average_trace":
        grid = qw.paper_grid()
        return (lambda: qw.average_trace(coin, profile, grid, op["steps"]),
                lambda raw: ([[t, s] for t, s in raw], 0))
    spin = None
    if "alpha" in op:
        spin = qw.spin_from_angles(qw.BlochAngles(op["alpha"], op["beta"]))
    if fn == "evolve":
        matrix = qw.hadamard_coin() if coin == "hadamard" else qw.fourier_coin()
        return (lambda: qw.evolve(profile, spin, matrix, op["steps"]),
                lambda raw: ([[r.t, r.moments.A, r.moments.B.real, r.moments.B.imag, r.entropy]
                              for r in raw], 0))
    if fn == "extract_f":
        return (lambda: qw.extract_f(coin, profile),
                lambda raw: ({"f": raw.f, "coin": raw.coin}, 0))
    if fn == "evolve_k_moments":
        return (lambda: qw.evolve_k_moments(profile, spin, coin, op["t"]),
                lambda raw: ({"A": raw.A, "B_re": raw.B.real, "B_im": raw.B.imag}, 0))
    raise ValueError(f"unknown library op {fn!r}")


def _prepare_cli(op: dict, qw, out_dir: str):
    from qwalklab import cli

    argv = list(op["argv"])
    out_path = None
    if op["command"] == "evolve":
        out_path = os.path.join(out_dir, f"op{op['id']}.csv")
        argv += ["--out", out_path]
    stdout, stderr = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                return exc.code if isinstance(exc.code, int) else 2

    def finish(rc):
        files = {}
        if out_path is not None:
            for suffix in ("", ".dist"):
                path = out_path + suffix
                if os.path.exists(path):
                    with open(path, newline="") as fh:
                        files[suffix] = fh.read()
                    os.remove(path)
        text = stdout.getvalue()
        record = {"rc": rc, "stdout": text, "files": files, "stderr": stderr.getvalue()}
        nbytes = len(text.encode()) + sum(len(v.encode()) for v in files.values())
        return record, nbytes

    return call, finish


def environment(qw) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **_cache_sizes(),
        "qwalklab": qw.__version__,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {"l2": "unknown", "l3": "unknown"}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(e for e in os.listdir(base) if e.startswith("index")):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                if level in ("2", "3"):
                    out[f"l{level}"] = fh.read().strip()
    except OSError:
        pass
    return out


if __name__ == "__main__":
    sys.exit(main())
