"""Boundary tracer: spans around the calls one qwalklab module makes into another.

The tracer changes no file of the program.  ``install`` finds every plain
function that is bound in a qwalklab module namespace other than the one that
defines it (``cli`` imports ``step as walk_step``, ``analysis`` imports
``_asymptotic_kernels`` and ``evolve_basis``, the package re-exports the
public API), and rebinds every name that refers to that function object, in
every qwalklab namespace including its home module, to one wrapper.  It also
wraps ``cli.main`` (the entry point the benchmark calls) and the method
``BasisEvolution.moments_arrays``.  ``uninstall`` restores every name.

A span is ``[name, start_ns, end_ns, parent, op_id, child_ns]``; spans stay in
memory until the pass ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types

#: Span names whose metrics the benchmark reports under a shorter name.
KERNELS = "kspace._asymptotic_kernels"
ENTROPY = "core.binary_entropy"
STEP = "lattice.step"
MOMENTS = "lattice.moments_arrays"


def _layer_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


class BoundaryTracer:
    """Records a span for every call that crosses a qwalklab module boundary."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self.active = False
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.patched_names: list[tuple[str, str]] = []
        self._seen_kernel_args: set = set()
        self._usage: list[tuple[int, list[int]]] = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [package] + sorted(
            (m for name, m in sys.modules.items() if name.startswith(prefix)),
            key=lambda m: m.__name__,
        )
        targets: dict[int, types.FunctionType] = {}
        for module in modules:
            for obj in vars(module).values():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith(prefix)
                        and obj.__module__ != module.__name__):
                    targets[id(obj)] = obj
        cli = sys.modules[prefix + "cli"]
        targets[id(cli.main)] = cli.main
        wrappers = {key: self._wrap(func) for key, func in targets.items()}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and targets[id(obj)] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])
        basis = sys.modules[prefix + "lattice"].BasisEvolution
        method = basis.__dict__["moments_arrays"]
        self._patched.append((basis, "moments_arrays", method))
        setattr(basis, "moments_arrays", self._wrap(method, MOMENTS))
        self.patched_names = [(owner.__name__, name) for owner, name, _ in self._patched]

    def uninstall(self) -> None:
        while self._patched:
            owner, name, obj = self._patched.pop()
            setattr(owner, name, obj)

    # -- spans ----------------------------------------------------------

    def _wrap(self, func, name: str | None = None):
        name = name or _layer_name(func)
        hook = {KERNELS: self._kernel_hook, ENTROPY: self._entropy_hook,
                STEP: self._step_hook, MOMENTS: self._moments_hook}.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, tracer.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if hook is not None:
                try:
                    result = hook(rec, args, kwargs, result)
                except Exception:  # a changed signature must not fail the op
                    tracer._add("trace.hook_errors", 1)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- counters at the boundaries --------------------------------------

    def _step_hook(self, rec, args, kwargs, result):
        state = args[0]
        self._add("lattice.step.site_updates", state.n_sites)
        self._add("lattice.step.bytes_computed", state.a.nbytes + state.b.nbytes
                  + result.a.nbytes + result.b.nbytes)
        return result

    def _entropy_hook(self, rec, args, kwargs, result):
        self._add("core.entropy.elements", getattr(args[0], "size", 1))
        return result

    def _kernel_hook(self, rec, args, kwargs, result):
        try:
            key = (args, tuple(sorted(kwargs.items())))
            warm = key in self._seen_kernel_args
            self._seen_kernel_args.add(key)
        except TypeError:  # unhashable arguments: count as a first use
            warm = False
        kind = "warm" if warm else "cold"
        self._add(f"kspace.kernels.{kind}_calls", 1)
        self._add(f"kspace.kernels.{kind}_s", (rec[2] - rec[1]) * 1e-9)
        return result

    def _moments_hook(self, rec, args, kwargs, result):
        """Count elements computed, and hand the caller arrays that record how
        many of those elements it reads."""
        cls = _usage_class()
        tracked = []
        for arr in result:
            view = arr.view(cls)
            view._reads = []
            self._usage.append((arr.size, view._reads))
            tracked.append(view)
        return tuple(tracked)

    # -- aggregation ----------------------------------------------------

    def moments_usage(self) -> tuple[int, int]:
        """(elements computed, elements read) over all moments_arrays calls.

        An array counts as read up to its largest single read: an indexing
        result's size, or the whole array when it enters a numpy function.
        """
        computed = sum(size for size, _ in self._usage)
        used = sum(min(size, max(reads, default=0)) for size, reads in self._usage)
        return computed, used

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _, _, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start - child) * 1e-9
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the pass."""
        rows = self.summary()

        def get(name: str, field: str) -> float:
            return rows.get(name, {}).get(field, 0)

        def layer(name: str, field: str) -> float:
            return sum(r[field] for n, r in rows.items() if n.startswith(name + "."))

        computed, used = self.moments_usage()
        c = self.counts
        cold = c.get("kspace.kernels.cold_calls", 0)
        warm = c.get("kspace.kernels.warm_calls", 0)
        return {
            "lattice.step.calls": get(STEP, "calls"),
            "lattice.step.self_s": get(STEP, "self_s"),
            "lattice.step.site_updates": c.get("lattice.step.site_updates", 0),
            "lattice.step.bytes_computed": c.get("lattice.step.bytes_computed", 0),
            "lattice.evolve_basis.self_s": get("lattice.evolve_basis", "self_s"),
            "lattice.evolve.self_s": get("lattice.evolve", "self_s"),
            "lattice.coin_moments.self_s": get("lattice.coin_moments", "self_s"),
            "lattice.moments_arrays.self_s": get(MOMENTS, "self_s"),
            "lattice.moments_arrays.elements": computed,
            "lattice.moments_arrays.used_ratio": used / computed if computed else 0.0,
            "lattice.self_s": layer("lattice", "self_s"),
            "kspace.kernels.cold_calls": cold,
            "kspace.kernels.cold_s": c.get("kspace.kernels.cold_s", 0.0),
            "kspace.kernels.warm_calls": warm,
            "kspace.kernels.warm_s": c.get("kspace.kernels.warm_s", 0.0),
            "kspace.kernels.hit_ratio": warm / (cold + warm) if cold + warm else 0.0,
            "kspace.extract_f.self_s": get("kspace.extract_f", "self_s"),
            "kspace.evolve_k_moments.self_s": get("kspace.evolve_k_moments", "self_s"),
            "kspace.self_s": layer("kspace", "self_s"),
            "core.entropy.calls": get(ENTROPY, "calls"),
            "core.entropy.elements": c.get("core.entropy.elements", 0),
            "core.entropy.self_s": get(ENTROPY, "self_s"),
            "core.self_s": layer("core", "self_s"),
            "analysis.calls": layer("analysis", "calls"),
            "analysis.self_s": layer("analysis", "self_s"),
            "cli.calls": get("cli.main", "calls"),
            "cli.self_s": layer("cli", "self_s"),
            "trace.spans": len(self.spans),
            "trace.hook_errors": c.get("trace.hook_errors", 0),
        }

    def per_op_self(self) -> dict[int, dict[str, float]]:
        """Self seconds per (op id, span name)."""
        out: dict[int, dict[str, float]] = {}
        for name, start, end, _, op, child in self.spans:
            row = out.setdefault(op, {})
            row[name] = row.get(name, 0.0) + (end - start - child) * 1e-9
        return out

    def write_spans(self, path: str, pass_index: int) -> None:
        with open(path, "a") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{pass_index}\t{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")


@functools.cache
def _usage_class():
    """An ndarray view type that appends to ``_reads`` the size of every read."""
    import numpy as np

    class UsageArray(np.ndarray):
        def __array_finalize__(self, obj):
            self._reads = getattr(obj, "_reads", [])

        def __getitem__(self, key):
            out = self.view(np.ndarray)[key]
            self._reads.append(int(np.size(out)))
            return out

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            self._reads.append(self.size)
            return getattr(ufunc, method)(*_plain(inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            self._reads.append(self.size)
            return func(*_plain(args), **kwargs)

    return UsageArray


def _plain(values):
    import numpy as np

    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            v = v.view(np.ndarray)
        elif isinstance(v, (list, tuple)):
            v = type(v)(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in v)
        out.append(v)
    return tuple(out)
