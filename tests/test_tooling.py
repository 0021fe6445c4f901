"""The test run itself, and the docs it keeps in step with the code."""

import importlib.util
import inspect
import json
import os
import shlex
import sys
import warnings
from pathlib import Path

import pytest

import qwalklab
from qwalklab import cli, kspace, lattice
from test_core import INPUT_READERS

CONFTEST = Path(__file__).with_name("conftest.py")
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_failing_given_test_does_not_stop_the_run(pytester):
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()


def test_readme_option_table_matches_the_parser():
    # the README's "| Command | Options |" table: one row per command
    text = README.read_text()
    table = text[text.index("| Command | Options |"):].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        command, options = (cell.strip() for cell in row.strip("|").split("|"))
        documented[command.strip("`")] = options.strip("`").split()
    parsed = {name: ["--" + key.replace("_", "-") for key in keys]
              for name, (_, _, keys) in cli._COMMANDS.items()}
    assert documented == parsed


def test_readme_library_example_runs():
    # the ```python block under "## Library", run as written; a warning fails it
    text = README.read_text()
    block = text[text.index("## Library"):].split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, f"{README.name} (## Library)", "exec"), {"__name__": "readme"})


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # the ```sh block under "## CLI": continuations joined, comments stripped,
    # each qwalk line run through cli.main; every CSV it writes has one header
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 6 and all(argv[0] == "qwalk" for argv in commands)
    monkeypatch.chdir(tmp_path)
    tables = []
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if out and not out.startswith("{"):  # --out leaves stdout empty; JSON opens with {
            tables.append(out)
    tables += [path.read_text() for path in sorted(tmp_path.iterdir())]
    assert len(tables) == 5  # run.csv and its .dist, two sweeps, compare
    for table in tables:
        header, *rows = table.splitlines()
        assert not any(map(_is_number, header.split(","))), header
        for row in rows:
            if not row.startswith("# mean="):  # a sweep's summary line
                assert all(map(_is_number, row.split(","))), row


def test_benchmark_tracer_finds_the_names_it_pins():
    # perfbench/tracer.py wraps BasisEvolution.moments_arrays and
    # kspace._asymptotic_kernels by name.  Its install looks up moments_arrays
    # and raises, failing a traced benchmark run, if it is gone, though
    # average_trace no longer calls it; without _asymptotic_kernels the
    # kspace.kernels.* metrics just read 0.  _asymptotic_kernels does the whole
    # time-averaged sum (the closed-form rows and one dot product over the
    # profile's even lags), so those metrics time all of it
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = [m for name, m in sys.modules.items()
               if name == "qwalklab" or name.startswith("qwalklab.")]
    before = {m.__name__: dict(vars(m)) for m in modules}
    method = lattice.BasisEvolution.__dict__["moments_arrays"]
    kernels = kspace._asymptotic_kernels
    tracer = tracer_module.BoundaryTracer()
    try:
        tracer.install(qwalklab)
        assert ("BasisEvolution", "moments_arrays") in tracer.patched_names
        assert ("qwalklab.kspace", "_asymptotic_kernels") in tracer.patched_names
        assert lattice.BasisEvolution.__dict__["moments_arrays"] is not method
        assert kspace._asymptotic_kernels is not kernels
        assert kspace._asymptotic_kernels.__wrapped__ is kernels
    finally:
        tracer.uninstall()
    assert lattice.BasisEvolution.__dict__["moments_arrays"] is method
    for m in modules:
        assert vars(m).keys() == before[m.__name__].keys(), m.__name__
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items()), m.__name__


def _tiny(op: dict) -> dict:
    """A benchmark op at 5 steps and, where it takes one, grid step 1.0."""
    op = {**op, **{key: 5 for key in ("steps", "t") if key in op}}
    if op["kind"] == "cli":
        argv = list(op["argv"])
        argv[argv.index("--steps") + 1] = "5"
        if op["command"] != "evolve":
            if "--grid-step" not in argv:
                argv += ["--grid-step", "1.0"]
            argv[argv.index("--grid-step") + 1] = "1.0"
        op["argv"] = argv
    return op


def test_benchmark_ops_run_on_the_library(monkeypatch, tmp_path):
    # perfbench/worker.py calls the library by name and reads its results (an
    # extract_f result's .f and .coin) outside the op's error handling; one op
    # of each kind the workloads build must still run, without an error or a warning
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        worker = importlib.import_module("worker")
        workloads = importlib.import_module("workloads")
        kinds = {}
        for op in workloads.make_ops("lattice-sweep", 1) + workloads.make_ops("trace-kspace", 1):
            if (op["profile"] or {}).get("stratum", 1.0) >= 1.0:  # below: 2**18-node tables
                kinds.setdefault((op["kind"], op.get("fn", op.get("command"))), op)
        assert sorted(kinds) == [("call", "average_trace"), ("call", "evolve"),
                                 ("call", "evolve_k_moments"), ("call", "extract_f"),
                                 ("cli", "compare"), ("cli", "evolve"), ("cli", "sweep")]
        for kind, op in kinds.items():
            run = worker.execute(_tiny(op), qwalklab, str(tmp_path))
            assert (run["error"], run["warnings"]) == (None, 0), kind
            assert worker.digest(run["record"]) is not None, kind
    finally:
        for name in ("worker", "workloads"):
            sys.modules.pop(name, None)


#: Parameters that carry a spin, its angles, a dispersion, a grid step, a
#: count or a delta.
RULED_PARAMETERS = {"spin", "alpha", "beta", "alphas", "betas", "sigma0", "a", "step", "steps",
                    "t", "delta"}

#: Result records: they hold a value an entry point has already read.
RECORDS = {"ComparisonReport", "EntanglementRecord", "WalkerState"}


def test_every_entry_point_with_a_ruled_input_is_in_the_boundary_table():
    # every callable of qwalklab.__all__ with a ruled parameter, other than a
    # record, has a row in test_core.INPUT_READERS, so its rule is tested
    readers = set()
    for name in qwalklab.__all__:
        obj = getattr(qwalklab, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue  # a constant, or an error class, whose builtin init has no signature
        if RULED_PARAMETERS & set(inspect.signature(obj).parameters):
            readers.add(name)
    assert RECORDS <= readers
    tabled = {row[0] for row in INPUT_READERS}
    assert readers - RECORDS - tabled == set()
    assert tabled <= readers


#: A config-file value of the wrong JSON kind for every option but --config
#: (the file itself; inside a file "config" is a key no command reads); a new
#: option without a row fails the test below with a KeyError.
WRONG_KIND = {
    "coin": [[1, 0], [0, 1]], "profile": 1, "sigma": "wide", "a": [1], "alpha": {"deg": 1},
    "beta": "x", "degrees": "no", "steps": "ten", "grid_step": None, "mode": True,
    "sigmas": 1.5, "quantity": 0, "max_window": "x", "out": True,
}


@pytest.mark.parametrize("key", sorted(set(cli._OPTIONS) - {"config"}))
def test_config_value_of_the_wrong_kind_exits_2_and_writes_nothing(key, tmp_path, capsys,
                                                                   monkeypatch):
    # a config value passes its flag's rule: the first command that reads the
    # key refuses it by name, runs nothing, writes nothing and keeps fd 1 open
    # (an "out" of true or 1 would otherwise be opened as fd 1 and closed)
    command = next(name for name, (_, _, keys) in cli._COMMANDS.items() if key in keys)

    def ran(cfg):
        raise AssertionError(f"{command} ran with {cfg}")

    monkeypatch.setitem(cli._COMMANDS, command, (ran, *cli._COMMANDS[command][1:]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: WRONG_KIND[key]}))
    out = [] if key == "out" else ["--out", str(tmp_path / "out.csv")]
    assert cli.main([command, "--config", str(config), *out]) == 2
    os.fstat(1)  # raises OSError if fd 1 was closed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"error: {key}:"), captured.err
    assert list(tmp_path.iterdir()) == [config]
