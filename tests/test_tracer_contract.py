"""The benchmark's layer tracer patches latstab by name; every name it
lists must exist, or a traced benchmark run aborts, and a traced command
must still see the layers it counts. The benchmark's correctness checks
recompute each command's output through public entry points, which must
keep agreeing with the CLI."""

import hashlib
import importlib
import inspect
import sys
from functools import cached_property
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

import latstab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    # executed from its source text: no bytecode is written next to it
    path = BENCH / f"{name}.py"
    namespace = {"__name__": name}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _traced_names():
    traced = _bench_module("layertrace")["TRACED"]
    return [(modname, member)
            for modname, members in traced.items()
            for member in members]


@pytest.mark.parametrize("modname, member", _traced_names())
def test_traced_name_resolves(modname, member):
    mod = importlib.import_module(f"latstab.{modname}")
    if "." in member:
        clsname, attr = member.split(".")
        raw = vars(getattr(mod, clsname))[attr]
        assert callable(raw) or isinstance(raw, (cached_property,
                                                 classmethod))
    else:
        assert callable(getattr(mod, member))


def test_tracer_hooks_resolve():
    subgroups = importlib.import_module("latstab.subgroups")
    enumeration = importlib.import_module("latstab.enumeration")
    assert callable(subgroups._candidates)
    # the tracer reads the search threshold from the fourth argument
    params = list(inspect.signature(subgroups._candidates).parameters)
    assert params == ["level", "k", "scale", "search"]
    assert "threshold" in subgroups._Search.__slots__
    assert subgroups.SLACK > 1
    assert "nodes" in enumeration.NodeCounter.__slots__


def _bindings(modules):
    """Every module attribute, and every member of a latstab class."""
    out = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            out[mod.__name__, attr] = value
            if (isinstance(value, type)
                    and value.__module__.startswith("latstab")):
                for member, raw in vars(value).items():
                    out[mod.__name__, attr, member] = raw
    return out


def test_traced_commands_see_every_layer(tmp_path):
    cli = importlib.import_module("latstab.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "latstab" or name.startswith("latstab.")]
    before = _bindings(modules)
    layertrace = _bench_module("layertrace")
    tracer = layertrace["Tracer"](modules)
    out = str(tmp_path / "out.csv")
    with tracer:
        assert cli.main(["stability-mass", "--n", "5", "--sampler", "gm",
                         "--samples", "4", "--seed", "3", "--workers", "1",
                         "--output", out]) == 0
        assert cli.main(["alpha-quantiles", "--n", "6", "--k", "4",
                         "--sampler", "gm", "--samples", "3", "--seed", "3",
                         "--workers", "1", "--output", out]) == 0
    counts = layertrace["run_counts"](tracer)
    assert counts["reduction.lll_rows"] > 0
    assert counts["subgroups.candidates"] > 0
    after = _bindings(modules)
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []


# one small batch of each benchmark workload's command: (command, the
# workload-style arguments, the flag that sets the number of lattices, it)
CHECKED_COMMANDS = [
    ("verify-siegel", ("--n", "2", "--k", "1", "--sampler", "exact2d",
                       "--t", "0.8", "--t", "1.0", "--t", "1.2"),
     "--samples", 30),
    ("verify-siegel", ("--n", "3", "--k", "2", "--sampler", "gm",
                       "--t", "1.0"), "--samples", 10),
    ("stability-mass", ("--n", "4", "--sampler", "gm"), "--samples", 10),
    ("alpha-quantiles", ("--n", "5", "--k", "3", "--sampler", "gm"),
     "--samples", 5),
    ("covrad", ("--n", "3", "--sampler", "gm", "--trials", "20"),
     "--lattices", 3),
]


@pytest.mark.parametrize("command, args, size_flag, size", CHECKED_COMMANDS,
                         ids=["siegel-3t", "siegel-1t", "mass", "alpha",
                              "covrad"])
def test_benchmark_checks_accept_the_cli_output(tmp_path, command, args,
                                                 size_flag, size):
    cli = importlib.import_module("latstab.cli")
    checks = _bench_module("checks")
    out = tmp_path / "out.csv"
    argv = [command, *args, size_flag, str(size), "--seed", "3",
            "--output", str(out)]
    if command != "covrad":
        argv += ["--workers", "1"]
    assert cli.main(argv) == 0
    text = out.read_text(encoding="ascii")
    workload = SimpleNamespace(command=command, args=args)
    flags = dict(zip(args[::2], args[1::2]))
    spec = latstab.SamplerSpec(kind=cli.SAMPLER_NAMES[flags["--sampler"]],
                               n=int(flags["--n"]), seed=3)
    assert checks["sanity"](latstab, workload, text, size) == []
    assert checks["recompute"](latstab, spec, workload, text, size) == []


def _bench_run_module(monkeypatch):
    # run.py, and the sibling modules it imports by name, executed from
    # their source texts as modules that stay importable for one test
    for name in ("checks", "layertrace", "speed", "run"):
        path = BENCH / f"{name}.py"
        module = ModuleType(name)
        module.__file__ = str(path)
        monkeypatch.setitem(sys.modules, name, module)
        exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return vars(module)


@pytest.mark.parametrize("workload", ["siegel-n2", "mass-n6", "alpha-n6-k4",
                                      "covrad-n5"])
def test_batch_zero_reproduces_the_pinned_digest(tmp_path, monkeypatch,
                                                 workload):
    # the command and the sha256 that bench/run.py checks on batch 0 of a
    # run at its default seed
    cli = importlib.import_module("latstab.cli")
    run = _bench_run_module(monkeypatch)
    w = run["WORKLOADS"][workload]
    out = tmp_path / "out.csv"
    seed = run["batch_seed"](run["DEFAULT_SEED"], 0)
    assert cli.main(run["cli_argv"](w, seed, w.batch, out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == run["PINNED_CSV_SHA256"][workload]
