"""The benchmark's layer tracer patches latstab by name; every name it
lists must exist, or a traced benchmark run aborts, and a traced command
must still see the layers it counts."""

import importlib
import inspect
import sys
from functools import cached_property
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _layertrace():
    # executed from its source text: no bytecode is written next to it
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace


def _traced_names():
    return [(modname, member)
            for modname, members in _layertrace()["TRACED"].items()
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
    layertrace = _layertrace()
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
