"""The benchmark's layer tracer patches latstab by name; every name it
lists must exist, or a traced benchmark run aborts."""

import importlib
import inspect
from functools import cached_property
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _traced_names():
    # executed from its source text: no bytecode is written next to it
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return [(modname, member)
            for modname, members in namespace["TRACED"].items()
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
