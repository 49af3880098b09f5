"""The package's export map, and which commands load numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triqss

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"


class TestExports:
    @pytest.mark.parametrize("name", triqss.__all__)
    def test_name_resolves_to_its_defining_module(self, name):
        module = importlib.import_module(f"triqss.{triqss._EXPORTS[name]}")
        value = getattr(triqss, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__
        assert name in dir(triqss)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            triqss.no_such_name
        assert not hasattr(triqss, "no_such_name")

    def test_submodules_import_by_name(self):
        from triqss import cli, optics, protocol, rates

        assert cli.main.__module__ == "triqss.cli"
        assert optics.gain is triqss.gain
        assert protocol.run_protocol is triqss.run_protocol
        assert rates.sweep_distance is triqss.sweep_distance

    # _EXPORTS is the one list of public names
    @pytest.mark.parametrize("module", sorted(p.stem for p in (SRC / "triqss").glob("*.py")
                                              if p.stem != "__init__"))
    def test_no_submodule_lists_its_own_names(self, module):
        assert not hasattr(importlib.import_module(f"triqss.{module}"), "__all__")


# runs the scalar commands in one fresh interpreter, then simulate
_NUMPY_PROBE = """
import contextlib, io, json, sys
import triqss
from triqss.cli import main

triqss.EpsilonBudget, triqss.SetTag, triqss.gain
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
before = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["simulate", "--seed", "1", "--rounds", "1000"]))
print(json.dumps({"codes": codes, "before": before, "after": "numpy" in sys.modules}))
"""


def test_only_simulate_loads_numpy():
    tables = sorted(str(p) for p in FIXTURES.glob("tableIII*_mu*.csv"))
    commands = [
        ["kato", "--k", "1e6", "--lam", "5e5", "--eps", "1e-10"],
        ["analyze", *tables, "--N", "5e10"],
        ["sweep", "--N", "inf"],
        ["sweep", "--N", "1e10", "--Lmin", "0", "--Lmax", "10", "--step", "5"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 5
    assert not result["before"]
    assert result["after"]
