"""The package namespace and the modules each entry point loads."""

import json
import os
import subprocess
import sys
from inspect import ismodule
from pathlib import Path

import pytest

import fsing

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = {"fsing", "fsing.errors", "fsing.polyring", "fsing.modgb", "fsing.frobenius"}
CLI = BASE | {"fsing.cli"}
TEST_IDEALS = CLI | {"fsing.testideal", "fsing.rationals"}
LISTS = CLI | {"fsing.listmod", "fsing.rationals"}


def loaded_after(code):
    """The fsing modules in sys.modules after a fresh interpreter runs `code`."""
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'fsing')))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture
def tame_problem(tmp_path):
    path = tmp_path / "tame.json"
    path.write_text(json.dumps({
        "p": 3, "gamma": 1, "num_vars": 0, "rank": 1, "matrix": [["t"]],
    }))
    return str(path)


@pytest.mark.parametrize("argv, modules", [
    (["froot", "--gens", "x0^3", "--e", "1", "-p", "2"], CLI),
    (["tau", "--f", "x0^2+x1^3", "-p", "2", "--alpha", "1/3"], TEST_IDEALS),
    (["tau", "--f", "x0^2+x1^3", "-p", "2", "--alpha", "1/3", "--e", "2"], TEST_IDEALS),
    (["fjump", "--f", "x0^2+x1^3", "-p", "2", "--e-max", "2"], TEST_IDEALS),
    (["hexpand", "--input", "INPUT", "--e", "2"], LISTS),
    (["sset", "--input", "INPUT", "--e", "1"], LISTS),
    (["jumps", "--input", "INPUT", "--e-max", "2"], LISTS),
    (["bfun", "--input", "INPUT", "--e-max", "3"], LISTS | {"fsing.bfun"}),
    (["graphgen", "--f", "x0^2", "-p", "3"], LISTS | {"fsing.bfun"}),
], ids=["froot", "tau", "tau-e", "fjump", "hexpand", "sset", "jumps", "bfun", "graphgen"])
def test_subcommand_loads_only_what_it_runs(tame_problem, argv, modules):
    # tau and fjump load no list-module or b-function code, and bfun no test ideals
    argv = [tame_problem if a == "INPUT" else a for a in argv]
    code = (
        "import contextlib, io\n"
        "from fsing import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({argv!r}) == 0\n"
    )
    assert loaded_after(code) == modules


def test_bare_import_loads_the_base_layers():
    assert loaded_after("import fsing") == BASE


def test_lazy_submodules_are_reachable():
    code = "import fsing\nassert fsing.bfun.b_function is fsing.b_function"
    assert loaded_after(code) == LISTS - {"fsing.cli"} | {"fsing.bfun"}
    code = "import fsing\nassert fsing.testideal.tau_f is fsing.tau_f"
    assert loaded_after(code) == TEST_IDEALS - {"fsing.cli"}


@pytest.mark.parametrize("name", fsing.__all__)
def test_export_is_its_defining_modules_object(name):
    obj = getattr(fsing, name)
    assert obj.__module__.split(".")[0] == "fsing"
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_all_lists_every_export():
    assert len(set(fsing.__all__)) == len(fsing.__all__)
    eager = {n for n, v in vars(fsing).items() if not n.startswith("_") and not ismodule(v)}
    assert eager <= set(fsing.__all__)
    assert set(fsing.__all__) <= set(dir(fsing))
    namespace = {}
    exec("from fsing import *", namespace)
    assert set(fsing.__all__) <= namespace.keys()


def test_lazy_names_are_read_from_their_module_on_each_access(monkeypatch):
    # nothing is kept in the package, so a rebinding in the submodule shows
    from fsing import testideal

    assert fsing.tau_f is testideal.tau_f
    assert "tau_f" not in vars(fsing)
    monkeypatch.setattr(testideal, "tau_f", marker := object())
    assert fsing.tau_f is marker


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fsing.no_such_name
    assert not hasattr(fsing, "tau")
