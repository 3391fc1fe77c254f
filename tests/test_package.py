"""The package's import surface: what each entry point loads, in fresh interpreters."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minkbranch as mb

SRC = Path(mb.__file__).resolve().parent.parent
MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"

QUERY_MODULES = {"events", "histories", "sampling", "binaryrow", "oracle", "plotting"}


def loaded_after(code: str) -> set[str]:
    """The minkbranch submodules loaded once `code` has run in a new interpreter."""
    report = ("import json, sys\n"
              "print(json.dumps(sorted(n.split('.', 1)[1] for n in sys.modules"
              " if n.startswith('minkbranch.'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule():
    assert loaded_after("import minkbranch") == set()


def test_cli_import_loads_only_what_parsing_needs():
    assert loaded_after("import minkbranch.cli") == {
        "cli", "errors", "families", "minkowski", "model", "modelfile", "reporting"}


def test_validate_loads_no_query_module():
    code = (f"from minkbranch.cli import main\n"
            f"assert main(['validate', '--model', {str(MODELS / 'two_scenarios.mbs')!r}]) == 0")
    assert not loaded_after(code) & QUERY_MODULES


LABELED = '{"point": [1, 0], "scenario": "s1"}'


@pytest.mark.parametrize("argv, allowed", [
    (["overlap", "--pair", "s1,s2", "--point", "[1, 0]"], set()),
    (["order", "--a", LABELED, "--b", LABELED], {"events"}),
    (["equiv", "--a", LABELED, "--b", LABELED], {"events"}),
    (["history", "--a", LABELED, "--history", "s2"], {"events", "histories"}),
], ids=["overlap", "order", "equiv", "history"])
def test_query_loads_only_what_it_asks(argv, allowed):
    code = (f"from minkbranch.cli import main\n"
            f"assert main(['query', *{argv!r}, '--model', "
            f"{str(MODELS / 'two_scenarios.mbs')!r}]) == 0")
    assert loaded_after(code) & QUERY_MODULES == allowed


def test_submodule_resolves_on_first_access():
    assert "binaryrow" in loaded_after(
        "import minkbranch as mb\nassert mb.binaryrow.chain_points(2)")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        mb.nosuch
    with pytest.raises(ImportError):
        from minkbranch import nosuch  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(mb.__all__) <= set(dir(mb))
    assert "__version__" in dir(mb)


def test_package_imports_only_the_standard_library():
    sources = sorted((SRC / "minkbranch").glob("*.py"))
    assert len(sources) > 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_module_imports_dataclasses():
    # The value types are plain slotted classes: `dataclasses` would load
    # `inspect` and generate each class's methods on every import.
    found = []
    for path in sorted((SRC / "minkbranch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_modules_and_a_cli_call_load_neither_dataclasses_nor_inspect():
    # -S keeps `site` (and whatever it imports) out, so sys.modules shows the package's own needs.
    code = ("import contextlib, importlib, io, json, os, sys, minkbranch\n"
            "for name in sorted(os.listdir(minkbranch.__path__[0])):\n"
            "    if name.endswith('.py') and not name.startswith('__'):\n"
            "        importlib.import_module('minkbranch.' + name[:-3])\n"
            "from minkbranch import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['validate', '--model', {str(MODELS / 'two_scenarios.mbs')!r}])"
            " == 0\n"
            "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == []


def test_modules_and_a_cli_call_do_not_load_typing():
    # the package's annotations stay unevaluated; its run-time abstract types come from
    # collections.abc.  -S again keeps out what `site` imports (a .pth file may import typing).
    code = ("import contextlib, importlib, io, os, sys, minkbranch\n"
            "for name in sorted(os.listdir(minkbranch.__path__[0])):\n"
            "    if name.endswith('.py') and not name.startswith('__'):\n"
            "        importlib.import_module('minkbranch.' + name[:-3])\n"
            "from minkbranch import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['validate', '--model', {str(MODELS / 'two_scenarios.mbs')!r}])"
            " == 0\n"
            "print('typing' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "False\n"
