"""The package namespace: every name of `__all__` is looked up in its module on use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import vmemsim

SUBMODULES = ("baselines", "core", "engine", "errors", "events", "promem", "traceio", "workload")


@pytest.mark.parametrize("name", vmemsim.__all__)
def test_each_exported_name_is_its_defining_modules_object(name):
    value = getattr(vmemsim, name)
    if isinstance(value, (type, FunctionType)):
        assert value.__module__.startswith("vmemsim.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    else:  # a constant: some submodule assigns this very object
        assert any(
            vars(importlib.import_module(f"vmemsim.{m}")).get(name) is value for m in SUBMODULES
        )


def test_star_import_binds_every_exported_name():
    scope: dict = {}
    exec("from vmemsim import *", scope)
    assert set(vmemsim.__all__) <= set(scope)
    assert scope["run"] is importlib.import_module("vmemsim.engine").run


def test_dir_covers_all():
    assert set(vmemsim.__all__) <= set(dir(vmemsim))
    assert "__version__" in dir(vmemsim)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(vmemsim, "no_such_name")
    assert not hasattr(vmemsim, "no_such_name")


def test_import_loads_no_submodule_and_from_import_still_loads_one():
    root = str(Path(vmemsim.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import vmemsim; "
        "assert [m for m in sys.modules if m.startswith('vmemsim.')] == [], sys.modules; "
        "from vmemsim import engine; "
        "assert engine is sys.modules['vmemsim.engine']; "
        "assert 'vmemsim.workload' not in sys.modules"
    )
    subprocess.run([sys.executable, "-E", "-S", "-B", "-c", code], check=True, timeout=120)


@pytest.mark.parametrize("path", sorted(Path(vmemsim.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_enum(path):
    # event kinds and page modes are plain strings, so no module needs the enum machinery
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.partition(".")[0])
    assert "enum" not in imported, path.name
