"""Smoke tests: every narrative script under demos/ and every ```python block of
README.md runs to completion, every exported name exists, every test module
imports, and every name the README's module table gives a module is one of
its attributes."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synattn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# (module, contents) of each row of the README's module table
README_MODULE_ROWS = re.findall(r"^\| `(synattn\.\w+)`\s*\|(.*)\|$", README, re.M)
# backticked snake_case words in that table that name no module attribute
README_NOT_API = {"axis_dims", "theta_base", "w", "synattn"}
# the suite runs with --continue-on-collection-errors, so a test module that
# cannot import (say, of a deleted public name) must fail a test of its own
TEST_MODULES = sorted(p.stem for p in (ROOT / "tests").glob("test_*.py"))
MODULES = ["synattn"] + [
    f"synattn.{m.name}" for m in pkgutil.iter_modules(synattn.__path__) if not m.name.startswith("_")
]


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    run_python([str(demo)])


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_zero(block):
    run_python(["-c", block])


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_every_test_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize(
    "module, contents", README_MODULE_ROWS, ids=[m for m, _ in README_MODULE_ROWS]
)
def test_readme_module_table_names_exist(module, contents):
    mod = importlib.import_module(module)
    words = set(re.findall(r"`([a-z][a-z0-9_]*)`", contents)) - README_NOT_API
    assert sorted(w for w in words if not hasattr(mod, w)) == []
