"""Package hygiene: every exported name exists, every imported name is used,
and the CLI starts without scipy.stats."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cbilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cbilab.__path__))


def imported_names(name: str) -> list:
    """(name bound by an import, used in the module, on a `# noqa: F401` line)
    for each name module cbilab.<name> imports; a name listed in __all__
    counts as used."""
    path = Path(cbilab.__file__).with_name(f"{name}.py")
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"cbilab.{name}"), "__all__", ()))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                out.append((bound, bound in used, "# noqa: F401" in lines[alias.lineno - 1]))
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"cbilab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    assert [bound for bound, used, noqa in imported_names(name) if not (used or noqa)] == []


def test_only_the_traced_import_site_is_exempt():
    # bench/test_bench.py traces simulate.sample_transition where coupling imports it
    exempt = [(name, bound) for name in MODULES for bound, _, noqa in imported_names(name) if noqa]
    assert exempt == [("coupling", "sample_transition")]


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of every process start
    src = os.path.dirname(os.path.dirname(cbilab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cbilab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
