"""Package hygiene: every exported name exists, and the CLI starts without scipy.stats."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cbilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cbilab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"cbilab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of every process start
    src = os.path.dirname(os.path.dirname(cbilab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cbilab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
