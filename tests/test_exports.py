"""Package hygiene: every exported name exists."""

import importlib
import pkgutil

import pytest

import cbilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cbilab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"cbilab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
