"""The bench tracer's calling contract: a traced `verify` is the untraced one.

bench/tracer.py wraps library functions at every binding site, and the
notes of some wrappers read their call's positional arguments.  A call
that passed those by keyword would crash the traced run only, so the
bench would see failed rows that the library never produced.  These tests
run `cbilab verify` under the tracer on small copies of the bench
workloads and require the same exit code and rows as without it.  They pin
one usable CPU, so that the replicate draws run in this process, where the
tracer sees them, and not in forked workers, where it cannot.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from cbilab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verify_rows(doc_path: Path, out: Path) -> tuple:
    code = main(["verify", str(doc_path), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())["rows"]


@pytest.mark.parametrize("name, changes", [
    ("ref_d1_stable", {"checks": ["wasserstein_sandwich"]}),
    ("ref_d2_folded", {"checks": ["stationary"], "times": [0.5]}),
], ids=["stable-wasserstein_sandwich", "folded-stationary"])
def test_traced_verify_matches_untraced(tmp_path, capsys, monkeypatch, name, changes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the draws run in this process
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text()) | changes
    doc["sim"]["n_samples"] = 300
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    untraced = verify_rows(path, tmp_path / "untraced")
    tracer = load_tracer().Tracer()
    with tracer:
        traced = verify_rows(path, tmp_path / "traced")
    capsys.readouterr()  # the summary lines and the tracer's missing-name notice
    assert traced == untraced
    # the stepped sampler ran under its wrapper, whose note read the call
    stepped = [s for s in tracer.spans if s[0] == "simulate._stepped_batch"]
    assert stepped and all(s[4]["step_draws"] > 0 for s in stepped)
