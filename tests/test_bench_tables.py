"""The bench workloads still produce exactly the rows of their tables.

bench/run.py gates every verify call against bench/expected.json, and a row
that is missing from the report or not in the table counts as a failed row.
So a change that adds, drops or renames a row of a benchmarked check fails
the bench gate; this test reports it first, on small runs of each workload
document (the keys do not depend on n_samples).
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from cbilab.cli import parse_scenario
from cbilab.verify import run_scenario

ROOT = Path(__file__).resolve().parent.parent


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_RUN = load_bench_run()
TABLES = json.loads((ROOT / "bench" / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(BENCH_RUN.WORKLOADS))
def test_workload_rows_match_the_expected_table(name):
    doc, seed = BENCH_RUN.make_document(name, None)
    assert seed == TABLES[name]["seed"]
    sc = parse_scenario(doc)
    rows = run_scenario(replace(sc, cfg=replace(sc.cfg, n_samples=300))).rows
    keys = [BENCH_RUN.row_key(r.as_dict()) for r in rows]
    assert sorted(keys) == sorted(TABLES[name]["rows"])
