"""Self-tests of the benchmark's tracer and verdict gate.

    PYTHONPATH=src python3 -m pytest -q bench

They sit outside the pytest ``testpaths`` (``tests``), so a plain ``pytest``
run of the library does not collect them.
"""

import contextlib
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracer import COUNTER_TARGETS, SPAN_TARGETS, Tracer, layer_metrics, self_times  # noqa: E402

from cbilab import cli, verify  # noqa: E402

# small documents: an exact scalar model and a stepped two-type model with
# drift, together reaching every traced function
QUAD = {
    "schema_version": 1, "name": "quad", "dimension": 1,
    "mechanism": {"b": [1.0], "c": [1.0]}, "immigration": {"beta": [2.0]},
    "initial": {"mu": [2.0], "nu": [1.0]}, "times": [0.5, 1.0, 2.0],
    "sim": {"n_samples": 300, "dt": 0.05, "seed": 4},
}
FOLDED = {
    "schema_version": 1, "name": "folded", "dimension": 2,
    "motion": {"rates": [[-1.0, 1.0], [1.0, -1.0]]},
    "mechanism": {"b": [1.0, 2.0], "c": [1.0, 3.0]},
    "immigration": {"beta": [0.4, 0.2], "jumps": [{"kind": "point", "u": [0.3, 0.3], "weight": 0.5}]},
    "initial": {"mu": [1.0, 2.0], "nu": [0.5, 0.25]}, "times": [0.5, 1.0, 2.0],
    "sim": {"n_samples": 200, "dt": 0.1, "seed": 6},
    "checks": ["wasserstein_sandwich", "stationary"],
}


def _bindings():
    """{(id(namespace), key): value} for every cbilab binding of a traced
    function, and a readable label for each site."""
    originals = set()
    for targets in (SPAN_TARGETS, COUNTER_TARGETS):
        for layer, names in targets.items():
            mod = sys.modules[f"cbilab.{layer}"]
            originals.update(id(getattr(mod, name)) for name in names)
    found, labels = {}, set()
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("cbilab"):
            continue
        for key, value in vars(mod).items():
            spaces = [(vars(mod), modname)]
            if isinstance(value, dict):  # registries such as verify.CHECKS
                spaces.append((value, f"{modname}.{key}"))
            for space, label in spaces:
                for skey, svalue in space.items():
                    if id(svalue) in originals and (space is value or skey == key):
                        found[(id(space), skey)] = svalue
                        labels.add((label, skey))
    return found, labels


def test_wrappers_cover_every_import_site_and_are_removed():
    before, labels = _bindings()
    # names imported into other modules must be among the sites
    for site in [("cbilab.verify", "vbar_vector"), ("cbilab.cli", "vbar_vector"),
                 ("cbilab.coupling", "sample_transition"), ("cbilab.cumulant", "eval_phi"),
                 ("cbilab.verify.CHECKS", "stationary")]:
        assert site in labels
    with Tracer() as tracer:
        assert tracer.missing == []
        assert {(id(space), key) for space, key, _ in tracer.sites} == before.keys()
        for space, key, original in tracer.sites:
            assert space[key] is not original
            assert space[key].__wrapped__ is original
    after, _ = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _verify(doc: dict, tmp_path: Path, traced: bool):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / ("traced" if traced else "plain")
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        code = cli.main(["verify", str(path), "--out", str(out)])
        wall = time.perf_counter() - start
    rows = run.load_strict_json(out / "report.json")["rows"]
    return code, rows, wall, tracer


@pytest.mark.parametrize("doc", [QUAD, FOLDED], ids=["quad", "folded"])
def test_traced_run_matches_untraced_and_self_times_add_up(doc, tmp_path, capsys):
    code, rows, _, _ = _verify(doc, tmp_path, traced=False)
    tcode, trows, wall, tracer = _verify(doc, tmp_path, traced=True)
    assert (tcode, trows) == (code, rows)  # verdicts and estimates alike

    spans = tracer.spans
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(spans))
    selfs = self_times(spans)
    assert min(selfs) >= -1e-9
    assert math.isclose(sum(selfs), spans[0][2] - spans[0][1], rel_tol=1e-9)
    assert sum(selfs) <= wall and sum(selfs) >= 0.99 * wall - 1e-3

    m = layer_metrics(spans, tracer.counters)
    assert m["mechanism.eval_phi.calls"] > 0 and m["cumulant.solve_cumulant.calls"] > 0
    assert m["cumulant.ode_steps"] > 0
    assert m["coupling.couple_transitions.calls"] > 0
    if doc is FOLDED:
        assert m["simulate.step_draws"] > 0 and m["simulate.sample_stationary.calls"] > 0
        assert m["distance.w1_exact_empirical.assign_n"] == 200
    else:
        assert m["cumulant.vbar_vector.repeat_frac"] > 0
        assert m["simulate.step_draws"] == 0  # exact samplers only
        # couple_transitions from (2, 1): the negative Jordan leg starts at zero
        assert 0 < m["simulate.zero_start_frac"] < 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = set(layer_metrics([], {})) | {"verify.rows", "verify.rows_aborted",
                                              "trace.overhead_frac"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert set(run.WORKLOADS) == set(json.loads((BENCH / "expected.json").read_text()))
    assert set(SPAN_TARGETS["verify"]) >= {f"check_{c}" for c in verify.CHECKS}


def _report(tmp_path, rows, text=None):
    path = tmp_path / "report.json"
    path.write_text(text if text is not None else json.dumps({"rows": rows}))
    return path


def _row(check, t, verdict="pass", claim="c"):
    return {"check": check, "t": t, "verdict": verdict, "claim": claim, "reason": ""}


def test_gate_counts_every_kind_of_failed_row(tmp_path):
    expected = {"laplace@0.5": "pass", "laplace@1.0": "pass", "stationary_mean@-": "pass"}
    good = [_row("laplace", 0.5), _row("laplace", 1.0), _row("stationary_mean", None)]
    assert run.gate(expected, 0, _report(tmp_path, good))[:2] == (0, True)

    # (rows failed, output intact)
    flipped = [_row("laplace", 0.5, "fail")] + good[1:]
    assert run.gate(expected, 1, _report(tmp_path, flipped))[:2] == (1, True)
    missing_and_extra = good[:2] + [_row("laplace", 2.0)]
    assert run.gate(expected, 0, _report(tmp_path, missing_and_extra))[:2] == (2, False)
    aborted = good + [_row("laplace", None, "fail", run.ABORTED_CLAIM)]
    assert run.gate(expected, 1, _report(tmp_path, aborted))[:2] == (1, False)
    # exit code disagreeing with the report, or no readable report: all rows fail
    assert run.gate(expected, 1, _report(tmp_path, good))[:2] == (3, False)
    assert run.gate(expected, 3, tmp_path / "absent.json")[:2] == (3, False)


def test_gate_rejects_non_strict_json(tmp_path):
    text = json.dumps({"rows": [_row("laplace", 0.5) | {"estimate": float("nan")}]})
    assert "NaN" in text
    with pytest.raises(ValueError):
        run.load_strict_json(_report(tmp_path, None, text))
    assert run.gate({"laplace@0.5": "pass"}, 0, _report(tmp_path, None, text))[:2] == (1, False)
