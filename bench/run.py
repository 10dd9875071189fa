"""cbilab benchmark: time to verdict on reference workloads, with per-layer traces.

    python3 bench/run.py --workload quad_exact [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a source checkout: the library is imported from
``src/`` and each workload document is generated from a shipped scenario in
``scenarios/`` (see bench/NOTES.md for why each workload looks the way it
does).  Every ``cbilab verify`` call runs in its own fresh process with the
BLAS/OpenMP thread counts pinned to 1, one process at a time.

A run:
  1. times the library import in fresh processes (``setup_s``, median);
  2. runs ``scenarios/negative_control.json`` and requires exit 1 with a
     failed ``wasserstein_sandwich`` row, proving the verdict gate sees a
     broken verdict;
  3. untraced: repeats the workload's verify until ``--seconds`` would be
     exceeded (at least once) and reports medians; traced: runs it once
     untraced and once under the tracer, requires identical rows, and
     reports the per-layer metrics;
  4. checks every verdict against the expected table in bench/expected.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
expected rows over all verify calls and ``failed`` the rows that missed the
table (``row_fail_frac`` = failed / attempted).  Artefacts (documents,
reports, spans, results.jsonl) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 3
ABORTED_CLAIM = "check aborted before producing rows"

# Each workload is a shipped scenario with a subset of its checks and, for
# folded_stationary, of its time grid; n_samples and dt stay as shipped.
# The subsets keep a run within the time budget (bench/NOTES.md).
WORKLOADS = {
    "quad_exact": {"scenario": "ref_d1_quadratic.json",
                   "checks": ["laplace", "extinction_atom", "wasserstein_sandwich",
                              "tv_sandwich", "lipschitz_contraction"]},
    "stable_transition": {"scenario": "ref_d1_stable.json",
                          "checks": ["wasserstein_sandwich"]},
    "folded_stationary": {"scenario": "ref_d2_folded.json",
                          "checks": ["stationary"], "times": [0.5]},
}

END_TO_END = {"setup_s": "s", "verify_s": "s", "verify_cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_strict_json(path: Path):
    """Parse JSON, refusing NaN and Infinity (reports must be strict JSON)."""
    return json.loads(path.read_text(), parse_constant=_strict_constant)


def row_key(row: dict) -> str:
    t = row.get("t")
    return f"{row['check']}@{'-' if t is None else repr(float(t))}"


def gate(expected: dict, exit_code, report_path: Path) -> tuple:
    """Compare one verify call with its expected table.

    Returns (failed, intact, rows).  A row fails when its verdict differs
    from the table, when it is missing or unexpected, or when its check
    aborted.  An unreadable or non-strict report, or an exit code that
    disagrees with the report's own verdicts, fails every expected row.
    ``intact`` is false for all of these except a plain verdict flip."""
    try:
        rows = load_strict_json(report_path)["rows"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"gate: {report_path}: {exc}", file=sys.stderr)
        return len(expected), False, None
    if exit_code != (1 if any(r["verdict"] == "fail" for r in rows) else 0):
        print(f"gate: exit code {exit_code} disagrees with the report", file=sys.stderr)
        return len(expected), False, rows
    got = {}
    failed = 0
    intact = True
    for row in rows:
        key = row_key(row)
        broken = row["claim"] == ABORTED_CLAIM or key in got or key not in expected
        if broken or expected[key] != row["verdict"]:
            failed += 1
            intact &= not broken
            print(f"gate: {key}: {row['verdict']} (expected {expected.get(key)}) "
                  f"{row['reason']}".rstrip(), file=sys.stderr)
        got[key] = row["verdict"]
    missing = [k for k in expected if k not in got]
    for key in missing:
        print(f"gate: {key}: missing", file=sys.stderr)
    return failed + len(missing), intact and not missing, rows


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(result_path: Path, *args) -> dict:
    cmd = [sys.executable, str(WORKER), str(result_path), *map(str, args)]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def make_document(name: str, seed) -> tuple:
    """Workload document (shipped scenario with the workload's subsets), seed."""
    spec = WORKLOADS[name]
    doc = json.loads((ROOT / "scenarios" / spec["scenario"]).read_text())
    if "checks" in spec:
        doc["checks"] = spec["checks"]
    if "times" in spec:
        doc["times"] = spec["times"]
    if seed is not None:
        doc["sim"]["seed"] = seed
    return doc, doc["sim"]["seed"]


def negative_control(work: Path, setup: list) -> bool:
    out = work / "negative_control"
    res = run_worker(work / "negative_control.json", ROOT / "scenarios" / "negative_control.json", out)
    setup.append(res["setup_s"])
    try:
        rows = load_strict_json(out / "report.json")["rows"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"negative control: unreadable report: {exc}", file=sys.stderr)
        return False
    caught = any(r["check"] == "wasserstein_sandwich" and r["verdict"] == "fail" for r in rows)
    if res["exit_code"] != 1 or not caught:
        print(f"negative control: exit {res['exit_code']}, failed wasserstein_sandwich row: "
              f"{caught}; the gate cannot see a broken verdict", file=sys.stderr)
        return False
    return True


def run_workload(name: str, seed, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "cbilab" / "__init__.py").is_file():
        raise BenchError(f"no cbilab sources under {ROOT / 'src'}")
    table = json.loads((BENCH / "expected.json").read_text())[name]
    expected = table["rows"]
    doc, seed = make_document(name, seed)
    work = OUT / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc_path = work / "doc.json"
    doc_path.write_text(json.dumps(doc, indent=2) + "\n")

    # every worker's import time is a set-up sample; the median keeps the
    # one bytecode-compiling import of a fresh checkout out of the result
    setup: list = []
    nc_ok = negative_control(work, setup)

    reps, failed, intact, first_rows = [], 0, True, None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        i = len(reps)
        res = run_worker(work / f"verify{i}.json", doc_path, work / f"rep{i}")
        rep_failed, rep_intact, rows = gate(expected, res["exit_code"], work / f"rep{i}" / "report.json")
        failed += rep_failed
        intact &= rep_intact
        first_rows = rows if first_rows is None else first_rows
        reps.append(res)
        setup.append(res["setup_s"])
        now = time.perf_counter()
        if trace or now - start + (now - t0) > seconds:
            break
    attempted = len(expected) * len(reps)

    traced = None
    identical = True
    if trace:
        traced = run_worker(work / "traced.json", doc_path, work / "traced", work / "spans.json")
        rep_failed, rep_intact, rows = gate(expected, traced["exit_code"], work / "traced" / "report.json")
        failed += rep_failed
        intact &= rep_intact
        attempted += len(expected)
        identical = rows is not None and rows == first_rows
        if not identical:
            print("trace: traced rows differ from untraced rows", file=sys.stderr)

    while len(setup) < SETUP_SAMPLES:
        setup.append(run_worker(work / f"setup{len(setup)}.json")["setup_s"])

    e2e = {
        "setup_s": statistics.median(setup),
        "verify_s": statistics.median(r["verify_s"] for r in reps),
        "verify_cpu_s": statistics.median(r["verify_cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if trace:
        layers = dict(traced["layers"])
        layers["verify.rows"] = len(rows or ())
        layers["verify.rows_aborted"] = sum(r["claim"] == ABORTED_CLAIM for r in rows or ())
        layers["trace.overhead_frac"] = traced["verify_s"] / reps[0]["verify_s"] - 1.0
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        unknown = set(units) - set(layers)
        if unknown:
            raise BenchError(f"BENCHMARK.json names per-layer metrics the tracer lacks: {sorted(unknown)}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}

    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": reps[0]["numpy"], "scipy": reps[0]["scipy"]}
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "reps": len(reps), "env": env,
        # the table holds at the shipped seed; elsewhere a verdict flip is a
        # failed row (counted in failed) but not broken output
        "correct": nc_ok and identical and intact and (failed == 0 or seed != table["seed"]),
        "attempted": attempted, "failed": failed,
        "row_fail_frac": failed / attempted, "end_to_end": e2e, "metrics": metrics,
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def print_summary(records: list) -> None:
    r0 = records[0]
    print("env: " + " ".join(f"{k}={v}" for k, v in r0["env"].items()))
    print(f"{'workload':18s} {'seed':>5s} {'reps':>4s} " + " ".join(
        f"{k + ' [' + u + ']':>18s}" for k, u in END_TO_END.items()) + f" {'row_fail_frac':>14s}")
    for r in records:
        print(f"{r['workload']:18s} {r['seed']:>5d} {r['reps']:>4d} " + " ".join(
            f"{r['end_to_end'][k]:>18.4f}" for k in END_TO_END)
            + f" {r['row_fail_frac']:>14.4f} ({r['failed']}/{r['attempted']} rows)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the shipped scenario's seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="untraced runs repeat the workload while it fits this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        OUT.mkdir(exist_ok=True)
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_summary(records)
    if args.trace and len(records) == 1:
        for k, m in records[0]["metrics"].items():
            print(f"{k:45s} {m['value']:>16.6g} {m['unit']}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
