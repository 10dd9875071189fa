"""Batch front door: scenario documents in, reports and data series out.

A scenario document is a JSON file describing one model (mechanism,
immigration, initial states), a time grid, and Monte Carlo settings; the
subcommands dispatch it to the library modules and write CSV/JSON outputs
suitable for plotting.  All randomness flows from the documented seed, so
two invocations with equal inputs produce identical bytes (the one
exception is the runtime field in report metadata).

Exit codes: 0 success, 1 at least one verification check failed,
2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .coupling import couple_cbi, couple_transitions
from .cumulant import (
    mean_vector,
    solve_cumulant,
    stationary_mean,
    vbar_vector,
)
from .distance import tv_empirical, w1_exact_empirical
from .errors import BlowUpError, GreyConditionError, NumericError, ValidationError
from .mechanism import (
    BranchingMechanism,
    ExponentialAxis,
    ImmigrationMechanism,
    MotionGenerator,
    PointMass,
    StableAxis,
    beta_star,
    dominating_mechanism,
    fold_motion,
    gamma_matrix,
    grey_condition,
)
from .simulate import (
    SimConfig,
    sample_cbi_transition,
    sample_stationary,
    sample_transition,
    save_samples_csv,
)
from .verify import Scenario, ScenarioAnalytics, run_scenario

__all__ = ["main", "load_document", "parse_scenario"]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "name", "dimension", "motion", "mechanism",
             "immigration", "initial", "times", "sim", "checks",
             "lambda_probe", "tamper"}
_REQUIRED_KEYS = {"schema_version", "dimension", "mechanism", "initial", "times", "sim"}
_JUMP_KEYS = {
    "point": {"kind", "u", "weight"},
    "exponential": {"kind", "axis", "mean", "rate"},
    "stable": {"kind", "axis", "alpha", "scale"},
}


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"missing fields in {where}: {sorted(missing)}")


def _build_jump(spec: dict, where: str):
    _require_keys(spec, set().union(*_JUMP_KEYS.values()), {"kind"}, where)
    kind = spec["kind"]
    if kind not in _JUMP_KEYS:
        raise ValidationError(f"{where}: unknown jump kind {kind!r}; "
                              f"expected one of {sorted(_JUMP_KEYS)}")
    _require_keys(spec, _JUMP_KEYS[kind], _JUMP_KEYS[kind], where)
    if kind == "point":
        return PointMass(u=spec["u"], weight=spec["weight"])
    if kind == "exponential":
        return ExponentialAxis(axis=spec["axis"], mean=spec["mean"], rate=spec["rate"])
    return StableAxis(axis=spec["axis"], alpha=spec["alpha"], scale=spec["scale"])


def _reject_constant(name):
    raise ValidationError(f"non-standard JSON constant {name}")


def load_document(path) -> dict:
    """Read and structurally validate a scenario document."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    _require_keys(doc, _TOP_KEYS, _REQUIRED_KEYS, f"{path}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: schema_version {doc['schema_version']} not supported "
            f"(this build reads version {SCHEMA_VERSION})")
    _require_keys(doc["mechanism"], {"b", "c", "eta", "jumps"}, {"b", "c"}, "mechanism")
    if "motion" in doc:
        _require_keys(doc["motion"], {"rates"}, {"rates"}, "motion")
    if "immigration" in doc:
        _require_keys(doc["immigration"], {"beta", "jumps"}, {"beta"}, "immigration")
    _require_keys(doc["initial"], {"mu", "nu"}, {"mu"}, "initial")
    _require_keys(doc["sim"], {"n_samples", "dt", "epsilon", "seed"},
                  {"n_samples", "dt"}, "sim")
    return doc


def parse_scenario(doc: dict, overrides: dict | None = None,
                   default_name: str = "scenario") -> Scenario:
    """Build a runnable Scenario from a validated document.

    overrides maps {seed, samples, dt, epsilon} from command-line flags over
    the document's sim block; a None value leaves the document's value.
    default_name names a document without a `name` field (the front end
    passes the file stem).  The name must be a single path component,
    since `verify` writes each of several reports to --out/<name>.
    """
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    name = doc.get("name", default_name)
    if (not isinstance(name, str) or name in ("", ".", "..")
            or "/" in name or "\\" in name):
        raise ValidationError(
            f"name must be a non-empty single path component, got {name!r}")
    d = doc["dimension"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValidationError(f"dimension must be an integer >= 1, got {d!r}")
    mech_doc = doc["mechanism"]
    if len(mech_doc["b"]) != d:
        raise ValidationError(
            f"dimension is {d} but mechanism.b has length {len(mech_doc['b'])}")
    jumps = ()
    if mech_doc.get("jumps"):
        if len(mech_doc["jumps"]) != d:
            raise ValidationError(
                f"mechanism.jumps must list components per type ({d} lists)")
        jumps = tuple(
            tuple(_build_jump(spec, f"mechanism.jumps[{i}]") for spec in comps)
            for i, comps in enumerate(mech_doc["jumps"]))
    mech = BranchingMechanism(b=mech_doc["b"], c=mech_doc["c"],
                              eta=mech_doc.get("eta"), jumps=jumps)
    if "motion" in doc:
        mech = fold_motion(mech, MotionGenerator(doc["motion"]["rates"]))
    imm = None
    if "immigration" in doc:
        imm_doc = doc["immigration"]
        nu = tuple(_build_jump(spec, "immigration.jumps")
                   for spec in imm_doc.get("jumps", ()))
        imm = ImmigrationMechanism(beta=imm_doc["beta"], nu=nu)
    sim = doc["sim"]
    seed = overrides.get("seed", sim.get("seed"))
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    cfg = SimConfig(
        n_samples=int(overrides.get("samples", sim["n_samples"])),
        dt=float(overrides.get("dt", sim["dt"])),
        jump_threshold=float(overrides.get("epsilon", sim.get("epsilon", 1e-3))),
        seed=seed,
    )
    return Scenario(
        name=name,
        mech=mech,
        imm=imm,
        cfg=cfg,
        mu=doc["initial"]["mu"],
        nu=doc["initial"].get("nu"),
        times=tuple(doc["times"]),
        checks=tuple(doc.get("checks", ())),
        lambda_probe=doc.get("lambda_probe"),
        tamper=float(doc.get("tamper", 0.0)),
    )


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(path, args) -> tuple:
    """(document, scenario) for one document path, with the flag overrides."""
    doc = load_document(path)
    overrides = {"seed": args.seed, "samples": args.samples,
                 "dt": args.dt, "epsilon": args.epsilon}
    return doc, parse_scenario(doc, overrides, Path(path).stem)


def _parse_lam(text: str, d: int) -> np.ndarray:
    vals = [float(x) for x in text.split(",")]
    if len(vals) == 1:
        vals = vals * d
    if len(vals) != d:
        raise ValidationError(f"lambda needs 1 or {d} components, got {len(vals)}")
    return np.array(vals)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mech_info(args) -> int:
    _, sc = _load(args.document, args)
    mech = sc.mech
    print(f"dimension: {mech.d}")
    print(f"b: {mech.b.tolist()}")
    print(f"c: {mech.c.tolist()}")
    if np.any(mech.eta > 0):
        print(f"eta: {mech.eta.tolist()}")
    n_jumps = sum(len(js) for js in mech.jumps)
    print(f"jump components: {n_jumps}")
    print(f"gamma matrix: {gamma_matrix(mech).tolist()}")
    bs = beta_star(mech)
    rate = -float(np.max(np.linalg.eigvals(-np.diag(mech.b) + gamma_matrix(mech)).real))
    print(f"beta_star: {bs:.10g}")
    print(f"moment decay rate: {rate:.10g}")
    try:
        grey = grey_condition(dominating_mechanism(mech))
        print(f"Grey's condition: {'holds' if grey else 'fails'}")
    except ValidationError as exc:
        print(f"Grey's condition: no admissible dominating mechanism ({exc})")
    if sc.imm is not None:
        print(f"immigration beta: {sc.imm.beta.tolist()}")
        if bs > 0:
            print(f"stationary mean: {stationary_mean(mech, sc.imm).tolist()}")
    return 0


def cmd_cumulant(args) -> int:
    _, sc = _load(args.document, args)
    t_end = args.t if args.t is not None else max(sc.times, default=1.0)
    lam = _parse_lam(args.lam, sc.mech.d) if args.lam else sc.lambda_probe
    grid = np.linspace(0.0, t_end, args.grid)
    path = solve_cumulant(sc.mech, lam, t_end, tol=args.tolerance,
                          t_eval=grid[1:-1] if len(grid) > 2 else None, imm=sc.imm)
    out = _out_dir(args) / "cumulant.csv"
    path.to_csv(out)
    print(f"wrote {out}")
    print(f"v({t_end:g}, {lam.tolist()}) = {path.final.tolist()}")
    if not ScenarioAnalytics(sc.mech).grey_failure:
        vbar = vbar_vector(sc.mech, t_end)
        print(f"vbar({t_end:g}) = {vbar.tolist()}")
    elif args.vbar:
        print("Grey's condition fails: the extinction envelope is infinite")
    return 0


def cmd_moments(args) -> int:
    _, sc = _load(args.document, args)
    times = sc.times or (1.0,)
    rows = []
    for t in (0.0,) + tuple(times):
        m = mean_vector(sc.mech, sc.mu, t, imm=sc.imm)
        rows.append((t, m))
    out = _out_dir(args) / "moments.csv"
    header = "t," + ",".join(f"m_{i + 1}" for i in range(sc.mech.d))
    body = "\n".join(f"{t:.12g}," + ",".join(f"{v:.12g}" for v in m) for t, m in rows)
    _write_atomic(out, header + "\n" + body + "\n")
    print(f"wrote {out}")
    if sc.imm is not None and beta_star(sc.mech) > 0:
        print(f"stationary mean: {stationary_mean(sc.mech, sc.imm).tolist()}")
    return 0


def cmd_simulate(args) -> int:
    _, sc = _load(args.document, args)
    t = args.t if args.t is not None else max(sc.times, default=1.0)
    rng = sc.cfg.rng()
    if sc.imm is not None:
        x = sample_cbi_transition(sc.mu, sc.imm, sc.mech, t, sc.cfg, rng)
    else:
        x = sample_transition(sc.mu, sc.mech, t, sc.cfg, rng)
    out = _out_dir(args) / "samples.csv"
    save_samples_csv(out, x)
    print(f"wrote {out}")
    print(f"n={len(x)} t={t:g} mean={x.mean(axis=0).tolist()}")
    return 0


def cmd_couple(args) -> int:
    _, sc = _load(args.document, args)
    t = args.t if args.t is not None else max(sc.times, default=1.0)
    rng = sc.cfg.rng()
    if sc.imm is not None:
        pair = couple_cbi(sc.mu, sc.nu, sc.imm, sc.mech, t, sc.cfg, rng)
    else:
        pair = couple_transitions(sc.mu, sc.nu, sc.mech, t, sc.cfg, rng)
    out = _out_dir(args) / "couple.csv"
    d = pair.d
    header = (",".join(f"left_{i + 1}" for i in range(d)) + ","
              + ",".join(f"right_{i + 1}" for i in range(d)) + ",cost")
    costs = pair.row_costs()
    lines = [
        ",".join(f"{v:.12g}" for v in pair.left[k]) + ","
        + ",".join(f"{v:.12g}" for v in pair.right[k]) + f",{costs[k]:.12g}"
        for k in range(pair.n)
    ]
    _write_atomic(out, header + "\n" + "\n".join(lines) + "\n")
    print(f"wrote {out}")
    print(f"t={t:g} cost={pair.cost():.8g} se={pair.cost_se():.3g} "
          f"differ={pair.differ():.6g}")
    return 0


def cmd_distance(args) -> int:
    a = np.loadtxt(args.file_a, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(args.file_b, delimiter=",", skiprows=1, ndmin=2)
    if args.metric in ("w1", "both"):
        w1 = w1_exact_empirical(a, b)
        route = "quantile" if a.shape[1] == 1 else "assignment"
        print(f"w1 = {w1:.12g} ({route})")
    if args.metric in ("tv", "both"):
        tv = tv_empirical(a, b, bins=args.bins)
        print(f"tv = {float(tv):.12g} (spread {tv.spread:.3g})")
    return 0


def cmd_stationary(args) -> int:
    _, sc = _load(args.document, args)
    if sc.imm is None or sc.imm.is_trivial():
        raise ValidationError("stationary sampling needs an immigration block")
    m_inf = stationary_mean(sc.mech, sc.imm)  # validates beta_star > 0
    x = sample_stationary(sc.imm, sc.mech, sc.cfg, sc.cfg.rng())
    out = _out_dir(args) / "stationary.csv"
    save_samples_csv(out, x)
    print(f"wrote {out}")
    print(f"analytic mean: {m_inf.tolist()}")
    print(f"sample mean:   {x.mean(axis=0).tolist()}")
    return 0


def _series_rows(report):
    by_check: dict = {}
    for r in report.rows:
        if r.t is None or r.verdict == "skipped":
            continue
        by_check.setdefault(r.check, []).append(r)
    return by_check


def _write_report(report, doc: dict, out: Path) -> None:
    report.metadata["scenario_document"] = doc
    _write_atomic(out / "report.json", report.to_json() + "\n")
    tmp = out / "report.csv.tmp"
    report.save_csv(tmp)
    os.replace(tmp, out / "report.csv")
    for check, rows in _series_rows(report).items():
        keys = sorted(set().union(*(r.analytic.keys() for r in rows)))
        header = "t," + ",".join(keys) + ",empirical,ci"
        lines = []
        for r in sorted(rows, key=lambda r: r.t):
            vals = [f"{r.analytic[k]:.12g}" if k in r.analytic else "" for k in keys]
            est = "" if r.estimate is None else f"{r.estimate:.12g}"
            ci = "" if r.ci is None else f"{r.ci:.12g}"
            lines.append(f"{r.t:.6g}," + ",".join(vals) + f",{est},{ci}")
        _write_atomic(out / f"series_{check}.csv",
                      header + "\n" + "\n".join(lines) + "\n")


def cmd_verify(args) -> int:
    """Run each document's checks; reports go to --out, or to --out/<name>
    for several documents, `name` defaulting to the file stem (shared names
    are refused before anything runs).  A row's ci is the 99% half-width of
    its three-replicate mean estimate, Z99 * sqrt(sum_r se_r^2) / 3."""
    docs, scenarios = zip(*(_load(p, args) for p in args.documents))
    shared = sorted(n for n, k in Counter(sc.name for sc in scenarios).items() if k > 1)
    if shared:
        raise ValidationError(f"documents share the output name(s) {shared}; "
                              "give each a distinct `name`")
    base = _out_dir(args)
    if args.workers > 1 and len(scenarios) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            reports = list(pool.map(run_scenario, scenarios))
    else:
        reports = [run_scenario(sc) for sc in scenarios]
    any_failed = False
    for doc, sc, report in zip(docs, scenarios, reports):
        out = base if len(scenarios) == 1 else base / sc.name
        out.mkdir(parents=True, exist_ok=True)
        _write_report(report, doc, out)
        print(f"# {sc.name}")
        print(report.summary())
        print(f"report: {out / 'report.json'}")
        any_failed |= not report.passed
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_doc: bool = True) -> None:
    if with_doc:
        p.add_argument("document", help="scenario document (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override sim.seed")
    p.add_argument("--samples", type=int, default=None, help="override sim.n_samples")
    p.add_argument("--dt", type=float, default=None, help="override sim.dt")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override sim.epsilon (small-jump threshold)")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbilab",
        description="finite-type branching-process laboratory: scenario "
                    "documents in, reports and plot-ready series out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mech-info", help="print mechanism diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_mech_info)

    p = sub.add_parser("cumulant", help="integrate the cumulant flow to CSV")
    _add_common(p)
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="cumulant solver relative tolerance")
    p.add_argument("--lam", default=None, help="initial frequency (scalar or comma list)")
    p.add_argument("--t", type=float, default=None, help="horizon (default: last scenario time)")
    p.add_argument("--grid", type=int, default=201, help="output grid points")
    p.add_argument("--vbar", action="store_true",
                   help="report the extinction envelope (message when Grey's condition fails)")
    p.set_defaults(func=cmd_cumulant)

    p = sub.add_parser("moments", help="mean vectors on the scenario time grid")
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("simulate", help="draw transition samples to CSV")
    _add_common(p)
    p.add_argument("--t", type=float, default=None, help="horizon (default: last scenario time)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("couple", help="draw coupled pairs to CSV")
    _add_common(p)
    p.add_argument("--t", type=float, default=None, help="horizon (default: last scenario time)")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("distance", help="distances between two sample CSVs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", choices=("w1", "tv", "both"), default="both")
    p.add_argument("--bins", type=int, default=128, help="histogram bins for tv")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("stationary", help="draw stationary-law samples to CSV")
    _add_common(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("verify", help="run scenario checks, write reports")
    p.add_argument("documents", nargs="+", help="scenario documents (JSON)")
    _add_common(p, with_doc=False)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel scenario workers (multiple documents only)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, GreyConditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, BlowUpError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
