"""Batch front door: scenario documents in, reports and data series out.

A scenario document is a JSON file describing one model (mechanism,
immigration, initial states), a time grid, and Monte Carlo settings; the
subcommands dispatch it to the library modules and write CSV/JSON outputs
suitable for plotting.  All randomness flows from the documented seed, so
two invocations with equal inputs produce identical bytes (the
exceptions are the timing fields of report metadata, runtime_s and check_s).

Exit codes: 0 success, 1 at least one verification check failed,
2 invalid input, 3 numerical failure or a replicate worker that died.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coupling import couple_transitions
from .cumulant import (
    FLOW_TOL,
    _check_tol,
    mean_vector,
    moment_decay_rate,
    solve_cumulant,
    stationary_mean,
)
from .distance import TV_BINS, tv_empirical, w1_exact_empirical
from .errors import BlowUpError, GreyConditionError, NumericError, ValidationError, WorkerError
from .mechanism import (
    BranchingMechanism,
    ExponentialAxis,
    ImmigrationMechanism,
    MotionGenerator,
    PointMass,
    StableAxis,
    beta_star,
    fold_motion,
    gamma_matrix,
)
from .simulate import (
    JUMP_THRESHOLD,
    SimConfig,
    sample_path,
    sample_stationary,
)
from .verify import Scenario, ScenarioAnalytics, _finite_real, run_scenario, share_cpus

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


def _build_jump(spec: dict, where: str, d: int):
    _require_keys(spec, set().union(*_JUMP_KEYS.values()), {"kind"}, where)
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _JUMP_KEYS:
        raise ValidationError(f"{where}: unknown jump kind {kind!r}; "
                              f"expected one of {sorted(_JUMP_KEYS)}")
    _require_keys(spec, _JUMP_KEYS[kind], _JUMP_KEYS[kind], where)

    def real(key):
        return _finite_real(spec[key], f"{where}.{key}")

    if kind == "point":
        return PointMass(u=_reals(spec["u"], f"{where}.u", (d,)), weight=real("weight"))
    axis = _integer(spec["axis"], f"{where}.axis", 0)
    if kind == "exponential":
        return ExponentialAxis(axis=axis, mean=real("mean"), rate=real("rate"))
    return StableAxis(axis=axis, alpha=real("alpha"), scale=real("scale"))


def _integer(value, what: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _reals(value, what: str, shape: tuple) -> np.ndarray:
    """value, nested lists of finite numbers of the given shape, as a float array.

    A bool, a string, null, an object or a list of the wrong length is
    refused with a message naming the field; every shape is set by the
    dimension."""
    def convert(v, dims):
        if not dims:
            return _finite_real(v, f"each entry of {what}")
        if not isinstance(v, list) or len(v) != dims[0]:
            raise ValidationError(
                f"{what} must be a list of {dims[0]} entries (the dimension), got {v!r}")
        return [convert(x, dims[1:]) for x in v]

    return np.array(convert(value, shape), dtype=float)


def _list(value, what: str) -> list:
    """An optional list field: null or absent reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


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
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # refuses true and 1.0
        raise ValidationError(
            f"{path}: schema_version {version!r} not supported "
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
    the document's sim block; a None value leaves the document's value, and
    a seed absent from both is 0.
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
    d = _integer(doc["dimension"], "dimension", 1)
    mech_doc = doc["mechanism"]
    b = _reals(mech_doc["b"], "mechanism.b", (d,))
    c = _reals(mech_doc["c"], "mechanism.c", (d,))
    eta = mech_doc.get("eta")
    if eta is not None:
        eta = _reals(eta, "mechanism.eta", (d, d))
    jumps = _list(mech_doc.get("jumps"), "mechanism.jumps")
    if jumps and len(jumps) != d:
        raise ValidationError(
            f"mechanism.jumps must list components per type ({d} lists)")
    jumps = tuple(
        tuple(_build_jump(spec, f"mechanism.jumps[{i}]", d)
              for spec in _list(comps, f"mechanism.jumps[{i}]"))
        for i, comps in enumerate(jumps))
    mech = BranchingMechanism(b=b, c=c, eta=eta, jumps=jumps)
    if "motion" in doc:
        rates = _reals(doc["motion"]["rates"], "motion.rates", (d, d))
        mech = fold_motion(mech, MotionGenerator(rates))
    imm = None
    if "immigration" in doc:
        imm_doc = doc["immigration"]
        nu = tuple(_build_jump(spec, f"immigration.jumps[{k}]", d)
                   for k, spec in enumerate(_list(imm_doc.get("jumps"), "immigration.jumps")))
        imm = ImmigrationMechanism(beta=_reals(imm_doc["beta"], "immigration.beta", (d,)), nu=nu)
    sim = doc["sim"]
    cfg = SimConfig(
        n_samples=_integer(overrides.get("samples", sim["n_samples"]), "n_samples", 1),
        dt=_finite_real(overrides.get("dt", sim["dt"]), "dt"),
        jump_threshold=_finite_real(overrides.get("epsilon", sim.get("epsilon", JUMP_THRESHOLD)), "epsilon"),
        seed=_integer(overrides.get("seed", sim.get("seed", 0)), "seed", 0),
    )
    if not isinstance(doc["times"], list):
        raise ValidationError(f"times must be a list, got {doc['times']!r}")
    checks = doc.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ValidationError(f"checks must be a list of check names, got {checks!r}")
    nu = doc["initial"].get("nu")
    probe = doc.get("lambda_probe")
    return Scenario(
        name=name,
        mech=mech,
        imm=imm,
        cfg=cfg,
        mu=_reals(doc["initial"]["mu"], "initial.mu", (d,)),
        nu=None if nu is None else _reals(nu, "initial.nu", (d,)),
        times=tuple(doc["times"]),
        checks=tuple(checks),
        lambda_probe=None if probe is None else _reals(probe, "lambda_probe", (d,)),
        tamper=doc.get("tamper", 0.0),
    )


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file, so that a failed write
    never leaves a partial file under the final name."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: str, data: np.ndarray, fmt: str) -> None:
    """Write the rows of data as CSV under a one-line header, atomically."""
    buf = io.StringIO()
    np.savetxt(buf, data, fmt=fmt, delimiter=",", header=header, comments="")
    _write_atomic(path, buf.getvalue())


def _columns(prefix: str, d: int) -> str:
    return ",".join(f"{prefix}_{i + 1}" for i in range(d))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(path, args) -> tuple:
    """(document, scenario) for one document path, with the sim flag
    overrides of the subcommands that take them."""
    doc = load_document(path)
    overrides = {k: getattr(args, k, None) for k in ("seed", "samples", "dt", "epsilon")}
    return doc, parse_scenario(doc, overrides, Path(path).stem)


def _horizon(args, sc) -> float:
    """--t, a finite number >= 0, or else the last scenario time."""
    if args.t is None:
        return sc.times[-1]
    t = _finite_real(args.t, "--t")
    if t < 0:
        raise ValidationError(f"--t must be >= 0, got {t!r}")
    return t


def _read_samples(path) -> np.ndarray:
    """The rows of a sample CSV (one header line, numeric rows)."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: not a numeric sample CSV ({exc})") from exc


def _parse_lam(text: str, d: int) -> np.ndarray:
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--lam must be a number or a comma list of numbers, "
                              f"got {text!r}") from exc
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
    print(f"beta_star: {bs:.10g}")
    print(f"moment decay rate: {moment_decay_rate(mech):.10g}")
    print(ScenarioAnalytics(sc).grey_failure or "Grey's condition: holds")
    if sc.imm is not None:
        print(f"immigration beta: {sc.imm.beta.tolist()}")
        if bs > 0:
            print(f"stationary mean: {stationary_mean(mech, sc.imm).tolist()}")
    return 0


def cmd_cumulant(args) -> int:
    _, sc = _load(args.document, args)
    t_end = _horizon(args, sc)
    if t_end == 0:  # vbar needs t > 0
        raise ValidationError(f"cumulant needs --t > 0, got {t_end!r}")
    lam = _parse_lam(args.lam, sc.mech.d) if args.lam else sc.lambda_probe
    grid = np.linspace(0.0, t_end, _integer(args.grid, "--grid", 2))
    path = solve_cumulant(sc.mech, lam, t_end, tol=_check_tol(args.tolerance, "--tolerance"),
                          t_eval=grid[1:-1] if len(grid) > 2 else None, imm=sc.imm)
    out = _out_dir(args) / "cumulant.csv"
    _write_csv(out, "t," + _columns("v", sc.mech.d),
               np.column_stack([path.t_grid, path.v_values]), "%.18e")
    print(f"wrote {out}")
    print(f"v({t_end:g}, {lam.tolist()}) = {path.final.tolist()}")
    vbar, why_not = ScenarioAnalytics(replace(sc, times=(t_end,))).envelope
    print(f"vbar({t_end:g}) not available: {why_not}" if vbar is None
          else f"vbar({t_end:g}) = {vbar[0].tolist()}")
    return 0


def cmd_moments(args) -> int:
    _, sc = _load(args.document, args)
    times = (0.0,) + sc.times
    means = [mean_vector(sc.mech, sc.mu, t, imm=sc.imm) for t in times]
    out = _out_dir(args) / "moments.csv"
    _write_csv(out, "t," + _columns("m", sc.mech.d),
               np.column_stack([times, means]), "%.12g")
    print(f"wrote {out}")
    if sc.imm is not None and beta_star(sc.mech) > 0:
        print(f"stationary mean: {stationary_mean(sc.mech, sc.imm).tolist()}")
    return 0


def cmd_simulate(args) -> int:
    _, sc = _load(args.document, args)
    t = _horizon(args, sc)
    rng = sc.cfg.rng()
    x = sample_path(sc.mu, sc.mech, [t], sc.cfg, rng, imm=sc.imm)[0]
    out = _out_dir(args) / "samples.csv"
    _write_csv(out, _columns("x", sc.mech.d), x, "%.18e")
    print(f"wrote {out}")
    print(f"n={len(x)} t={t:g} mean={x.mean(axis=0).tolist()}")
    return 0


def cmd_couple(args) -> int:
    _, sc = _load(args.document, args)
    t = _horizon(args, sc)
    rng = sc.cfg.rng()
    pair = couple_transitions(sc.mu, sc.nu, sc.mech, [t], sc.cfg, rng, imm=sc.imm)[0]
    out = _out_dir(args) / "couple.csv"
    _write_csv(out, f"{_columns('left', pair.d)},{_columns('right', pair.d)},cost",
               np.column_stack([pair.left, pair.right, pair.row_costs()]), "%.12g")
    print(f"wrote {out}")
    print(f"t={t:g} cost={pair.cost():.8g} se={pair.cost_se():.3g} "
          f"differ={pair.differ():.6g}")
    return 0


def cmd_distance(args) -> int:
    bins = _integer(args.bins, "--bins", 2)
    a = _read_samples(args.file_a)
    b = _read_samples(args.file_b)
    lines = []  # printed once both are computed, so a refusal prints nothing
    if args.metric in ("w1", "both"):
        w1 = w1_exact_empirical(a, b)
        route = "quantile" if a.shape[1] == 1 else "assignment"
        lines.append(f"w1 = {w1:.12g} ({route})")
    if args.metric in ("tv", "both"):
        tv = tv_empirical(a, b, bins=bins)
        lines.append(f"tv = {float(tv):.12g} (spread {tv.spread:.3g})")
    print("\n".join(lines))
    return 0


def cmd_stationary(args) -> int:
    _, sc = _load(args.document, args)
    if sc.imm is None or sc.imm.is_trivial():
        raise ValidationError("stationary sampling needs an immigration block")
    m_inf = stationary_mean(sc.mech, sc.imm)  # validates beta_star > 0
    x = sample_stationary(sc.imm, sc.mech, sc.cfg, sc.cfg.rng())
    out = _out_dir(args) / "stationary.csv"
    _write_csv(out, _columns("x", sc.mech.d), x, "%.18e")
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


def _report_csv(report) -> str:
    """report.csv: one line per row; analytic and details as ;-joined key=value pairs."""
    def flat(d):
        return ";".join(f"{k}={v:.12g}" for k, v in d.items())

    lines = ["check,t,verdict,estimate,ci,analytic,details,reason,claim"]
    for r in report.rows:
        lines.append(",".join([
            r.check,
            "" if r.t is None else f"{r.t:.6g}",
            r.verdict,
            "" if r.estimate is None else f"{r.estimate:.12g}",
            "" if r.ci is None else f"{r.ci:.12g}",
            flat(r.analytic),
            flat(r.details),
            r.reason.replace(",", ";"),
            r.claim.replace(",", ";"),
        ]))
    return "\n".join(lines) + "\n"


def _write_report(report, doc: dict, out: Path) -> None:
    report.metadata["scenario_document"] = doc
    _write_atomic(out / "report.json", report.to_json() + "\n")
    _write_atomic(out / "report.csv", _report_csv(report))
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
    workers = _integer(args.workers, "--workers", 1)
    docs, scenarios = zip(*(_load(p, args) for p in args.documents))
    shared = sorted(n for n, k in Counter(sc.name for sc in scenarios).items() if k > 1)
    if shared:
        raise ValidationError(f"documents share the output name(s) {shared}; "
                              "give each a distinct `name`")
    base = _out_dir(args)
    # a pool starts all of its workers at once; never more than there are
    # documents, and each runs its replicates on its share of the CPUs
    workers = min(workers, len(scenarios))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cpus,
                                 initargs=(workers,)) as pool:
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
    """The document, the sim overrides and --out of the subcommands that draw."""
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
    p.add_argument("document", help="scenario document (JSON)")
    p.set_defaults(func=cmd_mech_info)

    p = sub.add_parser("cumulant", help="integrate the cumulant flow to CSV")
    p.add_argument("document", help="scenario document (JSON)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--tolerance", type=float, default=FLOW_TOL,
                   help="cumulant solver relative tolerance")
    p.add_argument("--lam", default=None, help="initial frequency (scalar or comma list)")
    p.add_argument("--t", type=float, default=None, help="horizon (default: last scenario time)")
    p.add_argument("--grid", type=int, default=201, help="output grid points")
    p.set_defaults(func=cmd_cumulant)

    p = sub.add_parser("moments", help="mean vectors on the scenario time grid")
    p.add_argument("document", help="scenario document (JSON)")
    p.add_argument("--out", default=".", help="output directory")
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
    p.add_argument("--bins", type=int, default=TV_BINS, help="histogram bins for tv")
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
    except WorkerError as exc:  # never a verdict: no row says what the lost draws held
        print(f"worker failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
