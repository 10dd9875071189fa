"""Bound and identity checks: analytic values vs Monte Carlo estimates.

Every check reads its analytic side from ScenarioAnalytics, which builds
each analytic grid once per scenario by the flow's semigroup property,
estimates the matching quantity from samples, and records a verdict with
the numbers behind it.  A failed bound never raises — it is recorded and
surfaces in the exit status of the batch front end.

Statistical policy: every sampling-based verdict is required to hold on
three independent seed replicates, drawn from their own streams and
combined in replicate order, so a report does not depend on the number of
CPUs.  Each check is a plan (`_check`): its analytic side, one draw
function per replicate and the step that finishes its rows.
`run_scenario` builds every plan of a document, then draws every
(check, replicate) on one pool of worker processes forked from the caller
(`_draw_all`; in turn in the caller on one usable CPU), then finishes the
checks in document order.  Processes, because stable draws at the shipped
n hold the GIL, so threads would not overlap them.
Every sampled row is built by `_replicate_rows`, the one row builder, from
the check's row template and its replicate tuples.  Pass thresholds use
four standard errors per replicate (plus any stated relative floor) so
that a multi-row report is not expected to fail by chance.  A row's estimate is the mean of its
replicate estimates and its `ci` the 99% half-width of that mean,
Z99 * sqrt(sum_r se_r^2) / R, where se_r is the standard error of
replicate r's estimate.  Exact (non-sampling) rows use absolute
tolerances around 1e-9 and report ci = 0.  Each check draws one path or
coupling per replicate and reduces it to all its rows in that replicate's
task.  A coupling here is its Jordan pieces (`couple_jordan_pieces`): its
shared meet path cancels from every number a row reads.  The stationary
rows read one stationary batch S and two couplings that start from it,
(0, S) along the times and (mu, S) along the fit times, and each
transition check reads all its times off one path (or coupling), so those
rows are correlated with one another; the replicates stay independent.

The `tamper` field of a scenario shifts analytic lower bounds upward and
exists so that a deliberately corrupted fixture demonstrably fails — a
negative control for the whole reporting pipeline."""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import numbers
import os
import time
from collections import Counter
from collections.abc import Generator
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from . import __version__
from .coupling import couple_jordan_pieces
from .cumulant import (
    FLOW_TOL,
    _flow_lanes,
    extinction_envelope,
    moment_decay_rate,
    moment_semigroup,
    solve_cumulant,
    stationary_mean,
    tail_immigrant_mass,
)
from .distance import tv_empirical, tv_exact_quadratic
from .errors import (
    BlowUpError,
    GreyConditionError,
    NumericError,
    ValidationError,
    WorkerError,
)
from .mechanism import (
    BranchingMechanism,
    ImmigrationMechanism,
    StableAxis,
    beta_star,
    dominating_mechanism,
    eval_phi,
    eval_psi,
    grey_condition,
    mass_vector,
)
from .simulate import SimConfig, has_exact_transition, sample_path, sample_stationary

__all__ = [
    "Scenario",
    "CheckRow",
    "VerificationReport",
    "ScenarioAnalytics",
    "run_scenario",
    "check_wasserstein_sandwich",
    "check_tv_sandwich",
    "check_stationary",
    "check_lipschitz_contraction",
    "check_laplace",
    "check_extinction_atom",
    "CHECKS",
]

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
SIGMAS = 4.0  # pass threshold in standard errors
REPLICATES = 3


def _finite_real(value, what: str) -> float:
    """value as a float; a bool, a string or a non-finite number is refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Scenario:
    """One verification work order: a model plus a time grid and checks."""

    name: str
    mech: BranchingMechanism
    cfg: SimConfig
    mu: np.ndarray
    times: tuple
    nu: Optional[np.ndarray] = None
    imm: Optional[ImmigrationMechanism] = None
    checks: tuple = ()
    lambda_probe: Optional[np.ndarray] = None
    tamper: float = 0.0

    def __post_init__(self):
        mu = _frozen(mass_vector(self.mu, d=self.mech.d))
        nu = mass_vector(self.nu, d=self.mech.d) if self.nu is not None else np.zeros(self.mech.d)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", _frozen(nu))
        if self.imm is not None and self.imm.d != self.mech.d:
            raise ValidationError(
                f"immigration dimension {self.imm.d} != mechanism dimension {self.mech.d}")
        times = tuple(_finite_real(t, "each time") for t in self.times)
        if not times or any(t <= 0 for t in times) or any(a >= b for a, b in zip(times, times[1:])):
            raise ValidationError("times must be non-empty, positive, finite and strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "tamper", _finite_real(self.tamper, "tamper"))
        if self.lambda_probe is None:
            lam = np.ones(self.mech.d)
        else:
            lam = mass_vector(self.lambda_probe, d=self.mech.d)
        object.__setattr__(self, "lambda_probe", _frozen(lam))
        checks = tuple(self.checks) if self.checks else tuple(CHECKS)
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise ValidationError(f"unknown checks: {unknown}; available: {list(CHECKS)}")
        repeated = sorted(c for c, k in Counter(checks).items() if k > 1)
        if repeated:
            raise ValidationError(f"checks listed more than once: {repeated}")
        object.__setattr__(self, "checks", checks)


def _finite(v) -> Optional[float]:
    """v as a float, or None when it is missing or not finite (reports are strict JSON)."""
    return None if v is None or not math.isfinite(v) else float(v)


@dataclass(frozen=True)
class CheckRow:
    """One verified claim at one grid point."""

    check: str
    claim: str
    t: Optional[float] = None
    analytic: dict = field(default_factory=dict)
    estimate: Optional[float] = None
    ci: Optional[float] = None
    verdict: str = "pass"
    reason: str = ""
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return vars(self) | {"analytic": {k: _finite(v) for k, v in self.analytic.items()},
                             "estimate": _finite(self.estimate), "ci": _finite(self.ci),
                             "details": {k: _finite(v) for k, v in self.details.items()}}


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    rows: tuple
    metadata: dict

    @property
    def passed(self) -> bool:
        return all(r.verdict != "fail" for r in self.rows)

    def counts(self) -> dict:
        return {"pass": 0, "fail": 0, "skipped": 0} | Counter(r.verdict for r in self.rows)

    def to_json(self) -> str:
        return json.dumps({"schema_version": 1, "scenario": self.scenario, "metadata": self.metadata,
                           "rows": [r.as_dict() for r in self.rows]}, indent=2, allow_nan=False)

    def summary(self) -> str:
        lines = []
        for r in self.rows:
            where = f" t={r.t:g}" if r.t is not None else ""
            note = f" ({r.reason})" if r.reason else ""
            lines.append(f"{r.verdict.upper():7s} {r.check}{where}{note}")
        c = self.counts()
        lines.append(f"total: {c['pass']} pass, {c['fail']} fail, {c['skipped']} skipped")
        return "\n".join(lines)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _per_rep(prefix: str, values) -> dict:
    return {f"{prefix}{i + 1}": v for i, v in enumerate(values)}


def _mean_se(vals: np.ndarray) -> tuple:
    """Sample mean and its standard error."""
    return float(vals.mean()), float(vals.std() / math.sqrt(len(vals)))


_processes = 1  # processes that share this one's CPUs; see share_cpus
_FORK = "fork" in multiprocessing.get_all_start_methods()
_ABORTS = (NumericError, BlowUpError, ValidationError)  # what ends a check in an aborted row
_forked: tuple = ()  # (tasks, started) in a worker of `_draw_all`'s pool; set by `_adopt`


def share_cpus(processes: int) -> None:
    """Give this process 1/processes of the usable CPUs for its replicates:
    the initializer of the `verify --workers` pool, so that the replicate
    workers of all its processes never outnumber the CPUs."""
    global _processes
    _processes = processes


def _workers(tasks: int) -> int:
    """How many workers draw tasks replicate tasks: 1 (the calling process)
    when this process has one usable CPU (see share_cpus), and otherwise
    min(tasks, max(REPLICATES, usable CPUs)), so that on 2 CPUs the three
    replicates of a check draw at once."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    usable = cpus // _processes
    return 1 if usable <= 1 else min(tasks, max(REPLICATES, usable))


def _timed(task) -> tuple:
    """(task(), None, seconds), or (None, the exception it raised, seconds)."""
    began = time.perf_counter()
    try:
        value, error = task(), None
    except Exception as exc:  # raised again where its plan finishes, in replicate order
        value, error = None, exc
    return value, error, time.perf_counter() - began


def _adopt(tasks, started) -> None:
    global _forked
    _forked = tasks, started


def _forked_task(k: int) -> tuple:
    tasks, started = _forked
    started[k] = 1
    return _timed(tasks[k])


def _draw_all(tasks, labels, order) -> list:
    """[_timed(task) for task in tasks], each task a replicate draw that owns
    its random stream, so every result keeps its bits wherever it runs.

    With one worker (`_workers`) the tasks run in turn in this process.
    Otherwise they are submitted in the given order to one pool: worker
    processes forked from this one, which inherit the tasks, so that only a
    task's index and its result cross between processes; a thread pool
    where the platform cannot fork.  Processes, not threads, because the
    stepped stable draws hold the GIL: on 2 CPUs, six stable W1 coupling
    draws at the shipped n took 1.25 s on 2 threads, 1.24 s serially and
    1.02 s on 2 forked processes.  A task reduces its path or coupling
    before it returns, so a worker holds one at a time.  A worker that dies
    raises WorkerError naming the labels of the draws it may have held; no
    worker outlives the call."""
    workers = _workers(len(tasks))
    if workers <= 1:
        return [_timed(task) for task in tasks]
    if not _FORK:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {k: pool.submit(_timed, tasks[k]) for k in order}
        return [futures[k].result() for k in range(len(tasks))]
    fork = multiprocessing.get_context("fork")
    started, futures = fork.RawArray("b", len(tasks)), {}
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork,
                                 initializer=_adopt, initargs=(tasks, started)) as pool:
            for k in order:
                futures[k] = pool.submit(_forked_task, k)
        return [futures[k].result() for k in range(len(tasks))]
    except BrokenProcessPool:
        lost = [k for k in range(len(tasks))
                if k not in futures or not futures[k].done() or futures[k].exception()]
        held = [k for k in lost if started[k]] or lost
        raise WorkerError("a replicate worker process died while drawing "
                          + ", ".join(labels[k] for k in held)) from None


def _run_plans(plans, sc: Scenario, an: ScenarioAnalytics) -> list:
    """[(rows, or the exception that aborted the check, seconds)] for each
    (name, plan, rngs) of plans, in order (see `_check` for what a plan is).

    Three steps: every plan runs its analytic side, in order; every
    (plan, replicate) draw runs on one `_draw_all`, stationary's first, as
    its replicates take longest; then every plan finishes its rows from its
    replicates' results, in order, or has the first exception in replicate
    order raised at its yield.  A NumericError, BlowUpError or
    ValidationError aborts that plan alone; any other exception propagates.
    A plan's seconds are its own steps' and its draws', wherever they ran."""
    outcomes, seconds, drawing = [None] * len(plans), [0.0] * len(plans), {}

    def step(i, advance, *args):
        began = time.perf_counter()
        try:
            outcomes[i] = advance(*args)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except _ABORTS as exc:
            outcomes[i] = exc
        seconds[i] += time.perf_counter() - began

    def start(i, plan):
        started = plan(sc, an)
        if not isinstance(started, Generator):  # a plan that draws nothing returns its rows
            return started
        drawing[i] = started, next(started)

    for i, (_, plan, _) in enumerate(plans):
        step(i, start, i, plan)
    tasks, owners, labels = [], [], []
    for i, (_, draw) in drawing.items():
        name, _, rngs = plans[i]
        for r, rng in enumerate(rngs):
            tasks.append(functools.partial(draw, rng))
            owners.append(i)
            labels.append(f"{name} replicate {r + 1}")
    order = sorted(range(len(tasks)), key=lambda k: plans[owners[k]][0] != "stationary")
    results = _draw_all(tasks, labels, order)
    for i, (plan, _) in drawing.items():
        mine = [result for result, owner in zip(results, owners) if owner == i]
        seconds[i] += sum(s for _, _, s in mine)
        error = next((e for _, e, _ in mine if e is not None), None)
        if error is None:
            step(i, plan.send, [v for v, _, _ in mine])
        else:
            step(i, plan.throw, error)
    return list(zip(outcomes, seconds))


def _check(plan):
    """The check check(sc, rngs, an) -> rows of a plan.  plan(sc, an) builds
    the check's analytic side and then returns its rows, or yields its draw
    fn(rng) -> one replicate's tuples and takes back [fn(rng) for rng in
    rngs], in replicate order, to finish its rows: `drawn = yield fn`.  The
    check drives its plan alone (`_run_plans`) and raises the first
    exception in replicate order; `run_scenario` drives the plans of every
    check of a document together, through check.plan."""
    def check(sc: Scenario, rngs, an: ScenarioAnalytics) -> list:
        (outcome, _), = _run_plans([(plan.__name__.removeprefix("check_"), plan, rngs)], sc, an)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    check.__name__, check.__qualname__, check.__doc__ = plan.__name__, plan.__qualname__, plan.__doc__
    check.plan = plan
    return check


def _replicate_rows(templates, per_replicate) -> list:
    """The CheckRows of a check, one per template (check, claim, t, analytic,
    details), from per_replicate: each replicate's list of one
    (estimate, se, ok, *extras) tuple per row, in row order, as
    a plan's yield takes them back (an exact row is one replicate with se 0).
    A row's estimate is the mean of its replicate estimates, its ci
    Z99 * sqrt(sum se^2) / R and its verdict passes only if every replicate
    passes; details(columns) gives its details from the tuples transposed,
    columns[0] the replicate estimates and columns[3:] the extras.  A
    replicate with more or fewer tuples than there are templates raises
    ValueError: no row is dropped."""
    rows = []
    for (check, claim, t, analytic, details), *tuples in zip(templates, *per_replicate, strict=True):
        columns = list(zip(*tuples))
        ests, ses, oks = columns[:3]
        rows.append(CheckRow(check=check, claim=claim, t=t, analytic=analytic,
                             estimate=float(np.mean(ests)),
                             ci=Z99 * math.sqrt(sum(se * se for se in ses)) / len(ses),
                             verdict=_verdict(all(oks)), details=details(columns)))
    return rows


def _reps(columns) -> dict:
    """The details of a row with no extras: its replicate estimates."""
    return _per_rep("rep", columns[0])


def _w1_reps(columns) -> dict:
    """The details of a W1 row: its replicate coupling costs and mean dual rows."""
    return _per_rep("cost_rep", columns[3]) | _per_rep("dual_rep", columns[0])


def _psi_integrals(mech, imm, lams, lags) -> list:
    """For each row lam of lams, [(int_lag^inf psi(v(s, lam)) ds, bound on
    its tail past the batch's end lags[-1] + H) per lag of an increasing
    grid from 0], or the exception that lane failed with.  The rows are
    lanes of one batch (`_flow_lanes`), each with the bits of a solve of its
    own, which runs H = max(10/beta*, 20) past the last lag and lands on
    each lag and on that end.  A second route checks each value: scipy's
    DOP853 solves the same (v, int psi) system from the same start onto the
    same times, and must agree within 1e-8 * max(1, |value|)."""
    bs = beta_star(mech)
    if bs <= 0:
        raise ValidationError(f"stationary exponent needs beta_star > 0, got {bs:.6g}")
    horizon = max(10.0 / bs, 20.0)
    ends = np.array([*lags, lags[-1] + horizon])
    lams = np.asarray(lams, dtype=float)
    vals, _, _, errors = _flow_lanes(mech, lams, ends[-1], FLOW_TOL, ends, imm)
    influx = float((imm.beta + imm.first_moment()).sum())
    d = mech.d

    def rhs(_, y):  # written apart from _flow_lanes': the routes share only phi and psi
        v = np.maximum(y[:d], 0.0)
        return np.append(-eval_phi(mech, v), eval_psi(imm, v))

    def integrals(lam, lane):
        dop853 = solve_ivp(rhs, (0.0, ends[-1]), np.append(lam, 0.0), method="DOP853",
                           rtol=FLOW_TOL, atol=FLOW_TOL * 1e-2, t_eval=ends)
        if not dop853.success:
            return NumericError(f"stationary exponent's DOP853 route failed: {dop853.message}")
        rows = []
        for i, lag in enumerate(lags):
            by_stepper = float(lane[-1, d] - lane[i, d])
            by_dop853 = float(dop853.y[d, -1] - dop853.y[d, i])
            if abs(by_dop853 - by_stepper) > 1e-8 * max(1.0, abs(by_stepper)):
                return NumericError(f"stationary exponent routes disagree past lag {lag:g}: "
                                    f"stepper {by_stepper:.12g}, DOP853 {by_dop853:.12g}")
            tail = influx * float(lane[i, :d].max()) * math.exp(-bs * (ends[-1] - lag)) / bs
            rows.append((by_stepper, tail))
        return rows

    return [error or integrals(lam, lane) for lam, lane, error in zip(lams, vals, errors)]


class ScenarioAnalytics:
    """The analytic side of one scenario, each part built once, on first use.
    Its grids over the times: the probe flow (one solve), the envelope
    (`extinction_envelope`: one reciprocal-flow solve, checked by the scalar
    root at every time in d = 1 and by a ladder at the last time otherwise)
    and the stationary exponents (one psi batch: the Laplace lane at
    lambda_probe and the TV lane at Vbar_{t0}, landing on the TV lags, each
    checked by its own scipy DOP853 solve); and the moment semigroup
    pi_t per time.  Each check's plan reads what it needs before it yields
    its draw: the draws run in forked worker processes, which would not
    share a part they built, or on threads, which share no lock (from
    Python 3.12 on, neither does cached_property)."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.lags = [t - sc.times[0] for t in sc.times]
        self.pi = functools.cache(lambda t: moment_semigroup(sc.mech, t))
        self.pt1 = functools.cache(lambda t: _frozen(self.pi(t) @ np.ones(sc.mech.d)))

    @functools.cached_property
    def grey_failure(self) -> str:
        """Why Grey's condition fails for the dominating mechanism; "" if it holds."""
        try:
            if grey_condition(dominating_mechanism(self.sc.mech)):
                return ""
            reason = "dominating mechanism fails the finite-extinction test"
        except ValidationError as exc:
            reason = str(exc)
        return f"Grey's condition fails: {reason}"

    @functools.cached_property
    def probe(self) -> tuple:
        """(v(t, lambda_probe), int_0^t psi(v(s)) ds, or 0 without immigration), a row per time."""
        sc = self.sc
        path = solve_cumulant(sc.mech, sc.lambda_probe, sc.times[-1], t_eval=sc.times, imm=sc.imm)
        integral = np.zeros(len(sc.times)) if sc.imm is None else path.imm_integral[1:]
        return path.v_values[1:], integral

    @functools.cached_property
    def envelope(self) -> tuple:
        """(Vbar_t, a row per time, "") or (None, why it is unavailable)."""
        if self.grey_failure:
            return None, self.grey_failure
        try:
            return _frozen(extinction_envelope(self.sc.mech, self.sc.times)), ""
        except (GreyConditionError, NumericError) as exc:
            return None, str(exc)

    @functools.cached_property
    def psi_lanes(self) -> list:
        """_psi_integrals over the lags, as one batch: the Laplace lane at
        lambda_probe, then the TV lane at Vbar_{t0} when the envelope exists."""
        vbar = self.envelope[0]
        lams = [self.sc.lambda_probe] + ([] if vbar is None else [vbar[0]])
        return _psi_integrals(self.sc.mech, self.sc.imm, lams, self.lags)

    @property
    def stationary_tv(self) -> tuple:
        """((exponent, tail bound) per time, "") or (None, why not)."""
        vbar, reason = self.envelope
        if vbar is None:
            return None, reason
        tv = self.psi_lanes[1]
        return (None, str(tv)) if isinstance(tv, Exception) else (tv, "")

    @property
    def stationary_laplace(self) -> tuple:
        """(exponent, tail bound) of the stationary Laplace functional at lambda_probe."""
        laplace = self.psi_lanes[0]
        if isinstance(laplace, Exception):
            raise laplace
        return laplace[0]


def _skipped(check: str, claim: str, times, reason: str) -> list:
    """One skipped row per time, for rows whose analytic side is unavailable."""
    return [CheckRow(check=check, claim=claim, t=t, verdict="skipped", reason=reason) for t in times]


def _stable_rel_floor(mech: BranchingMechanism, n: int) -> float:
    """Relative tolerance floor for sample means under stable jump tails.

    A stable component of index kappa = 1 + alpha leaves the transition law
    with infinite variance; the sample mean then fluctuates at scale
    n^(1/kappa - 1) rather than n^(-1/2), so CLT windows are systematically
    undersized.  Five of those typical deviations play the role 4 standard
    errors play in the finite-variance rows."""
    alphas = [comp.alpha for comps in mech.jumps for comp in comps
              if isinstance(comp, StableAxis)]
    if not alphas:
        return 0.0
    a = min(alphas)
    return 5.0 * float(n) ** (-a / (1.0 + a))


def _w1_replicate(pair, lower: float, upper: float, scale: float, sc: Scenario) -> tuple:
    """One replicate of a W1 row: (mean dual row, its se, ok, coupling cost).

    The mean dual row and the coupling cost bracket the exact W1 of the
    full batches (`CoupledPair.dual_rows`) and agree on ordered legs, as on
    every shipped row.  The dual must not sit below lower and the cost must
    lie in [lower, upper], each up to four of its own standard errors or a
    relative floor of scale."""
    dual, dual_se = _mean_se(pair.dual_rows())
    cost = pair.cost()
    floor = max(0.01, _stable_rel_floor(sc.mech, sc.cfg.n_samples)) * scale
    tol_dual, tol_cost = (max(floor, SIGMAS * se) for se in (dual_se, pair.cost_se()))
    ok = lower - tol_dual <= dual and lower - tol_cost <= cost <= upper + tol_cost
    return dual, dual_se, ok, cost


# ---------------------------------------------------------------------------
# transition-law checks
# ---------------------------------------------------------------------------


@_check
def check_wasserstein_sandwich(sc: Scenario, an: ScenarioAnalytics):
    """First-moment sandwich around the transition Wasserstein distance.

    Each replicate draws the Jordan pieces only (`couple_jordan_pieces`):
    the meet path of the full coupling, like the shared immigration path of
    the immigration coupling, is a summand of both legs and cancels from
    left - right, the only thing a W1 row reads, so neither is drawn.  With
    immigration, the `_imm` rows read a second, independent draw of the
    same pieces on the same stream."""
    mu, nu = sc.mu, sc.nu
    variants = [("wasserstein_sandwich",
                 "|<mu-nu, pi_t 1>| <= W1(Q_t(mu), Q_t(nu)) <= |mu-nu|(pi_t 1)")]
    if sc.imm is not None and not sc.imm.is_trivial():
        variants.append(("wasserstein_sandwich_imm",
                         "the same first-moment sandwich holds with a shared immigration draw"))
    bounds = [(abs(float((mu - nu) @ an.pt1(t))) + sc.tamper, float(np.abs(mu - nu) @ an.pt1(t)))
              for t in sc.times]

    def replicate(pairs):
        return [_w1_replicate(pair, lower, upper, max(upper, 1e-12), sc)
                for pair, (lower, upper) in zip(pairs, bounds)]

    def draw(rng):
        # one coupled path per variant serves every time; rows go time by time
        per_variant = [replicate(couple_jordan_pieces(mu, nu, sc.mech, sc.times, sc.cfg, rng))
                       for _ in variants]
        return [row for per_time in zip(*per_variant) for row in per_time]

    return _replicate_rows([(check, claim, t, {"lower": lower, "upper": upper}, _w1_reps)
                            for t, (lower, upper) in zip(sc.times, bounds) for check, claim in variants],
                           (yield draw))


@_check
def check_tv_sandwich(sc: Scenario, an: ScenarioAnalytics):
    """Extinction-functional sandwich around the transition TV distance."""
    mech = sc.mech
    claim = "2|e^{-mu(Vbar_t)} - e^{-nu(Vbar_t)}| <= ||Q_t(mu)-Q_t(nu)||_var <= 2(1 - e^{-|mu-nu|(Vbar_t)})"
    vbars, reason = an.envelope
    if vbars is None:
        return _skipped("tv_sandwich", claim, sc.times, reason)
    exact_route = mech.d == 1 and mech.is_quadratic() and float(mech.c[0]) > 0
    se = math.sqrt(2.0 / sc.cfg.n_samples)  # bounded-differences scale of the TV estimate
    bounds = [(2.0 * abs(math.exp(-float(sc.mu @ vbar)) - math.exp(-float(sc.nu @ vbar))) + sc.tamper,
               2.0 * (1.0 - math.exp(-float(np.abs(sc.mu - sc.nu) @ vbar)))) for vbar in vbars]
    if exact_route:  # one replicate with se 0: the exact value draws nothing
        ests = [tv_exact_quadratic(float(sc.mu[0]), float(sc.nu[0]), float(mech.b[0]),
                                   float(mech.c[0]), t) for t in sc.times]
        return _replicate_rows([("tv_sandwich", claim, t,
                                 {"lower": lower, "upper": upper, "vbar": float(vbar[0])},
                                 lambda cols: {"route": 0.0})
                                for t, vbar, (lower, upper) in zip(sc.times, vbars, bounds)],
                               [[(est, 0.0, lower - 1e-9 <= est <= upper + 1e-9)
                                 for est, (lower, upper) in zip(ests, bounds)]])

    def replicate(snapshots, lower, upper):
        est = tv_empirical(*snapshots)
        tol = est.spread + SIGMAS * se
        return float(est), se, lower - tol <= float(est) <= upper + tol, est.spread

    def draw(rng):
        paths = zip(sample_path(sc.mu, mech, sc.times, sc.cfg, rng),
                    sample_path(sc.nu, mech, sc.times, sc.cfg, rng))
        return [replicate(snapshots, *bound) for snapshots, bound in zip(paths, bounds)]

    return _replicate_rows([("tv_sandwich", claim, t,
                             {"lower": lower, "upper": upper, "vbar_max": float(vbar.max())},
                             lambda cols: {"spread": max(0.0, *cols[3]), "route": 1.0})
                            for t, vbar, (lower, upper) in zip(sc.times, vbars, bounds)],
                           (yield draw))


@_check
def check_lipschitz_contraction(sc: Scenario, an: ScenarioAnalytics):
    """Variation-Lipschitz contraction of exponential test functionals.

    For F(mu) = e^{-<lam,mu>}, Q_tF(mu) = e^{-<mu, v(t,lam)>}, so the supremum
    of |Q_tF(mu)-Q_tF(nu)| / ||mu-nu||_1 over the orthant is ||v(t,lam)||_inf,
    approached as mu, nu -> 0.  That exact constant is the estimate; it draws
    nothing.  It must satisfy v(t,lam) <= pi_t lam componentwise, which bounds
    it by the moment bound ||pi_t 1|| L(F), and, under the extinction
    condition, sit below 2 ||Vbar_t|| ||F||."""
    lip_f = float(sc.lambda_probe.max())  # gradient sup-norm of e^{-<lam,.>} at the origin
    templates, exact = [], []  # one replicate with se 0
    claim = ("sup |Q_tF(mu)-Q_tF(nu)| / ||mu-nu||_1 = ||v(t,lam)||_inf with v(t,lam) <= pi_t lam, "
             "so <= ||pi_t 1|| L(F), and <= 2||Vbar_t|| ||F|| when extinction is instant")
    vbars, _ = an.envelope
    for i, (t, v) in enumerate(zip(sc.times, an.probe[0])):
        analytic = {"bound_moment": float(np.max(an.pt1(t))) * lip_f}
        if vbars is not None:
            analytic["bound_vbar"] = 2.0 * float(vbars[i].max())
        lipschitz = float(v.max())
        # every analytic entry is a bound
        ok = bool(np.all(v <= an.pi(t) @ sc.lambda_probe + 1e-9)) and lipschitz <= min(analytic.values()) + 1e-9
        templates.append(("lipschitz_contraction", claim, t, analytic, lambda cols: {"lip_f": lip_f}))
        exact.append((lipschitz, 0.0, ok))
    return _replicate_rows(templates, [exact])


@_check
def check_laplace(sc: Scenario, an: ScenarioAnalytics):
    """Sampler laws against the exponent produced by the cumulant flow."""
    mech, imm, lam = sc.mech, sc.imm, sc.lambda_probe
    claim = "E[e^{-<lam, X_t>}] = exp(-<mu, v(t,lam)> - integral of psi(v(s,lam)))"
    v, integral = an.probe
    targets = [math.exp(-(float(sc.mu @ v_t) + float(i_t))) for v_t, i_t in zip(v, integral)]

    def replicate(x, target):
        emp, se = _mean_se(np.exp(-(x @ lam)))
        return emp, se, abs(emp - target) <= SIGMAS * se + 1e-12

    def draw(rng):
        path = sample_path(sc.mu, mech, sc.times, sc.cfg, rng, imm=imm)
        return [replicate(x, target) for x, target in zip(path, targets)]

    return _replicate_rows([("laplace", claim, t, {"target": target}, _reps)
                            for t, target in zip(sc.times, targets)], (yield draw))


@_check
def check_extinction_atom(sc: Scenario, an: ScenarioAnalytics):
    """Mass of the exact zero state against the extinction functional."""
    mech = sc.mech
    claim = "P(X_t = 0) = e^{-<mu, Vbar_t>}"
    # stepped simulation carries a small positive-part bias near zero; the
    # exact scalar sampler needs no allowance
    atol = 0.0 if has_exact_transition(mech) else 2e-3
    vbars, reason = an.envelope
    if vbars is None:
        return _skipped("extinction_atom", claim, sc.times, reason)
    targets = [math.exp(-float(sc.mu @ vbar)) for vbar in vbars]

    def replicate(x, target):
        frac = float(np.all(x == 0.0, axis=1).mean())
        se = math.sqrt(max(target * (1 - target), 1e-12) / sc.cfg.n_samples)
        return frac, se, abs(frac - target) <= SIGMAS * se + atol

    def draw(rng):
        path = sample_path(sc.mu, mech, sc.times, sc.cfg, rng)
        return [replicate(x, target) for x, target in zip(path, targets)]

    return _replicate_rows([("extinction_atom", claim, t, {"target": target}, _reps)
                            for t, target in zip(sc.times, targets)], (yield draw))


# ---------------------------------------------------------------------------
# stationary-law checks
# ---------------------------------------------------------------------------


@_check
def check_stationary(sc: Scenario, an: ScenarioAnalytics):
    """Stationary law: mean, Laplace functional, distance identities, rates."""
    mech, imm = sc.mech, sc.imm
    bs = beta_star(mech)
    if bs <= 0:
        return _skipped("stationary", "the immigration law converges to a limit", [None],
                        f"needs subcriticality beta_star > 0, got beta_star = {bs:.6g}")
    if imm is None or imm.is_trivial():
        # without immigration the limit law is the zero state; at finite
        # horizons the mean follows the decaying moment flow
        t_h = sc.times[-1]
        target = float(sc.mu @ an.pt1(t_h))

        def draw_decay(rng):
            mean_mass, se = _mean_se(sample_path(sc.mu, mech, [t_h], sc.cfg, rng)[0].sum(axis=1))
            return [(mean_mass, se, abs(mean_mass - target) <= SIGMAS * se + 1e-3 * float(sc.mu.sum()))]

        claim = "with no immigration the mean mass follows the decaying moment flow (limit law = zero state)"
        return _replicate_rows([("stationary_mean", claim, t_h, {"mean_mass": target}, _reps)],
                               (yield draw_decay))
    # the analytic side of every bundle row, read before the replicates run:
    # the mean vector is the resolvent of the moment generator applied to the influx
    m_inf = stationary_mean(mech, imm)
    rel_floor = max(5e-3, _stable_rel_floor(mech, sc.cfg.n_samples))
    lam = sc.lambda_probe
    exponent, tail = an.stationary_laplace
    target = math.exp(-exponent)
    w1s = [float(m_inf @ an.pt1(t)) for t in sc.times]
    by_tails = [tail_immigrant_mass(mech, imm, t) for t in sc.times]
    tv, tv_reason = an.stationary_tv
    tv_bounds = [] if tv is None else [(2.0 * (1.0 - math.exp(-e)), tail_v) for e, tail_v in tv]

    def mean_row(x):
        emp = x.mean(axis=0)
        se = x.std(axis=0) / math.sqrt(len(x))
        ok = bool(np.all(np.abs(emp - m_inf) <= SIGMAS * se + rel_floor * np.abs(m_inf)))
        return emp.sum(), _mean_se(x.sum(axis=1))[1], ok, emp

    def laplace_row(x):
        emp, se = _mean_se(np.exp(-(x @ lam)))
        return emp, se, abs(emp - target) <= SIGMAS * se + 2 * tail + 2e-3 * target

    def tv_row(pair, bound, tail_v):
        diff, se = 2.0 * pair.differ(), 2.0 * pair.differ_se()
        # the construction makes P(legs differ) exactly the bound integrand
        return diff, se, abs(diff - bound) <= SIGMAS * se + 2 * tail_v + 2e-3

    # exponential-rate fits over the tail of the grid, on three or more times
    fit_ts = [t for t in sc.times if t >= 1.0]
    fit_ts = fit_ts if len(fit_ts) >= 3 else []

    def draw(rng):
        # one stationary batch S serves the mean, Laplace, W1 and TV rows:
        # at each t the pair (0, Q_t S) is the shared-history coupling of
        # the immigration law with its limit, (fresh_t, fresh_t + Q_t S),
        # less the fresh influx, which cancels from left - right
        x = sample_stationary(imm, mech, sc.cfg, rng)
        pairs = couple_jordan_pieces(np.zeros_like(x), x, mech, sc.times, sc.cfg, rng)
        bundle = [mean_row(x), laplace_row(x),
                  *(_w1_replicate(pair, w1, w1, w1, sc) for pair, w1 in zip(pairs, w1s)),
                  *(tv_row(pair, *bound) for pair, bound in zip(pairs, tv_bounds))]
        del pairs  # a worker holds one coupling at a time
        if not fit_ts:
            return bundle, ()
        # the rate pairs couple mu with S along fit_ts: the Jordan pieces,
        # without the shared meet path or imm
        rate_pairs = couple_jordan_pieces(np.tile(sc.mu, (len(x), 1)), x, mech, fit_ts, sc.cfg, rng)
        return bundle, ([pair.cost() for pair in rate_pairs],
                        [2.0 * pair.differ() for pair in rate_pairs])

    drawn = yield draw
    bound_claim = "||N_t - N_infty||_var <= 2 E[1 - e^{-<X_infty, Vbar_t>}]"
    rows = _replicate_rows([
        ("stationary_mean",
         "the stationary mean solves the linear balance equation of branching drift and influx", None,
         {f"mean_{i + 1}": float(v) for i, v in enumerate(m_inf)},
         lambda cols: {f"emp_{i + 1}": float(v) for i, v in enumerate(np.mean(cols[3], axis=0))}),
        ("stationary_laplace", "E[e^{-<lam, X_infty>}] = exp(-integral over all time of psi(v(s,lam)))",
         None, {"target": target, "tail_bound": tail}, _reps),
        # distance identities on the time grid
        *(("stationary_w1_identity",
           "W1(N_t, N_infty) equals the mean mass immigrated before time -t, <m_infty, pi_t 1>",
           t, {"w1": w1, "by_tail_integral": by_tail}, _w1_reps)
          for t, w1, by_tail in zip(sc.times, w1s, by_tails)),
        *(("stationary_tv_bound", bound_claim + ", attained by the shared-history coupling", t,
           {"bound": bound}, lambda cols: {}) for t, (bound, _) in zip(sc.times, tv_bounds)),
    ], [bundle for bundle, _ in drawn])
    routes = dict(zip(sc.times, zip(w1s, by_tails)))
    for i in [i for i, row in enumerate(rows) if row.check == "stationary_w1_identity"]:
        t, (w1, by_tail) = rows[i].t, routes[rows[i].t]
        if not abs(w1 - by_tail) <= 1e-8 * max(1.0, w1):
            rows[i] = replace(rows[i], verdict="fail", reason=f"W1 routes disagree at t={t:g}: "
                              f"<m_infty, pi_t 1> {w1!r}, tail integral {by_tail!r}")
    if tv is None:
        rows.extend(_skipped("stationary_tv_bound", bound_claim, sc.times, tv_reason))

    if not fit_ts:
        return rows
    # the observable decays at the moment-semigroup rate (the spectral bound
    # of -diag(b) + gamma); beta* is the row-sum certificate for that rate,
    # so rate >= beta* is a deterministic side condition rather than the
    # fit target
    rate = moment_decay_rate(mech)
    costs, differs = zip(*(series for _, series in drawn))

    def rate_row(check: str, claim: str, series: list, within) -> CheckRow:
        slopes = [float(np.polyfit(fit_ts, np.log(pts), 1)[0]) for pts in series if min(pts) > 0]
        ok = rate >= bs - 1e-9 and len(slopes) == len(series) and all(map(within, slopes))
        return CheckRow(check=check, claim=claim, analytic={"rate": rate, "beta_star": bs},
                        estimate=float(np.mean(slopes)) if slopes else None,
                        verdict=_verdict(ok), details=_per_rep("slope_rep", slopes))

    rows.append(rate_row(
        "stationary_w1_rate",
        "log W1(Q^N_t(mu), N_infty) decays linearly at the moment rate, which is >= beta* (10% tolerance)",
        costs, lambda s: abs(s + rate) <= 0.10 * rate))
    if mech.is_quadratic():
        rows.append(rate_row(
            "stationary_tv_rate",
            "log ||Q^N_t(mu) - N_infty||_var decays linearly at the moment rate, "
            "which is >= beta* (15% tolerance)",
            differs, lambda s: abs(s + rate) <= 0.15 * rate))
    else:
        # jump mechanisms: the extinction envelope reaches its asymptotic
        # rate slowly, so the fitted slope overshoots on finite windows; the
        # claim that survives is one-sided
        rows.append(rate_row(
            "stationary_tv_rate",
            "log ||Q^N_t(mu) - N_infty||_var decays at least as fast as -beta* (15% tolerance)",
            differs, lambda s: s <= -(1.0 - 0.15) * bs))
    return rows


CHECKS: dict[str, Callable] = {
    "laplace": check_laplace,
    "extinction_atom": check_extinction_atom,
    "wasserstein_sandwich": check_wasserstein_sandwich,
    "tv_sandwich": check_tv_sandwich,
    "lipschitz_contraction": check_lipschitz_contraction,
    "stationary": check_stationary,
}


def run_scenario(sc: Scenario) -> VerificationReport:
    """Run every requested check; failures are recorded, never raised.

    The checks' plans run together (`_run_plans`): every analytic side in
    document order, then every replicate draw of the document on one pool,
    then every check's rows in document order.  Randomness is derived from
    (cfg.seed, registry position of the check), so adding or removing checks
    does not shift the streams of the others.  A replicate worker that dies
    raises WorkerError: no row could say what it would have drawn."""
    start = time.perf_counter()
    registry = list(CHECKS)
    plans = []
    for name in sc.checks:
        seq = np.random.SeedSequence((sc.cfg.seed, registry.index(name)))
        plans.append((name, CHECKS[name].plan, [np.random.default_rng(s) for s in seq.spawn(REPLICATES)]))
    rows = []
    check_s = {}  # seconds per check: its analytic side and rows here, and its draws wherever they ran
    for (name, _, _), (outcome, seconds) in zip(plans, _run_plans(plans, sc, ScenarioAnalytics(sc))):
        if isinstance(outcome, Exception):
            rows.append(CheckRow(check=name, claim="check aborted before producing rows",
                                 verdict="fail", reason=f"{type(outcome).__name__}: {outcome}"))
        else:
            rows.extend(outcome)
        check_s[name] = round(seconds, 3)
    meta = {"scenario": sc.name, "seed": sc.cfg.seed, "n_samples": sc.cfg.n_samples,
            "dt": sc.cfg.dt, "replicates": REPLICATES, "version": __version__,
            "numpy": np.__version__, "runtime_s": round(time.perf_counter() - start, 3),
            "check_s": check_s}
    return VerificationReport(scenario=sc.name, rows=tuple(rows), metadata=meta)
