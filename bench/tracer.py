"""Per-layer tracing of a cbilab run from outside the library.

The tracer replaces chosen functions by timing wrappers for the duration of
one run.  A wrapper must sit at the defining module *and* at every module
that imported the name (``from .cumulant import vbar_vector`` binds its own
reference), and in any registry dict that holds the function (the verify
module's ``CHECKS``).  ``install`` finds those sites by identity, so an
import added later is caught without editing this file.

Calls to a span function record one span each: name, start, end, parent
span and a few notes taken from the arguments or the result.  The two
mechanism evaluators run hundreds of thousands of times per run, so they
only bump a call counter and a time total.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

# layer (module under cbilab) -> functions recorded as spans
SPAN_TARGETS = {
    "cli": ("main", "load_document", "parse_scenario", "_write_report"),
    "verify": ("check_laplace", "check_extinction_atom",
               "check_wasserstein_sandwich", "check_tv_sandwich",
               "check_lipschitz_contraction", "check_stationary"),
    "cumulant": ("solve_cumulant", "vbar_vector", "vbar_scalar", "moment_semigroup"),
    "mechanism": ("dominating_mechanism",),
    # _stepped_batch is the stepped (operator-split) route of every sampler;
    # its span gives the time per step draw
    "simulate": ("sample_transition", "sample_immigration", "sample_stationary",
                 "_stepped_batch"),
    "coupling": ("couple_transitions", "couple_cbi", "couple_stationary",
                 "couple_cbi_to_stationary"),
    "distance": ("w1_exact_empirical", "tv_empirical", "tv_exact_quadratic"),
}

# layer -> functions that only count calls and time
COUNTER_TARGETS = {"mechanism": ("eval_phi", "eval_psi")}

def _rows(result) -> int:
    return int(np.shape(result)[0])


def _note_solve(args, kwargs, result):
    return {"steps": result.n_steps, "rejected": result.n_rejected}


def _note_vbar(args, kwargs, result):
    # the mechanism object is shared by every check of one scenario
    return {"key": [id(args[0]), float(args[1])]}


def _note_transition(args, kwargs, result):
    mu = np.asarray(args[0], dtype=float)
    rows = _rows(result)
    if mu.ndim == 2:
        zero = int(np.all(mu == 0.0, axis=1).sum())
    else:
        zero = rows if not np.any(mu) else 0
    return {"rows": rows, "zero_rows": zero}


def _note_rows(args, kwargs, result):
    return {"rows": _rows(result)}


def _note_stepped(args, kwargs, result):
    states, t, cfg = args[0], float(args[3]), args[4]
    steps = 0 if t == 0.0 else max(1, math.ceil(t / cfg.dt))
    return {"step_draws": _rows(states) * steps}


def _note_w1(args, kwargs, result):
    return {"assign_n": math.lcm(_rows(args[0]), _rows(args[1]))}


NOTES = {
    "cumulant.solve_cumulant": _note_solve,
    "cumulant.vbar_vector": _note_vbar,
    "simulate.sample_transition": _note_transition,
    "simulate.sample_immigration": _note_rows,
    "simulate.sample_stationary": _note_rows,
    "simulate._stepped_batch": _note_stepped,
    "distance.w1_exact_empirical": _note_w1,
}


class Tracer:
    """Wraps cbilab functions at every binding site; records spans and counters.

    Use as a context manager around one run; the original bindings are
    restored on exit.  ``spans`` holds ``[name, start, end, parent, notes]``
    lists, parent being the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.sites: list = []  # (namespace, key, original) for each patched binding
        self.missing: list = []
        self._stack: list = []

    def _span(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        slot = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - start

        return wrapper

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cbilab" or n.startswith("cbilab."))]
        for targets, make in ((SPAN_TARGETS, self._span), (COUNTER_TARGETS, self._counter)):
            for layer, names in targets.items():
                home = importlib.import_module(f"cbilab.{layer}")
                for fname in names:
                    original = getattr(home, fname, None)
                    if original is None:
                        self.missing.append(f"{layer}.{fname}")
                        continue
                    self._patch(modules, original, make(f"{layer}.{fname}", original))
        if self.missing:
            print(f"tracer: not found, reported as 0: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def _patch(self, modules, original, wrapper) -> None:
        for mod in modules:
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self.sites.append((space, key, original))
                    space[key] = wrapper
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self.sites.append((value, dkey, original))
                            value[dkey] = wrapper

    def uninstall(self) -> None:
        for space, key, original in reversed(self.sites):
            space[key] = original
        self.sites.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> list:
    """Span duration minus the time covered by its direct child spans."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _quantile_ms(durations, q: float) -> float:
    return float(np.quantile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans, counters) -> dict:
    """Per-layer metric values (unit-free) from one traced run."""
    selfs = self_times(spans)
    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    def notes(name, key):
        return sum(spans[i][4][key] for i in by_name.get(name, ()) if spans[i][4])

    m: dict = {}

    # cumulant
    m["cumulant.solve_cumulant.calls"] = calls("cumulant.solve_cumulant")
    m["cumulant.solve_cumulant.self_s"] = sum(selfs[i] for i in by_name.get("cumulant.solve_cumulant", ()))
    m["cumulant.solve_cumulant.p50_ms"] = _quantile_ms(durations("cumulant.solve_cumulant"), 0.5)
    m["cumulant.solve_cumulant.p90_ms"] = _quantile_ms(durations("cumulant.solve_cumulant"), 0.9)
    m["cumulant.ode_steps"] = notes("cumulant.solve_cumulant", "steps")
    m["cumulant.ode_rejected"] = notes("cumulant.solve_cumulant", "rejected")
    vbar = by_name.get("cumulant.vbar_vector", [])
    seen, repeats = set(), 0
    for i in vbar:
        key = tuple(spans[i][4]["key"]) if spans[i][4] else None
        repeats += key in seen
        seen.add(key)
    vbar_set = set(vbar)
    m["cumulant.vbar_vector.calls"] = len(vbar)
    m["cumulant.vbar_vector.s"] = total("cumulant.vbar_vector")
    m["cumulant.vbar_vector.solves"] = sum(
        1 for i in by_name.get("cumulant.solve_cumulant", ()) if spans[i][3] in vbar_set)
    m["cumulant.vbar_vector.repeat_frac"] = repeats / len(vbar) if vbar else 0.0
    m["cumulant.vbar_scalar.calls"] = calls("cumulant.vbar_scalar")
    m["cumulant.vbar_scalar.s"] = total("cumulant.vbar_scalar")
    m["cumulant.moment_semigroup.calls"] = calls("cumulant.moment_semigroup")

    # mechanism
    phi_n, phi_s = counters.get("mechanism.eval_phi", (0, 0.0))
    psi_n, psi_s = counters.get("mechanism.eval_psi", (0, 0.0))
    m["mechanism.eval_phi.calls"] = phi_n
    m["mechanism.eval_phi.s"] = phi_s
    m["mechanism.eval_phi.us_per_call"] = phi_s / phi_n * 1e6 if phi_n else 0.0
    m["mechanism.eval_psi.calls"] = psi_n
    m["mechanism.eval_psi.s"] = psi_s
    m["mechanism.dominating_mechanism.calls"] = calls("mechanism.dominating_mechanism")
    m["mechanism.dominating_mechanism.s"] = total("mechanism.dominating_mechanism")

    # simulate
    for fname in ("sample_transition", "sample_immigration", "sample_stationary"):
        m[f"simulate.{fname}.calls"] = calls(f"simulate.{fname}")
        m[f"simulate.{fname}.s"] = total(f"simulate.{fname}")
    m["simulate.sample_stationary.p50_ms"] = _quantile_ms(durations("simulate.sample_stationary"), 0.5)
    samplers = {f"simulate.{f}" for f in ("sample_transition", "sample_immigration", "sample_stationary")}
    # rows handed to callers outside the sampler layer (nested draws count once)
    m["simulate.draws"] = sum(
        s[4]["rows"] for s in spans
        if s[0] in samplers and s[4] and (s[3] < 0 or spans[s[3]][0] not in samplers))
    step_draws = notes("simulate._stepped_batch", "step_draws")
    m["simulate.step_draws"] = step_draws
    m["simulate.ns_per_step_draw"] = (total("simulate._stepped_batch") / step_draws * 1e9
                                      if step_draws else 0.0)
    rows = notes("simulate.sample_transition", "rows")
    m["simulate.zero_start_frac"] = notes("simulate.sample_transition", "zero_rows") / rows if rows else 0.0
    m["simulate.zero_start_s"] = sum(
        (spans[i][2] - spans[i][1]) * spans[i][4]["zero_rows"] / spans[i][4]["rows"]
        for i in by_name.get("simulate.sample_transition", ()) if spans[i][4] and spans[i][4]["rows"])

    # coupling
    for fname in SPAN_TARGETS["coupling"]:
        m[f"coupling.{fname}.calls"] = calls(f"coupling.{fname}")
        m[f"coupling.{fname}.s"] = total(f"coupling.{fname}")

    # distance
    w1_calls = calls("distance.w1_exact_empirical")
    m["distance.w1_exact_empirical.calls"] = w1_calls
    m["distance.w1_exact_empirical.s"] = total("distance.w1_exact_empirical")
    m["distance.w1_exact_empirical.assign_n"] = (
        notes("distance.w1_exact_empirical", "assign_n") / w1_calls if w1_calls else 0.0)
    for fname in ("tv_empirical", "tv_exact_quadratic"):
        m[f"distance.{fname}.calls"] = calls(f"distance.{fname}")
        m[f"distance.{fname}.s"] = total(f"distance.{fname}")

    # verify
    for fname in SPAN_TARGETS["verify"]:
        m[f"verify.{fname.removeprefix('check_')}.s"] = total(f"verify.{fname}")

    # cli
    m["cli.parse_s"] = total("cli.load_document") + total("cli.parse_scenario")
    m["cli.write_report_s"] = total("cli._write_report")
    return m
