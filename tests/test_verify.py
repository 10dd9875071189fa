"""Scenario runner: verdict logic, skip paths, report round-trips."""

import functools
import hashlib
import json
import math
import os
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbilab import coupling, cumulant, distance, simulate, verify
from cbilab.coupling import CoupledPair, couple_jordan_pieces
from cbilab.cli import load_document, main, parse_scenario
from cbilab.errors import BlowUpError, ValidationError
from cbilab.mechanism import BranchingMechanism, ImmigrationMechanism, PointMass, StableAxis, beta_star
from cbilab.cumulant import reciprocal_envelope, solve_cumulant, vbar_scalar, vbar_vector
from cbilab.simulate import SimConfig, sample_path, sample_stationary
from cbilab.verify import (
    CHECKS,
    REPLICATES,
    Z99,
    CheckRow,
    Scenario,
    ScenarioAnalytics,
    VerificationReport,
    _psi_integrals,
    run_scenario,
)

MECH = BranchingMechanism(b=[1.0], c=[1.0])
IMM = ImmigrationMechanism(beta=[2.0])
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def reference_scenario(**overrides):
    base = dict(
        name="ref",
        mech=MECH,
        imm=IMM,
        cfg=SimConfig(n_samples=6_000, dt=0.01, seed=20),
        mu=[2.0],
        nu=[1.0],
        times=(0.5, 1.0, 2.0, 3.0),
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            reference_scenario(times=(1.0, 1.0))
        with pytest.raises(ValidationError):
            reference_scenario(times=(0.0, 1.0))
        with pytest.raises(ValidationError):
            reference_scenario(times=(1.0, math.inf))
        with pytest.raises(ValidationError, match="non-empty"):
            reference_scenario(times=())
        for bad in ("1.0", True, None):
            with pytest.raises(ValidationError, match="each time must be a finite number"):
                reference_scenario(times=(0.5, bad))

    def test_unknown_check_rejected(self):
        with pytest.raises(ValidationError, match="unknown checks"):
            reference_scenario(checks=("laplace", "nonsense"))

    def test_repeated_check_rejected(self):
        with pytest.raises(ValidationError, match=r"more than once: \['laplace', 'stationary'\]"):
            reference_scenario(checks=("stationary", "laplace", "extinction_atom",
                                       "laplace", "stationary"))

    def test_defaults(self):
        sc = reference_scenario()
        assert sc.checks == tuple(CHECKS)
        np.testing.assert_array_equal(sc.lambda_probe, [1.0])
        np.testing.assert_array_equal(sc.nu, [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            reference_scenario(imm=ImmigrationMechanism(beta=[1.0, 1.0]))

    @pytest.mark.parametrize("given", [{}, {"nu": None, "lambda_probe": [0.5]}])
    def test_mass_arrays_are_read_only(self, given):
        # a frozen scenario: its replicate threads read these arrays
        sc = reference_scenario(**given)
        for a in (sc.mu, sc.nu, sc.lambda_probe):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0


@pytest.fixture(scope="module")
def report():
    return run_scenario(reference_scenario())


@pytest.fixture(scope="module")
def small_report():
    sc = reference_scenario(cfg=SimConfig(n_samples=2_000, dt=0.02, seed=9),
                            times=(1.0,), checks=("laplace", "tv_sandwich"))
    return run_scenario(sc)


@pytest.fixture(scope="module")
def written_report(tmp_path_factory):
    """(document, output folder) of `cbilab verify` on small_report's scenario."""
    out = tmp_path_factory.mktemp("written")
    doc = {"schema_version": 1, "name": "ref", "dimension": 1,
           "mechanism": {"b": [1.0], "c": [1.0]}, "immigration": {"beta": [2.0]},
           "initial": {"mu": [2.0], "nu": [1.0]}, "times": [1.0],
           "sim": {"n_samples": 2000, "dt": 0.02, "seed": 9},
           "checks": ["laplace", "tv_sandwich"]}
    path = out / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out", str(out)]) == 0
    return doc, out


class TestReferenceScenario:
    def test_all_rows_pass(self, report):
        failed = [r for r in report.rows if r.verdict == "fail"]
        assert report.passed, [(r.check, r.t, r.reason) for r in failed]
        assert report.counts()["skipped"] == 0

    def test_every_check_produced_rows(self, report):
        names = {r.check for r in report.rows}
        assert {"laplace", "extinction_atom", "wasserstein_sandwich",
                "wasserstein_sandwich_imm", "tv_sandwich",
                "lipschitz_contraction", "stationary_mean",
                "stationary_laplace", "stationary_w1_identity",
                "stationary_tv_bound", "stationary_w1_rate",
                "stationary_tv_rate"} <= names

    def test_rows_are_self_describing(self, report):
        for r in report.rows:
            assert r.claim
            assert r.verdict in ("pass", "fail", "skipped")

    def test_estimates_inside_widened_sandwich(self, report):
        # a passing sandwich row's estimate never sits past the bounds by
        # more than its own reported uncertainty times a small factor
        for r in report.rows:
            if r.check.startswith("wasserstein_sandwich") and r.verdict == "pass":
                slack = 5 * (r.ci or 0.0) + 0.02 * r.analytic["upper"]
                assert r.analytic["lower"] - slack <= r.estimate <= r.analytic["upper"] + slack

    def test_exact_tv_route_on_scalar_quadratic(self, report):
        rows = [r for r in report.rows if r.check == "tv_sandwich"]
        assert rows and all(r.details.get("route") == 0.0 for r in rows)
        for r in rows:
            assert r.analytic["lower"] - 1e-9 <= r.estimate <= r.analytic["upper"] + 1e-9

    def test_rate_fits_find_unit_rate(self, report):
        for name in ("stationary_w1_rate", "stationary_tv_rate"):
            row = next(r for r in report.rows if r.check == name)
            assert row.analytic["rate"] == pytest.approx(1.0)
            assert row.analytic["beta_star"] == pytest.approx(1.0)
            assert row.estimate == pytest.approx(-1.0, abs=0.12)

    def test_ci_is_half_width_of_replicate_mean(self, report):
        n = report.metadata["n_samples"]
        rows = [r for r in report.rows if r.check == "extinction_atom"]
        assert rows
        for r in rows:
            target = r.analytic["target"]
            se = math.sqrt(target * (1 - target) / n)
            assert r.ci == pytest.approx(Z99 * se / math.sqrt(3), rel=1e-12)
            assert r.estimate == pytest.approx(np.mean([r.details[f"rep{i}"] for i in (1, 2, 3)]))

    def test_metadata(self, report):
        assert report.metadata["seed"] == 20
        assert report.metadata["replicates"] == 3
        assert report.metadata["runtime_s"] > 0
        # wall seconds per check, in run order, inside the run's own time
        check_s = report.metadata["check_s"]
        assert list(check_s) == list(CHECKS)
        assert all(s >= 0 for s in check_s.values())
        assert sum(check_s.values()) <= report.metadata["runtime_s"] + 1e-3 * len(check_s)


class TestNegativeControl:
    def test_tampered_lower_bound_fails(self):
        sc = reference_scenario(cfg=SimConfig(n_samples=3_000, dt=0.01, seed=20),
                                times=(1.0,), checks=("wasserstein_sandwich",),
                                tamper=5.0)
        report = run_scenario(sc)
        assert not report.passed
        assert all(r.verdict == "fail" for r in report.rows)

    def test_untampered_twin_passes(self):
        sc = reference_scenario(cfg=SimConfig(n_samples=3_000, dt=0.01, seed=20),
                                times=(1.0,), checks=("wasserstein_sandwich",))
        assert run_scenario(sc).passed


class TestW1Rows:
    W1_ROWS = ("wasserstein_sandwich", "wasserstein_sandwich_imm")

    def test_mixed_sign_pair_needs_no_w1_solver(self, monkeypatch):
        # criterion 4's unordered pair: the dual sits strictly below the
        # coupling cost, and the rows are decided on the full batch alone
        def refuse(*args):
            raise AssertionError("verify solved an empirical W1")

        for name in ("w1_exact_empirical", "_w1_assignment", "w1_1d_quantile"):
            monkeypatch.setattr(distance, name, refuse)
        sc = parse_scenario(load_document(SCENARIOS / "ref_d2_folded.json"))
        sc = replace(sc, mu=np.array([1.0, 2.0]), nu=np.array([2.0, 1.0]),
                     cfg=replace(sc.cfg, n_samples=2000), checks=("wasserstein_sandwich",))
        rows = run_scenario(sc).rows
        assert [r.check for r in rows] == list(self.W1_ROWS) * len(sc.times)
        assert all(r.verdict == "pass" for r in rows), [(r.check, r.t) for r in rows]
        for r in rows:
            assert all(r.details[f"dual_rep{i}"] < r.details[f"cost_rep{i}"] for i in (1, 2, 3))

    @pytest.mark.parametrize("mech, cfg", [
        (MECH, SimConfig(n_samples=2_000, seed=4)),
        (BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),)),
         SimConfig(n_samples=400, dt=0.05, seed=4)),
    ], ids=["exact-quadratic", "stepped-stable"])
    def test_imm_rows_are_the_shared_influx_coupling_up_to_rounding(self, mech, cfg):
        # the _imm rows read the second draw of the Jordan pieces on each
        # replicate's stream; the full coupling with the shared influx built
        # on those pieces (its meet path and influx drawn on another stream)
        # gives the same replicate numbers and verdicts up to the rounding
        # of the added shared paths
        sc = reference_scenario(mech=mech, cfg=cfg)
        rows = CHECKS["wasserstein_sandwich"](
            sc, [np.random.default_rng(r) for r in range(REPLICATES)], ScenarioAnalytics(sc))
        rows = [r for r in rows if r.check == "wasserstein_sandwich_imm"]
        assert [r.t for r in rows] == list(sc.times)
        oks = [[] for _ in rows]
        for rep in range(REPLICATES):
            rng = np.random.default_rng(rep)
            couple_jordan_pieces(sc.mu, sc.nu, mech, sc.times, cfg, rng)  # the plain rows' draw
            plain = couple_jordan_pieces(sc.mu, sc.nu, mech, sc.times, cfg, rng)
            other = np.random.default_rng(REPLICATES + rep)
            meet = sample_path(np.minimum(sc.mu, sc.nu), mech, sc.times, cfg, other)
            influx = sample_path(np.zeros(mech.d), mech, sc.times, cfg, other, imm=sc.imm)
            shared = [CoupledPair(m + p.left + f, m + p.right + f)
                      for m, p, f in zip(meet, plain, influx)]
            for row, ok, pair, with_influx in zip(rows, oks, plain, shared):
                bounds = row.analytic["lower"], row.analytic["upper"], row.analytic["upper"]
                dual, se, new_ok, cost = verify._w1_replicate(pair, *bounds, sc)
                assert (dual, cost) == (row.details[f"dual_rep{rep + 1}"],
                                        row.details[f"cost_rep{rep + 1}"])
                old_dual, old_se, old_ok, old_cost = verify._w1_replicate(with_influx, *bounds, sc)
                np.testing.assert_allclose([old_dual, old_se, old_cost], [dual, se, cost],
                                           rtol=1e-12, atol=0)
                assert old_ok == new_ok
                ok.append(old_ok)
        assert [r.verdict for r in rows] == ["pass" if all(ok) else "fail" for ok in oks]

    def test_scaled_positive_leg_is_caught(self, monkeypatch):
        # a sampler that inflates the positive Jordan leg by 5% fails the
        # rows where the sandwich is tight enough to see it: the shift is
        # about 1.5 times the 4-sigma band at t = 0.5 and 0.9 times it at
        # t = 1, where each replicate catches it about a third of the time
        real_decompose, real_sample = coupling.jordan_decompose, coupling.sample_path
        positive = []

        def decompose(mu, nu):
            parts = real_decompose(mu, nu)
            positive.append(parts[1])
            return parts

        def sample(x0, *args, **kwargs):
            x = real_sample(x0, *args, **kwargs)
            return 1.05 * x if any(x0 is p for p in positive) else x

        monkeypatch.setattr(coupling, "jordan_decompose", decompose)
        monkeypatch.setattr(coupling, "sample_path", sample)
        sc = parse_scenario(load_document(SCENARIOS / "ref_d1_quadratic.json"))
        sc = replace(sc, checks=("wasserstein_sandwich",))
        assert sc.cfg.seed == 1
        rows = run_scenario(sc).rows
        failed = {(r.check, r.t) for r in rows if r.verdict == "fail"}
        assert {(c, 0.5) for c in self.W1_ROWS} <= failed
        assert failed <= {(c, t) for c in self.W1_ROWS for t in (0.5, 1.0)}
        # every t <= 1 row's estimate sits more than 3.5 standard errors of
        # the mean past its upper bound, even where no replicate leaves its
        # band: 4.1 and 4.7 at t = 1 here, while with the true sampler no
        # t <= 1 row of seeds 1-10 sits more than 2.3 out
        assert all(r.estimate - r.analytic["upper"] > 3.5 * r.ci / Z99
                   for r in rows if r.t <= 1.0)
        # so a t = 1 row fails at most seeds: at four or more of seeds 1-5
        # (at 28 of seeds 1-30)
        caught = [any((c, 1.0) in failed for c in self.W1_ROWS)]
        for seed in range(2, 6):
            rows = run_scenario(replace(sc, cfg=replace(sc.cfg, seed=seed))).rows
            caught.append(any(r.verdict == "fail" for r in rows if r.t == 1.0))
        assert sum(caught) >= 4, caught


class TestSkipPaths:
    def test_supercritical_skips_stationary_runs_sandwiches(self):
        sc = Scenario(name="sup", mech=BranchingMechanism(b=[-0.5], c=[1.0]),
                      cfg=SimConfig(n_samples=3_000, dt=0.01, seed=4),
                      mu=[1.0], nu=[0.25], times=(0.5,),
                      checks=("wasserstein_sandwich", "tv_sandwich", "stationary"))
        report = run_scenario(sc)
        assert report.passed
        by_check = {r.check: r for r in report.rows}
        assert by_check["stationary"].verdict == "skipped"
        assert "beta_star" in by_check["stationary"].reason
        assert by_check["wasserstein_sandwich"].verdict == "pass"
        assert by_check["tv_sandwich"].verdict == "pass"

    def test_no_immigration_limit_is_zero_state(self):
        sc = Scenario(name="noimm", mech=MECH,
                      cfg=SimConfig(n_samples=3_000, dt=0.01, seed=4),
                      mu=[1.0], times=(2.0,), checks=("stationary",))
        report = run_scenario(sc)
        assert report.passed
        row = report.rows[0]
        assert row.check == "stationary_mean"
        assert row.analytic["mean_mass"] == pytest.approx(math.exp(-2.0))
        assert set(row.details) == {"rep1", "rep2", "rep3"}
        assert row.estimate == pytest.approx(np.mean(list(row.details.values())))

    def test_linear_mechanism_skips_tv(self):
        # no diffusion, no jumps: extinction never completes, Vbar blows up
        sc = Scenario(name="lin", mech=BranchingMechanism(b=[1.0], c=[0.0]),
                      cfg=SimConfig(n_samples=1_000, dt=0.01, seed=4),
                      mu=[1.0], nu=[0.5], times=(1.0,),
                      checks=("tv_sandwich", "extinction_atom"))
        report = run_scenario(sc)
        assert report.passed
        for r in report.rows:
            assert r.verdict == "skipped"
            assert "Grey" in r.reason


class TestFailureContainment:
    def test_blow_up_becomes_fail_row(self, monkeypatch):
        # a jump component forces the stepped integrator, whose runaway trap
        # must surface as a recorded failure rather than an exception
        mech = BranchingMechanism(b=[-2.0], c=[0.05],
                                  jumps=((PointMass(u=[1.0], weight=0.5),),))
        monkeypatch.setattr(simulate, "MASS_CEILING", 50.0)
        sc = Scenario(name="boom", mech=mech,
                      cfg=SimConfig(n_samples=500, dt=0.01, seed=4),
                      mu=[30.0], times=(4.0,), checks=("laplace",))
        report = run_scenario(sc)  # must not raise
        assert not report.passed
        assert any("BlowUpError" in r.reason for r in report.rows if r.verdict == "fail")

    @staticmethod
    def d4_scenario_without_histograms(monkeypatch, check: str) -> Scenario:
        def no_histogram(*args, **kwargs):
            raise AssertionError("a refused grid must not be allocated")

        monkeypatch.setattr(np, "histogramdd", no_histogram)
        return Scenario(name="d4", mech=BranchingMechanism(b=[1.0] * 4, c=[1.0] * 4),
                        imm=ImmigrationMechanism(beta=[1.0] * 4),
                        cfg=SimConfig(n_samples=50, dt=0.05, seed=1), mu=[1.0] * 4, times=(0.5,),
                        checks=(check,))

    @pytest.mark.parametrize("check", ["tv_sandwich"])
    def test_histogram_past_the_cell_cap_becomes_fail_row(self, monkeypatch, check):
        # d = 4 at the default 128 bins needs 258^4 cells: the check aborts
        # instead of allocating them
        row, = run_scenario(self.d4_scenario_without_histograms(monkeypatch, check)).rows
        assert (row.verdict, row.claim) == ("fail", "check aborted before producing rows")
        assert row.reason.startswith("ValidationError: ") and "in d = 4" in row.reason

    def test_d4_stationary_check_needs_no_histogram(self, monkeypatch):
        # the stationary TV rows read 2 differ() of the coupling alone, so a
        # d = 4 check runs every row and allocates no grid
        rows = run_scenario(self.d4_scenario_without_histograms(monkeypatch, "stationary")).rows
        assert [r.check for r in rows] == ["stationary_mean", "stationary_laplace",
                                           "stationary_w1_identity", "stationary_tv_bound"]
        assert all(r.verdict in ("pass", "fail") and r.reason == "" for r in rows)


class TestDeterminism:
    def test_same_seed_same_rows(self):
        sc = reference_scenario(cfg=SimConfig(n_samples=2_000, dt=0.02, seed=9),
                                times=(1.0,), checks=("laplace", "wasserstein_sandwich"))
        a, b = run_scenario(sc), run_scenario(sc)
        assert a.rows == b.rows

    def test_check_streams_independent_of_selection(self):
        cfg = SimConfig(n_samples=2_000, dt=0.02, seed=9)
        alone = run_scenario(reference_scenario(cfg=cfg, times=(1.0,), checks=("laplace",)))
        paired = run_scenario(reference_scenario(
            cfg=cfg, times=(1.0,), checks=("extinction_atom", "laplace")))
        laplace_alone = [r for r in alone.rows if r.check == "laplace"]
        laplace_paired = [r for r in paired.rows if r.check == "laplace"]
        assert laplace_alone == laplace_paired
        # the analytic grids do not depend on which checks read them first
        shared = ("tv_sandwich", "extinction_atom", "lipschitz_contraction")
        together = run_scenario(reference_scenario(
            cfg=cfg, times=(1.0, 2.0), checks=("laplace", *shared))).rows
        for check in shared:
            alone = run_scenario(reference_scenario(cfg=cfg, times=(1.0, 2.0), checks=(check,)))
            assert list(alone.rows) == [r for r in together if r.check == check]


def count_envelope_routes(monkeypatch) -> tuple:
    """Record the time of each ladder, the times of each reciprocal solve and
    the time of each scalar root."""
    ladders, reciprocals, roots = [], [], []

    def ladder(mech, t, **kwargs):
        ladders.append(t)
        return vbar_vector(mech, t, **kwargs)

    def reciprocal(mech, times):
        reciprocals.append(tuple(times))
        return reciprocal_envelope(mech, times)

    def root(phi_star, t):
        roots.append(t)
        return vbar_scalar(phi_star, t)

    monkeypatch.setattr(cumulant, "vbar_vector", ladder)
    monkeypatch.setattr(cumulant, "reciprocal_envelope", reciprocal)
    monkeypatch.setattr(cumulant, "vbar_scalar", root)
    return ladders, reciprocals, roots


def count_psi_batches(monkeypatch) -> list:
    """Record each psi batch as the accepted steps of each of its lanes."""
    batches = []
    real = verify._flow_lanes

    def lanes(*args, **kwargs):
        out = real(*args, **kwargs)
        batches.append(out[1])
        return out

    monkeypatch.setattr(verify, "_flow_lanes", lanes)
    return batches


ENVELOPE_CHECKS = ("extinction_atom", "tv_sandwich", "lipschitz_contraction", "stationary")


def small_folded() -> Scenario:
    sc = shipped("ref_d2_folded")
    return replace(sc, cfg=replace(sc.cfg, n_samples=300, seed=3), times=(0.5, 1.0),
                   checks=ENVELOPE_CHECKS)


class TestSharedAnalytics:
    def test_envelope_solved_once_per_time(self, monkeypatch):
        # d = 1: one reciprocal solve serves every time, and the scalar root
        # at each time, which phi_* = phi makes the envelope, checks it
        ladders, reciprocals, roots = count_envelope_routes(monkeypatch)
        sc = reference_scenario(cfg=SimConfig(n_samples=300, dt=0.02, seed=3),
                                times=(0.5, 1.0), checks=ENVELOPE_CHECKS)
        report = run_scenario(sc)
        assert {r.check for r in report.rows} >= {"extinction_atom", "tv_sandwich",
                                                   "lipschitz_contraction", "stationary_tv_bound"}
        assert ladders == []
        assert reciprocals == [(0.5, 1.0)]
        assert roots == [0.5, 1.0]

    def test_two_type_envelope_runs_one_ladder_on_the_last_root(self, monkeypatch):
        # d = 2: phi_* only bounds the envelope, so one ladder checks the
        # last time, capped by the root found there once
        ladders, reciprocals, roots = count_envelope_routes(monkeypatch)
        report = run_scenario(small_folded())
        assert {r.check for r in report.rows} >= {"extinction_atom", "tv_sandwich",
                                                   "lipschitz_contraction", "stationary_tv_bound"}
        assert all(r.verdict != "skipped" for r in report.rows)
        assert ladders == [1.0]
        assert reciprocals == [(0.5, 1.0)]
        assert roots == [0.5, 1.0]

    def test_lipschitz_row_is_the_exact_constant(self):
        sc = replace(shipped("ref_d2_folded"), lambda_probe=[1.0, 0.1])
        an = ScenarioAnalytics(sc)
        rows = verify.check_lipschitz_contraction(sc, [], an)  # draws nothing
        v = an.probe[0]
        assert [r.estimate for r in rows] == [float(x.max()) for x in v]
        assert all(r.verdict == "pass" and r.ci == 0.0 for r in rows)
        assert all(set(r.analytic) == {"bound_moment", "bound_vbar"} for r in rows)
        # the componentwise first-moment clause is live on its own: the
        # second coordinate just above (pi_t lam)_2 fails the row while the
        # sup-norm stays inside both bounds
        mutated = v.copy()
        mutated[:, 1] = [an.pi(t)[1] @ sc.lambda_probe + 1e-6 for t in sc.times]
        an.__dict__["probe"] = (mutated, an.probe[1])
        rows = verify.check_lipschitz_contraction(sc, [], an)
        assert all(r.estimate <= min(r.analytic.values()) for r in rows)
        assert [r.verdict for r in rows] == ["fail"] * len(sc.times)


def shipped(name: str) -> Scenario:
    return parse_scenario(load_document(SCENARIOS / f"{name}.json"))


class TestStationaryBundle:
    @pytest.mark.parametrize("times", [(1.0,), (0.5, 1.0, 2.0, 3.0)])
    def test_one_stationary_batch_per_replicate(self, monkeypatch, times):
        # one batch serves the mean, Laplace, W1 and TV rows at every time
        # and starts the rate pairs
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_stationary(*args)

        monkeypatch.setattr(verify, "sample_stationary", counting)
        sc = reference_scenario(cfg=SimConfig(n_samples=400, dt=0.02, seed=3), times=times,
                                checks=("stationary",))
        rows = run_scenario(sc).rows
        assert len(calls) == REPLICATES
        assert len(rows) == 2 + 2 * len(times) + (2 if len(times) >= 3 else 0)

    @pytest.mark.parametrize("times, imm", [
        ((0.5, 1.0, 2.0, 3.0), IMM),  # the bundle rows and the rate fits
        ((1.0,), IMM),  # too few fit times: the bundle rows only
        ((0.5, 1.0, 2.0, 3.0), None),  # no immigration: the decay row only
    ], ids=["rate-fits", "no-fits", "no-immigration"])
    def test_one_replicate_pass_per_stream_use(self, monkeypatch, times, imm):
        # every bundle row and rate series is reduced in its replicate's
        # thread, in one pass
        maps, per_replicate = [], verify._per_replicate

        def counting(fn, replicates):
            maps.append(fn)
            return per_replicate(fn, replicates)

        monkeypatch.setattr(verify, "_per_replicate", counting)
        sc = reference_scenario(cfg=SimConfig(n_samples=400, dt=0.02, seed=3), times=times,
                                imm=imm, checks=("stationary",))
        rows = run_scenario(sc).rows
        assert len(maps) == 1
        assert all(r.verdict in ("pass", "fail") for r in rows)
        assert not any(r.claim == "check aborted before producing rows" for r in rows)

    def test_rate_pairs_start_from_the_bundle_batch(self, monkeypatch):
        # each replicate draws S, couples (0, S) along the times and then
        # (mu, S) along the fit times, both without immigration, on one stream
        usable_cpus(monkeypatch, 1)  # replicates in order, on one thread
        calls = []

        def stationary(*args):
            x = sample_stationary(*args)
            calls.append(("stationary", x))
            return x

        def pairs(mu, nu, mech, times, cfg, rng, **kwargs):
            calls.append(("pairs", mu, nu, tuple(times), kwargs))
            return coupling.couple_jordan_pieces(mu, nu, mech, times, cfg, rng, **kwargs)

        monkeypatch.setattr(verify, "sample_stationary", stationary)
        monkeypatch.setattr(verify, "couple_jordan_pieces", pairs)
        sc = reference_scenario(cfg=SimConfig(n_samples=400, dt=0.02, seed=3),
                                times=(0.5, 1.0, 2.0, 3.0), checks=("stationary",))
        rows = run_scenario(sc).rows
        assert [c[0] for c in calls] == ["stationary", "pairs", "pairs"] * REPLICATES
        starts = (np.zeros((sc.cfg.n_samples, 1)), np.tile(sc.mu, (sc.cfg.n_samples, 1)))
        for (_, x), *drawn in zip(calls[::3], calls[1::3], calls[2::3]):
            for (_, mu, nu, times, kwargs), start, grid in zip(drawn, starts,
                                                               (sc.times, (1.0, 2.0, 3.0))):
                assert np.array_equal(nu, x)
                assert np.array_equal(mu, start)
                assert times == grid
                assert kwargs == {}
        assert [r.check for r in rows[-2:]] == ["stationary_w1_rate", "stationary_tv_rate"]

    def test_stationary_replicate_draws_no_influx(self, monkeypatch):
        # cost guard, counted: per replicate one stationary batch and two
        # couplings, and no immigration path outside the stationary sampler
        usable_cpus(monkeypatch, 1)  # one thread counts
        calls, with_imm = Counter(), []
        for module, name in ((verify, "sample_stationary"), (verify, "couple_jordan_pieces"),
                             (verify, "sample_path"), (coupling, "sample_path")):
            def counting(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls[_name] += 1
                if kwargs.get("imm") is not None:
                    with_imm.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        sc = reference_scenario(cfg=SimConfig(n_samples=400, dt=0.02, seed=3),
                                times=(0.5, 1.0, 2.0, 3.0), checks=("stationary",))
        run_scenario(sc)
        # each coupling draws its positive and negative paths, and no meet path
        assert calls == {"sample_stationary": REPLICATES, "couple_jordan_pieces": 2 * REPLICATES,
                         "sample_path": 4 * REPLICATES}
        assert with_imm == []

    def test_w1_route_disagreement_names_both_values(self, monkeypatch):
        # a tail integral 1e-6 off <m_infty, pi_t 1> fails each identity row
        # and its reason gives both routes' values
        real = verify.tail_immigrant_mass
        monkeypatch.setattr(verify, "tail_immigrant_mass", lambda *args: real(*args) + 1e-6)
        sc = reference_scenario(cfg=SimConfig(n_samples=400, dt=0.02, seed=3),
                                times=(0.5, 1.0), checks=("stationary",))
        rows = [r for r in run_scenario(sc).rows if r.check == "stationary_w1_identity"]
        assert [r.t for r in rows] == [0.5, 1.0]
        for r in rows:
            w1, by_tail = r.analytic["w1"], r.analytic["by_tail_integral"]
            assert by_tail == pytest.approx(w1 + 1e-6, abs=1e-12)
            assert r.verdict == "fail"
            assert r.reason == (f"W1 routes disagree at t={r.t:g}: "
                                f"<m_infty, pi_t 1> {w1!r}, tail integral {by_tail!r}")

    @pytest.mark.parametrize("name", ["ref_d1_quadratic", "ref_d2_folded"])
    def test_rate_rows_catch_a_faster_rate_coupling(self, monkeypatch, name):
        # b x 1.25 in the rate coupling alone: both rate rows fail at the
        # shipped seed and n, and every other row keeps its bits
        sc = replace(shipped(name), checks=("stationary",))
        clean = run_scenario(sc).rows
        assert all(r.verdict == "pass" for r in clean)

        def faster(mu, nu, mech, *args, **kwargs):
            if np.any(mu):  # the rate pair (mu, S); the bundle pair (0, S) is untouched
                mech = replace(mech, b=1.25 * mech.b)
            return coupling.couple_jordan_pieces(mu, nu, mech, *args, **kwargs)

        monkeypatch.setattr(verify, "couple_jordan_pieces", faster)
        rows = run_scenario(sc).rows
        rate_checks = ["stationary_w1_rate", "stationary_tv_rate"]
        assert [(r.check, r.verdict) for r in rows[-2:]] == [(c, "fail") for c in rate_checks]
        assert rows[:-2] == clean[:-2]
        assert all(r.estimate < -1.15 * r.analytic["rate"] for r in rows[-2:])


class TestTransitionPaths:
    # (check, {(drawing function, with imm): calls per replicate}); the times
    # argument of each sits at the given position
    GRID_ARG = {"sample_path": 2, "couple_jordan_pieces": 3}
    DRAWS = [("laplace", {("sample_path", True): 1}),
             ("extinction_atom", {("sample_path", False): 1}),
             ("wasserstein_sandwich", {("couple_jordan_pieces", False): 2}),
             ("tv_sandwich", {("sample_path", False): 2})]

    @pytest.mark.parametrize("times", [(1.0,), (0.5, 1.0, 2.0, 3.0)])
    def test_one_path_per_replicate(self, monkeypatch, times):
        # every transition check draws one path, or one coupling, per
        # replicate over all the times and reads each time off it
        calls = []
        for name, pos in self.GRID_ARG.items():
            def counting(*args, _name=name, _pos=pos, _real=getattr(verify, name), **kwargs):
                calls.append((_name, kwargs.get("imm") is not None, tuple(args[_pos])))
                return _real(*args, **kwargs)

            monkeypatch.setattr(verify, name, counting)
        stable = BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))
        sc = reference_scenario(mech=stable, cfg=SimConfig(n_samples=200, dt=0.05, seed=3),
                                times=times)
        an = ScenarioAnalytics(sc)
        for check, per_replicate in self.DRAWS:
            calls.clear()
            rows = CHECKS[check](sc, [np.random.default_rng(r) for r in range(REPLICATES)], an)
            assert sorted(calls) == sorted((*draw, times) for draw, k in per_replicate.items()
                                           for _ in range(k * REPLICATES)), check
            assert len(rows) == len(times) * (2 if check == "wasserstein_sandwich" else 1)
        # the exact route of tv_sandwich draws nothing
        calls.clear()
        quad = reference_scenario(times=times)
        CHECKS["tv_sandwich"](quad, [np.random.default_rng(0)], ScenarioAnalytics(quad))
        assert calls == []

    def test_only_laplace_and_the_stationary_sampler_draw_immigration(self, monkeypatch):
        # cost guard, counted: on a stepped scenario with immigration, a
        # whole run passes imm to sample_path once per replicate from
        # check_laplace and once from sample_stationary, and from nowhere
        # else; every coupling shares its influx, which cancels
        usable_cpus(monkeypatch, 1)  # one thread: the running check made each call
        running, callers = [], Counter()
        for name, check in list(CHECKS.items()):
            def entering(*args, _name=name, _check=check):
                running.append(_name)
                return _check(*args)

            monkeypatch.setitem(CHECKS, name, entering)
        for module in (verify, coupling, simulate):
            def counting(*args, _module=module.__name__, _real=module.sample_path, **kwargs):
                if kwargs.get("imm") is not None:
                    callers[running[-1], _module] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "sample_path", counting)
        stable = BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))
        sc = reference_scenario(mech=stable, cfg=SimConfig(n_samples=200, dt=0.05, seed=3),
                                times=(0.5, 1.0, 2.0, 3.0))
        run_scenario(sc)
        assert running == list(CHECKS)
        assert callers == {("laplace", "cbilab.verify"): REPLICATES,
                           ("stationary", "cbilab.simulate"): REPLICATES}

    def test_no_check_draws_a_meet_path(self, monkeypatch):
        # cost guard, counted: every coupling of a whole run draws its
        # positive and then its negative piece, and never a path from its
        # meet, which is a summand of both legs and cancels from all a row reads
        usable_cpus(monkeypatch, 1)  # one thread: the calls come in order
        pieces, starts = [], []
        real_decompose, real_sample = coupling.jordan_decompose, coupling.sample_path

        def decompose(mu, nu):
            meet, pos, neg = real_decompose(mu, nu)
            pieces.append((meet, pos, neg))
            return meet, pos, neg

        def sample(x0, *args, **kwargs):
            starts.append(x0)
            return real_sample(x0, *args, **kwargs)

        monkeypatch.setattr(coupling, "jordan_decompose", decompose)
        monkeypatch.setattr(coupling, "sample_path", sample)
        stable = BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))
        sc = reference_scenario(mech=stable, cfg=SimConfig(n_samples=200, dt=0.05, seed=3),
                                times=(0.5, 1.0, 2.0, 3.0))
        run_scenario(sc)
        # two W1 variants and the stationary (0, S) and (mu, S) pairs
        assert len(pieces) == 4 * REPLICATES
        assert len(starts) == 2 * len(pieces)
        for (meet, pos, neg), drawn in zip(pieces, zip(starts[::2], starts[1::2])):
            assert drawn[0] is pos and drawn[1] is neg
            assert not any(x is meet for x in drawn)


def usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestConcurrentReplicates:
    STABLE = BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))

    def small_scenario(self, name: str, monkeypatch) -> Scenario:
        if name == "folded":  # d = 2 with drift; stationary bundles and rate fits
            return replace(shipped("ref_d2_folded"), checks=("stationary",),
                           cfg=SimConfig(n_samples=300, dt=0.05, seed=2))
        if name == "quadratic":  # every check on the exact route, stationary with immigration
            return replace(shipped("ref_d1_quadratic"), cfg=SimConfig(n_samples=500, seed=1))
        # every check on the stepped stable route; at a mass ceiling of 60
        # some checks abort on a blow-up in one of their replicates
        if name == "stable-blow-up":
            monkeypatch.setattr(simulate, "MASS_CEILING", 60.0)
        return reference_scenario(mech=self.STABLE, times=(0.5, 1.0, 2.0, 3.0),
                                  cfg=SimConfig(n_samples=200, dt=0.05, seed=3))

    @pytest.mark.parametrize("name", ["stable", "stable-blow-up", "folded", "quadratic"])
    def test_rows_do_not_depend_on_the_cpu_count(self, monkeypatch, name):
        sc = self.small_scenario(name, monkeypatch)
        threads = threading.active_count()
        rows = {}
        for cpus in (1, 3):
            usable_cpus(monkeypatch, cpus)
            rows[cpus] = run_scenario(sc).rows
            assert threading.active_count() == threads
        assert rows[1] == rows[3]
        aborted = [r for r in rows[3] if r.claim == "check aborted before producing rows"]
        assert bool(aborted) == (name == "stable-blow-up")
        assert all(r.reason.startswith("BlowUpError: ") for r in aborted)

    @pytest.mark.parametrize("per_replicate", [
        [[(1.0, 0.1, True)]] * REPLICATES,  # one tuple too few
        [[(1.0, 0.1, True)] * 3] * REPLICATES,  # one tuple too many
        [[(1.0, 0.1, True)] * 2, [(1.0, 0.1, True)], [(1.0, 0.1, True)] * 2],  # unequal replicates
    ], ids=["too-few", "too-many", "unequal"])
    def test_a_lost_row_raises(self, per_replicate):
        # two row templates: a row with no replicate tuple is never dropped
        templates = [("laplace", "claim", t, {"target": 2.0}, verify._reps) for t in (0.5, 1.0)]
        with pytest.raises(ValueError):
            verify._replicate_rows(templates, per_replicate)

    def test_first_error_in_replicate_order_is_raised(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        second_failed = threading.Event()

        def draw(r):
            if r == 0:  # fails after replicate 1 has failed
                assert second_failed.wait(timeout=10)
                raise BlowUpError("replicate 0")
            if r == 1:
                second_failed.set()
                raise BlowUpError("replicate 1")
            return r

        threads = threading.active_count()
        with pytest.raises(BlowUpError, match="replicate 0"):
            verify._per_replicate(draw, range(3))
        assert threading.active_count() == threads

    def test_one_cpu_runs_the_replicates_on_the_calling_thread(self, monkeypatch):
        usable_cpus(monkeypatch, 1)
        assert verify._per_replicate(lambda r: threading.get_ident(), range(3)) == \
            [threading.get_ident()] * 3

    def test_worker_processes_share_the_cpus(self, monkeypatch):
        monkeypatch.setattr(verify, "_processes", 1)
        usable_cpus(monkeypatch, 4)
        assert verify._replicate_threads(REPLICATES) == 3
        verify.share_cpus(2)  # a `verify --workers 2` pool process
        assert verify._replicate_threads(REPLICATES) == 2
        verify.share_cpus(3)
        assert verify._replicate_threads(REPLICATES) == 1
        verify.share_cpus(8)
        assert verify._replicate_threads(REPLICATES) == 1
        usable_cpus(monkeypatch, 1)
        verify.share_cpus(1)
        assert verify._replicate_threads(REPLICATES) == 1


# the checks gated in one run per stepped reference scenario: folded whole;
# stable not whole, since its stationary_w1_rate row fails at the shipped seed
SHIPPED_GATED = {"ref_d2_folded": None, "ref_d1_stable": ("laplace", "extinction_atom", "tv_sandwich")}


@pytest.fixture(scope="module")
def shipped_rows():
    """The rows of a stepped reference scenario as shipped, restricted to its
    gated checks, by name; each scenario runs once per module."""
    runs = {}

    def rows(name: str) -> tuple:
        if name not in runs:
            sc = shipped(name)
            runs[name] = run_scenario(replace(sc, checks=SHIPPED_GATED[name] or sc.checks)).rows
        return runs[name]

    return rows


@pytest.mark.parametrize("name, check, seed, n, n_rows", [
    pytest.param("ref_d2_folded", "stationary", 2, 8000, 12, id="ref_d2_folded-stationary"),
    pytest.param("ref_d1_stable", "laplace", 3, 6000, 3, id="ref_d1_stable-laplace"),
    pytest.param("ref_d2_folded", "laplace", 2, 8000, 4, id="ref_d2_folded-laplace"),
    pytest.param("ref_d2_folded", "wasserstein_sandwich", 2, 8000, 8,
                 id="ref_d2_folded-wasserstein_sandwich"),
    pytest.param("ref_d2_folded", "extinction_atom", 2, 8000, 4, id="ref_d2_folded-extinction_atom"),
    pytest.param("ref_d2_folded", "tv_sandwich", 2, 8000, 4, id="ref_d2_folded-tv_sandwich"),
    pytest.param("ref_d2_folded", "lipschitz_contraction", 2, 8000, 4,
                 id="ref_d2_folded-lipschitz_contraction"),
    pytest.param("ref_d1_stable", "extinction_atom", 3, 6000, 3, id="ref_d1_stable-extinction_atom"),
    pytest.param("ref_d1_stable", "tv_sandwich", 3, 6000, 3, id="ref_d1_stable-tv_sandwich"),
])
def test_shipped_check_rows_all_pass(shipped_rows, name, check, seed, n, n_rows):
    # a check of a stepped reference scenario as shipped: its own seed and n.
    # Its rows are the ones whose check name it prefixes (stationary_*,
    # wasserstein_sandwich_imm) in one run of the scenario's gated checks:
    # a check's rows do not depend on which other checks run
    sc = shipped(name)
    assert (sc.cfg.seed, sc.cfg.n_samples) == (seed, n)
    rows = [r for r in shipped_rows(name) if r.check.startswith(check)]
    assert len(rows) == n_rows
    assert all(r.verdict == "pass" for r in rows), [(r.check, r.t) for r in rows
                                                    if r.verdict != "pass"]


def test_shipped_folded_document_passes_whole(shipped_rows):
    sc = shipped("ref_d2_folded")
    assert (sc.cfg.seed, sc.cfg.n_samples) == (2, 8000)
    rows = shipped_rows("ref_d2_folded")
    assert len(rows) == 36
    assert all(r.verdict == "pass" for r in rows), [(r.check, r.t) for r in rows
                                                    if r.verdict != "pass"]


# the documents test_rows_keep_their_bits runs: the stationary bundle on the
# exact (quadratic) and the stepped (folded) route, the stable Jordan
# couplings and the sampled TV route
BITS_RUNS = [("ref_d1_quadratic", None), ("ref_d1_stable", ("wasserstein_sandwich",)),
             ("ref_d2_folded", ("stationary", "tv_sandwich"))]
BITS_IDS = ["ref_d1_quadratic", "ref_d1_stable-wasserstein_sandwich", "ref_d2_folded-stationary-tv_sandwich"]


@functools.cache
def rows_at_n300(name: str, checks) -> tuple:
    """A shipped document's rows (as_dict) at its seed and n = 300."""
    sc = shipped(name)
    sc = replace(sc, cfg=replace(sc.cfg, n_samples=300), checks=checks or sc.checks)
    return tuple(r.as_dict() for r in run_scenario(sc).rows)


@pytest.mark.parametrize("name, checks, digest", [
    (*BITS_RUNS[0], "2adba71373c18469f362629bff3256aaf965effb0dac35718043516e6b73cd13"),
    (*BITS_RUNS[1], "0163faf7217b4ae49b200fdb7b08c3e2e1947674dc3c0884e8f6c6cc41d66573"),
    (*BITS_RUNS[2], "e67dc8f7098b388ff7f9864190a625cf3c2f327f6f36af713b7233b6ba0f52ef"),
], ids=BITS_IDS)
def test_rows_keep_their_bits(name, checks, digest):
    # every row's bits at the shipped seed and n = 300.  A change that moves
    # a random stream, a pass rule's float expression or an analytic value
    # must update the digest and say so.
    rows = json.dumps(list(rows_at_n300(name, checks)))
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, checks, digest", [
    (*BITS_RUNS[0], "4fef02cee7837f265a1fec844fa3d58e055c055c21c186a83e42e58f0db1ce27"),
    (*BITS_RUNS[1], "c981ac5dc72ce1e616a6f4f3a67b9045e8e4f7d9d9074d90265bb09f1af8b4fb"),
    (*BITS_RUNS[2], "f7e30594f4250357424ded31fdad1095555e9e5882a62ab64b8ec973109bc1da"),
], ids=BITS_IDS)
def test_sampled_columns_keep_their_bits(name, checks, digest):
    # the same rows without their analytic side: a change that moves no
    # random stream and no pass rule keeps this digest even where an
    # analytic value moves in its last digits
    rows = json.dumps([{k: v for k, v in row.items() if k != "analytic"}
                       for row in rows_at_n300(name, checks)])
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.fixture(scope="module", params=["ref_d1_quadratic", "ref_d1_stable", "ref_d2_folded"])
def grids(request):
    """A shipped scenario's analytics, and the per-t envelope of each time."""
    sc = shipped(request.param)
    return sc, ScenarioAnalytics(sc), [vbar_vector(sc.mech, t) for t in sc.times]


class TestAnalyticGrids:
    def test_envelope_grid_matches_per_time_ladders(self, grids):
        sc, an, per_t = grids
        vbars, reason = an.envelope
        assert reason == ""
        np.testing.assert_allclose(vbars, per_t, rtol=0, atol=1e-7)
        if sc.name == "ref_d1_quadratic":  # b = c = 1: Vbar_t = 1/(e^t - 1)
            assert sc.times == (0.5, 1.0, 2.0, 3.0, 4.0)
            np.testing.assert_allclose(vbars[:, 0], 1.0 / np.expm1(sc.times), rtol=1e-11, atol=0)

    def test_lag_exponents_match_per_time_solves(self, grids):
        sc, an, per_t = grids
        tv, reason = an.stationary_tv
        assert reason == ""
        for (exponent, tail), vbar, lag in zip(tv, per_t, an.lags):
            ref, ref_tail = _psi_integrals(sc.mech, sc.imm, [vbar], [0.0])[0][0]
            assert abs(exponent - ref) <= ref_tail + 1e-8
            # the batch runs lags[-1] - lag past the one-lane solve's horizon
            assert tail == pytest.approx(ref_tail * math.exp(-beta_star(sc.mech) * (an.lags[-1] - lag)),
                                         rel=1e-6)

    def test_psi_lanes_match_one_lane_solves(self, grids, monkeypatch):
        # the Laplace and TV lanes of one batch, each with the bits and the
        # step counts of its own solve; the batch lands on the lags and the
        # horizon end only
        sc, an, _ = grids
        lams = [sc.lambda_probe, an.envelope[0][0]]
        batches = []
        real = verify._flow_lanes

        def lanes(*args):
            out = real(*args)
            batches.append((args, out[0], out[1]))
            return out

        monkeypatch.setattr(verify, "_flow_lanes", lanes)
        both = _psi_integrals(sc.mech, sc.imm, lams, an.lags)
        ((_, starts, t_end, tol, grid, imm), vals, n_acc), = batches
        assert np.array_equal(starts, lams) and tol == 1e-10 and imm is sc.imm
        assert grid.tolist() == [*an.lags, t_end]
        for lane, lam in enumerate(lams):
            alone = solve_cumulant(sc.mech, lam, t_end, tol, t_eval=grid, imm=imm)
            assert np.array_equal(vals[lane, :, :sc.mech.d], alone.v_values)
            assert np.array_equal(vals[lane, :, sc.mech.d], alone.imm_integral)
            assert real(sc.mech, np.array([lam]), t_end, tol, grid, imm)[1] == [n_acc[lane]]
            assert n_acc[lane] == alone.n_steps
        assert (an.stationary_laplace, an.stationary_tv) == (both[0][0], (both[1], ""))

    def test_quadratic_exponents_match_the_closed_form_at_every_lag(self):
        # b = c = 1, beta = 2: U(lam) = 2 log(1 + lam), and the TV lane lands
        # on Vbar_t = 1/(e^t - 1) at each lag, so its exponent is
        # U(Vbar_t) = -2 log(1 - e^{-t}); the Laplace lane at lam = 1 gives 2 log 2
        sc = shipped("ref_d1_quadratic")
        an = ScenarioAnalytics(sc)
        assert sc.times == (0.5, 1.0, 2.0, 3.0, 4.0) and sc.lambda_probe.tolist() == [1.0]
        exponent, tail = an.stationary_laplace
        assert abs(exponent - 2.0 * math.log(2.0)) <= tail + 1e-9
        tv, reason = an.stationary_tv
        assert reason == "" and len(tv) == len(sc.times)
        for t, (exponent, tail) in zip(sc.times, tv):
            assert abs(exponent + 2.0 * math.log(-math.expm1(-t))) <= tail + 1e-9, t

    def test_one_solve_per_grid_on_the_quadratic_scenario(self, monkeypatch):
        ladders, reciprocals, roots = count_envelope_routes(monkeypatch)
        batches = count_psi_batches(monkeypatch)
        solves = []

        def solve(*args, **kwargs):
            solves.append(args[2])
            return solve_cumulant(*args, **kwargs)

        monkeypatch.setattr(verify, "solve_cumulant", solve)
        assert run_scenario(shipped("ref_d1_quadratic")).passed
        # the envelope: one reciprocal solve, checked by the scalar root at every time
        assert ladders == []
        assert reciprocals == [(0.5, 1.0, 2.0, 3.0, 4.0)]
        assert roots == [0.5, 1.0, 2.0, 3.0, 4.0]
        # the probe flow, and one psi batch of the stationary Laplace and TV lanes
        assert len(solves) == 1
        assert [len(lanes) for lanes in batches] == [2]

    @pytest.mark.parametrize("name, ladders", [("ref_d1_quadratic", []), ("ref_d1_stable", []),
                                               ("ref_d2_folded", [3.0]), ("negative_control", [])])
    def test_serial_solves_of_each_shipped_scenario(self, monkeypatch, name, ladders):
        # the cost guard of the analytic side, counted rather than timed: a
        # ladder only where phi_* does not give the envelope, and one psi
        # batch per stationary check, whose lanes each take fewer than 1,000
        # accepted steps (398-527 on the shipped documents at FLOW_TOL).  A
        # small n keeps the sampling cheap; it moves no analytic solve.
        routes = count_envelope_routes(monkeypatch)
        batches = count_psi_batches(monkeypatch)
        sc = shipped(name)
        run_scenario(replace(sc, cfg=replace(sc.cfg, n_samples=60)))
        assert routes[0] == ladders
        assert [len(lanes) for lanes in batches] == ([2] if "stationary" in sc.checks else [])
        assert all(steps < 1000 for lanes in batches for steps in lanes), batches

    def test_disagreeing_routes_skip_the_envelope_rows(self, monkeypatch):
        sc = reference_scenario(cfg=SimConfig(n_samples=300, dt=0.02, seed=3), times=(0.5, 1.0),
                                checks=ENVELOPE_CHECKS)

        def dropped_first(mech, times):  # below the root at a time before the last
            out = reciprocal_envelope(mech, times)
            out[0] -= 1e-6
            return out

        # d = 1: a 1e-6 shift of either route, in either direction
        shifts = [("vbar_scalar", lambda phi_star, t: vbar_scalar(phi_star, t) + 1e-6),
                  ("reciprocal_envelope", lambda mech, times: reciprocal_envelope(mech, times) + 1e-6),
                  ("reciprocal_envelope", dropped_first)]
        for route, shifted in shifts:
            with monkeypatch.context() as patch:
                patch.setattr(cumulant, route, shifted)
                report = run_scenario(sc)
            assert_envelope_rows_skipped(report, sc, ("reciprocal flow", "scalar root"))

    def test_disagreeing_ladder_skips_the_envelope_rows(self, monkeypatch):
        # d = 2: a 1e-6 shift of the ladder
        sc = small_folded()
        monkeypatch.setattr(cumulant, "vbar_vector",
                            lambda mech, t, **kwargs: vbar_vector(mech, t, **kwargs) + 1e-6)
        assert_envelope_rows_skipped(run_scenario(sc), sc, ("reciprocal flow", "ladder"))


def assert_envelope_rows_skipped(report, sc, routes):
    """Every envelope row skipped with a reason naming both routes; the
    Lipschitz rows keep their moment bound and nothing aborts."""
    skipped = [r for r in report.rows if r.check in {"tv_sandwich", "extinction_atom",
                                                     "stationary_tv_bound"}]
    assert len(skipped) == 3 * len(sc.times)
    for r in skipped:
        assert r.verdict == "skipped"
        assert all(route in r.reason for route in routes), r.reason
    lipschitz = [r for r in report.rows if r.check == "lipschitz_contraction"]
    assert len(lipschitz) == len(sc.times)
    assert all(set(r.analytic) == {"bound_moment"} for r in lipschitz)
    assert not any(r.claim == "check aborted before producing rows" for r in report.rows)


def perturb_dop853_route(monkeypatch, start: float) -> None:
    """Scale the int psi column of the DOP853 route on the psi lane that starts at start."""
    real = verify.solve_ivp

    def solve(fun, t_span, y0, **kwargs):
        out = real(fun, t_span, y0, **kwargs)
        if y0[0] == start:
            out.y[-1] *= 1.001
        return out

    monkeypatch.setattr(verify, "solve_ivp", solve)


class TestStationaryExponent:
    def test_closed_form_gamma_laplace(self):
        # b=c=1, beta=2: the limit law is Gamma(2, 1), so the Laplace value
        # at lam is (1+lam)^(-2) and the exponent is 2 log(1+lam)
        for lam in (0.5, 1.0, 2.0):
            exponent, tail = _psi_integrals(MECH, IMM, [[lam]], [0.0])[0][0]
            assert exponent == pytest.approx(2.0 * math.log1p(lam), abs=1e-8)
            assert tail < 1e-8

    def test_refuses_supercritical(self):
        with pytest.raises(ValidationError):
            _psi_integrals(BranchingMechanism(b=[-1.0], c=[1.0]), IMM, [[1.0]], [0.0])

    def test_tv_lane_failure_skips_only_the_tv_rows(self, monkeypatch):
        sc = reference_scenario(cfg=SimConfig(n_samples=300, dt=0.02, seed=3), times=(0.5, 1.0),
                                checks=("stationary",))
        clean = run_scenario(sc).rows
        perturb_dop853_route(monkeypatch, ScenarioAnalytics(sc).envelope[0][0, 0])  # Vbar_0.5
        rows = run_scenario(sc).rows
        assert [r for r in rows if r.check != "stationary_tv_bound"] == \
            [r for r in clean if r.check != "stationary_tv_bound"]
        tv = [r for r in rows if r.check == "stationary_tv_bound"]
        assert [r.t for r in tv] == list(sc.times)
        for r in tv:
            assert r.verdict == "skipped"
            assert r.reason.startswith("stationary exponent routes disagree past lag 0: stepper ")

    def test_laplace_lane_failure_aborts_the_check(self, monkeypatch):
        sc = reference_scenario(cfg=SimConfig(n_samples=300, dt=0.02, seed=3), times=(0.5, 1.0),
                                checks=("stationary",))
        perturb_dop853_route(monkeypatch, 1.0)  # lambda_probe
        row, = run_scenario(sc).rows
        assert (row.check, row.claim, row.verdict) == ("stationary", "check aborted before producing rows",
                                                       "fail")
        assert row.reason.startswith("NumericError: stationary exponent routes disagree past lag 0: stepper ")

    def test_routes_are_independent_of_the_stepper(self, monkeypatch):
        # a 0.1% fault in the stepper's phi moves the Laplace exponent by about
        # 1e-3 (1.38491 against 2 log 2 = 1.38629), far past the route gap;
        # the DOP853 route reads phi from mechanism, so it does not share the fault
        sc = shipped("ref_d1_quadratic")
        sc = replace(sc, cfg=replace(sc.cfg, n_samples=60), checks=("stationary",))
        real = cumulant.eval_phi
        monkeypatch.setattr(cumulant, "eval_phi", lambda mech, lam: real(mech, lam) * 1.001)
        row, = run_scenario(sc).rows
        assert (row.check, row.claim, row.verdict) == ("stationary", "check aborted before producing rows",
                                                       "fail")
        assert row.reason.startswith("NumericError: stationary exponent routes disagree past lag 0: stepper ")
        assert "DOP853" in row.reason


class TestReportSerialization:
    def test_json_roundtrip(self, small_report, written_report):
        doc, out = written_report
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["scenario"] == "ref"
        assert report["metadata"]["scenario_document"] == doc
        assert report["rows"] == [row.as_dict() for row in small_report.rows]

    def test_csv_shape(self, small_report, written_report):
        _, out = written_report
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "check,t,verdict,estimate,ci,analytic,details,reason,claim"
        assert len(lines) == 1 + len(small_report.rows)
        assert all(line.count(",") == lines[0].count(",") for line in lines[1:])
        for line, row in zip(lines[1:], small_report.rows):
            check, t, verdict, estimate = line.split(",")[:4]
            assert (check, verdict) == (row.check, row.verdict)
            assert float(t) == row.t
            assert float(estimate) == pytest.approx(row.estimate, rel=1e-11)

    def test_summary_has_one_line_per_row_plus_total(self, small_report):
        lines = small_report.summary().split("\n")
        assert len(lines) == len(small_report.rows) + 1
        assert lines[-1].startswith("total:")

    def test_non_finite_numbers_serialise_as_null(self, tmp_path):
        row = CheckRow(check="laplace", claim="c", t=1.0, estimate=float("nan"),
                       ci=float("inf"), analytic={"target": 0.5, "bad": -float("inf")},
                       details={"rep1": float("nan")})
        report = VerificationReport(scenario="nan", rows=(row,), metadata={})

        def refuse(name):
            raise ValueError(name)

        doc = json.loads(report.to_json(), parse_constant=refuse)
        out = doc["rows"][0]
        assert out["estimate"] is None and out["ci"] is None
        assert out["analytic"] == {"target": 0.5, "bad": None}
        assert out["details"] == {"rep1": None}

    def test_counts(self, small_report):
        c = small_report.counts()
        assert c["pass"] + c["fail"] + c["skipped"] == len(small_report.rows)
