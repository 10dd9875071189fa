"""Acceptance gate: every advertised guarantee checked at its stated tolerance.

Each test exercises one numbered guarantee end to end and reports a single
PASS/FAIL line in the terminal summary (see conftest).  The tolerances here
are contracts, not tuning knobs: a red line means the library no longer
delivers what the README promises.  Seeds are fixed so the gate is
deterministic; statistical tolerances (4 sigma, 99% CI) leave them room.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cbilab.cli import load_document, main, parse_scenario
from cbilab.coupling import (couple_cbi_to_stationary, couple_stationary,
                             couple_transitions)
from cbilab.cumulant import closed_form_quadratic, moment_semigroup, solve_cumulant
from cbilab.distance import (_w1_assignment, tv_empirical, tv_exact_quadratic,
                             w1_1d_quantile)
from cbilab.mechanism import (BranchingMechanism, ImmigrationMechanism,
                              beta_star, dominating_mechanism)
from cbilab.simulate import (SimConfig, sample_cbi_transition,
                             sample_immigration, sample_stationary,
                             sample_transition)
from conftest import record_criterion

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

Z99 = 2.5758293035489004

# The d=1 quadratic reference fixture: phi(z) = z + z^2, immigration beta = 2.
# Everything about it is closed form: v(t,l) = l e^{-t} / (1 + l(1 - e^{-t})),
# N_t = Gamma(2, 1 - e^{-t}), stationary law Gamma(2, 1), mean mass 2.
MECH1 = BranchingMechanism(b=[1.0], c=[1.0])
IMM1 = ImmigrationMechanism(beta=[2.0])


@contextmanager
def criterion(num: int, description: str):
    """Record one summary line per guarantee; failures still fail the test."""
    try:
        yield
    except BaseException:
        record_criterion(num, description, False)
        raise
    record_criterion(num, description, True)


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((1105, tag)))


def _cfg(n: int, dt: float = 0.01, seed: int = 0) -> SimConfig:
    return SimConfig(n_samples=n, dt=dt, seed=seed)


def test_cumulant_matches_closed_form():
    with criterion(1, "cumulant flow matches the scalar quadratic closed form (rel <= 1e-8)"):
        ts = np.concatenate([[0.01, 0.05], np.linspace(0.25, 5.0, 20)])
        worst = 0.0
        for b, c in [(1.0, 1.0), (0.0, 1.0), (2.0, 0.5)]:
            mech = BranchingMechanism(b=[b], c=[c])
            for lam in (0.1, 1.0, 10.0):
                path = solve_cumulant(mech, [lam], 5.0, t_eval=ts)
                for t in ts:
                    k = int(np.searchsorted(path.t_grid, t))
                    assert path.t_grid[k] == pytest.approx(t, abs=1e-12)
                    exact = closed_form_quadratic(b, c, lam, float(t))
                    worst = max(worst, abs(float(path.v_values[k, 0]) - exact) / exact)
        assert worst <= 1e-8


def test_sampled_laplace_matches_exponent():
    with criterion(2, "sampled Laplace transforms match the cumulant exponent (4 sigma, n=1e5)"):
        for idx, name in enumerate(
                ("ref_d1_quadratic", "ref_d2_folded", "ref_d1_stable")):
            sc = parse_scenario(load_document(SCENARIOS / f"{name}.json"))
            cfg = SimConfig(n_samples=100_000, dt=sc.cfg.dt,
                            jump_threshold=sc.cfg.jump_threshold, seed=0)
            rng = _rng(20 + idx)
            for t in (0.5, 1.0, 2.0):
                x = sample_cbi_transition(sc.mu, sc.imm, sc.mech, t, cfg, rng)
                for scale in (0.5, 1.0):
                    lam = scale * np.ones(sc.mech.d)
                    path = solve_cumulant(sc.mech, lam, t, imm=sc.imm)
                    exponent = float(sc.mu @ path.final) + float(path.imm_integral[-1])
                    target = math.exp(-exponent)
                    vals = np.exp(-(x @ lam))
                    emp = float(vals.mean())
                    se = float(vals.std() / math.sqrt(len(vals)))
                    assert abs(emp - target) <= 4.0 * se, (name, t, scale)


def test_extinction_atom_mass():
    with criterion(3, "extinction atom P(X_t = 0) matches exp(-<mu, vbar_t>) (4 sigma binomial)"):
        n = 100_000
        t = math.log(2.0)
        x = sample_transition([2.0], MECH1, t, _cfg(n), _rng(30))
        # vbar_t = b / (c (e^{bt} - 1)) = 1 at t = ln 2, so the atom is e^{-2}.
        target = math.exp(-2.0)
        se = math.sqrt(target * (1.0 - target) / n)
        p_hat = float(np.mean(x[:, 0] == 0.0))
        assert abs(p_hat - target) <= 4.0 * se


def test_wasserstein_sandwich():
    with criterion(4, "coupling cost hits (mu-nu) e^{-t} when ordered, stays sandwiched otherwise"):
        rng = _rng(40)
        for t in (0.25, math.log(2.0), 2.0):
            pair = couple_transitions([2.0], [1.0], MECH1, t, _cfg(100_000), rng)
            target = math.exp(-t)
            tol = max(0.01 * target, Z99 * pair.cost_se())
            assert abs(pair.cost() - target) <= tol, t

        sc = parse_scenario(load_document(SCENARIOS / "ref_d2_folded.json"))
        mu, nu = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        cfg = SimConfig(n_samples=20_000, dt=sc.cfg.dt, seed=0)
        for t in (0.25, math.log(2.0), 2.0):
            pt1 = moment_semigroup(sc.mech, t).P @ np.ones(2)
            lower = abs(float((mu - nu) @ pt1))
            upper = float(np.abs(mu - nu) @ pt1)
            pair = couple_transitions(mu, nu, sc.mech, t, cfg, rng)
            slack = Z99 * pair.cost_se()
            assert lower - slack <= pair.cost() <= upper + slack, t


def test_tv_sandwich():
    with criterion(5, "exact quadratic TV sits strictly inside its coupling bounds; histogram agrees"):
        t = math.log(2.0)
        exact = tv_exact_quadratic(1.0, 2.0, 1.0, 1.0, t)
        lo, hi = 0.46517, 1.26424
        assert exact - lo > 0.0
        assert hi - exact > 0.0

        n = 1_000_000
        rng = _rng(50)
        x = sample_transition([1.0], MECH1, t, _cfg(n), rng)
        y = sample_transition([2.0], MECH1, t, _cfg(n), rng)
        est = tv_empirical(x, y)
        assert abs(float(est) - exact) <= est.spread + 4.0 * math.sqrt(2.0 / n)


def test_immigration_gamma_fixture():
    with criterion(6, "immigration law is Gamma(beta, 1 - e^{-t}) and Gamma(beta, 1) at infinity (KS, 1%)"):
        n = 100_000
        rng = _rng(60)
        for t in (0.5, 1.0):
            x = sample_immigration(IMM1, MECH1, t, _cfg(n), rng)[:, 0]
            scale = 1.0 - math.exp(-t)
            p = stats.kstest(x, "gamma", args=(2.0, 0.0, scale)).pvalue
            assert p > 0.01, t
        x = sample_stationary(IMM1, MECH1, _cfg(n), rng)[:, 0]
        p = stats.kstest(x, "gamma", args=(2.0, 0.0, 1.0)).pvalue
        assert p > 0.01


def test_stationary_distance_identity():
    with criterion(7, "W1 between time-t and stationary immigration laws equals 2 e^{-t}"):
        rng = _rng(70)
        for t in (0.5, 1.0, 2.0):
            pair = couple_stationary(IMM1, MECH1, t, _cfg(100_000), rng)
            target = 2.0 * math.exp(-t)
            tol = max(0.01 * target, Z99 * pair.cost_se())
            assert abs(pair.cost() - target) <= tol, t


def test_ergodicity_rate_fits():
    with criterion(8, "log-linear W1 rate within 10% of -beta*, TV rate within 15%"):
        rng = _rng(80)
        ts = np.arange(1.0, 7.0)
        w1s, tvs = [], []
        for t in ts:
            pair = couple_cbi_to_stationary([2.0], IMM1, MECH1, float(t),
                                            _cfg(20_000), rng)
            w1s.append(pair.cost())
            tvs.append(2.0 * pair.differ())
        slope_w1 = float(np.polyfit(ts, np.log(w1s), 1)[0])
        slope_tv = float(np.polyfit(ts, np.log(tvs), 1)[0])
        assert abs(slope_w1 + 1.0) <= 0.10, slope_w1
        assert abs(slope_tv + 1.0) <= 0.15, slope_tv


def test_multitype_domination():
    with criterion(9, "multi-type cumulant dominated by the scalar envelope; moments decay at beta*"):
        sc = parse_scenario(load_document(SCENARIOS / "ref_d2_folded.json"))
        phi = dominating_mechanism(sc.mech)
        assert not phi.m_star  # quadratic envelope, closed form applies
        ts = [0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
        for lam in (1.0, 10.0, 100.0):
            for t in ts:
                v = solve_cumulant(sc.mech, lam * np.ones(2), t).final
                v_star = closed_form_quadratic(phi.b_star, phi.c_star, lam, t)
                assert float(v.max()) <= v_star + 1e-8, (lam, t)

        bs = beta_star(sc.mech)
        rng = _rng(90)
        fs = rng.uniform(-1.0, 1.0, size=(20, 2))
        for t in ts:
            p = moment_semigroup(sc.mech, t).P
            for f in fs:
                lhs = float(np.abs(p @ f).max())
                assert lhs <= math.exp(-bs * t) * float(np.abs(f).max()) + 1e-10, t


def _brute_force_w1(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(np.abs(a[i] - b[perm[i]]).sum() for i in range(n)))
    return best / n


def test_assignment_solver():
    with criterion(10, "assignment W1 equals the brute-force permutation minimum and the 1-d quantile pairing"):
        rng = _rng(100)
        for n, d in [(2, 1), (5, 1), (8, 1), (4, 2), (6, 2), (5, 3), (8, 3)]:
            a = rng.uniform(0.0, 3.0, size=(n, d))
            b = rng.uniform(0.0, 3.0, size=(n, d))
            b[rng.random(n) < 0.2] = 0.0  # extinct states show up in real batches
            assert _w1_assignment(a, b) == pytest.approx(
                _brute_force_w1(a, b), abs=1e-12)
        a = rng.uniform(0.0, 5.0, size=(257, 1))
        b = rng.uniform(0.0, 5.0, size=(257, 1))
        assert _w1_assignment(a, b) == pytest.approx(
            w1_1d_quantile(a, b), abs=1e-12)


def test_negative_control(tmp_path):
    with criterion(11, "tampered analytic bounds drive the verify command to exit 1"):
        rc = main(["verify", str(SCENARIOS / "negative_control.json"),
                   "--out", str(tmp_path)])
        assert rc == 1
