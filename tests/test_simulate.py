"""Sampler laws against their analytic Laplace transforms and moments.

Statistical assertions use 4-sigma tolerances unless noted; seeds are fixed,
so failures are deterministic and indicate a real bias, not flakiness.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cbilab.cli import load_document, main, parse_scenario
from cbilab.cumulant import discount_integral, mean_vector, solve_cumulant
from cbilab.errors import BlowUpError, ValidationError
from cbilab.mechanism import (
    BranchingMechanism,
    ExponentialAxis,
    ImmigrationMechanism,
    MotionGenerator,
    PointMass,
    StableAxis,
    fold_motion,
    stable_constant,
)
from cbilab import simulate
from cbilab.simulate import (
    SimConfig,
    _cb_quadratic_batch,
    _stepped_batch,
    _stable_positive_batch,
    sample_path,
    sample_stationary,
    sample_transition,
)
from closed_forms import closed_form_quadratic

LN2 = math.log(2.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def quad_mech():
    return BranchingMechanism(b=[1.0], c=[1.0])


def folded_mech():
    return fold_motion(
        BranchingMechanism(b=[1.0, 2.0], c=[1.0, 3.0]),
        MotionGenerator([[-1.0, 1.0], [1.0, -1.0]]),
    )


def stable_mech():
    return BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))


def laplace_dev(samples, lam, target):
    """(empirical mean of e^{-<lam,x>} - target) in units of its standard error."""
    emp = np.exp(-(np.atleast_2d(samples) @ np.atleast_1d(lam)))
    se = emp.std() / math.sqrt(len(emp))
    return (emp.mean() - target) / se


# ---------------------------------------------------------------------------
# exact quadratic sampler
# ---------------------------------------------------------------------------


def test_quadratic_sampler_identity():
    # the sampler exists because x*v(t,lam) is a compound-Poisson-of-
    # exponentials exponent: x*v = (x a/theta)(1 - 1/(1+theta*lam))
    for b, c, t in [(1.0, 1.0, LN2), (0.0, 1.0, 1.0), (2.0, 0.5, 0.3), (-0.5, 2.0, 1.7)]:
        a = math.exp(-b * t)
        theta = c * discount_integral(b, t)
        for lam in (0.1, 1.0, 7.0):
            lhs = closed_form_quadratic(b, c, lam, t)
            rhs = (a / theta) * (1.0 - 1.0 / (1.0 + theta * lam))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quadratic_sampler_trap_and_fallback():
    rng = np.random.default_rng(0)
    cfg = SimConfig(n_samples=4)
    assert np.all(sample_transition([0.0], quad_mech(), 2.0, cfg, rng) == 0.0)
    # no branching noise: deterministic decay
    decay = BranchingMechanism(b=[2.0], c=[0.0])
    assert sample_transition([3.0], decay, 1.0, cfg, rng) == pytest.approx(
        np.full((4, 1), 3 * math.exp(-2.0)))
    with pytest.raises(ValidationError):
        sample_transition([-1.0], quad_mech(), 1.0, cfg, rng)
    with pytest.raises(ValidationError):
        sample_transition([1.0], quad_mech(), -1.0, cfg, rng)
    with pytest.raises(ValidationError):
        BranchingMechanism(b=[1.0], c=[-1.0])


def test_quadratic_sampler_law():
    rng = np.random.default_rng(101)
    n = 100_000
    x = _cb_quadratic_batch(np.full(n, 2.0), 1.0, 1.0, LN2, rng)
    # atom at zero: e^{-x a/theta} with a/theta = 1 here
    p0 = math.exp(-2.0)
    assert abs((x == 0).mean() - p0) < 4 * math.sqrt(p0 * (1 - p0) / n)
    # mean: x e^{-bt} = 1
    assert abs(x.mean() - 1.0) < 4 * x.std() / math.sqrt(n)
    for lam in (0.5, 1.0, 2.0):
        target = math.exp(-2 * closed_form_quadratic(1.0, 1.0, lam, LN2))
        assert abs(laplace_dev(x[:, None], [lam], target)) < 4.0


def test_quadratic_sampler_short_time_identity():
    rng = np.random.default_rng(5)
    n = 20_000
    x = _cb_quadratic_batch(np.full(n, 2.0), 1.0, 1.0, 1e-4, rng)
    assert abs(x.mean() - 2.0) < 4 * x.std() / math.sqrt(n) + 1e-3


# ---------------------------------------------------------------------------
# stable increments
# ---------------------------------------------------------------------------


def test_stable_increment_laplace():
    rng = np.random.default_rng(7)
    n = 500_000
    for alpha in (0.5, 0.7):
        z = _stable_positive_batch(alpha, n, rng)
        for lam in (0.25, 0.5, 1.0):
            target = math.exp(stable_constant(alpha) * lam ** (1 + alpha))
            emp = np.exp(-lam * z)
            dev = (emp.mean() - target) / (emp.std() / math.sqrt(n))
            assert abs(dev) < 4.0, f"alpha={alpha} lam={lam} dev={dev:.2f}"


# ---------------------------------------------------------------------------
# transition sampler
# ---------------------------------------------------------------------------


def test_transition_trap_and_validation():
    cfg = SimConfig(n_samples=64)
    rng = np.random.default_rng(1)
    assert np.all(sample_transition([0.0], quad_mech(), 1.0, cfg, rng) == 0.0)
    assert np.all(sample_transition([0.0, 0.0], folded_mech(), 0.5, SimConfig(64, dt=0.05), rng) == 0.0)
    with pytest.raises(ValidationError):
        sample_transition([1.0], quad_mech(), -1.0, cfg, rng)
    with pytest.raises(ValidationError):
        SimConfig(n_samples=0)
    with pytest.raises(ValidationError):
        SimConfig(n_samples=1, dt=0.0)


def test_transition_quadratic_reference_laplace():
    rng = np.random.default_rng(42)
    x = sample_transition([2.0], quad_mech(), LN2, SimConfig(n_samples=100_000), rng)
    target = math.exp(-2.0 / 3.0)
    assert abs(laplace_dev(x, [1.0], target)) < 4.0


def test_branching_property_two_sample():
    # a run from mu1+mu2 has the same law as the sum of independent runs
    rng = np.random.default_rng(9)
    cfg = SimConfig(n_samples=10_000)
    a = sample_transition([1.3], quad_mech(), 0.7, cfg, rng)[:, 0]
    b = sample_transition([0.9], quad_mech(), 0.7, cfg, rng)[:, 0]
    c = sample_transition([2.2], quad_mech(), 0.7, cfg, rng)[:, 0]
    ks = stats.ks_2samp(a + b, c)
    assert ks.pvalue > 0.01


def test_transition_folded_laplace_oracle():
    mech = folded_mech()
    mu = np.array([1.0, 2.0])
    lam = np.array([1.0, 0.5])
    t = 1.0
    v = solve_cumulant(mech, lam, t, tol=1e-12).final
    target = math.exp(-(mu @ v))
    rng = np.random.default_rng(23)
    x = sample_transition(mu, mech, t, SimConfig(n_samples=20_000, dt=0.01), rng)
    assert abs(laplace_dev(x, lam, target)) < 4.0


def test_transition_stable_laplace_oracle_with_refinement():
    mech = stable_mech()
    lam, t = 0.5, 1.0
    v = solve_cumulant(mech, [lam], t, tol=1e-12).final[0]
    target = math.exp(-1.5 * v)
    rng = np.random.default_rng(31)
    for dt in (0.04, 0.01):
        x = sample_transition([1.5], mech, t, SimConfig(n_samples=20_000, dt=dt), rng)
        assert abs(laplace_dev(x, [lam], target)) < 4.0, f"dt={dt}"


def test_transition_mean_identity():
    mech = folded_mech()
    mu = np.array([1.0, 2.0])
    t = 0.8
    rng = np.random.default_rng(13)
    x = sample_transition(mu, mech, t, SimConfig(n_samples=40_000, dt=0.01), rng)
    target = mean_vector(mech, mu, t)
    for j in range(2):
        se = x[:, j].std() / math.sqrt(len(x))
        assert abs(x[:, j].mean() - target[j]) < 4 * se


def test_extinction_atom_quadratic_and_stable():
    # P(X_t = 0) = e^{-<mu, vbar_t>}; quadratic case has vbar = 1 at t=ln2
    rng = np.random.default_rng(3)
    n = 100_000
    x = sample_transition([2.0], quad_mech(), LN2, SimConfig(n_samples=n), rng)
    p = math.exp(-2.0)
    assert abs((x[:, 0] == 0).mean() - p) < 4 * math.sqrt(p * (1 - p) / n)

    from cbilab.cumulant import vbar_vector

    mech = stable_mech()
    vb = vbar_vector(mech, 1.0)[0]
    n = 20_000
    y = sample_transition([1.5], mech, 1.0, SimConfig(n_samples=n, dt=0.01), rng)
    p = math.exp(-1.5 * vb)
    assert abs((y[:, 0] == 0).mean() - p) < 4 * math.sqrt(p * (1 - p) / n) + 2e-3


def test_split_step_count_capped_before_any_draw():
    # a dt too fine to sample is refused up front: a Poisson mean of order
    # x / dt would overflow the generator mid-run
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for mu, mech, imm in (([1.0], stable_mech(), None),
                          ([0.0, 0.0], folded_mech(), ImmigrationMechanism(beta=[0.4, 0.2]))):
        cfg = SimConfig(n_samples=4, dt=1e-300)
        with pytest.raises(ValidationError, match="dt = 1e-300"):
            if imm is None:
                sample_transition(mu, mech, 1.0, cfg, rng)
            else:
                sample_path(mu, mech, [1.0], cfg, rng, imm=imm)
    assert rng.bit_generator.state == state


def test_fused_half_steps_keep_the_exact_quadratic_law():
    # with an empty middle block (no transfer, no jumps) the split scheme is
    # the exact quadratic law composed over the steps, fused half-steps and all
    mech, t = BranchingMechanism(b=[1.0], c=[1.0]), 1.3
    cfg = SimConfig(n_samples=20_000, dt=0.1)
    stepped = _stepped_batch(np.full((cfg.n_samples, 1), 2.0), mech, None, t, cfg,
                             np.random.default_rng(31))
    exact = _cb_quadratic_batch(np.full(cfg.n_samples, 2.0), 1.0, 1.0, t, np.random.default_rng(32))
    ks = stats.ks_2samp(stepped[:, 0], exact)
    assert ks.pvalue > 0.01, f"p={ks.pvalue:.4f}"


@pytest.mark.parametrize("mech", [BranchingMechanism(b=[1.0], c=[1.0]), folded_mech()],
                         ids=["d1", "d2"])
def test_stepped_batch_draws_n_plus_one_branching_steps_per_type(mech, monkeypatch):
    # a half-step, n - 1 fused full steps and a closing half-step per type
    draws = []
    exact = simulate._cb_quadratic_batch

    def counted(x, b, c, t, rng):
        draws.append((float(b), float(t)))
        return exact(x, b, c, t, rng)

    monkeypatch.setattr(simulate, "_cb_quadratic_batch", counted)
    t, n_steps = 0.7, 7
    cfg = SimConfig(n_samples=50, dt=t / n_steps)
    _stepped_batch(np.ones((50, mech.d)), mech, None, t, cfg, np.random.default_rng(4))
    h = t / n_steps
    for b in mech.b:
        lengths = [s for bb, s in draws if bb == float(b)]
        assert len(lengths) == n_steps + 1
        assert lengths == [0.5 * h] + [h] * (n_steps - 1) + [0.5 * h]
    assert len(draws) == mech.d * (n_steps + 1)


def test_blow_up_abort(monkeypatch):
    mech = BranchingMechanism(b=[-2.0, -2.0], c=[0.01, 0.01], eta=[[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(simulate, "MASS_CEILING", 1e6)
    cfg = SimConfig(n_samples=16, dt=0.05)
    with pytest.raises(BlowUpError):
        sample_transition([1e3, 1e3], mech, 8.0, cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# immigration sampler
# ---------------------------------------------------------------------------


def test_immigration_trivial_and_zero_time():
    cfg = SimConfig(n_samples=32)
    rng = np.random.default_rng(2)
    imm0 = ImmigrationMechanism(beta=[0.0])
    assert np.all(sample_path([0.0], quad_mech(), [1.0], cfg, rng, imm=imm0) == 0.0)
    imm = ImmigrationMechanism(beta=[2.0])
    assert np.all(sample_path([0.0], quad_mech(), [0.0], cfg, rng, imm=imm) == 0.0)


def test_immigration_gamma_law():
    # continuous immigration into the quadratic mechanism is exactly Gamma
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(17)
    for t in (0.5, 1.0):
        x = sample_path([0.0], quad_mech(), [t], SimConfig(n_samples=10_000), rng, imm=imm)[0, :, 0]
        ks = stats.kstest(x, stats.gamma(a=2.0, scale=discount_integral(1.0, t)).cdf)
        assert ks.pvalue > 0.01, f"t={t} p={ks.pvalue:.4f}"
        target = 2 * discount_integral(1.0, t)
        assert abs(x.mean() - target) < 4 * x.std() / math.sqrt(len(x))


def test_immigration_with_jump_immigrants_laplace():
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0], nu=(PointMass(u=[0.5], weight=0.8),))
    t, lam = 1.0, 1.0
    path = solve_cumulant(mech, [lam], t, tol=1e-12, imm=imm)
    target = math.exp(-path.imm_integral[-1])
    rng = np.random.default_rng(29)
    x = sample_path([0.0], mech, [t], SimConfig(n_samples=100_000), rng, imm=imm)[0]
    assert abs(laplace_dev(x, [lam], target)) < 4.0


def test_immigration_stepped_d2_laplace():
    mech = folded_mech()
    imm = ImmigrationMechanism(beta=[0.4, 0.2], nu=(PointMass(u=[0.3, 0.3], weight=0.5),))
    lam = np.array([1.0, 0.5])
    t = 1.0
    path = solve_cumulant(mech, lam, t, tol=1e-12, imm=imm)
    target = math.exp(-path.imm_integral[-1])
    rng = np.random.default_rng(37)
    x = sample_path(np.zeros(2), mech, [t], SimConfig(n_samples=20_000, dt=0.01), rng, imm=imm)[0]
    assert abs(laplace_dev(x, lam, target)) < 4.0


def test_cbi_transition_mean_and_laplace():
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(41)
    n = 100_000
    x = sample_path([1.0], mech, [1.0], SimConfig(n_samples=n), rng, imm=imm)[0, :, 0]
    target_mean = math.exp(-1.0) + 2 * (1 - math.exp(-1.0))
    assert abs(x.mean() - target_mean) < 4 * x.std() / math.sqrt(n)
    path = solve_cumulant(mech, [1.0], 1.0, tol=1e-12, imm=imm)
    target = math.exp(-path.final[0] - path.imm_integral[-1])
    assert abs(laplace_dev(x[:, None], [1.0], target)) < 4.0


def test_stationary_law_gamma():
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(43)
    x = sample_stationary(imm, mech, SimConfig(n_samples=10_000), rng)[:, 0]
    ks = stats.kstest(x, stats.gamma(a=2.0, scale=1.0).cdf)
    assert ks.pvalue > 0.01
    with pytest.raises(ValidationError):
        sample_stationary(imm, BranchingMechanism(b=[-1.0], c=[1.0]), SimConfig(n_samples=8), rng)


def test_stationary_horizon_sampler_close_to_exact():
    # the horizon-truncated generic route vs the exact Gamma law
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(47)
    x = sample_path([0.0], mech, [7.0], SimConfig(n_samples=10_000), rng, imm=imm)[0, :, 0]
    ks = stats.kstest(x, stats.gamma(a=2.0, scale=1.0).cdf)
    assert ks.pvalue > 0.005  # truncation bias ~1e-3 relative is below KS resolution here


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def shipped_folded():
    return parse_scenario(load_document(SCENARIOS / "ref_d2_folded.json"))


def test_path_with_one_time_draws_what_the_samplers_draw():
    sc = shipped_folded()
    cases = [(quad_mech(), [2.0], 0.7), (sc.mech, sc.mu, 0.5)]
    for mech, mu, t in cases:  # the exact route, then the stepped one
        cfg = SimConfig(n_samples=400, dt=0.05)
        one = sample_path(mu, mech, [t], cfg, np.random.default_rng(8))
        assert one.shape == (1, 400, mech.d)
        assert np.array_equal(one[0], sample_transition(mu, mech, t, cfg, np.random.default_rng(8)))
    # off the exact Gamma route a stationary draw is the path from zero at the horizon
    cfg = SimConfig(n_samples=400, dt=0.05)
    horizon = [simulate.stationary_horizon(sc.mech)]
    assert np.array_equal(
        sample_stationary(sc.imm, sc.mech, cfg, np.random.default_rng(8)),
        sample_path(np.zeros(2), sc.mech, horizon, cfg, np.random.default_rng(8), imm=sc.imm)[0])
    # on the exact route the path from mu with imm is the transition plus an
    # independent immigration draw, in that order on one generator
    imm = ImmigrationMechanism(beta=[2.0], nu=(PointMass(u=[0.5], weight=0.8),
                                               ExponentialAxis(axis=0, mean=0.4, rate=0.6)))
    cfg = SimConfig(n_samples=400)
    for t in (0.3, 0.5, 1.7, 2.0):
        cbi = sample_path([2.0], quad_mech(), [t], cfg, np.random.default_rng(9), imm=imm)[0]
        rng = np.random.default_rng(9)
        parts = sample_transition([2.0], quad_mech(), t, cfg, rng)
        influx = sample_path([0.0], quad_mech(), [t], cfg, rng, imm=imm)[0]
        assert np.array_equal(cbi, parts + influx)


def test_zero_start_draws_nothing():
    # without immigration the zero state is absorbing: the exact and the
    # stepped stable route return zeros and leave the generator untouched
    cfg = SimConfig(n_samples=64, dt=0.05)
    for mech in (quad_mech(), stable_mech()):
        for start in ([0.0], np.zeros((64, 1))):
            rng = np.random.default_rng(17)
            before = rng.bit_generator.state
            x = sample_transition(start, mech, 1.5, cfg, rng)
            assert x.shape == (64, 1) and np.all(x == 0.0)
            assert rng.bit_generator.state == before


@pytest.mark.parametrize("route", ["exact", "stepped"])
def test_dead_rows_are_skipped(route):
    # zero rows stay zero, and the live rows get exactly the draw that
    # sample_transition makes of them alone on one generator
    starts = np.zeros((60, 1))
    starts[1::3, 0] = 1.5
    starts[2::5, 0] = 0.4
    live = starts[:, 0] > 0
    mech = quad_mech() if route == "exact" else stable_mech()
    t, seed = 1.5, 23
    x = sample_transition(starts, mech, t, SimConfig(n_samples=60, dt=0.05),
                          np.random.default_rng(seed))
    assert np.all(x[~live] == 0.0)
    alone = sample_transition(starts[live], mech, t, SimConfig(n_samples=int(live.sum()), dt=0.05),
                              np.random.default_rng(seed))
    assert np.array_equal(x[live], alone)
    if route == "exact":
        # on the exact route the skip is bit-neutral: the full-array draw
        # consumes no variates at the dead rows
        full = _cb_quadratic_batch(starts[:, 0], 1.0, 1.0, t, np.random.default_rng(seed))
        assert np.array_equal(x[:, 0], full)


def test_zero_start_with_immigration_is_not_short_cut():
    # the path from zero with imm carries the influx on both routes
    cfg = SimConfig(n_samples=2_000, dt=0.05)
    imm = ImmigrationMechanism(beta=[0.5])
    for mech in (quad_mech(), stable_mech()):
        rng = np.random.default_rng(19)
        before = rng.bit_generator.state
        path = sample_path([0.0], mech, [0.5, 1.0], cfg, rng, imm=imm)
        assert rng.bit_generator.state != before
        # mean influx by t: beta int_0^t e^{-bs} ds
        for t, x in zip((0.5, 1.0), path):
            mean = 0.5 * discount_integral(float(mech.b[0]), t)
            assert abs(x.mean() - mean) <= 4.0 * x.std() / math.sqrt(len(x)), (mech, t)


def test_path_refuses_bad_grids():
    cfg, rng = SimConfig(n_samples=4), np.random.default_rng(0)
    for times in ([], [1.0, 1.0], [2.0, 1.0], [-1.0], [1.0, math.inf]):
        with pytest.raises(ValidationError, match="times"):
            sample_path([1.0], quad_mech(), times, cfg, rng)
    with pytest.raises(ValidationError, match="dimension"):
        sample_path([1.0], quad_mech(), [1.0], cfg, rng, imm=ImmigrationMechanism(beta=[1.0, 1.0]))


def test_immigration_path_gamma_law():
    # on the exact scalar route each snapshot of the path from zero is the
    # time-t immigration law Gamma(beta/c, c (1 - e^{-t})), as criterion 6 has it
    imm = ImmigrationMechanism(beta=[2.0])
    times = (0.5, 1.0, 2.0)
    path = sample_path([0.0], quad_mech(), times, SimConfig(n_samples=20_000),
                       np.random.default_rng(53), imm=imm)
    for t, x in zip(times, path[:, :, 0]):
        ks = stats.kstest(x, "gamma", args=(2.0, 0.0, 1.0 - math.exp(-t)))
        assert ks.pvalue > 0.01, f"t={t} p={ks.pvalue:.4f}"


def test_stepped_path_laplace_at_each_snapshot():
    # the ref_d2_folded path from mu with immigration, against the cumulant
    # exponent <mu, v(t, lam)> + int_0^t psi(v(s, lam)) ds at every snapshot
    sc = shipped_folded()
    times, lam = (0.5, 1.0, 2.0), np.ones(2)
    path = sample_path(sc.mu, sc.mech, times, SimConfig(n_samples=8_000, dt=sc.cfg.dt),
                       np.random.default_rng(59), imm=sc.imm)
    flow = solve_cumulant(sc.mech, lam, times[-1], tol=1e-12, t_eval=times, imm=sc.imm)
    for k, x in enumerate(path):
        target = math.exp(-(float(sc.mu @ flow.v_values[k + 1]) + float(flow.imm_integral[k + 1])))
        assert abs(laplace_dev(x, lam, target)) < 4.0, times[k]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_determinism_same_seed():
    mech = folded_mech()
    cfg = SimConfig(n_samples=500, dt=0.02, seed=1234)
    a = sample_transition([1.0, 2.0], mech, 0.6, cfg, cfg.rng())
    b = sample_transition([1.0, 2.0], mech, 0.6, cfg, cfg.rng())
    assert np.array_equal(a, b)
    sa = sample_transition([2.0], stable_mech(), 0.6, cfg, cfg.rng())
    sb = sample_transition([2.0], stable_mech(), 0.6, cfg, cfg.rng())
    assert np.array_equal(sa, sb)


def test_samples_csv_roundtrip(tmp_path):
    # `cbilab simulate` writes the batch that the document seed draws, exactly
    doc = {"schema_version": 1, "dimension": 2,
           "motion": {"rates": [[-1.0, 1.0], [1.0, -1.0]]},
           "mechanism": {"b": [1.0, 2.0], "c": [1.0, 3.0]},
           "initial": {"mu": [1.0, 2.0]}, "times": [0.3],
           "sim": {"n_samples": 50, "dt": 0.05, "seed": 11}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
    cfg = SimConfig(n_samples=50, dt=0.05, seed=11)
    x = sample_transition([1.0, 2.0], folded_mech(), 0.3, cfg, cfg.rng())
    assert (tmp_path / "samples.csv").read_text().split("\n")[0] == "x_1,x_2"
    back = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
    assert back.shape == (50, 2)
    assert np.array_equal(back, x)
