"""Coupling constructions: marginal laws, cost identities, sandwich bounds.

Frozen targets:
  * ordered quadratic cost at t=ln2: (mu-nu) e^{-t} = 0.5
  * stationary coupling cost: 2 e^{-t} (mean mass from immigration older than t)
  * d=1 transition-to-stationary cost at mu=2: E|2-eta| e^{-t} = 8e^{-2} e^{-t}
    (Jordan parts are orthogonal in d=1, so the upper bound is attained)
  * its pair-differ TV estimate at t=1: 2(1 - E[e^{-|2-eta| vbar_1}])
    = 0.8198134136 by quadrature against the Gamma(2,1) stationary density
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cbilab.cli import main
from cbilab.coupling import (
    CoupledPair,
    couple_jordan_pieces,
    couple_transitions,
    jordan_decompose,
)
from cbilab.cumulant import moment_semigroup
from cbilab.distance import _w1_assignment, w1_exact_empirical
from cbilab.errors import ValidationError
from cbilab.mechanism import (
    BranchingMechanism,
    ImmigrationMechanism,
    MotionGenerator,
    PointMass,
    fold_motion,
)
from cbilab.simulate import (
    SimConfig,
    sample_path,
    sample_stationary,
    sample_transition,
)

LN2 = math.log(2.0)


def quad_mech():
    return BranchingMechanism(b=[1.0], c=[1.0])


def folded_mech():
    return fold_motion(
        BranchingMechanism(b=[1.0, 2.0], c=[1.0, 3.0]),
        MotionGenerator([[-1.0, 1.0], [1.0, -1.0]]),
    )


# ---------------------------------------------------------------------------
# jordan decomposition
# ---------------------------------------------------------------------------


def test_jordan_examples():
    meet, pos, neg = jordan_decompose([3.0, 1.0], [1.0, 2.0])
    assert np.array_equal(meet, [1.0, 1.0])
    assert np.array_equal(pos, [2.0, 0.0])
    assert np.array_equal(neg, [0.0, 1.0])
    m, p, q = jordan_decompose([2.0, 2.0], [0.0, 0.0])
    assert np.array_equal(m, [0.0, 0.0]) and np.array_equal(p, [2.0, 2.0]) and np.array_equal(q, [0.0, 0.0])
    m, p, q = jordan_decompose([1.5], [1.5])
    assert np.array_equal(p, [0.0]) and np.array_equal(q, [0.0])
    with pytest.raises(ValidationError):
        jordan_decompose([1.0], [1.0, 2.0])


@given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)), min_size=1, max_size=5))
def test_jordan_reconstruction(pairs):
    mu = np.array([p[0] for p in pairs])
    nu = np.array([p[1] for p in pairs])
    meet, pos, neg = jordan_decompose(mu, nu)
    # reconstruction is exact up to one rounding of min + (max - min)
    np.testing.assert_allclose(meet + pos, mu, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(meet + neg, nu, rtol=1e-12, atol=0.0)
    assert np.all(pos * neg == 0.0)
    assert np.sum(pos + neg) == pytest.approx(np.abs(mu - nu).sum())


def test_jordan_batched_rows():
    mu = np.array([[3.0, 1.0], [0.0, 5.0]])
    nu = np.array([[1.0, 2.0], [2.0, 2.0]])
    meet, pos, neg = jordan_decompose(mu, nu)
    assert np.array_equal(meet, [[1.0, 1.0], [0.0, 2.0]])
    assert np.array_equal(pos, [[2.0, 0.0], [0.0, 3.0]])
    assert np.array_equal(neg, [[0.0, 1.0], [2.0, 0.0]])


# ---------------------------------------------------------------------------
# pair container
# ---------------------------------------------------------------------------


def test_pair_statistics_small():
    pair = CoupledPair(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[2.0, 2.0], [0.0, 0.0]]))
    assert pair.n == 2 and pair.d == 2
    assert pair.cost() == pytest.approx(0.5)
    assert pair.differ() == pytest.approx(0.5)
    assert np.array_equal(pair.row_costs(), [1.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 48), st.booleans(), st.integers(0, 2**32 - 1))
def test_dual_rows_bracket_exact_w1(d, n, ordered, seed):
    # mean dual row <= exact empirical W1 <= coupling cost; ordered legs
    # (left - right of one sign per coordinate, as the couplings produce)
    # close the bracket with the dual rows equal to the row costs
    rng = np.random.default_rng(seed)

    def batch():  # exact zeros and ties, as the samplers produce them
        return rng.exponential(1.0, size=(n, d)).round(2) * (rng.random((n, d)) < 0.7)

    if ordered:
        base, gap = batch(), batch()
        up = rng.random(d) < 0.5
        pair = CoupledPair(base + up * gap, base + ~up * gap)
    else:
        pair = CoupledPair(batch(), batch())
    dual, cost = float(pair.dual_rows().mean()), pair.cost()
    assert dual == pytest.approx(np.abs((pair.left - pair.right).mean(axis=0)).sum(), abs=1e-12)
    for w1 in (w1_exact_empirical(pair.left, pair.right), _w1_assignment(pair.left, pair.right)):
        assert dual <= w1 + 1e-12 and w1 <= cost + 1e-12
    if ordered:
        assert pair.dual_rows().tobytes() == pair.row_costs().tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 40), st.floats(0, 1), st.floats(0, 1),
       st.floats(1e-3, 1e3), st.booleans(), st.integers(0, 2**32 - 1))
def test_a_shared_summand_cancels_from_every_number_a_row_reads(d, n, p_shared, p_zero, scale,
                                                                ties, seed):
    # why no coupling in verify draws its shared influx: a non-negative f
    # added to both legs moves cost() and the mean dual row by rounding
    # only, within a few ulps of the largest entry, and leaves equal legs
    # equal, so differ() cannot rise
    rng = np.random.default_rng(seed)

    def batch(size=1.0):  # exact zeros, and ties when rounded
        x = size * rng.exponential(size=(n, d)) * (rng.random((n, 1)) >= p_zero)
        return np.round(x) if ties else x

    left, right, f = batch(), batch(), batch(scale)
    shared = rng.random(n) < p_shared
    right[shared] = left[shared]
    plain, summed = CoupledPair(left, right), CoupledPair(left + f, right + f)
    tol = 4 * d * np.spacing(max(summed.left.max(), summed.right.max()))
    assert abs(summed.cost() - plain.cost()) <= tol
    assert abs(summed.dual_rows().mean() - plain.dual_rows().mean()) <= tol
    assert summed.differ() <= plain.differ()
    equal = np.all(left == right, axis=1)
    assert np.all(np.all(summed.left == summed.right, axis=1)[equal])


def test_pair_validation():
    with pytest.raises(ValidationError):
        CoupledPair(np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValidationError):
        CoupledPair(np.array([[-1.0]]), np.array([[0.0]]))


def test_pair_csv_roundtrip(tmp_path):
    # `cbilab couple` writes the pair that the document seed draws: one row
    # per pair, legs then the row cost, at 12 significant digits
    doc = {"schema_version": 1, "dimension": 2,
           "motion": {"rates": [[-1.0, 1.0], [1.0, -1.0]]},
           "mechanism": {"b": [1.0, 2.0], "c": [1.0, 3.0]},
           "initial": {"mu": [2.0, 1.0], "nu": [1.0, 1.5]}, "times": [0.5],
           "sim": {"n_samples": 40, "dt": 0.05, "seed": 4}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert main(["couple", str(path), "--out", str(tmp_path)]) == 0
    cfg = SimConfig(n_samples=40, dt=0.05, seed=4)
    pair = couple_transitions([2.0, 1.0], [1.0, 1.5], folded_mech(), [0.5], cfg, cfg.rng())[0]
    lines = (tmp_path / "couple.csv").read_text().split("\n")
    assert lines[0] == "left_1,left_2,right_1,right_2,cost"
    back = np.loadtxt(tmp_path / "couple.csv", delimiter=",", skiprows=1)
    assert back.shape == (40, 5)
    np.testing.assert_allclose(back[:, :2], pair.left, rtol=1e-11, atol=0)
    np.testing.assert_allclose(back[:, 2:4], pair.right, rtol=1e-11, atol=0)
    np.testing.assert_allclose(back[:, 4], pair.row_costs(), rtol=1e-11, atol=0)


# ---------------------------------------------------------------------------
# transition coupling
# ---------------------------------------------------------------------------


def test_equal_starts_identical_legs():
    rng = np.random.default_rng(8)
    pair, = couple_transitions([1.0, 2.0], [1.0, 2.0], folded_mech(), [0.4],
                               SimConfig(n_samples=200, dt=0.02), rng)
    assert np.array_equal(pair.left, pair.right)
    assert pair.cost() == 0.0 and pair.differ() == 0.0


def test_per_row_starts():
    # (n, d) starts are decomposed rowwise; rows repeating one start draw
    # exactly what the vector start draws
    cfg = SimConfig(n_samples=60, dt=0.05)
    mu, nu = [2.0, 0.5], [1.0, 1.5]
    tiled, = couple_transitions(np.tile(mu, (60, 1)), np.tile(nu, (60, 1)), folded_mech(),
                                [0.4], cfg, np.random.default_rng(3))
    shared, = couple_transitions(mu, nu, folded_mech(), [0.4], cfg, np.random.default_rng(3))
    assert np.array_equal(tiled.left, shared.left)
    assert np.array_equal(tiled.right, shared.right)
    rows = np.random.default_rng(4).exponential(1.0, size=(60, 2))
    pair, = couple_transitions(rows, rows, folded_mech(), [0.4], cfg, np.random.default_rng(5))
    assert np.array_equal(pair.left, pair.right)
    with pytest.raises(ValidationError):
        couple_transitions(rows[:10], rows[:10], folded_mech(), [0.4], cfg, np.random.default_rng(5))


def test_ordered_cost_exactness():
    # ordered starts collapse the sandwich: cost = (mu - nu) e^{-t} = 0.5
    rng = np.random.default_rng(12)
    pair, = couple_transitions([2.0], [1.0], quad_mech(), [LN2], SimConfig(n_samples=100_000), rng)
    assert abs(pair.cost() - 0.5) < 4 * pair.cost_se()
    # legs stay ordered: the lower leg rides inside the upper one
    assert np.all(pair.left >= pair.right)


def test_cost_sandwich_non_ordered():
    mech = folded_mech()
    mu, nu = np.array([1.0, 2.0]), np.array([2.0, 0.5])
    t = 0.7
    P = moment_semigroup(mech, t)
    ones = np.ones(2)
    lower = abs((mu - nu) @ (P @ ones))
    upper = np.abs(mu - nu) @ (P @ ones)
    rng = np.random.default_rng(21)
    pair, = couple_transitions(mu, nu, mech, [t], SimConfig(n_samples=20_000, dt=0.01), rng)
    se = pair.cost_se()
    assert lower - 4 * se <= pair.cost() <= upper + 4 * se
    assert lower < upper  # non-ordered: the bracket is genuinely open


def test_transition_marginals_match_direct_sampler():
    mech = folded_mech()
    mu, nu = [1.0, 2.0], [2.0, 0.5]
    cfg = SimConfig(n_samples=10_000, dt=0.02)
    rng = np.random.default_rng(33)
    pair, = couple_transitions(mu, nu, mech, [0.5], cfg, rng)
    ref_left = sample_transition(mu, mech, 0.5, cfg, rng)
    ref_right = sample_transition(nu, mech, 0.5, cfg, rng)
    for leg, ref in ((pair.left, ref_left), (pair.right, ref_right)):
        for j in range(2):
            assert stats.ks_2samp(leg[:, j], ref[:, j]).pvalue > 0.01
        assert stats.ks_2samp(leg.sum(axis=1), ref.sum(axis=1)).pvalue > 0.01


def test_one_time_grid_coupling_draws_the_three_legs_then_the_influx():
    # on one generator: the meet, positive and negative legs, each a
    # transition draw, then one immigration draw added to both legs
    folded_imm = ImmigrationMechanism(beta=[0.4, 0.2], nu=(PointMass(u=[0.3, 0.3], weight=0.5),))
    cases = [(quad_mech(), ImmigrationMechanism(beta=[2.0]), [2.0], [1.0], 0.7),
             (folded_mech(), folded_imm, [2.0, 1.0], [1.0, 1.5], 0.5)]  # stepped, no zero leg
    for mech, imm, mu, nu, t in cases:  # the exact route, then the stepped one
        cfg = SimConfig(n_samples=300, dt=0.05)
        plain = couple_transitions(mu, nu, mech, [t], cfg, np.random.default_rng(6))
        pairs = couple_transitions(mu, nu, mech, [t], cfg, np.random.default_rng(6), imm=imm)
        assert len(plain) == len(pairs) == 1
        rng = np.random.default_rng(6)
        shared, upper, lower = (sample_transition(leg, mech, t, cfg, rng)
                                for leg in jordan_decompose(np.asarray(mu), np.asarray(nu)))
        influx = sample_path(np.zeros(mech.d), mech, [t], cfg, rng, imm=imm)[0]
        assert np.array_equal(plain[0].left, shared + upper)
        assert np.array_equal(plain[0].right, shared + lower)
        assert np.array_equal(pairs[0].left, shared + upper + influx)
        assert np.array_equal(pairs[0].right, shared + lower + influx)


def test_grid_coupling_reads_one_path_per_leg():
    # pair k recombines snapshot k of the meet, positive and negative paths;
    # the Jordan pieces alone are the positive and then the negative path
    mech, imm = folded_mech(), ImmigrationMechanism(beta=[0.4, 0.2])
    mu, nu, times = np.array([2.0, 1.0]), np.array([1.0, 1.5]), (0.2, 0.5, 0.9)
    cfg = SimConfig(n_samples=100, dt=0.05)
    pairs = couple_transitions(mu, nu, mech, times, cfg, np.random.default_rng(7), imm=imm)
    pieces = couple_jordan_pieces(mu, nu, mech, times, cfg, np.random.default_rng(7))
    meet, pos, neg = jordan_decompose(mu, nu)
    rng = np.random.default_rng(7)
    shared, upper, lower = (sample_path(leg, mech, times, cfg, rng) for leg in (meet, pos, neg))
    influx = sample_path(np.zeros(2), mech, times, cfg, rng, imm=imm)
    rng = np.random.default_rng(7)
    alone = [sample_path(leg, mech, times, cfg, rng) for leg in (pos, neg)]
    assert len(pairs) == len(pieces) == len(times)
    for k, pair in enumerate(pairs):
        assert np.array_equal(pair.left, shared[k] + upper[k] + influx[k])
        assert np.array_equal(pair.right, shared[k] + lower[k] + influx[k])
        assert np.array_equal(pieces[k].left, alone[0][k])
        assert np.array_equal(pieces[k].right, alone[1][k])


# ---------------------------------------------------------------------------
# immigration couplings
# ---------------------------------------------------------------------------


def test_cbi_immigration_cancels_exactly():
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    cfg = SimConfig(n_samples=5_000)
    plain, = couple_transitions([2.0], [1.0], mech, [LN2], cfg, np.random.default_rng(77))
    with_imm, = couple_transitions([2.0], [1.0], mech, [LN2], cfg, np.random.default_rng(77),
                                   imm=imm)
    # same seed: the transition draws coincide and the shared influx drops
    # out of the gap (up to one rounding per addition); rows with equal
    # transition legs stay equal exactly
    np.testing.assert_allclose(with_imm.left - with_imm.right,
                               plain.left - plain.right, rtol=0, atol=1e-12)
    equal_before = np.all(plain.left == plain.right, axis=1)
    equal_after = np.all(with_imm.left == with_imm.right, axis=1)
    assert np.all(equal_after[equal_before])
    assert abs(with_imm.cost() - 0.5) < 4 * with_imm.cost_se()


def test_cbi_equal_starts_identical_legs():
    imm = ImmigrationMechanism(beta=[2.0])
    pair, = couple_transitions([1.5], [1.5], quad_mech(), [1.0], SimConfig(n_samples=100),
                               np.random.default_rng(1), imm=imm)
    assert np.array_equal(pair.left, pair.right)


def from_stationary(mu, imm, mech, times, cfg, rng, influx=False):
    """(eta, the coupling from mu and from eta), eta one stationary batch:
    with influx, couple_transitions with the shared influx of imm; without
    it, the Jordan pieces that `verify` draws, the stationary pairs from
    mu = 0 and the rate pairs from mu."""
    eta = sample_stationary(imm, mech, cfg, rng)
    mu = np.tile(mu, (cfg.n_samples, 1))
    if influx:
        return eta, couple_transitions(mu, eta, mech, times, cfg, rng, imm=imm)
    return eta, couple_jordan_pieces(mu, eta, mech, times, cfg, rng)


def test_stationary_coupling_cost_identity():
    # cost = mean mass remaining from immigration older than t = 2 e^{-t}
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(55)
    times = (1.0, 4.0)
    # the pairs (0, Q_t S) of `verify`: the influx would cancel from the cost
    _, pairs = from_stationary([0.0], imm, quad_mech(), times, SimConfig(n_samples=100_000), rng)
    for t, pair in zip(times, pairs):
        target = 2 * math.exp(-t)
        assert abs(pair.cost() - target) < 4 * pair.cost_se(), f"t={t}"
        assert np.all(pair.right >= pair.left)


def test_stationary_coupling_marginals():
    imm = ImmigrationMechanism(beta=[2.0])
    cfg = SimConfig(n_samples=10_000)
    rng = np.random.default_rng(66)
    # with the influx, the immigration law at t coupled with the stationary law
    stationary, (pair,) = from_stationary([0.0], imm, quad_mech(), [1.0], cfg, rng, influx=True)
    ref_left = sample_path([0.0], quad_mech(), [1.0], cfg, rng, imm=imm)[0, :, 0]
    assert stats.ks_2samp(pair.left[:, 0], ref_left).pvalue > 0.01
    assert stats.kstest(pair.right[:, 0], stats.gamma(a=2.0, scale=1.0).cdf).pvalue > 0.01
    assert stats.kstest(stationary[:, 0], stats.gamma(a=2.0, scale=1.0).cdf).pvalue > 0.01


def test_stationary_coupling_refuses_supercritical():
    imm = ImmigrationMechanism(beta=[1.0])
    with pytest.raises(ValidationError):
        from_stationary([0.0], imm, BranchingMechanism(b=[-0.5], c=[1.0]), [1.0],
                        SimConfig(n_samples=10), np.random.default_rng(0))


def test_transition_to_stationary_cost_and_tv():
    # d=1: the Jordan parts never coexist, so cost = E|mu - eta| e^{-t}
    # = 8 e^{-2} e^{-t}; the pair-differ TV estimate at t=1 equals
    # 2(1 - E[e^{-|2-eta| vbar_1}]) = 0.8198134136 (quadrature oracle).
    # Both read left - right only, so no immigration is drawn
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(88)
    cfg = SimConfig(n_samples=100_000)
    _, (pair,) = from_stationary([2.0], imm, mech, [1.0], cfg, rng)
    cost_target = 8 * math.exp(-3.0)
    assert abs(pair.cost() - cost_target) < 4 * pair.cost_se()
    tv_hat = 2 * pair.differ()
    assert abs(tv_hat - 0.8198134136) < 4 * 2 * pair.differ_se()


def test_transition_to_stationary_marginals():
    # with the shared influx the right leg stays stationary
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    cfg = SimConfig(n_samples=10_000)
    rng = np.random.default_rng(99)
    _, (pair,) = from_stationary([2.0], imm, mech, [1.0], cfg, rng, influx=True)
    ref_left = sample_path([2.0], mech, [1.0], cfg, rng, imm=imm)[0, :, 0]
    assert stats.ks_2samp(pair.left[:, 0], ref_left).pvalue > 0.01
    assert stats.kstest(pair.right[:, 0], stats.gamma(a=2.0, scale=1.0).cdf).pvalue > 0.01


def test_transition_to_stationary_cost_decays():
    # one path along the times from one stationary batch
    mech = quad_mech()
    imm = ImmigrationMechanism(beta=[2.0])
    rng = np.random.default_rng(111)
    cfg = SimConfig(n_samples=20_000)
    _, pairs = from_stationary([2.0], imm, mech, (1.0, 2.0, 4.0), cfg, rng)
    costs = [pair.cost() for pair in pairs]
    assert costs[0] > costs[1] > costs[2]
    assert costs[2] < 0.05
