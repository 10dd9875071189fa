"""Distance estimators against brute force, closed forms, and each other.

Frozen oracle: tv_exact_quadratic(1, 2, 1, 1, ln2) = 0.5269027759222848,
cross-checked at first build by adaptive quadrature of |f_x - f_y|
(agreement 8e-11); the analytic sandwich around it is
[2|e^{-1}-e^{-2}|, 2(1-e^{-1})] = [0.465088, 1.264241].
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cbilab.coupling import CoupledPair, couple_transitions
from cbilab import distance
from cbilab.cumulant import vbar_scalar
from cbilab.distance import (
    EmpiricalLaw,
    TVEstimate,
    _w1_assignment,
    tv_empirical,
    tv_exact_quadratic,
    w1_1d_quantile,
    w1_exact_empirical,
)
from cbilab.errors import ValidationError
from cbilab.mechanism import BranchingMechanism, dominating_mechanism
from cbilab.simulate import SimConfig, sample_transition

LN2 = math.log(2.0)


def brute_force_w1(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.abs(a[i] - b[perm[i]]).sum() for i in range(n))
        best = min(best, cost)
    return best / n


# ---------------------------------------------------------------------------
# exact empirical W1
# ---------------------------------------------------------------------------


def test_w1_zero_on_identical():
    a = EmpiricalLaw([[1.0, 2.0], [0.0, 0.5]])
    assert w1_exact_empirical(a, a) == 0.0


def test_w1_textbook_example():
    a = EmpiricalLaw([[0.0], [0.0], [3.0]])
    b = EmpiricalLaw([[1.0], [1.0], [1.0]])
    assert w1_exact_empirical(a, b) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert w1_1d_quantile(a, b) == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_w1_matches_brute_force():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        for n in (2, 5, 8):
            a = rng.exponential(1.0, size=(n, d))
            b = rng.exponential(2.0, size=(n, d))
            assert w1_exact_empirical(a, b) == pytest.approx(brute_force_w1(a, b), abs=1e-12)


def test_w1_quantile_agreement_1d():
    rng = np.random.default_rng(23)
    a = rng.gamma(2.0, size=(300, 1))
    b = rng.gamma(3.0, size=(300, 1))
    assert _w1_assignment(a, b) == pytest.approx(w1_1d_quantile(a, b), abs=1e-12)


def test_w1_unequal_counts_lcm_expansion():
    a = EmpiricalLaw([[0.0], [3.0]])
    b = EmpiricalLaw([[1.0], [1.0], [1.0]])
    # quantile functions: a is 0 on (0,1/2], 3 after; b is constant 1
    assert _w1_assignment(a, b) == pytest.approx(1.5, abs=1e-14)
    assert w1_1d_quantile(a, b) == pytest.approx(1.5, abs=1e-14)


def test_w1_metric_properties():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.exponential(1.0, size=(12, 2))
        b = rng.exponential(1.5, size=(12, 2))
        c = rng.exponential(0.5, size=(12, 2))
        dab = w1_exact_empirical(a, b)
        assert dab == w1_exact_empirical(b, a)
        assert dab <= w1_exact_empirical(a, c) + w1_exact_empirical(c, b) + 1e-12


def test_w1_cap_refusal():
    a = np.zeros((3000, 2))
    with pytest.raises(ValidationError):
        w1_exact_empirical(a, a)
    # lcm blowup beyond the cap refuses too
    with pytest.raises(ValidationError):
        w1_exact_empirical(np.zeros((1023, 2)), np.zeros((1024, 2)))
    # d=1 is solved by sorted pairing, which needs no cap
    rng = np.random.default_rng(43)
    for n_a, n_b in ((3000, 3000), (1023, 1024)):
        a = rng.exponential(1.0, size=(n_a, 1))
        b = rng.exponential(2.0, size=(n_b, 1))
        assert w1_exact_empirical(a, b) == w1_1d_quantile(a, b)


def test_w1_bounded_by_any_coupling_cost():
    # the optimal assignment can only improve on the constructed pairing
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    rng = np.random.default_rng(41)
    pair = couple_transitions([2.0], [1.0], mech, [LN2], SimConfig(n_samples=512), rng)[0]
    w1 = w1_exact_empirical(pair.left, pair.right)
    assert w1 <= pair.cost() + 1e-12


def test_quantile_shift_identity():
    rng = np.random.default_rng(5)
    x = rng.gamma(2.0, size=(200, 1))
    assert w1_1d_quantile(x, x + 0.75) == pytest.approx(0.75, abs=1e-12)


def test_quantile_rejects_multivariate():
    with pytest.raises(ValidationError):
        w1_1d_quantile(np.zeros((4, 2)), np.zeros((4, 2)))


def test_empirical_law_validation():
    with pytest.raises(ValidationError):
        EmpiricalLaw(np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        EmpiricalLaw([[-1.0]])
    with pytest.raises(ValidationError):
        EmpiricalLaw([[math.nan]])


@settings(max_examples=30)
@given(st.integers(2, 6), st.integers(1, 2), st.integers(0, 10_000))
def test_w1_brute_force_property(n, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.exponential(1.0, size=(n, d)).round(3)
    b = rng.exponential(1.0, size=(n, d)).round(3)
    assert w1_exact_empirical(a, b) == pytest.approx(brute_force_w1(a, b), abs=1e-12)


# d=1 batches as the samplers produce them: many exact zeros (the extinction
# atom) and ties; counts stay small so the lcm-expanded assignment is cheap
_d1_batch = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.5]),
              st.floats(0.0, 10.0)),
    min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(_d1_batch, _d1_batch, st.booleans())
def test_w1_1d_sorted_pairing_equals_assignment(xs, ys, equal_counts):
    if equal_counts:
        ys = (ys * len(xs))[:len(xs)]
    a = np.array(xs)[:, None]
    b = np.array(ys)[:, None]
    assert w1_exact_empirical(a, b) == pytest.approx(_w1_assignment(a, b), abs=1e-12)


# counts n at which some float breakpoint k/n times n rounds above k, so a
# quantile index taken from it would read the next sorted sample
@pytest.mark.parametrize("n_a, n_b", [(1, 25), (3, 29), (5, 35), (2, 38), (4, 39)])
def test_w1_1d_at_counts_whose_breakpoints_round_up(n_a, n_b):
    rng = np.random.default_rng(n_a * 100 + n_b)
    a = rng.gamma(2.0, size=(n_a, 1))
    b = rng.gamma(3.0, size=(n_b, 1))
    assert w1_1d_quantile(a, b) == pytest.approx(_w1_assignment(a, b), abs=1e-12)
    assert w1_1d_quantile(b, a) == pytest.approx(_w1_assignment(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# exact quadratic total variation
# ---------------------------------------------------------------------------


def test_tv_exact_frozen_value_and_sandwich():
    v = tv_exact_quadratic(1.0, 2.0, 1.0, 1.0, LN2)
    assert v == pytest.approx(0.5269027759222848, abs=1e-9)
    lower = 2 * abs(math.exp(-1.0) - math.exp(-2.0))
    upper = 2 * (1 - math.exp(-1.0))
    assert lower < v < upper


def test_tv_exact_trivial_and_symmetry():
    assert tv_exact_quadratic(1.5, 1.5, 1.0, 1.0, 1.0) == 0.0
    a = tv_exact_quadratic(0.3, 2.7, 2.0, 0.5, 0.9)
    b = tv_exact_quadratic(2.7, 0.3, 2.0, 0.5, 0.9)
    assert a == pytest.approx(b, rel=1e-12)
    assert 0.0 < a < 2.0


def test_tv_exact_zero_start_closed_form():
    # against delta_0 the law differs by its full continuous mass plus atom gap
    for y, b, c, t in [(2.0, 1.0, 1.0, LN2), (1.0, 0.0, 1.0, 1.0), (3.0, -0.5, 2.0, 0.7)]:
        a_dec = math.exp(-b * t)
        theta = c * ((1 - math.exp(-b * t)) / b if b != 0 else t)
        target = 2 * (1 - math.exp(-y * a_dec / theta))
        assert tv_exact_quadratic(0.0, y, b, c, t) == pytest.approx(target, rel=1e-12)


def test_tv_exact_quadrature_cross_check():
    # independent route: adaptive quadrature of |f_x - f_y| plus atom gap
    from scipy import integrate, special

    b, c, t = 1.0, 1.0, LN2
    theta = c * (1 - math.exp(-t))
    mx, my = 1.0 * math.exp(-t) / theta, 2.0 * math.exp(-t) / theta
    ks = np.arange(1, 40)

    def dens(w, m):
        pk = stats.poisson.pmf(ks, m)
        logpdf = (special.xlogy(ks - 1, w) - w / theta
                  - special.gammaln(ks) - ks * math.log(theta))
        return float((pk * np.exp(logpdf)).sum())

    val, err = integrate.quad(lambda w: abs(dens(w, mx) - dens(w, my)), 0, 60, limit=400)
    target = abs(math.exp(-mx) - math.exp(-my)) + val
    assert tv_exact_quadratic(1.0, 2.0, b, c, t) == pytest.approx(target, abs=1e-7)


def test_tv_exact_monotone_in_separation():
    vals = [tv_exact_quadratic(1.0, y, 1.0, 1.0, 1.0) for y in (1.5, 2.0, 3.0, 5.0)]
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    assert all(0 < v < 2 for v in vals)


def test_tv_exact_validation():
    with pytest.raises(ValidationError):
        tv_exact_quadratic(1.0, 2.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        tv_exact_quadratic(1.0, 2.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        tv_exact_quadratic(-1.0, 2.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# histogram total variation
# ---------------------------------------------------------------------------


def test_tv_empirical_identical_zero():
    rng = np.random.default_rng(2)
    x = rng.gamma(2.0, size=(500, 1))
    est = tv_empirical(x, x)
    assert float(est) == 0.0 and est.spread == 0.0 and est.atom_gap == 0.0


def test_tv_empirical_disjoint_supports():
    zeros = np.zeros((400, 1))
    pos = np.random.default_rng(3).gamma(2.0, size=(400, 1)) + 0.1
    est = tv_empirical(zeros, pos)
    assert float(est) == pytest.approx(2.0)
    assert est.atom_gap == pytest.approx(1.0)


def test_tv_empirical_cross_validates_exact():
    # tolerance: bin-sensitivity spread plus a bounded-differences noise
    # bound 4*sqrt(1/n_a + 1/n_b) for the sampling error
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    n = 100_000
    rng = np.random.default_rng(7)
    cfg = SimConfig(n_samples=n)
    xa = sample_transition([1.0], mech, LN2, cfg, rng)
    xb = sample_transition([2.0], mech, LN2, cfg, rng)
    est = tv_empirical(xa, xb)
    exact = tv_exact_quadratic(1.0, 2.0, 1.0, 1.0, LN2)
    assert abs(float(est) - exact) <= est.spread + 4 * math.sqrt(2.0 / n)
    assert isinstance(est, TVEstimate) and isinstance(est, float)


def test_tv_empirical_atom_matches_extinction_gap():
    # the separated atom difference estimates |e^{-x vbar} - e^{-y vbar}|
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    n = 50_000
    rng = np.random.default_rng(13)
    cfg = SimConfig(n_samples=n)
    xa = sample_transition([1.0], mech, LN2, cfg, rng)
    xb = sample_transition([2.0], mech, LN2, cfg, rng)
    vbar = vbar_scalar(dominating_mechanism(mech), LN2)
    target = abs(math.exp(-1.0 * vbar) - math.exp(-2.0 * vbar))
    est = tv_empirical(xa, xb)
    se = math.sqrt(2 * 0.25 / n)  # conservative binomial bound on each side
    assert abs(est.atom_gap - target) < 4 * se


def test_tv_empirical_multivariate():
    rng = np.random.default_rng(19)
    a = rng.gamma(2.0, size=(20_000, 2))
    b = rng.gamma(2.0, size=(20_000, 2)) * 1.5
    est = tv_empirical(a, b, bins=32)
    assert 0.0 < float(est) < 2.0
    same = tv_empirical(a, a, bins=32)
    assert float(same) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, 128 if d < 3 else 12))),
       st.integers(1, 40), st.floats(0, 1), st.floats(0, 1), st.booleans(), st.integers(0, 2**32 - 1))
def test_tv_empirical_of_a_coupling_is_at_most_twice_its_differ(d_bins, n, p_shared, p_zero,
                                                                 ties, seed):
    # rows whose legs are equal fall in the same cell (or the atom) on both
    # sides and cancel, so the histogram TV of a coupled batch is at most
    # 2 differ(); the d = 3 grids stay small
    d, bins = d_bins
    rng = np.random.default_rng(seed)

    def leg():
        x = rng.exponential(size=(n, d)) * (rng.random((n, 1)) >= p_zero)
        return np.round(x) if ties else x

    left, right = leg(), leg()
    shared = rng.random(n) < p_shared
    right[shared] = left[shared]
    assert float(tv_empirical(left, right, bins)) <= 2 * CoupledPair(left, right).differ() + 1e-12


def test_tv_empirical_histogram_cap(monkeypatch):
    # the doubled pass has (2 bins + 2)^d cells; past the cap the call refuses
    # before any histogram is allocated
    def no_histogram(*args, **kwargs):
        raise AssertionError("a refused grid must not be allocated")

    monkeypatch.setattr(np, "histogramdd", no_histogram)
    with pytest.raises(ValidationError, match="128 bins per axis in d = 4"):
        tv_empirical(np.ones((5, 4)), np.ones((5, 4)))  # 258^4 cells
    monkeypatch.undo()
    rng = np.random.default_rng(23)
    a, b = rng.gamma(2.0, size=(200, 2)), rng.gamma(2.0, size=(200, 2))
    assert 0.0 < tv_empirical(a, b) < 2.0  # 258^2 cells: the shipped d <= 2 grids stay allowed
    monkeypatch.setattr(distance, "HISTOGRAM_CAP", (2 * 8 + 2) ** 2)
    assert 0.0 < tv_empirical(a, b, bins=8) < 2.0  # exactly at the cap
    with pytest.raises(ValidationError, match="9 bins per axis in d = 2"):
        tv_empirical(a, b, bins=9)


def test_tv_empirical_validation():
    with pytest.raises(ValidationError):
        tv_empirical(np.zeros((5, 1)), np.zeros((5, 2)))
    with pytest.raises(ValidationError):
        tv_empirical(np.zeros((5, 1)), np.zeros((5, 1)), bins=1)
