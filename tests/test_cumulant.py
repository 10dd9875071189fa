"""Cumulant solver vs closed forms, envelope routes, and moment-flow oracles."""

import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from cbilab import cumulant
from cbilab.cli import main
from cbilab.cumulant import (
    discount_integral,
    extinction_envelope,
    integrated_moment_matrix,
    mean_vector,
    moment_semigroup,
    reciprocal_envelope,
    solve_cumulant,
    stationary_mean,
    tail_immigrant_mass,
    vbar_scalar,
    vbar_vector,
)
from cbilab.errors import BlowUpError, GreyConditionError, NumericError, ValidationError
from cbilab.mechanism import (
    BranchingMechanism,
    ExponentialAxis,
    ImmigrationMechanism,
    MotionGenerator,
    PointMass,
    StableAxis,
    beta_star,
    dominating_mechanism,
    fold_motion,
)
from closed_forms import closed_form_quadratic

LN2 = math.log(2.0)


def folded_two_type():
    return fold_motion(
        BranchingMechanism(b=[1.0, 2.0], c=[1.0, 3.0]),
        MotionGenerator([[-1.0, 1.0], [1.0, -1.0]]),
    )


def stable_one_type():
    return BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_form_quadratic_examples():
    assert closed_form_quadratic(1.0, 1.0, 0.0, 2.0) == 0.0
    assert closed_form_quadratic(1.0, 1.0, 1.0, LN2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # critical drift uses the q(0,t) = t limit
    assert closed_form_quadratic(0.0, 1.0, 2.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert discount_integral(0.0, 3.5) == 3.5
    assert discount_integral(2.0, 1.0) == pytest.approx((1 - math.exp(-2.0)) / 2.0, abs=1e-15)


@given(
    st.floats(-1.0, 3.0),
    st.floats(0.01, 3.0),
    st.floats(0.0, 20.0),
    st.floats(0.01, 2.0),
    st.floats(0.01, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_closed_form_flow_property(b, c, lam, t, s):
    # the closed form is an exact flow: v(t+s) = v(t) started from v(s)
    direct = closed_form_quadratic(b, c, lam, t + s)
    composed = closed_form_quadratic(b, c, closed_form_quadratic(b, c, lam, s), t)
    assert direct == pytest.approx(composed, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# solver vs closed form
# ---------------------------------------------------------------------------


def test_solver_matches_closed_form_on_grid():
    worst = 0.0
    for bs, cs in [(1.0, 1.0), (0.0, 1.0), (2.0, 0.5)]:
        mech = BranchingMechanism(b=[bs], c=[cs])
        for lam in (0.1, 1.0, 10.0):
            path = solve_cumulant(mech, [lam], 5.0, tol=1e-12,
                                  t_eval=[0.01, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0])
            for tt, v in zip(path.t_grid[1:], path.v_values[1:, 0]):
                exact = closed_form_quadratic(bs, cs, lam, tt)
                worst = max(worst, abs(v - exact) / exact)
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"


def test_solver_point_examples():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    assert np.all(solve_cumulant(mech, [0.0], 2.0).final == 0.0)
    v1 = solve_cumulant(mech, [1.0], 1.0, tol=1e-12).final[0]
    assert v1 == pytest.approx(math.exp(-1) / (2 - math.exp(-1)), rel=1e-10)
    vln2 = solve_cumulant(mech, [1.0], LN2, tol=1e-12).final[0]
    assert vln2 == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_path_structure_and_invariants():
    mech = folded_two_type()
    lam0 = [2.0, 5.0]
    path = solve_cumulant(mech, lam0, 3.0, tol=1e-10, t_eval=np.linspace(0.5, 3.0, 6))
    assert path.t_grid[0] == 0.0 and path.t_grid[-1] == 3.0
    assert np.allclose(path.v_values[0], lam0)
    assert np.all(path.v_values >= 0)
    # subcritical flow from nonnegative start decays monotonically here
    assert np.all(np.diff(path.v_values, axis=0) <= 1e-12)


def test_csv_roundtrip(tmp_path):
    # `cbilab cumulant` writes the solved path on its output grid, exactly
    doc = {"schema_version": 1, "dimension": 2,
           "motion": {"rates": [[-1.0, 1.0], [1.0, -1.0]]},
           "mechanism": {"b": [1.0, 2.0], "c": [1.0, 3.0]},
           "initial": {"mu": [1.0, 1.0]}, "times": [1.0],
           "sim": {"n_samples": 10, "dt": 0.1}}
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert main(["cumulant", str(doc_path), "--lam", "1", "--grid", "5",
                 "--out", str(tmp_path)]) == 0
    path = solve_cumulant(folded_two_type(), [1.0, 1.0], 1.0, t_eval=[0.25, 0.5, 0.75])
    assert (tmp_path / "cumulant.csv").read_text().split("\n")[0] == "t,v_1,v_2"
    data = np.loadtxt(tmp_path / "cumulant.csv", delimiter=",", skiprows=1)
    assert data.shape == (5, 3)
    assert np.array_equal(data[:, 0], path.t_grid)
    assert np.array_equal(data[:, 1:], path.v_values)


def test_blow_up_detection(monkeypatch):
    # strongly supercritical linear flow must trip the ceiling, not hang
    mech = BranchingMechanism(b=[-5.0], c=[0.0])
    monkeypatch.setattr(cumulant, "FLOW_CEILING", 1e3)
    with pytest.raises(BlowUpError):
        solve_cumulant(mech, [1.0], 10.0)


def test_semigroup_law():
    for mech in (folded_two_type(), stable_one_type()):
        rng = np.random.default_rng(7)
        for _ in range(4):
            lam = rng.uniform(0.1, 5.0, size=mech.d)
            for t in (0.1, 0.5, 1.0):
                for s in (0.1, 0.5, 1.0):
                    vs = solve_cumulant(mech, lam, s, tol=1e-10).final
                    composed = solve_cumulant(mech, vs, t, tol=1e-10).final
                    direct = solve_cumulant(mech, lam, t + s, tol=1e-10).final
                    assert np.allclose(direct, composed, rtol=1e-9, atol=1e-12)


def test_monotone_in_initial_condition():
    mech = folded_two_type()
    rng = np.random.default_rng(11)
    for _ in range(6):
        lam = rng.uniform(0.0, 4.0, size=2)
        lam2 = lam + rng.uniform(0.0, 2.0, size=2)
        v = solve_cumulant(mech, lam, 1.3, tol=1e-10).final
        v2 = solve_cumulant(mech, lam2, 1.3, tol=1e-10).final
        assert np.all(v <= v2 + 1e-9)


def test_scalar_domination():
    # the sup-norm of the vector flow is bounded by the dominating scalar flow
    for mech in (folded_two_type(), stable_one_type()):
        phi_star = dominating_mechanism(mech)
        rng = np.random.default_rng(3)
        for _ in range(5):
            lam = rng.uniform(0.0, 8.0, size=mech.d)
            for t in (0.3, 1.0, 2.5):
                v = solve_cumulant(mech, lam, t, tol=1e-10).final
                cap = solve_cumulant(phi_star, [float(np.max(lam))], t, tol=1e-10).final[0]
                assert np.max(v) <= cap + 1e-9


def test_jensen_mean_bound():
    # v(t, lam) <= pi_t lam componentwise (concavity of the Laplace exponent)
    mech = folded_two_type()
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam = rng.uniform(0.0, 3.0, size=2)
        for t in (0.2, 1.0, 3.0):
            v = solve_cumulant(mech, lam, t, tol=1e-10).final
            assert np.all(v <= moment_semigroup(mech, t) @ lam + 1e-9)


# ---------------------------------------------------------------------------
# the stepper's lanes
# ---------------------------------------------------------------------------


@st.composite
def lane_problems(draw):
    """A mechanism of 1-3 types (any jump kinds, maybe eta), immigration or
    not, and a batch of starts with one horizon and output grid."""
    d = draw(st.integers(1, 3))

    def reals(lo, hi, n=d):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    eta = np.array(reals(0.0, 0.5, d * d)).reshape(d, d) * draw(st.booleans())
    np.fill_diagonal(eta, 0.0)
    jumps = []
    for i in range(d):
        comps = []
        if draw(st.booleans()):
            comps.append(PointMass(u=np.array(reals(0.0, 1.0)) + np.eye(d)[i],
                                   weight=draw(st.floats(0.1, 1.0))))
        if draw(st.booleans()):
            comps.append(ExponentialAxis(axis=draw(st.integers(0, d - 1)),
                                         mean=draw(st.floats(0.1, 1.0)), rate=draw(st.floats(0.1, 1.0))))
        if draw(st.booleans()):
            comps.append(StableAxis(axis=i, alpha=draw(st.floats(0.1, 0.9)), scale=draw(st.floats(0.1, 1.0))))
        jumps.append(tuple(comps))
    mech = BranchingMechanism(b=reals(-1.0, 2.0), c=reals(0.0, 2.0), eta=eta, jumps=tuple(jumps))
    imm = ImmigrationMechanism(beta=reals(0.0, 1.0)) if draw(st.booleans()) else None
    starts = np.array([reals(0.0, 1e3) for _ in range(draw(st.integers(1, 5)))])
    t_end = draw(st.floats(0.05, 3.0))
    fractions = draw(st.lists(st.floats(0.01, 0.99), max_size=3))
    tol = draw(st.sampled_from([1e-10, 1e-8, 1e-6]))
    ceiling = draw(st.sampled_from([1e12, 50.0]))
    # distinct fractions can round to one time, so repeats go after scaling
    return mech, imm, starts, t_end, sorted({s * t_end for s in fractions}) or None, tol, ceiling


@given(lane_problems())
@settings(max_examples=60, deadline=None)
def test_lanes_match_one_lane_solves_bit_for_bit(problem):
    mech, imm, starts, t_end, t_eval, tol, ceiling = problem
    grid = cumulant._record_times(t_end, t_eval)
    real = cumulant._flow_lanes
    one_lane = []

    def recorded(*args):
        out = real(*args)
        one_lane.append((out[1][0], out[2][0]))
        return out

    with patch.object(cumulant, "FLOW_CEILING", ceiling):
        vals, n_acc, n_rej, errors = real(mech, starts, t_end, tol, grid, imm)
        for lane, lam in enumerate(starts):
            try:
                with patch.object(cumulant, "_flow_lanes", recorded):
                    alone = solve_cumulant(mech, lam, t_end, tol, t_eval=t_eval, imm=imm)
            except (NumericError, ValidationError) as exc:
                assert type(errors[lane]) is type(exc) and str(errors[lane]) == str(exc)
                continue
            assert errors[lane] is None
            assert np.array_equal(vals[lane, :, :mech.d], alone.v_values)
            if imm is not None:
                assert np.array_equal(vals[lane, :, mech.d], alone.imm_integral)
            # the accepted and rejected step counts are the one-lane solve's
            assert (n_acc[lane], n_rej[lane]) == one_lane[-1] == (alone.n_steps, alone.n_rejected)
            assert type(alone.n_steps) is int and type(alone.n_rejected) is int


def test_tolerance_outside_double_precision_refused():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    for tol in (0.0, 1e-300, 1e-15, 1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tol must be"):
            solve_cumulant(mech, [1.0], 1.0, tol=tol)
    assert solve_cumulant(mech, [1.0], 0.1, tol=1e-14).n_steps > 0


def test_non_finite_error_estimate_stops_the_lane():
    # a derivative that turns NaN past y = 1.5 used to be retried with
    # ever smaller steps until the step size underflowed
    def f(Y):
        return np.where(Y < 1.5, 1.0, np.nan)

    grid = np.array([0.0, 3.0])
    _, _, _, errors = cumulant._integrate(f, np.array([[0.0], [2.0]]), 3.0, 1e-8, 1e-14, grid, 1e12)
    assert all(isinstance(e, NumericError) and "non-finite error estimate" in str(e) for e in errors)


# ---------------------------------------------------------------------------
# extinction envelopes
# ---------------------------------------------------------------------------


def test_vbar_scalar_examples():
    assert vbar_scalar(BranchingMechanism(b=[1.0], c=[1.0]), LN2) == pytest.approx(1.0, rel=1e-12)
    for t in (0.5, 1.0, 2.0):
        assert vbar_scalar(BranchingMechanism(b=[0.0], c=[1.0]), t) == pytest.approx(1.0 / t, rel=1e-10)
    with pytest.raises(GreyConditionError):
        vbar_scalar(BranchingMechanism(b=[1.0], c=[0.0]), 1.0)


def test_vbar_scalar_negative_drift():
    # closed form stays valid for negative drift; root route must agree
    val = vbar_scalar(BranchingMechanism(b=[-1.0], c=[1.0]), 1.0)
    assert val == pytest.approx(math.e / (math.e - 1.0), rel=1e-10)


def test_vbar_stable_two_routes():
    # root of the tail integral vs the ladder limit of the actual flow
    phi_star = BranchingMechanism(b=[0.6], c=[0.3], jumps=((StableAxis(0, 0.5, 0.25),),))
    root = vbar_scalar(phi_star, 1.0)
    ladder = vbar_vector(stable_one_type(), 1.0)[0]
    assert root == pytest.approx(ladder, abs=1e-6)
    # regression value recorded at first build
    assert root == pytest.approx(1.2508147970, abs=1e-8)


def test_vbar_vector_matches_scalar_d1():
    assert vbar_vector(BranchingMechanism(b=[1.0], c=[1.0]), LN2)[0] == pytest.approx(
        1.0, abs=1e-7
    )
    # the ladder reaches Vbar from below and within 1e-8 of the closed form
    # 1/(e^t - 1); the exact-route tv_sandwich rows are identities whose
    # 1e-9 pass window holds only because of that one-sided approach
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    for t in (0.5, 1.0, 2.0, 3.0, 4.0):
        gap = 1.0 / math.expm1(t) - vbar_vector(mech, t)[0]
        assert 0.0 <= gap <= 1e-8, (t, gap)


def test_vbar_vector_monotone_and_symmetric():
    mech = folded_two_type()
    early = vbar_vector(mech, 0.5)
    late = vbar_vector(mech, 1.5)
    assert np.all(late <= early + 1e-7)
    # exchangeable types give equal coordinates
    sym = fold_motion(
        BranchingMechanism(b=[1.0, 1.0], c=[1.0, 1.0]),
        MotionGenerator([[-0.5, 0.5], [0.5, -0.5]]),
    )
    v = vbar_vector(sym, 1.0)
    assert v[0] == pytest.approx(v[1], abs=1e-7)


def _ladder_rungs(mech, t):
    """The ladder, and the step counts of one solve per rung up to the
    stopping rung, whose index comes last."""
    ladder = 10.0 ** np.arange(1, 13)
    tol = 1e-8 * min(1.0, vbar_scalar(dominating_mechanism(mech), t))
    paths = []
    for lam in ladder:
        paths.append(solve_cumulant(mech, lam * np.ones(mech.d), t, 1e-10))
        if len(paths) > 1 and np.max(np.abs(paths[-1].final - paths[-2].final)) < tol:
            break
    return ladder, [p.n_steps + p.n_rejected for p in paths], len(paths) - 1


def test_vbar_ladder_lanes_fail_in_isolation(monkeypatch):
    mech, t = BranchingMechanism(b=[1.0], c=[1.0]), 1.0
    expected = vbar_vector(mech, t)
    ladder, steps, stop = _ladder_rungs(mech, t)
    assert steps == sorted(set(steps))  # higher rungs take strictly more steps
    # a step limit that the rungs up to the stop meet and the next one does not
    monkeypatch.setattr(cumulant, "_MAX_STEPS", steps[stop] - 1)
    with pytest.raises(NumericError, match="exceeded"):
        solve_cumulant(mech, [ladder[stop + 1]], t, 1e-10)
    assert np.array_equal(vbar_vector(mech, t), expected)
    # the rung before the stop exceeds the limit: the error of that rung's own solve
    monkeypatch.setattr(cumulant, "_MAX_STEPS", steps[stop - 1] - 2)
    with pytest.raises(NumericError) as alone:
        solve_cumulant(mech, [ladder[stop - 1]], t, 1e-10)
    with pytest.raises(NumericError) as batch:
        vbar_vector(mech, t)
    assert str(batch.value) == str(alone.value)


def test_vbar_ladder_lanes_fail_in_isolation_on_evaluation(monkeypatch):
    mech, t = folded_two_type(), 1.0
    expected = vbar_vector(mech, t)
    _, _, stop = _ladder_rungs(mech, t)
    real_phi = cumulant.eval_phi

    def phi_below(limit):
        def phi(mech, lam):
            if np.any(np.asarray(lam) > limit):
                raise ValidationError(f"phi refused above {limit:g}")
            return real_phi(mech, lam)
        return phi

    # rungs past the stop cannot be evaluated at all
    monkeypatch.setattr(cumulant, "eval_phi", phi_below(10.0 ** (stop + 1.5)))
    assert np.array_equal(vbar_vector(mech, t), expected)
    # nor can the second rung, well before the stop
    monkeypatch.setattr(cumulant, "eval_phi", phi_below(50.0))
    with pytest.raises(ValidationError, match="phi refused above 50"):
        vbar_vector(mech, t)


def test_vbar_ladder_whose_last_rung_fails_has_not_stabilized(monkeypatch):
    # on the ref_d2_folded mechanism the rungs at 1e10 and 1e11 differ by
    # about 3e-10, so a ladder tolerance of 1e-10 sends the scan to the 1e12
    # rung, which the stepper cannot start from
    mech = folded_two_type()
    with pytest.raises(NumericError, match="underflow") as top:
        solve_cumulant(mech, [1e12, 1e12], 0.5, 1e-12)
    monkeypatch.setattr(cumulant, "_LADDER_TOL", 1e-10)
    with pytest.raises(NumericError, match="failed to stabilize within tol=1e-10") as ladder:
        vbar_vector(mech, 0.5)
    assert str(top.value) in str(ladder.value)
    assert not isinstance(ladder.value, GreyConditionError)


def test_vbar_vector_runs_the_ladder_as_one_batch(monkeypatch):
    batches = []
    real = cumulant._integrate

    def counting(f, y0, *args, **kwargs):
        batches.append(np.shape(y0))
        return real(f, y0, *args, **kwargs)

    monkeypatch.setattr(cumulant, "_integrate", counting)
    vbar_vector(folded_two_type(), 1.0)
    assert batches == [(12, 2)]


# the mechanisms of the three shipped reference scenarios, at their times
SHIPPED = [
    pytest.param(BranchingMechanism(b=[1.0], c=[1.0]), (0.5, 1.0, 2.0, 3.0, 4.0), id="quadratic"),
    pytest.param(stable_one_type(), (1.0, 2.0, 3.5), id="stable"),
    pytest.param(folded_two_type(), (0.5, 1.0, 2.0, 3.0), id="folded"),
]


@pytest.mark.parametrize("mech, times", SHIPPED)
def test_ladder_stops_once_its_rung_is_found(mech, times):
    # the whole ladder run to its last rung, scanned as the ladder scans it
    t = times[-1]
    ladder = 10.0 ** np.arange(1, 13)
    vals, _, _, errors = cumulant._flow_lanes(mech, ladder[:, None] * np.ones(mech.d), t, 1e-10,
                                              np.array([0.0, t]))
    rungs = vals[:, -1]
    tol = 1e-8 * min(1.0, vbar_scalar(dominating_mechanism(mech), t))
    stop = next(k for k in range(1, 12) if np.max(np.abs(rungs[k] - rungs[k - 1])) < tol)
    assert all(e is None for e in errors[:stop + 1])
    assert np.array_equal(vbar_vector(mech, t), rungs[stop])


def test_ladder_matches_the_reciprocal_route_at_a_small_envelope():
    # on the ref_d2_folded mechanism at t = 12, Vbar is about 7.4e-8, below
    # an absolute 1e-8 stop and 1e-7 gap; relative ones still bind there
    mech, t = folded_two_type(), 12.0
    cap = vbar_scalar(dominating_mechanism(mech), t)
    gap = np.max(np.abs(vbar_vector(mech, t) - reciprocal_envelope(mech, [t])[0]))
    assert gap <= 1e-7 * min(1.0, cap), (gap, cap)


def test_reciprocal_route_matches_the_closed_form():
    # b = c = 1: Vbar_t = 1/(e^t - 1), at the times of ref_d1_quadratic
    times = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    got = reciprocal_envelope(BranchingMechanism(b=[1.0], c=[1.0]), times)[:, 0]
    np.testing.assert_allclose(got, 1.0 / np.expm1(times), rtol=1e-11, atol=0)


@pytest.mark.parametrize("mech, times", SHIPPED)
def test_reciprocal_route_takes_few_steps(mech, times, monkeypatch):
    # the cost guard of the envelope: one solve over every time, counted in
    # accepted steps rather than timed (the v-form ladder needs 1,150-1,350)
    steps = []
    real = cumulant._integrate

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        steps.append(out[1])
        return out

    monkeypatch.setattr(cumulant, "_integrate", counting)
    reciprocal_envelope(mech, times)
    assert len(steps) == 1 and steps[0][0] <= 400, steps


def test_envelope_holds_no_nodes():
    # the memory guard of the integrator, on the ref_d2_folded mechanism at
    # that document's times: it keeps each lane's values at the requested
    # times and its step counts, and no accepted node of the ladder's twelve
    # lanes or of the reciprocal lane (those nodes take about 800 KB)
    mech, times = folded_two_type(), (0.5, 1.0, 2.0, 3.0)
    extinction_envelope(mech, times)  # the first call fills caches outside the traced window
    tracemalloc.start()
    try:
        extinction_envelope(mech, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_single_time_envelope_is_cross_checked(monkeypatch):
    # d = 2: the ladder at the last time is the second route, and it takes
    # that time's scalar root as its cap instead of finding it again
    mech = folded_two_type()
    ladders, roots = [], []
    real_ladder, real_root = cumulant.vbar_vector, cumulant.vbar_scalar

    def shifted(m, t, **kwargs):
        ladders.append((t, kwargs))
        return real_ladder(m, t, **kwargs) + 1e-6

    def root(phi_star, t):
        roots.append(t)
        return real_root(phi_star, t)

    monkeypatch.setattr(cumulant, "vbar_vector", shifted)
    monkeypatch.setattr(cumulant, "vbar_scalar", root)
    with pytest.raises(NumericError, match="routes disagree at t=0.5: reciprocal flow .*, ladder "):
        extinction_envelope(mech, [0.5])
    assert ladders == [(0.5, {"cap": real_root(dominating_mechanism(mech), 0.5)})]
    assert roots == [0.5]


def test_unstable_ladder_leaves_the_envelope_unavailable():
    # no quadratic part and stable index 0.5: the envelope is finite (Grey
    # holds), but rungs up to 1e12 still differ by more than the ladder's tol,
    # and the reciprocal flow, which starts at 1e12, sits 1.5e-5 relative
    # below the scalar root.  In d = 1 that root is the second route, so the
    # envelope is unavailable with its reason.
    mech = BranchingMechanism(b=[0.6], c=[0.0], jumps=((StableAxis(0, 0.5, 0.25),),))
    assert reciprocal_envelope(mech, [0.5, 1.0]).shape == (2, 1)
    with pytest.raises(NumericError, match="routes disagree at t=0.5: reciprocal flow .*, scalar root "):
        extinction_envelope(mech, [0.5, 1.0])
    with pytest.raises(NumericError, match="ladder failed to stabilize within tol=1e-08"):
        vbar_vector(mech, 1.0)


@pytest.mark.parametrize("mech, times", SHIPPED[:2])
def test_one_dimensional_envelope_is_checked_at_every_time(mech, times, monkeypatch):
    # in d = 1, phi_* is phi: the scalar root at each time is the envelope,
    # so no ladder runs and a 1e-6 drop of the flow at an interior time,
    # which the one-sided certificate lets pass, is caught
    monkeypatch.setattr(cumulant, "vbar_vector", None)
    assert dominating_mechanism(mech).jumps == mech.jumps
    exact = [vbar_scalar(dominating_mechanism(mech), t) for t in times]
    np.testing.assert_allclose(extinction_envelope(mech, times)[:, 0], exact, rtol=1e-7, atol=0)
    real = cumulant.reciprocal_envelope

    def dropped(m, ts):
        out = real(m, ts)
        out[1] -= 1e-6
        return out

    monkeypatch.setattr(cumulant, "reciprocal_envelope", dropped)
    with pytest.raises(NumericError, match=f"routes disagree at t={times[1]:g}: .* scalar root "):
        extinction_envelope(mech, times)


def test_one_dimensional_envelope_keeps_the_ladder_when_phi_star_drops_a_jump():
    # phi_* keeps no point-mass jump, so its root only bounds the envelope;
    # the ladder at the last time checks the flow instead
    mech = BranchingMechanism(b=[1.0], c=[1.0], jumps=((PointMass(u=[1.0], weight=0.5),),))
    grid = extinction_envelope(mech, [0.5, 1.0])
    np.testing.assert_allclose(grid[-1], vbar_vector(mech, 1.0), rtol=0, atol=1e-7)
    assert grid[-1, 0] < vbar_scalar(dominating_mechanism(mech), 1.0) * (1 - 1e-3)


def test_envelope_times_must_be_positive():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    for times in ([], [0.0, 1.0], [1.0, 0.5]):
        with pytest.raises(ValidationError):
            extinction_envelope(mech, times)


def test_vbar_vector_rejects_linear_mechanism():
    with pytest.raises(GreyConditionError):
        vbar_vector(BranchingMechanism(b=[1.0], c=[0.0]), 1.0)


# ---------------------------------------------------------------------------
# moment semigroup and mean flows
# ---------------------------------------------------------------------------


def test_moment_semigroup_examples():
    mech1 = BranchingMechanism(b=[1.0], c=[1.0])
    assert np.allclose(moment_semigroup(mech1, 0.0), np.eye(1))
    assert moment_semigroup(mech1, 1.0)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    mech2 = folded_two_type()
    P = moment_semigroup(mech2, 1.0)
    assert np.all(P >= 0)
    assert np.all(P.sum(axis=1) <= math.exp(-1.0) + 1e-12)
    # independent oracle: eigendecomposition of M = [[-2,1],[1,-3]]
    M = np.array([[-2.0, 1.0], [1.0, -3.0]])
    w, V = np.linalg.eig(M)
    P_eig = (V * np.exp(w)) @ np.linalg.inv(V)
    assert np.allclose(P, P_eig, atol=1e-12)


def test_moment_decay_rate():
    mech = folded_two_type()
    bs = beta_star(mech)
    rng = np.random.default_rng(17)
    for t in (0.5, 1.0, 3.0):
        P = moment_semigroup(mech, t)
        for _ in range(20):
            f = rng.uniform(0.0, 5.0, size=2)
            assert np.max(P @ f) <= math.exp(-bs * t) * np.max(f) + 1e-10


def test_integrated_moment_matrix_quadrature():
    mech = folded_two_type()
    M = np.array([[-2.0, 1.0], [1.0, -3.0]])
    I = integrated_moment_matrix(mech, 1.5)
    for a in range(2):
        for b in range(2):
            val, _ = quad(lambda s: expm(s * M)[a, b], 0.0, 1.5, limit=200)
            assert I[a, b] == pytest.approx(val, abs=1e-10)


def test_mean_vector_with_immigration():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    imm = ImmigrationMechanism(beta=[2.0])
    # transition only: mu e^{-t}
    assert mean_vector(mech, [3.0], 2.0)[0] == pytest.approx(3 * math.exp(-2.0), rel=1e-12)
    # plus immigration: beta int_0^t e^{-s} ds
    m = mean_vector(mech, [1.0], 1.0, imm=imm)[0]
    assert m == pytest.approx(math.exp(-1.0) + 2 * (1 - math.exp(-1.0)), rel=1e-12)


def test_stationary_mean_and_tail_mass():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    imm = ImmigrationMechanism(beta=[2.0])
    assert stationary_mean(mech, imm)[0] == pytest.approx(2.0, rel=1e-13)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert tail_immigrant_mass(mech, imm, t) == pytest.approx(2 * math.exp(-t), rel=1e-12)
    # two-type: cross-check the linear solve against truncated quadrature
    mech2 = folded_two_type()
    imm2 = ImmigrationMechanism(beta=[0.4, 0.2], nu=(PointMass(u=[0.5, 0.5], weight=0.3),))
    target = stationary_mean(mech2, imm2)
    influx = imm2.beta + imm2.first_moment()
    M = np.array([[-2.0, 1.0], [1.0, -3.0]])
    approx = np.array([
        quad(lambda s: (expm(s * M).T @ influx)[i], 0.0, 60.0, limit=400)[0] for i in range(2)
    ])
    assert np.allclose(target, approx, atol=1e-9)
    # supercritical refusal
    with pytest.raises(ValidationError):
        stationary_mean(BranchingMechanism(b=[-0.5], c=[1.0]), imm)


def test_immigration_integral_augmentation():
    # int_0^t beta v(s,lam) ds for the quadratic flow has the exact value
    # (beta/c) log(1 + c q(b,t) lam); the augmented solve must reproduce it
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    imm = ImmigrationMechanism(beta=[2.0])
    for lam, t in [(1.0, 1.0), (0.5, 2.0), (10.0, 0.7)]:
        path = solve_cumulant(mech, [lam], t, tol=1e-12, imm=imm)
        exact = 2.0 * math.log(1.0 + discount_integral(1.0, t) * lam)
        assert path.imm_integral[-1] == pytest.approx(exact, rel=1e-10)
    assert path.imm_integral[0] == 0.0


def test_t_eval_validation():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    with pytest.raises(ValidationError):
        solve_cumulant(mech, [1.0], 1.0, t_eval=[0.5, 0.25])
    with pytest.raises(ValidationError):
        solve_cumulant(mech, [1.0], 1.0, t_eval=[0.5, 2.0])
    with pytest.raises(ValidationError, match="t_eval"):
        solve_cumulant(mech, [1.0], 1.0, t_eval=[])
    with pytest.raises(ValidationError):
        solve_cumulant(mech, [-1.0], 1.0)


def test_output_times_within_rounding_share_a_value():
    # times an ulp or two apart are below the stepper's resolution; the later
    # one takes the value at the earlier one instead of ending in an underflow
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    near = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    path = solve_cumulant(mech, [1.0], near, t_eval=[0.5, 1.0, near])
    assert path.v_values[-1] == path.v_values[-2]
    assert path.v_values[-2] == pytest.approx(closed_form_quadratic(1.0, 1.0, 1.0, 1.0), rel=1e-8)
    lags = [0.0, near - 1.0]  # the envelope grid of the times (1, near)
    assert np.array_equal(*solve_cumulant(mech, [2.0], lags[-1], t_eval=lags).v_values)
