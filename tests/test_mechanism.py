"""Mechanism closed forms against quadrature oracles and hand-computed values.

Expected values were frozen from an independent script that evaluates every
jump integral with scipy.integrate.quad on the raw densities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cbilab.cumulant import vbar_scalar
from cbilab.errors import ValidationError
from cbilab.mechanism import (
    BranchingMechanism,
    ExponentialAxis,
    ImmigrationMechanism,
    MotionGenerator,
    PointMass,
    StableAxis,
    beta_star,
    dominating_mechanism,
    eval_phi,
    eval_psi,
    fold_motion,
    gamma_matrix,
    grey_condition,
    local_projection,
    mass_vector,
    phi_star_tail_integral,
    stable_constant,
)


def two_type_mechanism():
    """Shared fixture: two types, point-mass + exponential jumps, cross drift."""
    return BranchingMechanism(
        b=[1.0, 2.0],
        c=[0.5, 1.0],
        eta=[[0.0, 0.3], [0.2, 0.0]],
        jumps=(
            (PointMass(u=[1.0, 2.0], weight=0.3), ExponentialAxis(axis=0, mean=2.0, rate=0.5)),
            (ExponentialAxis(axis=0, mean=1.5, rate=0.4),),
        ),
    )


# ---------------------------------------------------------------------------
# closed forms vs quadrature oracles
# ---------------------------------------------------------------------------


def test_stable_constant_matches_quadrature():
    # int_0^inf (e^-u - 1 + u) u^{-2-a} du, computed independently with quad
    for a, expected in [(0.3, 3.328347134450), (0.5, 2.363271796209), (0.8, 3.188087152725)]:
        assert abs(stable_constant(a) - expected) < 2e-6


def test_eval_phi_scalar_quadratic():
    mech = BranchingMechanism(b=[1.0], c=[1.0])
    assert eval_phi(mech, [2.0])[0] == pytest.approx(6.0, abs=1e-14)
    assert eval_phi(mech, [0.0])[0] == 0.0


def test_eval_phi_two_type_frozen_oracle():
    mech = two_type_mechanism()
    phi = eval_phi(mech, [0.5, 1.0])
    # frozen from quadrature on the raw jump densities
    assert phi[0] == pytest.approx(0.449625499587, abs=1e-10)
    assert phi[1] == pytest.approx(2.728571428571, abs=1e-10)


def test_local_projection_two_type_frozen_oracle():
    mech = two_type_mechanism()
    assert local_projection(mech, 0, 1.0) == pytest.approx(1.377030499018, abs=1e-10)
    # z=0 is always a root: the projection is a compensated mechanism
    assert local_projection(mech, 0, 0.0) == 0.0
    assert local_projection(mech, 1, 0.0) == 0.0


def test_gamma_matrix_and_beta_star():
    mech = two_type_mechanism()
    g = gamma_matrix(mech)
    # eta_01 + w u_1 = 0.3 + 0.3*2 ; eta_10 + r theta = 0.2 + 0.4*1.5
    assert np.allclose(g, [[0.0, 0.9], [0.8, 0.0]], atol=1e-14)
    assert beta_star(mech) == pytest.approx(0.1, abs=1e-14)


def test_gamma_matches_jacobian_at_zero():
    # gamma_ij = -d phi_i / d lam_j at lam=0 for i != j
    mech = two_type_mechanism()
    g = gamma_matrix(mech)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        dphi = (eval_phi(mech, e) - eval_phi(mech, [0.0, 0.0])) / h
        for i in range(2):
            if i != j:
                assert dphi[i] == pytest.approx(-g[i, j], abs=1e-4)


def test_phi_and_psi_on_a_stack_keep_the_bits_of_row_calls():
    # one stack call validates once and matches a call per row bit for bit
    mech = BranchingMechanism(
        b=[0.5, 1.0], c=[0.3, 0.0], eta=[[0.0, 0.2], [0.1, 0.0]],
        jumps=((PointMass(u=[0.4, 0.1], weight=0.7), StableAxis(0, 0.5, 0.25)),
               (ExponentialAxis(axis=0, mean=0.6, rate=0.9),)),
    )
    imm = ImmigrationMechanism(
        beta=[0.37, 0.81],
        nu=(PointMass(u=[0.3, 0.7], weight=0.5), ExponentialAxis(axis=1, mean=2.0, rate=0.1)),
    )
    scale = np.repeat([1e-3, 1.0, 1e3], [16, 32, 16])[:, None]
    lam = np.random.default_rng(4).exponential(3.0, size=(64, 2)) * scale
    phi, psi = eval_phi(mech, lam), eval_psi(imm, lam)
    assert phi.shape == (64, 2) and psi.shape == (64,)
    for row, phi_row, psi_row in zip(lam, phi, psi):
        assert np.array_equal(eval_phi(mech, row), phi_row)
        assert eval_psi(imm, row) == psi_row
    assert type(eval_psi(imm, lam[0])) is float
    bad = lam.copy()
    bad[5, 1] = -1.0
    for f, m in ((eval_phi, mech), (eval_psi, imm)):
        with pytest.raises(ValidationError, match="lambda >= 0"):
            f(m, bad)
        with pytest.raises(ValidationError, match="dimension"):
            f(m, lam[None])


def test_psi_frozen_oracle():
    imm = ImmigrationMechanism(
        beta=[0.5],
        nu=(ExponentialAxis(axis=0, mean=1.0, rate=1.0), PointMass(u=[2.0], weight=0.25)),
    )
    assert eval_psi(imm, [1.0]) == pytest.approx(1.216166179191, abs=1e-10)
    assert eval_psi(imm, [0.0]) == 0.0
    assert np.allclose(imm.first_moment(), [1.5])


# ---------------------------------------------------------------------------
# motion folding
# ---------------------------------------------------------------------------


def test_fold_motion_is_linear_shift():
    mech = two_type_mechanism()
    A = np.array([[-1.0, 1.0], [0.5, -0.7]])  # second row killed at rate 0.2
    folded = fold_motion(mech, MotionGenerator(A))
    for lam in ([0.5, 1.0], [0.0, 2.0], [3.0, 0.1]):
        lhs = eval_phi(folded, lam)
        rhs = eval_phi(mech, lam) - A @ np.asarray(lam)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_fold_motion_two_type_reference():
    mech = BranchingMechanism(b=[1.0, 2.0], c=[1.0, 3.0])
    folded = fold_motion(mech, MotionGenerator([[-1.0, 1.0], [1.0, -1.0]]))
    assert np.allclose(folded.b, [2.0, 3.0])
    assert np.allclose(folded.eta, [[0.0, 1.0], [1.0, 0.0]])
    assert beta_star(folded) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# dominating mechanism and the explosion-tail condition
# ---------------------------------------------------------------------------


def test_dominating_mechanism_folded_quadratic():
    mech = fold_motion(
        BranchingMechanism(b=[1.0, 2.0], c=[1.0, 3.0]),
        MotionGenerator([[-1.0, 1.0], [1.0, -1.0]]),
    )
    phi_star = dominating_mechanism(mech)
    assert phi_star.d == 1
    assert phi_star.b[0] == pytest.approx(1.0)
    assert phi_star.c[0] == pytest.approx(1.0)
    assert phi_star.is_quadratic()
    # phi_*(z) = z + z^2
    assert local_projection(phi_star, 0, 2.0) == pytest.approx(6.0)
    assert grey_condition(phi_star)
    # int_1^inf dz/(z+z^2) = ln 2, quadrature cross-check of the tail helper
    assert phi_star_tail_integral(phi_star, 1.0) == pytest.approx(math.log(2.0), abs=1e-10)


def test_dominating_mechanism_keeps_common_stable_part():
    mech = BranchingMechanism(
        b=[0.6],
        c=[0.3],
        jumps=((StableAxis(axis=0, alpha=0.5, scale=0.25),),),
    )
    phi_star = dominating_mechanism(mech)
    assert any(isinstance(comp, StableAxis) for comp in phi_star.jumps[0])
    assert grey_condition(phi_star)
    z = 1.7
    assert local_projection(phi_star, 0, z) == pytest.approx(
        0.6 * z + 0.3 * z * z + 0.25 * stable_constant(0.5) * z ** 1.5, abs=1e-12
    )


def truncated_tail_integral(phi_star, upper):
    """int_1^upper dz / phi_*(z) by quadrature, in w = 1/z."""
    val, _ = quad(lambda w: 1.0 / (w * w * eval_phi(phi_star, [1.0 / w])[0]), 1.0 / upper, 1.0, limit=200)
    return val


def test_grey_condition_fails_for_linear_tail():
    # c_* = 0 and only finite-mean jumps: integral of 1/phi_* diverges
    phi_star = BranchingMechanism(b=[1.0], c=[0.0], jumps=((PointMass(u=[1.0], weight=0.5),),))
    assert not grey_condition(phi_star)
    # numeric cross-check: truncated tails keep growing like log(upper)
    i1 = truncated_tail_integral(phi_star, 1e3)
    i2 = truncated_tail_integral(phi_star, 1e6)
    assert i2 - i1 > 1.0
    # while the quadratic case has already converged
    quadratic = BranchingMechanism(b=[1.0], c=[1.0])
    j1 = truncated_tail_integral(quadratic, 1e3)
    j2 = truncated_tail_integral(quadratic, 1e6)
    assert j2 - j1 < 1e-3


def test_scalar_envelope_functions_refuse_several_types():
    # phi_* is a one-type mechanism; the functions that read it as a scalar
    # refuse any other dimension
    mech = two_type_mechanism()
    for call in (lambda: grey_condition(mech),
                 lambda: phi_star_tail_integral(mech, 1.0),
                 lambda: vbar_scalar(mech, 1.0)):
        with pytest.raises(ValidationError, match="one type"):
            call()


def test_dominating_minorant_on_grid():
    mech = two_type_mechanism()
    phi_star = dominating_mechanism(mech)  # raises if the minorant fails
    for z in np.linspace(0.0, 40.0, 173):
        lower = local_projection(phi_star, 0, float(z))
        for i in range(mech.d):
            assert local_projection(mech, i, float(z)) >= lower - 1e-12


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_mass_vector_rejects_bad_input():
    with pytest.raises(ValidationError):
        mass_vector([-1.0, 2.0])
    with pytest.raises(ValidationError):
        mass_vector([1.0, np.nan])
    with pytest.raises(ValidationError):
        mass_vector([1.0], d=2)


def test_stable_axis_must_sit_on_own_axis():
    with pytest.raises(ValidationError):
        BranchingMechanism(
            b=[1.0, 1.0],
            c=[1.0, 1.0],
            jumps=((StableAxis(axis=1, alpha=0.5, scale=1.0),), ()),
        )


def test_stable_axis_rejected_in_immigration():
    with pytest.raises(ValidationError):
        ImmigrationMechanism(beta=[1.0], nu=(StableAxis(axis=0, alpha=0.5, scale=1.0),))


def test_mechanism_validation():
    with pytest.raises(ValidationError):
        BranchingMechanism(b=[1.0], c=[-0.1])
    with pytest.raises(ValidationError):
        BranchingMechanism(b=[1.0, 1.0], c=[1.0, 1.0], eta=[[0.1, 0.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        MotionGenerator([[-1.0, 2.0], [1.0, -1.0]])  # row sum > 0
    with pytest.raises(ValidationError):
        MotionGenerator([[-1.0, -0.5], [1.0, -1.0]])  # negative off-diagonal
    with pytest.raises(ValidationError):
        eval_phi(two_type_mechanism(), [1.0])  # wrong dimension


def test_mechanism_arrays_are_frozen():
    mech = two_type_mechanism()
    with pytest.raises(ValueError):
        mech.b[0] = 5.0


# ---------------------------------------------------------------------------
# structural invariants (property-based)
# ---------------------------------------------------------------------------

lam_strategy = st.lists(st.floats(0.0, 20.0), min_size=2, max_size=2)


@given(lam_strategy, lam_strategy, st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_phi_is_midpoint_convex(lam1, lam2, w):
    mech = two_type_mechanism()
    a, b = np.asarray(lam1), np.asarray(lam2)
    mid = eval_phi(mech, w * a + (1 - w) * b)
    chord = w * eval_phi(mech, a) + (1 - w) * eval_phi(mech, b)
    assert np.all(mid <= chord + 1e-9)


@given(lam_strategy, lam_strategy)
@settings(max_examples=60, deadline=None)
def test_psi_is_concave_and_monotone(lam1, lam2):
    imm = ImmigrationMechanism(
        beta=[0.4, 0.2],
        nu=(PointMass(u=[1.0, 0.5], weight=0.3), ExponentialAxis(axis=1, mean=2.0, rate=0.1)),
    )
    a, b = np.asarray(lam1), np.asarray(lam2)
    mid = eval_psi(imm, 0.5 * (a + b))
    assert mid >= 0.5 * (eval_psi(imm, a) + eval_psi(imm, b)) - 1e-9
    assert eval_psi(imm, np.maximum(a, b)) >= eval_psi(imm, a) - 1e-12


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
@settings(max_examples=60, deadline=None)
def test_local_projection_convex_in_z(z1, z2):
    mech = two_type_mechanism()
    for i in range(mech.d):
        mid = local_projection(mech, i, 0.5 * (z1 + z2))
        chord = 0.5 * (local_projection(mech, i, z1) + local_projection(mech, i, z2))
        assert mid <= chord + 1e-9
