"""Cumulant flow, extinction envelopes, and the moment semigroup.

The transition law of the branching process is characterized by its
log-Laplace (cumulant) flow v(t, lam), the solution of

    dv_i/dt = -phi_i(v),   v(0) = lam,

so everything analytic downstream reduces to integrating this system
accurately: Laplace transforms, extinction-probability envelopes
(vbar = lim of v as lam -> infinity), and the first-moment semigroup
pi_t = exp(t(-diag(b) + gamma)).

The integrator is a hand-rolled adaptive Dormand-Prince 5(4) pair.  We
need (i) positivity clamping (the flow lives on the nonnegative orthant
and phi is only defined there), (ii) strict relative error control on
values that decay through many orders of magnitude, and (iii) exact
landing on requested output times; keeping the stepper local makes those
three behaviours explicit and testable.

The stepper advances a batch of independent lanes at once: one mechanism,
one horizon, one start per lane.  Each lane keeps its own time, step size,
stages and step counts, and its values and step counts are bit for bit
those of a solve of that lane alone: stage sums stay per-lane
matrix-vector products, and the step-size factor err^(-1/5) is taken per
lane in Python floats.  A lane that fails stops alone.  solve_cumulant is
the one-lane case.

The extinction envelope has one owner, extinction_envelope, and two
routes.  The reciprocal flow u = 1/v, u' = u^2 phi(1/u), starts at the
lambda -> infinity end, where it is nearly linear, and gives every time
from one solve.  The scalar root of phi_* (vbar_scalar) checks it at every
time, on both sides in d = 1, where phi_* is phi; otherwise the lambda
ladder (vbar_vector), one batch of rungs, checks it at the last time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import BlowUpError, GreyConditionError, NumericError, ValidationError
from .mechanism import (
    BranchingMechanism,
    ImmigrationMechanism,
    _scalar_phi,
    beta_star,
    dominating_mechanism,
    eval_phi,
    eval_psi,
    gamma_matrix,
    grey_condition,
    mass_vector,
    phi_star_tail_integral,
)

__all__ = [
    "CumulantPath",
    "solve_cumulant",
    "discount_integral",
    "vbar_scalar",
    "vbar_vector",
    "reciprocal_envelope",
    "extinction_envelope",
    "moment_semigroup",
    "moment_decay_rate",
    "integrated_moment_matrix",
    "mean_vector",
    "stationary_mean",
    "tail_immigrant_mass",
]


def discount_integral(rate: float, t) -> float:
    """int_0^t e^{-rate*s} ds, with the rate=0 limit handled exactly.

    Evaluates to (1 - e^{-rate*t})/rate for rate != 0 and to t at rate=0;
    uses expm1 so small |rate*t| keeps full precision.  A subnormal
    rate*t has too few significant bits for that quotient; there the
    integral is t to double precision.
    """
    t = np.asarray(t, dtype=float)
    if rate == 0.0:
        out = t.copy()
    else:
        x = rate * t
        out = np.where(np.abs(x) < np.finfo(float).tiny, t, -np.expm1(-x) / rate)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) stepper over a batch of lanes
# ---------------------------------------------------------------------------

# stage rows of the tableau; the system is autonomous, so the nodes c_s
# never enter
_DP_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# fifth-order weights coincide with the last tableau row (FSAL)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])

_MAX_STEPS = 1_000_000
_MIN_TOL = 1e-14  # tighter relative tolerances ask for more than double precision holds
FLOW_TOL = 1e-10  # relative tolerance of the v-flow wherever cbilab picks it
FLOW_CEILING = 1e12  # a cumulant value above this aborts the flow with BlowUpError


def _check_tol(tol, what: str = "tol") -> float:
    """tol as a float, refused unless it is a number in [_MIN_TOL, 1)."""
    if not _MIN_TOL <= tol < 1.0:
        raise ValidationError(f"{what} must be a relative tolerance in [{_MIN_TOL:g}, 1), got {tol!r}")
    return float(tol)


def _rms(x: np.ndarray) -> np.ndarray:
    """Root mean square of each lane (row) of x."""
    return np.sqrt(np.square(x).sum(axis=-1) / x.shape[-1])


def _eval_lanes(f, Y):
    """f on the (m, n) lane states Y, and the (row, exception) pairs of the
    rows outside f's domain.

    A bad row makes the batched call raise; then every row is evaluated
    alone, so each failing lane gets the exception a solve of that lane
    alone would raise.  A failed row's derivative is zero."""
    try:
        return f(Y), []
    except (ValidationError, NumericError):
        out = np.zeros(Y.shape)
        failures = []
        for r in range(len(Y)):
            try:
                out[r] = f(Y[r:r + 1])[0]
            except (ValidationError, NumericError) as exc:
                failures.append((r, exc))
        return out, failures


def _initial_step(f, y0, f0, t_end, rtol, atol):
    """Standard two-probe starting-step heuristic per lane, capped at the
    horizon.  Returns the steps and the failures of the probe evaluation."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale).tolist()
    d1 = _rms(f0 / scale).tolist()
    h0 = np.array([1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)])
    f1, failures = _eval_lanes(f, y0 + h0[:, None] * f0)
    d2 = (_rms((f1 - f0) / scale) / h0).tolist()
    h = []
    for a, b, c in zip(h0.tolist(), d1, d2):
        h1 = max(1e-6, a * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** 0.2
        h.append(min(100 * a, h1, t_end))
    return h, failures


def _integrate(f, y0, t_end, rtol, atol, t_record, ceiling):
    """Integrate y' = f(y) from 0 to t_end for a batch of independent lanes,
    recording y at t_record exactly.

    y0 is (L, n), one start per lane.  f maps (m, n) lane states to their
    derivatives, row by row, and must accept (and internally clamp)
    slightly-negative stage values.  Every lane keeps its own time, step
    size, stage array and step counts, and takes exactly the floating-point
    operations of a batch holding that lane alone: the states and stages
    are stacked arrays, the step control runs per lane on Python floats.  A
    lane that fails stops there and the others go on.

    Returns (values (L, len(t_record), n), accepted steps, rejected steps,
    errors), the last three lists by lane: errors[l] is the exception lane l
    ended with, or None.
    """
    y = np.array(y0, dtype=float)
    L, n = y.shape
    times = t_record.tolist()
    n_rec = len(times)
    out = np.empty((L, n_rec, n))
    n_acc, n_rej, errors = [0] * L, [0] * L, [None] * L
    if t_end == 0.0:
        out[:, 0] = y
        return out, n_acc, n_rej, errors

    def fail(row_lanes, failures):
        """Give each failed row's lane its exception, unless it has one."""
        for r, exc in failures:
            if errors[row_lanes[r]] is None:
                errors[row_lanes[r]] = exc

    k = np.empty((L, 7, n))
    k[:, 0], failures = _eval_lanes(f, y)
    fail(range(L), failures)
    h, failures = _initial_step(f, y, k[:, 0], t_end, rtol, atol)
    fail(range(L), failures)
    # per running row: its lane, time, step, next output index, landing flag
    lanes, t, idx, hit = list(range(L)), [0.0] * L, [0] * L, [False] * L
    while True:
        keep = []
        for r, lane in enumerate(lanes):
            if errors[lane] is not None:
                continue
            # an output time closer to t than a step can resolve takes the value at t
            while idx[r] < n_rec and times[idx[r]] - t[r] <= 1e-14 * max(1.0, t[r]):
                out[lane, idx[r]] = y[r]
                idx[r] += 1
            if t[r] >= t_end or idx[r] == n_rec:
                if idx[r] != n_rec:
                    errors[lane] = NumericError("integration finished without hitting all output times")
                continue
            if n_acc[lane] + n_rej[lane] > _MAX_STEPS:
                errors[lane] = NumericError(f"cumulant integration exceeded {_MAX_STEPS} steps at t={t[r]:.6g}")
                continue
            h[r] = min(h[r], t_end - t[r])
            # land exactly on the next requested output time
            hit[r] = idx[r] < n_rec and t[r] + h[r] >= times[idx[r]] - 1e-15 * max(1.0, times[idx[r]])
            if hit[r]:
                h[r] = times[idx[r]] - t[r]
            if h[r] <= 1e-14 * max(1.0, t[r]):
                errors[lane] = NumericError(f"step size underflow at t={t[r]:.6g}")
                continue
            keep.append(r)
        if not keep:
            break
        if len(keep) < len(lanes):
            lanes, t, h, idx, hit = ([a[r] for r in keep] for a in (lanes, t, h, idx, hit))
            y, k = y[keep], k[keep]
        kt = k.swapaxes(1, 2)  # (m, n, 7): stage sums are (n, s) @ (s,) per lane
        hc = np.array(h)[:, None]
        for s in range(1, 7):
            k[:, s], failures = _eval_lanes(f, y + hc * (kt[:, :, :s] @ _DP_A[s]))
            if failures:
                fail(lanes, failures)
                k[[r for r, _ in failures]] = 0.0  # a failed lane idles through the rest of the step
        y5 = y + hc * (kt @ _DP_B5)
        y4 = y + hc * (kt @ _DP_B4)
        scale = atol + rtol * np.maximum(np.abs(y), np.maximum(np.abs(y5), np.abs(y4)))
        err = _rms((y5 - y4) / scale).tolist()
        y_new = np.maximum(y5, 0.0)  # positivity clamp: the flow is invariant on the orthant
        high = (np.abs(y_new) > ceiling).any(axis=1).tolist()
        same = (y_new == y5).all(axis=1).tolist()
        accepted, fresh = [], []
        for r, (lane, e) in enumerate(zip(lanes, err)):
            if errors[lane] is not None:
                continue
            if not math.isfinite(e):
                errors[lane] = NumericError(f"non-finite error estimate at t={t[r]:.6g}")
                continue
            if e <= 1.0:
                t[r] = t[r] + h[r]
                if high[r]:
                    errors[lane] = BlowUpError(f"cumulant flow exceeded ceiling {ceiling:g} at t={t[r]:.6g}")
                    continue
                accepted.append(r)
                if not same[r]:
                    fresh.append(r)
                n_acc[lane] += 1
                factor = 5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** -0.2))
            else:
                n_rej[lane] += 1
                factor = max(0.2, 0.9 * e ** -0.2)
            h[r] = h[r] * factor
        y[accepted] = y_new[accepted]
        k[accepted, 0] = k[accepted, 6]  # first-same-as-last: reuse the final stage
        if fresh:
            k[fresh, 0], failures = _eval_lanes(f, y_new[fresh])
            fail([lanes[r] for r in fresh], failures)
        for r in accepted:
            if hit[r] and errors[lanes[r]] is None:
                out[lanes[r], idx[r]] = y[r]
                idx[r] += 1
    return out, n_acc, n_rej, errors


# ---------------------------------------------------------------------------
# cumulant paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulantPath:
    """Solution of the cumulant system on a time grid.

    Fields:
        t_grid: increasing times, starting at 0.
        v_values: (len(t_grid), d) nonnegative cumulant values; v_values[0]
            is the initial condition.
        imm_integral: optional accumulated int_0^t psi(v(s)) ds per grid time.
        n_steps: steps the integrator accepted.
        n_rejected: steps it rejected and retried with a smaller step.
    """

    t_grid: np.ndarray
    v_values: np.ndarray
    imm_integral: Optional[np.ndarray] = None
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.v_values[-1]


def _record_times(t_end: float, t_eval) -> np.ndarray:
    if t_eval is None:
        grid = np.array([0.0, t_end]) if t_end > 0 else np.array([0.0])
    else:
        grid = np.atleast_1d(np.asarray(t_eval, dtype=float))
        if grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ValidationError("t_eval must be non-empty and strictly increasing")
        if grid[0] < 0 or grid[-1] > t_end + 1e-12:
            raise ValidationError("t_eval must lie inside [0, t_end]")
        if grid[0] != 0.0:
            grid = np.concatenate([[0.0], grid])
        if grid[-1] < t_end:
            grid = np.concatenate([grid, [t_end]])
    return grid


def _flow_lanes(mech, lam0, t_end, tol, grid, imm=None):
    """The cumulant flow from each row of lam0 (L, d), as one batch of lanes.

    Returns _integrate's (values, accepted, rejected, errors); with imm the
    values carry int_0^t psi(v(s)) ds as an extra last column.
    """
    tol = _check_tol(tol)
    atol = tol * 1e-6 + 1e-300  # tiny absolute floor; control is effectively relative
    d = mech.d
    if imm is None:
        def rhs(Y):
            return -eval_phi(mech, np.maximum(Y, 0.0))

        return _integrate(rhs, lam0, float(t_end), tol, atol, grid, FLOW_CEILING)

    def rhs_aug(Y):
        V = np.maximum(Y[:, :d], 0.0)
        out = np.empty(Y.shape)
        out[:, :d] = -eval_phi(mech, V)
        out[:, d] = eval_psi(imm, V)
        return out

    y0 = np.concatenate([lam0, np.zeros((len(lam0), 1))], axis=1)
    return _integrate(rhs_aug, y0, float(t_end), tol, atol, grid, FLOW_CEILING)


def solve_cumulant(
    mech: BranchingMechanism,
    lambda0,
    t_end: float,
    tol: float = FLOW_TOL,
    *,
    t_eval=None,
    imm: Optional[ImmigrationMechanism] = None,
) -> CumulantPath:
    """Integrate dv/dt = -phi(v) from v(0) = lambda0 up to t_end.

    The one-lane case of the batched stepper; BlowUpError above FLOW_CEILING.

    Args:
        mech: branching mechanism (fold any motion first).
        lambda0: nonnegative initial vector.
        t_end: horizon, >= 0.
        tol: relative local error target per step, in [1e-14, 1).
        t_eval: optional increasing output times in [0, t_end]; the stepper
            lands on them exactly (no interpolation).
        imm: when given, co-integrate int_0^t psi(v(s)) ds and expose it as
            imm_integral on the returned path.

    Returns:
        CumulantPath over t_eval (plus 0 and t_end) or just {0, t_end}.
    """
    lam0 = mass_vector(lambda0, d=mech.d)
    if t_end < 0:
        raise ValidationError(f"t_end must be >= 0, got {t_end}")
    if imm is not None and imm.d != mech.d:
        raise ValidationError(f"immigration dimension {imm.d} != mechanism dimension {mech.d}")
    grid = _record_times(float(t_end), t_eval)
    vals, n_acc, n_rej, errors = _flow_lanes(mech, lam0[None, :], t_end, tol, grid, imm)
    if errors[0] is not None:
        raise errors[0]
    d = mech.d
    imm_integral = None if imm is None else vals[0, :, d]
    return CumulantPath(grid, vals[0, :, :d], imm_integral, n_acc[0], n_rej[0])


# ---------------------------------------------------------------------------
# extinction envelopes
# ---------------------------------------------------------------------------

_LADDER = 10.0 ** np.arange(1, 13)  # the starts L of vbar_vector's rungs
_LADDER_TOL = 1e-8  # stop at the first rung this close to the one before, times min(1, Vbar)
_ROUTE_GAP = 10 * _LADDER_TOL  # how far extinction_envelope's routes may part, times min(1, Vbar)
_CERTIFICATE_SLACK = 1e-6  # relative room of an envelope value above its scalar root


def _positive_threshold(phi_star: BranchingMechanism) -> float:
    """Largest root of phi_*(z) = 0; the tail integral only exists above it."""
    phi = _scalar_phi(phi_star)
    if phi_star.b[0] >= 0:
        return 0.0
    z = 1.0
    for _ in range(200):
        if phi(z) > 0:
            break
        z *= 2.0
    else:
        raise NumericError("could not find where the dominating mechanism turns positive")
    lo = 1e-12
    if phi(lo) > 0:  # negative drift but jumps dominate immediately
        return 0.0
    return float(brentq(phi, lo, z, xtol=1e-15, rtol=1e-14))


def vbar_scalar(phi_star: BranchingMechanism, t: float) -> float:
    """Limit of the scalar cumulant as the initial value tends to infinity.

    Computed by root-finding x in  int_x^inf dz / phi_*(z) = t,  and for
    purely quadratic mechanisms cross-checked against the exact
    e^{-b t} / (c q(b,t)); the two routes must agree to 1e-8 relative.

    Raises:
        GreyConditionError: the tail integral diverges (envelope infinite).
        NumericError: the two evaluation routes disagree.
    """
    if not t > 0:
        raise ValidationError(f"vbar needs t > 0, got {t}")
    if not grey_condition(phi_star):
        raise GreyConditionError(
            "extinction envelope is infinite: the dominating mechanism has no "
            "quadratic or stable part, so int dz/phi_*(z) diverges at infinity"
        )
    thr = _positive_threshold(phi_star)

    def gap(x):
        return phi_star_tail_integral(phi_star, x) - t

    # bracket the root: gap decreases from +inf (near thr) to -t (x -> inf)
    hi = max(1.0, 2.0 * thr + 1.0)
    for _ in range(200):
        if gap(hi) < 0:
            break
        hi *= 2.0
    else:
        raise NumericError("vbar bracketing failed: tail integral stays above t")
    lo = 0.5 * (thr + hi)
    for _ in range(200):
        if gap(lo) > 0:
            break
        lo = 0.5 * (thr + lo)
    else:
        raise NumericError("vbar bracketing failed near the positivity threshold")
    root = float(brentq(gap, lo, hi, xtol=1e-14, rtol=1e-12))

    b_star, c_star = float(phi_star.b[0]), float(phi_star.c[0])
    if c_star > 0 and phi_star.is_quadratic():
        exact = math.exp(-b_star * t) / (c_star * discount_integral(b_star, t))
        if abs(root - exact) > 1e-8 * abs(exact):
            raise NumericError(
                f"vbar cross-check failed: root-finding gives {root!r}, "
                f"closed form gives {exact!r}"
            )
        return exact
    return root


def vbar_vector(mech: BranchingMechanism, t: float, *, cap: Optional[float] = None) -> np.ndarray:
    """Componentwise extinction envelope at t by the lambda ladder: the limit
    of v(t, L*(1,..,1)) as L grows.

    Runs the cumulant flow at FLOW_TOL over the geometric ladder L in
    {10, ..., 1e12}, all rungs as lanes of one batch, then judges the
    finished rungs in ladder order and takes the first within
    _LADDER_TOL * min(1, cap) (1e-8 relative to a small envelope) of the one
    before; a rung past that one may fail without consequence.  Every
    iterate is certified against the scalar envelope of the dominating
    mechanism, up to _CERTIFICATE_SLACK (the flow started from any L is
    bounded by the scalar flow started at its sup-norm, hence by the scalar
    envelope).  cap is that scalar envelope at t when the caller has it
    already.  This is the independent check of the reciprocal route in
    `extinction_envelope` when d >= 2.

    Raises:
        GreyConditionError: dominating mechanism fails the tail-integrability test.
        NumericError: ladder exhausted without stabilizing (also when its
            last rung fails), or certificate violated.  A lower rung that fails
            before the returned one raises its own error.
    """
    if not t > 0:
        raise ValidationError(f"vbar needs t > 0, got {t}")
    if cap is None:
        cap = vbar_scalar(dominating_mechanism(mech), t)  # raises GreyConditionError when infinite
    grid = _record_times(float(t), None)
    vals, _, _, errors = _flow_lanes(mech, _LADDER[:, None] * np.ones(mech.d), t, FLOW_TOL, grid)
    prev = None
    for k, (lam, v, error) in enumerate(zip(_LADDER, vals[:, -1], errors)):
        if error is not None and k == len(_LADDER) - 1:
            raise NumericError(f"extinction envelope ladder failed to stabilize within tol={_LADDER_TOL:g}: "
                               f"its last rung {lam:g} failed: {error}") from error
        if error is not None:
            raise error
        if np.any(v > cap * (1.0 + _CERTIFICATE_SLACK) + _LADDER_TOL):
            raise NumericError(
                f"envelope certificate violated at ladder value {lam:g}: "
                f"{v} exceeds scalar envelope {cap:.12g}"
            )
        if prev is not None and float(np.max(np.abs(v - prev))) < _LADDER_TOL * min(1.0, cap):
            return v
        prev = v
    raise NumericError(f"extinction envelope ladder failed to stabilize within tol={_LADDER_TOL:g}")


# the reciprocal flow starts at the ladder's top rung, u(0) = 1/1e12; a start
# much closer to 0 leaves the stepper no step it can resolve
_RECIPROCAL_START = 1 / _LADDER[-1]
_RECIPROCAL_TOL = 1e-11  # 1e-11 relative to 1/(e^t - 1) for b = c = 1 up to t = 4
# stage values may dip below the start; 1/u stays below 1e100, so phi(1/u)
# and u^2 phi(1/u) stay finite
_RECIPROCAL_FLOOR = 1e-100


def reciprocal_envelope(mech: BranchingMechanism, times) -> np.ndarray:
    """Extinction envelope Vbar_t at each time of an increasing grid, from one
    solve of the reciprocal flow u = 1/v.

    u solves u' = u^2 phi(1/u) (componentwise products), which is nearly
    linear at the lambda -> infinity end, u' ~ b u + c for a quadratic
    mechanism, where the v-flow is stiff.  It starts from u(0) = 1e-12, the
    ladder's top rung, and carries no blow-up ceiling: u grows like e^{bt}.
    The values are unchecked; `extinction_envelope` checks them.

    Raises:
        NumericError: the solve fails.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or not times[0] > 0:
        raise ValidationError(f"vbar needs non-empty times > 0, got {times.tolist()}")
    grid = _record_times(float(times[-1]), times)  # refuses times that do not increase

    def rhs(U):
        U = np.maximum(U, _RECIPROCAL_FLOOR)
        return U * U * eval_phi(mech, 1.0 / U)

    u0 = np.full((1, mech.d), _RECIPROCAL_START)
    vals, _, _, errors = _integrate(rhs, u0, float(times[-1]), _RECIPROCAL_TOL,
                                    _RECIPROCAL_TOL * 1e-6, grid, math.inf)
    if errors[0] is not None:
        raise errors[0]
    return 1.0 / vals[0, 1:]


def extinction_envelope(mech: BranchingMechanism, times) -> np.ndarray:
    """Extinction envelope Vbar_t, a row per time of an increasing grid, by
    two independent routes.

    The reciprocal flow (`reciprocal_envelope`) gives every time from one
    solve.  The scalar root of the dominating mechanism phi_*
    (`vbar_scalar`) bounds the envelope at every time.  In d = 1, when phi_*
    keeps the jumps of phi, phi_* is phi itself and the root is the
    envelope: the flow must agree with it at every time to
    1e-7 * min(1, Vbar_t).  Otherwise every value must stay below its root
    (up to a relative 1e-6), and the lambda ladder (`vbar_vector`, given the
    last root) must agree with the flow at the last time to the same
    1e-7 * min(1, root), ten times the ladder's tolerance (_ROUTE_GAP).  The
    ladder runs before the flow, so when both fail the ladder's reason is
    the one raised.

    Raises:
        GreyConditionError: dominating mechanism fails the tail-integrability test.
        NumericError: a route fails, a value exceeds its root, or the routes
            disagree.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValidationError("the extinction envelope needs at least one time")
    phi_star = dominating_mechanism(mech)
    caps = [vbar_scalar(phi_star, t) for t in times.tolist()]  # raises GreyConditionError when infinite
    exact = mech.d == 1 and phi_star.jumps == mech.jumps
    ladder = None if exact else vbar_vector(mech, float(times[-1]), cap=caps[-1])
    grid = reciprocal_envelope(mech, times)
    for t, cap, v in zip(times.tolist(), caps, grid):
        if exact and abs(float(v[0]) - cap) > _ROUTE_GAP * min(1.0, cap):
            raise NumericError(f"extinction envelope routes disagree at t={t:g}: "
                               f"reciprocal flow {v.tolist()}, scalar root {cap!r}")
        if np.any(v > cap * (1.0 + _CERTIFICATE_SLACK)):
            raise NumericError(f"envelope certificate violated at t={t:g}: "
                               f"{v} exceeds scalar envelope {cap:.12g}")
    if not exact and float(np.max(np.abs(grid[-1] - ladder))) > _ROUTE_GAP * min(1.0, caps[-1]):
        raise NumericError(f"extinction envelope routes disagree at t={times[-1]:g}: "
                           f"reciprocal flow {grid[-1].tolist()}, ladder {ladder.tolist()}")
    return grid


# ---------------------------------------------------------------------------
# moment semigroup and mean flows
# ---------------------------------------------------------------------------


def _mean_matrix(mech: BranchingMechanism) -> np.ndarray:
    """Generator of the mean flow: M = -diag(b) + gamma."""
    return -np.diag(mech.b) + gamma_matrix(mech)


def moment_decay_rate(mech: BranchingMechanism) -> float:
    """Decay rate of the mean flow: minus the spectral abscissa of M.

    beta_star is the row-sum certificate for this rate, so it never
    exceeds it."""
    return -float(np.max(np.linalg.eigvals(_mean_matrix(mech)).real))


def moment_semigroup(mech: BranchingMechanism, t: float) -> np.ndarray:
    """First-moment semigroup P = exp(tM), M = -diag(b) + gamma, read-only.

    The mean of X_t(f) from X_0 = mu is <mu, P f>.
    """
    if t < 0:
        raise ValidationError(f"moment semigroup needs t >= 0, got {t}")
    P = expm(float(t) * _mean_matrix(mech))
    P.setflags(write=False)
    return P


def integrated_moment_matrix(mech: BranchingMechanism, t: float) -> np.ndarray:
    """int_0^t exp(sM) ds via the block-triangular matrix exponential.

    exp(t [[M, I], [0, 0]]) has the integral in its upper-right block; this
    avoids special-casing singular M (e.g. critical mechanisms).
    """
    if t < 0:
        raise ValidationError(f"integrated semigroup needs t >= 0, got {t}")
    d = mech.d
    M = _mean_matrix(mech)
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = M
    block[:d, d:] = np.eye(d)
    return expm(float(t) * block)[:d, d:]


def mean_vector(
    mech: BranchingMechanism,
    mu,
    t: float,
    imm: Optional[ImmigrationMechanism] = None,
) -> np.ndarray:
    """Exact mean of the state at time t from initial mass mu.

    E[X_t] = pi_t^T mu, plus the accumulated immigration mean
    (int_0^t pi_s ds)^T (beta + first moment of nu) when imm is given.
    """
    mu = mass_vector(mu, d=mech.d)
    out = moment_semigroup(mech, t).T @ mu
    if imm is not None:
        influx = imm.beta + imm.first_moment()
        out = out + integrated_moment_matrix(mech, t).T @ influx
    return out


def stationary_mean(mech: BranchingMechanism, imm: ImmigrationMechanism) -> np.ndarray:
    """Mean of the stationary law: (-M^T)^{-1}(beta + first moment of nu).

    Requires a strictly positive uniform decay rate so the mean integral
    int_0^inf pi_s ds converges.
    """
    bs = beta_star(mech)
    if bs <= 0:
        raise ValidationError(f"stationary mean needs beta_star > 0, got {bs:.6g}")
    influx = imm.beta + imm.first_moment()
    return np.linalg.solve(-_mean_matrix(mech).T, influx)


def tail_immigrant_mass(mech: BranchingMechanism, imm: ImmigrationMechanism, t: float) -> float:
    """int_t^inf <beta + nu-mean, pi_s 1> ds, the expected surviving mass of
    all immigration arriving after time lag t.

    Uses int_t^inf e^{sM} ds = e^{tM} (-M)^{-1}, valid when beta_star > 0.
    """
    bs = beta_star(mech)
    if bs <= 0:
        raise ValidationError(f"tail mass integral needs beta_star > 0, got {bs:.6g}")
    if t < 0:
        raise ValidationError(f"needs t >= 0, got {t}")
    M = _mean_matrix(mech)
    influx = imm.beta + imm.first_moment()
    tail = expm(float(t) * M) @ np.linalg.solve(-M, np.ones(mech.d))
    return float(influx @ tail)
