"""Samplers for transition, immigration, and stationary laws.

Exact paths exist where the law has a closed form:

  * quadratic scalar branching: the transition law started from x is an atom
    at 0 plus a compound Poisson of exponentials — with a = e^{-b t} and
    theta = c int_0^t e^{-bs} ds, draw K ~ Poisson(x a / theta) and return a
    Gamma(K, theta) variable.  (Identity behind it: x v(t,lam) equals
    (x a/theta)(1 - 1/(1 + theta lam)), checked in the tests.)
  * continuous immigration into a quadratic scalar mechanism: the time-t
    immigration mass is Gamma(beta/c, c int_0^t e^{-bs} ds) exactly, because
    int_0^t beta v(s,lam) ds = (beta/c) log(1 + c q(b,t) lam).
  * jump immigrants into a scalar quadratic mechanism: Poisson arrivals on
    [0,t], each evolved over its remaining time by the exact sampler above.

Everything else runs symmetric (Strang) operator-split steps: half-step of
exact per-type quadratic branching, a middle first-order block carrying
inter-type drift, compensators, compound-Poisson jumps above the mass
threshold, compensated stable increments, and immigration influx, then the
second branching half-step.  The exact quadratic law is a semigroup, so the
second half-step of one step and the first of the next are drawn as one
full branching step: n steps make n + 1 branching draws per type.  Jumps
below the threshold enter the middle block as drift through their means;
stable jump parts are never truncated — their compensated one-step
increment (X_i a dt)^{1/(1+alpha)} Z is sampled exactly with a
Chambers–Mallows–Stuck draw of the spectrally positive stable variable Z.

Without immigration the zero state is absorbing, so a transition draw steps
only the live (non-zero) rows and leaves the dead ones at zero.

`sample_path` is the one composition of branching and immigration: it
chains segments over the gaps of a time grid, exact by the Markov property.
So the transition law Q_t(mu) * N_t of the process with immigration is
`sample_path(mu, mech, [t], cfg, rng, imm=imm)[0]`, and the time-t
immigration law is that path started from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .cumulant import discount_integral
from .errors import BlowUpError, ValidationError
from .mechanism import (
    BranchingMechanism,
    ExponentialAxis,
    ImmigrationMechanism,
    PointMass,
    StableAxis,
    beta_star,
    mass_vector,
    stable_constant,
)

__all__ = [
    "SimConfig",
    "sample_transition",
    "sample_stationary",
    "sample_path",
    "has_exact_transition",
]

STATIONARY_BIAS = 1e-3  # relative mean of the immigration tail a stationary draw omits
JUMP_THRESHOLD = 1e-3  # default SimConfig.jump_threshold
MASS_CEILING = 1e12  # a stepped draw with a coordinate above this aborts with BlowUpError
_MAX_SPLIT_STEPS = 10_000_000  # a finer dt gives Poisson means past what the RNG draws


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo configuration.

    Fields:
        n_samples: batch size (every sampler returns (n_samples, d)).
        dt: operator-splitting step for mechanisms without an exact path.
        jump_threshold: jumps of total mass <= this are folded into drift.
        seed: stream seed recorded for reproducibility, 0 when a document
            gives none (samplers take an explicit Generator; the seed is
            what report metadata captures).

    Stepped draws abort above MASS_CEILING; exact ones need no runaway trap.
    """

    n_samples: int
    dt: float = 1e-3
    jump_threshold: float = JUMP_THRESHOLD
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")
        if not self.jump_threshold >= 0:
            raise ValidationError(f"jump_threshold must be >= 0, got {self.jump_threshold}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


# ---------------------------------------------------------------------------
# exact scalar quadratic sampler
# ---------------------------------------------------------------------------


def _cb_quadratic_batch(x: np.ndarray, b: float, c: float, t, rng) -> np.ndarray:
    """Exact transition draw per entry of x; t may be scalar or per-entry."""
    t = np.asarray(t, dtype=float)
    a = np.exp(-b * t)
    if c == 0.0:
        # no branching noise: deterministic exponential decay
        return x * a
    theta = c * discount_integral(b, t)
    theta_safe = np.where(theta > 0, theta, 1.0)
    mean_counts = np.where(theta > 0, x * a / theta_safe, 0.0)
    out = rng.gamma(shape=rng.poisson(mean_counts), scale=theta_safe)
    if np.any(t <= 0):
        out = np.where(t > 0, out, x)
    return out


# ---------------------------------------------------------------------------
# spectrally positive stable increments
# ---------------------------------------------------------------------------


def _stable_positive_batch(alpha: float, n: int, rng) -> np.ndarray:
    """Zero-mean spectrally positive (1+alpha)-stable draws, normalized so
    that E[e^{-lam Z}] = exp(stable_constant(alpha) * lam^{1+alpha}).

    Chambers–Mallows–Stuck with skewness 1; the index 1+alpha lies in (1,2)
    so the mean exists and is zero.
    """
    ap = 1.0 + alpha
    ta = math.tan(0.5 * math.pi * ap)
    B = math.atan(ta) / ap
    S = (1.0 + ta * ta) ** (0.5 / ap)
    U = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=n)
    W = rng.standard_exponential(size=n)
    Z = (
        S
        * np.sin(ap * (U + B))
        / np.cos(U) ** (1.0 / ap)
        * (np.cos(U - ap * (U + B)) / W) ** ((1.0 - ap) / ap)
    )
    # scale so the Laplace exponent constant matches the jump integral
    sigma = (stable_constant(alpha) * abs(math.cos(0.5 * math.pi * ap))) ** (1.0 / ap)
    return sigma * Z


# ---------------------------------------------------------------------------
# operator-split stepping
# ---------------------------------------------------------------------------


def _step_tables(mech: BranchingMechanism, eps: float):
    """Precompute the middle-block drift matrix and jump draw specs.

    Returns (D, atoms, exps, stables):
        D: (d,d), per-unit-mass drift — row i is the flow created by type i
           (inter-type transfer, folded small-jump means, compensators).
        atoms: (i, rate, u) point-mass jumps above the threshold.
        exps: (i, axis, rate_large, mean, eps) exponential tails above eps.
        stables: (i, alpha, scale) compensated stable parts.
    """
    d = mech.d
    D = mech.eta.copy()
    atoms, exps, stables = [], [], []
    for i in range(d):
        for comp in mech.jumps[i]:
            if isinstance(comp, PointMass):
                D[i, i] -= comp.weight * comp.u[i]  # own-axis compensator
                if float(np.sum(comp.u)) > eps:
                    atoms.append((i, comp.weight, comp.u))
                else:
                    D[i] += comp.weight * comp.u  # folded as its mean
            elif isinstance(comp, ExponentialAxis):
                m, th, r = comp.axis, comp.mean, comp.rate
                if m == i:
                    D[i, i] -= r * th  # own-axis compensator (all sizes)
                surv = math.exp(-eps / th)
                rate_large = r * surv
                if rate_large > 0:
                    # memorylessness: a size conditioned > eps is eps + Exp(mean)
                    exps.append((i, m, rate_large, th, eps))
                D[i, m] += r * (th - (th + eps) * surv)  # mean of folded small sizes
            elif isinstance(comp, StableAxis):
                stables.append((i, comp.alpha, comp.scale))
    return D, atoms, exps, stables


def _nu_tables(imm: ImmigrationMechanism):
    """Immigrant jump specs: finite-activity components of the measure nu."""
    atoms, exps = [], []
    for comp in imm.nu:
        if isinstance(comp, PointMass):
            atoms.append((comp.weight, comp.u))
        elif isinstance(comp, ExponentialAxis):
            exps.append((comp.axis, comp.rate, comp.mean))
    return atoms, exps


def _add_influx(out: np.ndarray, imm: ImmigrationMechanism, atoms, exps,
                h: float, rng) -> None:
    """Add the immigration influx of a step of length h to the (n,d) batch out, in place."""
    n = out.shape[0]
    out += h * imm.beta
    for rate, u in atoms:
        K = rng.poisson(rate * h, size=n)
        out += np.outer(K, u)
    for axis, rate, th in exps:
        K = rng.poisson(rate * h, size=n)
        out[:, axis] += rng.gamma(shape=K, scale=th)


def _branch_all(X: np.ndarray, mech: BranchingMechanism, h: float, rng) -> None:
    """Exact per-type quadratic branching over h, in place on the (n,d) batch X."""
    for i in range(mech.d):
        X[:, i] = _cb_quadratic_batch(X[:, i], mech.b[i], mech.c[i], h, rng)


def _stepped_batch(
    states: np.ndarray,
    mech: BranchingMechanism,
    imm: Optional[ImmigrationMechanism],
    t: float,
    cfg: SimConfig,
    rng,
) -> np.ndarray:
    """Evolve (n,d) initial states over [0,t] with symmetric splitting.

    n steps make n + 1 branching draws per type: a half-step, n - 1 fused
    full steps between the middle blocks, and a closing half-step."""
    X = np.array(states, dtype=float)
    if t == 0.0:
        return X
    n = X.shape[0]
    if t / cfg.dt > _MAX_SPLIT_STEPS:
        raise ValidationError(
            f"dt = {cfg.dt:g} needs {t / cfg.dt:.3g} split steps to reach t = {t:g}; "
            f"at most {_MAX_SPLIT_STEPS} are allowed, so raise dt")
    n_steps = max(1, math.ceil(t / cfg.dt))
    h = t / n_steps
    D, atoms, exps, stables = _step_tables(mech, cfg.jump_threshold)
    drift_flow = expm(h * D)  # exact one-step linear flow of the middle block
    if imm is not None:
        imm_atoms, imm_exps = _nu_tables(imm)
    half = 0.5 * h
    for k in range(n_steps):
        # the closing half-step of step k-1 and the opening one of step k are
        # one exact draw of length h: the CB quadratic law is a semigroup
        _branch_all(X, mech, half if k == 0 else h, rng)
        if imm is not None:
            # trapezoid arrival placement: half the influx rides this step's
            # drift flow, half lands after it, so an immigrant sees on
            # average half a step of inter-type drift
            _add_influx(X, imm, imm_atoms, imm_exps, half, rng)
        incr = np.zeros_like(X)
        for i, rate, u in atoms:
            K = rng.poisson(X[:, i] * rate * h)
            incr += np.outer(K, u)
        for i, m, rate, th, eps in exps:
            K = rng.poisson(X[:, i] * rate * h)
            incr[:, m] += K * eps + rng.gamma(shape=K, scale=th)
        for i, alpha, scale in stables:
            Z = _stable_positive_batch(alpha, n, rng)
            incr[:, i] += (X[:, i] * scale * h) ** (1.0 / (1.0 + alpha)) * Z
        if imm is not None:
            _add_influx(incr, imm, imm_atoms, imm_exps, half, rng)
        X = np.maximum(X @ drift_flow + incr, 0.0)
        if np.any(X > MASS_CEILING):
            raise BlowUpError(f"simulated mass exceeded ceiling {MASS_CEILING:g}")
    _branch_all(X, mech, half, rng)
    return X


def _exact_immigration(mech: BranchingMechanism) -> bool:
    """True when the immigration mass is sampled exactly (scalar quadratic)."""
    return mech.d == 1 and mech.is_quadratic()


def _exact_immigration_batch(imm: ImmigrationMechanism, mech: BranchingMechanism,
                             t: float, n: int, rng) -> np.ndarray:
    """Time-t immigration mass into a scalar quadratic mechanism, exactly:
    Gamma(beta/c, c q(b,t)) for the continuous part, plus Poisson jump
    immigrants each evolved exactly over its remaining time."""
    b, c = float(mech.b[0]), float(mech.c[0])
    out = np.zeros((n, 1))
    beta = float(imm.beta[0])
    if beta > 0:
        if c > 0:
            out[:, 0] = rng.gamma(shape=beta / c, scale=c * discount_integral(b, t), size=n)
        else:
            out[:, 0] = beta * discount_integral(b, t)  # deterministic influx-decay
    for comp in imm.nu:
        rate = comp.weight if isinstance(comp, PointMass) else comp.rate
        counts = rng.poisson(rate * t, size=n)
        total = int(counts.sum())
        if total == 0:
            continue
        arrive = rng.uniform(0.0, t, size=total)
        if isinstance(comp, PointMass):
            sizes = np.full(total, float(comp.u[0]))
        else:
            sizes = rng.exponential(comp.mean, size=total)
        evolved = _cb_quadratic_batch(sizes, b, c, t - arrive, rng)
        rows = np.repeat(np.arange(n), counts)
        np.add.at(out[:, 0], rows, evolved)
    return out


def has_exact_transition(mech: BranchingMechanism) -> bool:
    """True when the transition law is sampled exactly: no jumps and no
    inter-type transfer, so the types evolve as independent scalar
    quadratic laws.  Every other mechanism takes the stepped route."""
    return mech.is_quadratic() and not np.any(mech.eta > 0)


def _transition_batch(states: np.ndarray, mech, t, cfg, rng) -> np.ndarray:
    """Draw the transition of the live (non-zero) rows only; dead rows stay zero.

    Without immigration the zero state is absorbing, so a dead row needs no
    draw.  On the exact route skipping them is bit-neutral: Poisson(0) and
    Gamma(0) consume no variates."""
    out = np.zeros_like(states, dtype=float)
    live = np.flatnonzero(states.any(axis=1))  # indices: cheaper than a mask here
    if not live.size:
        return out
    alive = states.take(live, axis=0)
    if has_exact_transition(mech):
        _branch_all(alive, mech, t, rng)
    else:
        alive = _stepped_batch(alive, mech, None, t, cfg, rng)
    out[live] = alive
    return out


# ---------------------------------------------------------------------------
# public samplers (batch-first: (n_samples, d) arrays)
# ---------------------------------------------------------------------------


def _initial_states(mu, mech: BranchingMechanism, cfg: SimConfig) -> np.ndarray:
    """(n_samples, d) starts from a mass vector or from per-run rows."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        return np.tile(mass_vector(mu, d=mech.d), (cfg.n_samples, 1))
    if mu.shape != (cfg.n_samples, mech.d):
        raise ValidationError(
            f"per-run initial states must be ({cfg.n_samples}, {mech.d}), got {mu.shape}")
    if np.any(mu < 0) or not np.all(np.isfinite(mu)):
        raise ValidationError("initial states must be finite and >= 0")
    return mu.copy()


def sample_transition(mu, mech: BranchingMechanism, t: float, cfg: SimConfig, rng) -> np.ndarray:
    """Sample the branching transition law started from the mass vector mu.

    Returns an (n_samples, d) array of independent draws.  mu may also be an
    (n_samples, d) array giving each run its own initial state (the coupling
    constructions need that).  Scalar quadratic mechanisms (and diagonal
    quadratic systems) use the exact sampler; all others take dt-steps of
    the symmetric split scheme.  Only the live (non-zero) starts are drawn:
    dead rows come back as zeros and consume no variates, and from all-zero
    starts nothing is drawn.
    """
    if not 0 <= t < math.inf:
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    return _transition_batch(_initial_states(mu, mech, cfg), mech, float(t), cfg, rng)


def sample_path(mu, mech: BranchingMechanism, times, cfg: SimConfig, rng,
                imm: Optional[ImmigrationMechanism] = None) -> np.ndarray:
    """One path per run, observed at each of an increasing grid of times.

    Returns a (len(times), n_samples, d) array: entry k holds the runs at
    times[k].  The path chains segments by the Markov property,
    X_{t_k} = Q_{t_k - t_{k-1}} X_{t_{k-1}}, plus, with imm, the mass that
    immigrates over the segment.  A segment is one `sample_transition`
    draw, plus the exact immigration draw on the scalar quadratic route; on
    the stepped route with imm it is one split-step run with the influx
    inside.  mu is a mass vector or per-run rows.  So the path at one time
    is the transition law of the process with immigration, Q_t(mu) * N_t;
    without imm it is a `sample_transition` draw.
    """
    times = [float(t) for t in times]
    if not times or not all(0 <= t < math.inf for t in times) or any(
            a >= b for a, b in zip(times, times[1:])):
        raise ValidationError(f"times must be non-empty, finite, >= 0 and increasing, got {times}")
    if imm is not None and imm.d != mech.d:
        raise ValidationError(f"immigration dimension {imm.d} != mechanism dimension {mech.d}")
    states = _initial_states(mu, mech, cfg)
    influx = imm is not None and not imm.is_trivial()
    out = np.empty((len(times), *states.shape))
    for k, (start, end) in enumerate(zip([0.0, *times], times)):
        if influx and not _exact_immigration(mech):
            states = _stepped_batch(states, mech, imm, end - start, cfg, rng)
        else:
            states = sample_transition(states, mech, end - start, cfg, rng)
            if influx and end > start:
                states += _exact_immigration_batch(imm, mech, end - start, len(states), rng)
        out[k] = states
    return out


def stationary_horizon(mech: BranchingMechanism) -> float:
    """Horizon T with e^{-beta* T} <= STATIONARY_BIAS: the mean of mass
    immigrated after lag T is below STATIONARY_BIAS relative to the
    stationary mean."""
    bs = beta_star(mech)
    if bs <= 0:
        raise ValidationError(f"stationary law needs beta_star > 0, got {bs:.6g}")
    return math.log(1.0 / STATIONARY_BIAS) / bs


def sample_stationary(imm: ImmigrationMechanism, mech: BranchingMechanism,
                      cfg: SimConfig, rng) -> np.ndarray:
    """Sample the stationary law of the process with immigration.

    Exact for the scalar quadratic mechanism with continuous-only
    immigration: Gamma(beta/c, c/b).  Otherwise the path from zero with imm
    is observed at `stationary_horizon`, where the missing tail mean is below
    STATIONARY_BIAS relative (the scalar-quadratic-with-jumps case stays
    exact within that horizon).
    """
    bs = beta_star(mech)
    if bs <= 0:
        raise ValidationError(f"stationary law needs beta_star > 0, got {bs:.6g}")
    if imm.d != mech.d:
        raise ValidationError(f"immigration dimension {imm.d} != mechanism dimension {mech.d}")
    n = cfg.n_samples
    if imm.is_trivial():
        return np.zeros((n, mech.d))
    if _exact_immigration(mech) and not imm.nu:
        b, c = float(mech.b[0]), float(mech.c[0])
        beta = float(imm.beta[0])
        out = np.zeros((n, 1))
        if c > 0:
            out[:, 0] = rng.gamma(shape=beta / c, scale=c / b, size=n)
        else:
            out[:, 0] = beta / b
        return out
    return sample_path(np.zeros(mech.d), mech, [stationary_horizon(mech)], cfg, rng, imm=imm)[0]
