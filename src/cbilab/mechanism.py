"""Branching and immigration mechanisms on a finite type space.

A state is a nonnegative vector x in R_+^d: coordinate i is the mass of
type i.  The branching mechanism is, per type,

    phi_i(lam) = b_i lam_i + c_i lam_i^2 - <eta_i, lam>
                 + int (e^{-<lam,u>} - 1 + lam_i u_i) H_i(du),

with eta_ii = 0 and H_i a jump measure on R_+^d \\ {0} subject to

    int (<u,1> ^ <u,1>^2 + <u,1> - u_i) H_i(du) < infinity.

Jump measures are restricted to finite mixtures of three parametric kinds
(point mass, exponential profile on one axis, stable density on one axis),
which keeps every Laplace integral in closed form; that exactness is what
the downstream bound checks lean on.

The immigration mechanism is

    psi(lam) = <beta, lam> + int (1 - e^{-<lam,u>}) nu(du),

with nu of finite first moment.

Spatial motion enters as a conservative-or-killed rate matrix A and is
folded into the mechanism (b_i -> b_i - A_ii, eta_ij -> eta_ij + A_ij), so
the cumulant flow is always the plain ODE system dv/dt = -phi(v).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad

from .errors import ValidationError

__all__ = [
    "PointMass",
    "ExponentialAxis",
    "StableAxis",
    "JumpComponent",
    "BranchingMechanism",
    "ImmigrationMechanism",
    "MotionGenerator",
    "mass_vector",
    "fold_motion",
    "eval_phi",
    "local_projection",
    "gamma_matrix",
    "beta_star",
    "dominating_mechanism",
    "grey_condition",
    "eval_psi",
    "stable_constant",
]

MassVector = np.ndarray

DOMINATION_GRID_MAX = 50.0  # upper end of the minorant verification grid
DOMINATION_GRID_STEP = 0.1  # its spacing


def mass_vector(values, d=None) -> MassVector:
    """Validate and return a nonnegative mass vector as a float array.

    Args:
        values: sequence of per-type masses.
        d: expected dimension, checked if given.

    Returns:
        1-d float64 array, a defensive copy of the input.
    """
    x = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    if x.ndim != 1 or x.size < 1:
        raise ValidationError(f"mass vector must be 1-d and nonempty, got shape {x.shape}")
    if d is not None and x.size != d:
        raise ValidationError(f"mass vector has dimension {x.size}, expected {d}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("mass vector has non-finite entries")
    if np.any(x < 0):
        raise ValidationError(f"mass vector has negative entries: {x}")
    return x


def stable_constant(alpha: float) -> float:
    """Closed form of int_0^inf (e^{-u} - 1 + u) u^{-2-alpha} du for alpha in (0,1).

    Equals Gamma(1-alpha)/(alpha(1+alpha)); the test suite validates this
    against adaptive quadrature before anything downstream trusts it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"stable index parameter alpha must lie in (0,1), got {alpha}")
    return math.gamma(1.0 - alpha) / (alpha * (1.0 + alpha))


# ---------------------------------------------------------------------------
# jump components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass:
    """Atom of weight w at a fixed jump vector u >= 0, u != 0."""

    u: np.ndarray
    weight: float

    def __post_init__(self):
        u = mass_vector(self.u)
        if not np.any(u > 0):
            raise ValidationError("PointMass jump vector must be nonzero")
        if not (np.isfinite(self.weight) and self.weight > 0):
            raise ValidationError(f"PointMass weight must be positive, got {self.weight}")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class ExponentialAxis:
    """Total mass `rate` with an Exp(mean) jump-size profile on one axis."""

    axis: int
    mean: float
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and self.mean > 0):
            raise ValidationError(f"ExponentialAxis mean must be positive, got {self.mean}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"ExponentialAxis rate must be positive, got {self.rate}")
        if int(self.axis) != self.axis or self.axis < 0:
            raise ValidationError(f"ExponentialAxis axis must be a nonnegative integer, got {self.axis}")
        object.__setattr__(self, "axis", int(self.axis))


@dataclass(frozen=True)
class StableAxis:
    """Levy density scale * u^{-2-alpha} on one axis (jump index 1+alpha).

    Infinite activity and infinite first moment near 0, so it is only
    admissible on the axis of the type that carries it (the compensated
    integral is finite there) and never inside an immigration measure.
    """

    axis: int
    alpha: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"StableAxis alpha must lie in (0,1), got {self.alpha}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"StableAxis scale must be positive, got {self.scale}")
        if int(self.axis) != self.axis or self.axis < 0:
            raise ValidationError(f"StableAxis axis must be a nonnegative integer, got {self.axis}")
        object.__setattr__(self, "axis", int(self.axis))


JumpComponent = Union[PointMass, ExponentialAxis, StableAxis]


def _component_dim_ok(comp: JumpComponent, d: int) -> bool:
    if isinstance(comp, PointMass):
        return comp.u.size == d
    return comp.axis < d


def _phi_jump_term(comp: JumpComponent, lam: np.ndarray, i: int) -> float:
    """int (e^{-<lam,u>} - 1 + lam_i u_i) comp(du), closed form."""
    if isinstance(comp, PointMass):
        return comp.weight * (math.exp(-float(lam @ comp.u)) - 1.0 + lam[i] * comp.u[i])
    if isinstance(comp, ExponentialAxis):
        th, z = comp.mean, lam[comp.axis]
        if comp.axis == i:
            # compensated on its own axis: r * th^2 z^2 / (1 + th z)
            return comp.rate * th * th * z * z / (1.0 + th * z)
        # off-axis: uncompensated, r * (1/(1+th z) - 1)
        return -comp.rate * th * z / (1.0 + th * z)
    if isinstance(comp, StableAxis):
        if comp.axis != i:
            raise ValidationError("StableAxis component off its own axis has a divergent compensator")
        return comp.scale * stable_constant(comp.alpha) * lam[i] ** (1.0 + comp.alpha)
    raise TypeError(f"unknown jump component {comp!r}")


def _psi_jump_term(comp: JumpComponent, lam: np.ndarray) -> float:
    """int (1 - e^{-<lam,u>}) comp(du), closed form (finite-mean kinds only)."""
    if isinstance(comp, PointMass):
        return comp.weight * (1.0 - math.exp(-float(lam @ comp.u)))
    if isinstance(comp, ExponentialAxis):
        th, z = comp.mean, lam[comp.axis]
        return comp.rate * th * z / (1.0 + th * z)
    raise ValidationError(f"immigration measure cannot contain {type(comp).__name__}")


def _first_moment(comp: JumpComponent, d: int) -> np.ndarray:
    """int u comp(du) as a d-vector; inf on a stable axis."""
    m = np.zeros(d)
    if isinstance(comp, PointMass):
        m += comp.weight * comp.u
    elif isinstance(comp, ExponentialAxis):
        m[comp.axis] = comp.rate * comp.mean
    elif isinstance(comp, StableAxis):
        m[comp.axis] = np.inf
    return m


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BranchingMechanism:
    """Per-type branching data (b_i, c_i, eta_i, H_i); immutable.

    Args:
        b: length-d drift coefficients (any sign).
        c: length-d nonnegative diffusion coefficients.
        eta: d x d nonnegative nonlocal-drift matrix, zero diagonal.
            Defaults to zero.
        jumps: per-type sequences of jump components. jumps[i] belongs to
            H_i; a StableAxis in jumps[i] must sit on axis i.
    """

    b: np.ndarray
    c: np.ndarray
    eta: np.ndarray = None
    jumps: tuple = ()

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        d = b.size
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.size != d:
            raise ValidationError(f"b has dimension {d} but c has {c.size}")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValidationError("mechanism coefficients must be finite")
        if np.any(c < 0):
            raise ValidationError(f"c must be componentwise nonnegative, got {c}")
        eta = np.zeros((d, d)) if self.eta is None else np.asarray(self.eta, dtype=float)
        if eta.shape != (d, d):
            raise ValidationError(f"eta must be {d}x{d}, got {eta.shape}")
        if np.any(eta < 0) or not np.all(np.isfinite(eta)):
            raise ValidationError("eta must be nonnegative and finite")
        if np.any(np.diagonal(eta) != 0):
            raise ValidationError("eta must have zero diagonal")
        jumps = tuple(tuple(js) for js in self.jumps) if self.jumps else tuple(() for _ in range(d))
        if len(jumps) != d:
            raise ValidationError(f"jumps must have one component list per type ({d}), got {len(jumps)}")
        for i, comps in enumerate(jumps):
            for comp in comps:
                if not _component_dim_ok(comp, d):
                    raise ValidationError(f"jump component {comp!r} does not fit dimension {d}")
                if isinstance(comp, StableAxis) and comp.axis != i:
                    raise ValidationError(
                        f"type {i} carries a StableAxis on axis {comp.axis}: the off-axis "
                        "first moment diverges near 0, violating jump integrability"
                    )
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "eta", _freeze(eta))
        object.__setattr__(self, "jumps", jumps)

    @property
    def d(self) -> int:
        return self.b.size

    def is_quadratic(self) -> bool:
        """True when there are no jump components (pure b/c/eta mechanism)."""
        return not any(self.jumps)


@dataclass(frozen=True)
class ImmigrationMechanism:
    """Immigration data (beta, nu); nu must have a finite first moment."""

    beta: np.ndarray
    nu: tuple = ()

    def __post_init__(self):
        beta = mass_vector(self.beta)
        nu = tuple(self.nu)
        for comp in nu:
            if isinstance(comp, StableAxis):
                raise ValidationError(
                    "StableAxis is not admissible in an immigration measure: "
                    "its first moment diverges near 0"
                )
            if not _component_dim_ok(comp, beta.size):
                raise ValidationError(f"immigration jump component {comp!r} does not fit dimension {beta.size}")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "nu", nu)

    @property
    def d(self) -> int:
        return self.beta.size

    def is_trivial(self) -> bool:
        return not np.any(self.beta > 0) and len(self.nu) == 0

    def first_moment(self) -> np.ndarray:
        """int u nu(du) as a d-vector (finite by construction)."""
        m = np.zeros(self.d)
        for comp in self.nu:
            m += _first_moment(comp, self.d)
        return m


@dataclass(frozen=True)
class MotionGenerator:
    """Rate matrix of the spatial motion: off-diagonal >= 0, row sums <= 0.

    Row sum strictly below zero means killing at that state.
    """

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"motion matrix must be square, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValidationError("motion matrix must be finite")
        off = A - np.diag(np.diagonal(A))
        if np.any(off < 0):
            raise ValidationError("motion matrix must have nonnegative off-diagonal entries")
        if np.any(A.sum(axis=1) > 1e-12):
            raise ValidationError("motion matrix rows must sum to <= 0 (conservative or killed)")
        object.__setattr__(self, "A", _freeze(A))

    @property
    def d(self) -> int:
        return self.A.shape[0]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def fold_motion(mech: BranchingMechanism, motion: MotionGenerator) -> BranchingMechanism:
    """Fold a spatial-motion generator into the mechanism.

    The motion semigroup acts linearly, so it can be absorbed into the
    drift data: b_i -> b_i - A_ii and eta_ij -> eta_ij + A_ij for j != i.
    The cumulant flow of the folded mechanism solves the original
    motion-plus-branching evolution equation (the test suite checks this
    against a Picard iteration of the mild form).
    """
    if motion.d != mech.d:
        raise ValidationError(f"motion dimension {motion.d} != mechanism dimension {mech.d}")
    A = motion.A
    b = mech.b - np.diagonal(A)
    eta = mech.eta + (A - np.diag(np.diagonal(A)))
    return BranchingMechanism(b=b, c=mech.c, eta=eta, jumps=mech.jumps)


def _points(lam, d: int, fn: str) -> np.ndarray:
    """lam as one point (d,) or a stack of points (m, d), each finite and >= 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim > 2 or lam.shape[-1] != d:
        raise ValidationError(f"lambda has dimension {lam.shape[-1]}, expected {d}")
    ok = (lam >= 0) & np.isfinite(lam)
    if not ok.all():
        bad = lam if lam.ndim == 1 else lam[~ok.all(axis=1)][0]
        raise ValidationError(f"{fn} is only defined for finite lambda >= 0, got {bad}")
    return lam


def eval_phi(mech: BranchingMechanism, lam) -> np.ndarray:
    """Evaluate (phi_1(lam), ..., phi_d(lam)) with all jump integrals in closed form.

    lam is one point (d,) or a stack of points (m, d), validated once; each
    row of the result has the bits of a call on that row alone.
    """
    d = mech.d
    lam = _points(lam, d, "phi")
    # eta @ each row as a matrix-vector product, the same kernel as for one row
    out = mech.b * lam + mech.c * lam * lam - (mech.eta @ lam[..., None])[..., 0]
    # jump terms row by row, keeping scalar math.exp and **: vectorised
    # transcendentals round differently from libm
    for i, comps in enumerate(mech.jumps):
        for comp in comps:
            for row, out_row in zip(lam.reshape(-1, d), out.reshape(-1, d)):
                out_row[i] += _phi_jump_term(comp, row, i)
    return out


def local_projection(mech: BranchingMechanism, i: int, z: float) -> float:
    """On-diagonal projection phi_1(i, z) of the mechanism at type i.

    phi_1(i,z) = (b_i - gamma_i(1)) z + c_i z^2 + int (e^{-z u_i} - 1 + z u_i) H_i(du),

    the jump part being phi_i's jump integral at lam = z e_i.  For one type
    gamma = 0, so this is phi_1 itself.
    """
    if not 0 <= i < mech.d:
        raise ValidationError(f"type index {i} out of range for dimension {mech.d}")
    if z < 0:
        raise ValidationError(f"local projection needs z >= 0, got {z}")
    gamma_row = gamma_matrix(mech)[i]
    out = (mech.b[i] - gamma_row.sum()) * z + mech.c[i] * z * z
    if mech.jumps[i]:
        lam = np.zeros(mech.d)
        lam[i] = z
        for comp in mech.jumps[i]:
            out += _phi_jump_term(comp, lam, i)
    return float(out)


def gamma_matrix(mech: BranchingMechanism) -> np.ndarray:
    """Linearization kernel gamma_ij = eta_ij + int 1_{i != j} u_j H_i(du)."""
    g = mech.eta.copy()
    for i in range(mech.d):
        for comp in mech.jumps[i]:
            m = _first_moment(comp, mech.d)
            m[i] = 0.0  # the diagonal is compensated away; eta_ii = 0 too
            if not np.all(np.isfinite(m)):
                raise ValidationError(f"divergent off-axis first moment in H_{i}: {comp!r}")
            g[i] += m
    return g


def beta_star(mech: BranchingMechanism) -> float:
    """Uniform subcriticality rate min_i (b_i - sum_j gamma_ij)."""
    return float(np.min(mech.b - gamma_matrix(mech).sum(axis=1)))


def dominating_mechanism(mech: BranchingMechanism) -> BranchingMechanism:
    """Componentwise-minimum scalar mechanism phi_* with phi_1(i,z) >= phi_*(z).

    b_* is the subcriticality rate, c_* = min_i c_i, and the jump part keeps
    a stable term only when every type carries a StableAxis on its own axis
    with a common index (then a_* = min of the per-type total scales).  The
    minorant property is verified on a grid at construction and a violation
    raises with the offending (i, z).  The grid runs from 0 to
    DOMINATION_GRID_MAX in steps of DOMINATION_GRID_STEP.

    Args:
        mech: branching mechanism to dominate.

    Returns:
        One-type BranchingMechanism (b_*, c_*, jumps m_*) with the
        guaranteed minorant property.
    """
    bs = beta_star(mech)
    cs = float(np.min(mech.c))
    m_star = ()
    alphas = set()
    per_type_scale = []
    for i in range(mech.d):
        own = [comp for comp in mech.jumps[i] if isinstance(comp, StableAxis)]
        per_type_scale.append(sum(comp.scale for comp in own))
        alphas.update(round(comp.alpha, 14) for comp in own)
    if all(s > 0 for s in per_type_scale) and len(alphas) == 1:
        m_star = (StableAxis(axis=0, alpha=float(next(iter(alphas))), scale=min(per_type_scale)),)
    phi_star = BranchingMechanism(b=[bs], c=[cs], jumps=(m_star,))

    zs = np.arange(0.0, DOMINATION_GRID_MAX + 0.5 * DOMINATION_GRID_STEP, DOMINATION_GRID_STEP)
    lower = np.array([local_projection(phi_star, 0, z) for z in zs])
    for i in range(mech.d):
        vals = np.array([local_projection(mech, i, z) for z in zs])
        bad = np.nonzero(vals < lower - 1e-12)[0]
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"dominating mechanism fails at type {i}, z={zs[k]:.3f}: "
                f"local projection {vals[k]:.6e} < phi_*(z) {lower[k]:.6e}"
            )
    return phi_star


def _scalar_phi(phi_star: BranchingMechanism) -> Callable[[float], float]:
    """phi_* as a function of z >= 0.

    That is local_projection(phi_star, 0, .), which is phi_* itself since
    gamma = 0 for one type.  A dominating mechanism has exactly one type;
    any other dimension is refused.
    """
    if phi_star.d != 1:
        raise ValidationError(f"a dominating mechanism has one type, got dimension {phi_star.d}")
    return functools.partial(local_projection, phi_star, 0)


def grey_condition(phi_star: BranchingMechanism) -> bool:
    """True iff phi_* is eventually positive with integrable tail of 1/phi_*.

    For the admissible jump kinds the tail of phi_* grows superlinearly iff a
    quadratic or stable part is present (point-mass and exponential parts
    contribute at most linear growth), so the condition reduces to
    c_* > 0 or a stable component present.  The test suite cross-checks this
    decision against direct numerical integration of 1/phi_*.
    """
    _scalar_phi(phi_star)  # refuses d != 1
    return bool(phi_star.c[0] > 0) or any(isinstance(comp, StableAxis) for comp in phi_star.jumps[0])


def eval_psi(imm: ImmigrationMechanism, lam):
    """Evaluate psi(lam) = <beta, lam> + int (1 - e^{-<lam,u>}) nu(du).

    lam is one point (d,), giving a float, or a stack of points (m, d),
    giving m values; it is validated once, and each value has the bits of a
    call on its row alone.
    """
    lam = _points(lam, imm.d, "psi")
    rows = lam.reshape(-1, imm.d)
    # <beta, row> as a row-vector product per row: plain rows @ beta rounds
    # differently from the product on one row
    out = (rows[:, None, :] @ imm.beta[:, None])[:, 0, 0]
    # jump terms row by row with scalar math.exp, as in eval_phi
    for comp in imm.nu:
        for k, row in enumerate(rows):
            out[k] += _psi_jump_term(comp, row)
    return float(out[0]) if lam.ndim == 1 else out


def phi_star_tail_integral(phi_star: BranchingMechanism, z0: float) -> float:
    """Numerically integrate int_{z0}^inf dz / phi_*(z), whose root in z0
    is `vbar_scalar`.

    Substitutes w = 1/z so the infinite tail becomes the interval (0, 1/z0].
    """
    phi = _scalar_phi(phi_star)
    if z0 <= 0:
        raise ValidationError("tail integral needs z0 > 0")
    val, _ = quad(lambda w: 1.0 / (w * w * phi(1.0 / w)), 0.0, 1.0 / z0, limit=200)
    return val
