"""Distances between laws: exact empirical Wasserstein-1 and total variation.

The Wasserstein distance here always rides the l1 ground cost on mass
vectors (the total-variation norm of the difference of two states on a
finite type space), and `w1_exact_empirical` picks the exact solver by
dimension.  On a line the optimal plan is the sorted (comonotone) pairing,
so d=1 is solved by quantile pairing at any sample counts.  In d >= 2,
uniform empirical measures with matching sample counts make the optimal
transport problem a min-cost assignment, solved exactly; mismatched counts
are first repeat-expanded to the least common multiple, which represents
the same empirical laws exactly.  The assignment solver stays the
independent reference the 1-d route is tested against.

Total variation uses the [0,2] convention (mass of |P - Q|, so disjoint
supports give 2).  The empirical estimator separates the exact atom at the
origin from the continuous part, which matters for branching laws whose
extinction atom is a genuine point mass.  For the scalar quadratic
mechanism the transition law is an atom plus a Poisson mixture of Gamma
densities, so its total variation is computed to near machine accuracy by
series truncation plus exact incomplete-gamma integration between density
crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import brentq, linear_sum_assignment

from .cumulant import discount_integral
from .errors import NumericError, ValidationError

__all__ = [
    "EmpiricalLaw",
    "TVEstimate",
    "w1_exact_empirical",
    "w1_1d_quantile",
    "tv_empirical",
    "tv_exact_quadratic",
]

ASSIGNMENT_CAP = 2048  # largest matched count the d >= 2 assignment solves
HISTOGRAM_CAP = 2 ** 25  # most cells of the finest grid tv_empirical allocates
TV_BINS = 128  # default histogram bins per axis of tv_empirical


@dataclass(frozen=True)
class EmpiricalLaw:
    """A uniform empirical measure on mass vectors: one row per sample."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if s.size == 0:
            raise ValidationError("empirical law needs at least one sample")
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise ValidationError("samples must be finite and >= 0")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def _as_law(x) -> EmpiricalLaw:
    return x if isinstance(x, EmpiricalLaw) else EmpiricalLaw(x)


def w1_exact_empirical(a, b) -> float:
    """Exact Wasserstein-1 between two empirical laws (l1 ground cost).

    In d=1 this is the sorted (comonotone) pairing, `w1_1d_quantile`, at
    any sample counts.  In d >= 2 it is a min-cost assignment: unequal
    sample counts are repeat-expanded to their least common multiple
    first, and if the matched count exceeds ASSIGNMENT_CAP the call
    refuses rather than approximate.
    """
    a, b = _as_law(a), _as_law(b)
    if a.d != b.d:
        raise ValidationError(f"dimension mismatch: {a.d} vs {b.d}")
    if a.d == 1:
        return w1_1d_quantile(a, b)
    return _w1_assignment(a, b)


def _w1_assignment(a, b) -> float:
    """Exact Wasserstein-1 by min-cost assignment, in any dimension.

    The d >= 2 route of `w1_exact_empirical`, and the reference its 1-d
    route is tested against.  Refuses when the lcm-expanded count exceeds
    ASSIGNMENT_CAP.
    """
    a, b = _as_law(a), _as_law(b)
    # canonical argument order: both orientations solve the identical
    # instance, so the value is exactly symmetric
    if (a.n, a.samples.tobytes()) > (b.n, b.samples.tobytes()):
        a, b = b, a
    n = math.lcm(a.n, b.n)
    if n > ASSIGNMENT_CAP:
        raise ValidationError(
            f"assignment size {n} exceeds cap {ASSIGNMENT_CAP}; use fewer samples")
    left = np.repeat(a.samples, n // a.n, axis=0)
    right = np.repeat(b.samples, n // b.n, axis=0)
    cost = np.abs(left[:, None, :] - right[None, :, :]).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)


def w1_1d_quantile(a, b) -> float:
    """Exact 1-d Wasserstein-1 by comonotone (sorted-quantile) pairing.

    Handles unequal sample counts exactly by integrating the gap between
    the two empirical quantile functions over their common breakpoints,
    integers K over L = lcm(n_a, n_b), so that no quantile index rounds.
    """
    a, b = _as_law(a), _as_law(b)
    if a.d != 1 or b.d != 1:
        raise ValidationError(f"quantile pairing needs d=1, got d={a.d} and d={b.d}")
    xs = np.sort(a.samples[:, 0])
    ys = np.sort(b.samples[:, 0])
    if a.n == b.n:
        return float(np.abs(xs - ys).mean())
    L = math.lcm(a.n, b.n)
    K = np.union1d(np.arange(1, a.n + 1) * (L // a.n), np.arange(1, b.n + 1) * (L // b.n))
    qa = xs[(K - 1) // (L // a.n)]  # on (K_prev/L, K/L]: index ceil(K n/L) - 1
    qb = ys[(K - 1) // (L // b.n)]
    return float((np.diff(K, prepend=0) / L * np.abs(qa - qb)).sum())


class TVEstimate(float):
    """A total-variation estimate carrying its bin-sensitivity spread.

    spread: max minus min of the estimate across halved/doubled bin counts.
    atom_gap: the exact-zero atom contribution |P(a=0) - P(b=0)|.
    """

    spread: float
    atom_gap: float

    def __new__(cls, value: float, spread: float, atom_gap: float):
        obj = super().__new__(cls, value)
        obj.spread = float(spread)
        obj.atom_gap = float(atom_gap)
        return obj


def _hist_l1(pos_a, pos_b, n_a, n_b, d, nbins, ranges):
    ha, _ = np.histogramdd(pos_a, bins=nbins, range=ranges)
    hb, _ = np.histogramdd(pos_b, bins=nbins, range=ranges)
    return np.abs(ha / n_a - hb / n_b).sum()


def tv_empirical(a, b, bins: int = TV_BINS) -> TVEstimate:
    """Histogram total-variation estimate between two sample batches.

    The exact atom at the origin (rows identically zero) is separated and
    differenced exactly; the continuous parts are compared on a common grid.
    Returned value is in [0,2]; .spread reports how much it moves when the
    bin count is halved or doubled.  The doubled pass allocates
    (2 bins + 2)^d cells (an outlier bin at each end of each axis); past
    HISTOGRAM_CAP the call refuses rather than allocate.
    """
    a, b = _as_law(a), _as_law(b)
    if a.d != b.d:
        raise ValidationError(f"dimension mismatch: {a.d} vs {b.d}")
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    d = a.d
    cells = (2 * int(bins) + 2) ** d
    if cells > HISTOGRAM_CAP:
        raise ValidationError(
            f"a histogram of {bins} bins per axis in d = {d} needs {cells:.3g} cells; "
            f"at most {HISTOGRAM_CAP} are allowed, so use fewer bins")
    zero_a = np.all(a.samples == 0.0, axis=1)
    zero_b = np.all(b.samples == 0.0, axis=1)
    atom_gap = abs(zero_a.mean() - zero_b.mean())
    pos_a = a.samples[~zero_a]
    pos_b = b.samples[~zero_b]
    if pos_a.size == 0 and pos_b.size == 0:
        return TVEstimate(atom_gap, 0.0, atom_gap)
    pooled = np.vstack([pos_a, pos_b])
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    hi = np.where(hi > lo, hi, lo + np.maximum(1e-9, 1e-9 * np.abs(lo)))
    ranges = list(zip(lo, hi))
    vals = [atom_gap + _hist_l1(pos_a, pos_b, a.n, b.n, d, nb, ranges)
            for nb in (max(bins // 2, 2), bins, bins * 2)]
    return TVEstimate(vals[1], max(vals) - min(vals), atom_gap)


def _poisson_gamma_density(w, pk: np.ndarray, theta: float):
    """Density sum_k pk[k-1] * Gamma(w; k, theta) evaluated at w (array)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    ks = np.arange(1, len(pk) + 1)[:, None]
    logpdf = (special.xlogy(ks - 1, w[None, :]) - w[None, :] / theta
              - special.gammaln(ks) - ks * math.log(theta))
    return (pk[:, None] * np.exp(logpdf)).sum(axis=0)


def tv_exact_quadratic(x: float, y: float, b: float, c: float, t: float) -> float:
    """Total variation between scalar quadratic transition laws from x and y.

    Both laws are an atom at 0 plus a Poisson(mass/theta scaled) mixture of
    Gamma(k, theta) densities.  The Poisson series is truncated with tail
    below 1e-12, density crossings are located by root bracketing, and each
    smooth piece integrates exactly through regularized incomplete gamma
    functions — the result is accurate to the truncation tail.
    """
    if c <= 0:
        raise ValidationError(f"needs c > 0, got {c}")
    if t <= 0:
        raise ValidationError(f"needs t > 0, got {t}")
    if x < 0 or y < 0:
        raise ValidationError(f"masses must be >= 0, got {x}, {y}")
    if x == y:
        return 0.0
    a_dec = math.exp(-b * t)
    theta = c * discount_integral(b, t)
    mx, my = x * a_dec / theta, y * a_dec / theta
    atom_gap = abs(math.exp(-mx) - math.exp(-my))

    k_max = int(max(mx, my) + 10 * math.sqrt(max(mx, my)) + 20)
    while special.pdtrc(k_max, max(mx, my)) >= 1e-12:  # Poisson upper tail
        k_max *= 2
    ks = np.arange(1, k_max + 1)
    pk_x, pk_y = (np.exp(special.xlogy(ks, m) - special.gammaln(ks + 1) - m) for m in (mx, my))

    def diff(w):
        return _poisson_gamma_density(w, pk_x, theta) - _poisson_gamma_density(w, pk_y, theta)

    upper = float(special.gammaincinv(k_max, 1 - 1e-13) * theta)  # Gamma(k_max, theta) quantile
    grid = np.logspace(math.log10(theta) - 9.0, math.log10(upper), 600)
    sign = np.sign(diff(grid))
    crossings = []
    for i in range(len(grid) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            crossings.append(brentq(lambda w: float(diff(w)[0]), grid[i], grid[i + 1],
                                    xtol=1e-14, rtol=1e-14))

    def cum(w_hi, w_lo, pk):
        if math.isinf(w_hi):
            upper_mass = pk.sum()
        else:
            upper_mass = float((pk * special.gammainc(ks, w_hi / theta)).sum())
        return upper_mass - float((pk * special.gammainc(ks, w_lo / theta)).sum())

    pieces = [0.0] + crossings + [math.inf]
    cont = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        cont += abs(cum(hi, lo, pk_x) - cum(hi, lo, pk_y))
    tv = atom_gap + cont
    if not np.isfinite(tv):
        raise NumericError("total-variation series failed to evaluate")
    return float(min(tv, 2.0))
