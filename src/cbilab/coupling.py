"""Explicit couplings of transition and stationary laws.

The one construction here, `couple_transitions`, is the branching-property
trick: split the initial states by the componentwise Jordan decomposition
mu = meet + pos, nu = meet + neg, evolve the three pieces independently,
and recombine as (shared + pos-part, shared + neg-part).  The marginals are
the right transition laws, the legs agree on the shared piece, and the
expected l1 gap between the legs upper-bounds the Wasserstein distance while
the fraction of unequal rows upper-bounds half the total-variation distance.

With immigration, `couple_transitions` adds one shared immigration path to
both legs (zero extra cost by construction).  The stationary law is
decomposable: a stationary state is an independent sum of the time-t
immigration mass and a time-t evolution of a stationary state.  So
`couple_transitions` from mu and from a stationary batch, with imm, couples
the transition law from mu with the stationary law, and from zero and a
stationary batch it couples the immigration law at time t with its limit.
The shared influx cancels from left - right, so a caller that reads only
that difference (cost, differ, dual rows) leaves imm out: no `verify`
check passes it.  `cbilab couple` does, since it writes the legs, the
marginals a user reads.

The coupling runs along an increasing grid of times, one `sample_path`
per piece, and returns one pair per time.  By the Markov property each
pair is an exact coupling at its time; pairs at different times share
their draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .mechanism import BranchingMechanism, ImmigrationMechanism, mass_vector
from .simulate import SimConfig, sample_path
from .simulate import sample_transition  # noqa: F401  (an import site bench/test_bench.py traces)

__all__ = [
    "CoupledPair",
    "jordan_decompose",
    "couple_transitions",
]


@dataclass(frozen=True)
class CoupledPair:
    """A batch of coupled draws: row k of left and right is one coupled pair.

    cost() is the Monte Carlo coupling cost E||left - right||_1 — an upper
    estimate of the Wasserstein distance between the marginal laws.
    differ() is the fraction of rows whose legs are not identical; twice it
    upper-estimates the total-variation distance (in the [0,2] convention).
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.atleast_2d(np.asarray(self.left, dtype=float))
        right = np.atleast_2d(np.asarray(self.right, dtype=float))
        if left.shape != right.shape:
            raise ValidationError(f"leg shapes differ: {left.shape} vs {right.shape}")
        if np.any(left < 0) or np.any(right < 0):
            raise ValidationError("coupled states must be >= 0")
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def n(self) -> int:
        return self.left.shape[0]

    @property
    def d(self) -> int:
        return self.left.shape[1]

    def row_costs(self) -> np.ndarray:
        return np.abs(self.left - self.right).sum(axis=1)

    def dual_rows(self) -> np.ndarray:
        """<s, left_k - right_k> for s the sign vector of mean(left - right).

        <s, .> is 1-Lipschitz for the l1 cost, so by Kantorovich-Rubinstein
        duality their mean bounds the exact W1 of the two batches below, as
        cost() does above.  They equal row_costs() where each row agrees with s."""
        diff = self.left - self.right
        return np.where(diff.mean(axis=0) >= 0, diff, self.right - self.left).sum(axis=1)

    def cost(self) -> float:
        return float(self.row_costs().mean())

    def cost_se(self) -> float:
        return float(self.row_costs().std() / np.sqrt(self.n))

    def differ(self) -> float:
        return float(np.any(self.left != self.right, axis=1).mean())

    def differ_se(self) -> float:
        p = self.differ()
        return float(np.sqrt(p * (1.0 - p) / self.n))


def jordan_decompose(mu, nu):
    """Componentwise Jordan decomposition of the signed vector mu - nu.

    Returns (meet, pos, neg) with mu = meet + pos, nu = meet + neg,
    pos * neg = 0 componentwise, and ||mu - nu||_1 = sum(pos + neg).
    Accepts single vectors or (n, d) batches of rows.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise ValidationError(f"shapes differ: {mu.shape} vs {nu.shape}")
    meet = np.minimum(mu, nu)
    return meet, mu - meet, nu - meet


def couple_transitions(mu, nu, mech: BranchingMechanism, times, cfg: SimConfig, rng,
                       imm: Optional[ImmigrationMechanism] = None) -> list:
    """Couple the transition laws from mu and from nu at each of an
    increasing grid of times, with immigration imm if given.

    Draws one path each from the meet, positive, and negative parts of the
    Jordan decomposition, in that order, and recombines them at each time;
    each leg is a true transition sample by the branching property, and the
    legs share the meet part.  With imm, one immigration path (the process
    started from zero) is then drawn and added to both legs, so
    left - right is unchanged: immigration is free.  mu and nu are mass
    vectors, or both (n_samples, d) arrays giving each row its own pair of
    initial states (decomposed rowwise), as `sample_path` accepts.  Right is
    built in the meet path's buffer, so at most three paths are held at
    once.  Returns one CoupledPair per time.  A caller that reads only
    left - right leaves imm out and saves the influx path.
    """
    if np.ndim(mu) != 2:
        mu = mass_vector(mu, d=mech.d)
    if np.ndim(nu) != 2:
        nu = mass_vector(nu, d=mech.d)
    meet, pos, neg = jordan_decompose(mu, nu)
    right = sample_path(meet, mech, times, cfg, rng)
    left = right + sample_path(pos, mech, times, cfg, rng)
    right += sample_path(neg, mech, times, cfg, rng)
    if imm is not None:
        influx = sample_path(np.zeros(mech.d), mech, times, cfg, rng, imm=imm)
        left += influx
        right += influx
    return [CoupledPair(lf, rt) for lf, rt in zip(left, right)]

