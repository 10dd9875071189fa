"""Explicit couplings of transition and stationary laws.

The construction here is the branching-property trick: split the initial
states by the componentwise Jordan decomposition mu = meet + pos,
nu = meet + neg, evolve the three pieces independently, and recombine as
(shared + pos-part, shared + neg-part).  The marginals are the right
transition laws, the legs agree on the shared piece, and the expected l1
gap between the legs upper-bounds the Wasserstein distance while the
fraction of unequal rows upper-bounds half the total-variation distance.

The shared piece is a summand of both legs, so it cancels from
left - right, and that difference is all that cost, differ and the dual
rows read.  `couple_jordan_pieces` therefore draws only the positive and
negative pieces, and every `verify` coupling calls it.
`couple_transitions` draws the whole coupling, whose legs are the
marginals a user reads (`cbilab couple`): the meet path, then the pieces,
then, with immigration, one shared immigration path added to both legs.

The stationary law is decomposable: a stationary state is an independent
sum of the time-t immigration mass and a time-t evolution of a stationary
state.  So `couple_transitions` from mu and from a stationary batch, with
imm, couples the transition law from mu with the stationary law, and from
zero and a stationary batch it couples the immigration law at time t with
its limit.

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
    "couple_jordan_pieces",
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


def _starts(mu, nu, d: int) -> tuple:
    """mu and nu as arrays: mass vectors, or (n_samples, d) per-run rows."""
    return tuple(x if np.ndim(x) == 2 else mass_vector(x, d=d) for x in (mu, nu))


def couple_jordan_pieces(mu, nu, mech: BranchingMechanism, times, cfg: SimConfig, rng) -> list:
    """The coupling of the transition laws from mu and from nu, less its
    shared piece, at each of an increasing grid of times.

    Draws one path from the positive and then one from the negative part of
    the Jordan decomposition and returns one CoupledPair(pos_t, neg_t) per
    time.  The meet path a full coupling adds to both legs cancels from
    left - right, so these pairs give the cost and dual rows of
    `couple_transitions` up to rounding, and differ() is exactly the event
    pos_t != neg_t, which the added meet can only hide by rounding.  mu
    and nu are mass vectors, or both (n_samples, d)
    arrays decomposed rowwise, as `sample_path` accepts.
    """
    _, pos, neg = jordan_decompose(*_starts(mu, nu, mech.d))
    left = sample_path(pos, mech, times, cfg, rng)
    right = sample_path(neg, mech, times, cfg, rng)
    return [CoupledPair(lf, rt) for lf, rt in zip(left, right)]


def couple_transitions(mu, nu, mech: BranchingMechanism, times, cfg: SimConfig, rng,
                       imm: Optional[ImmigrationMechanism] = None) -> list:
    """Couple the transition laws from mu and from nu at each of an
    increasing grid of times, with immigration imm if given.

    Draws one path from the meet part of the Jordan decomposition, then the
    positive and negative paths of `couple_jordan_pieces`, and adds the meet
    path to both legs: each leg is a true transition sample by the
    branching property, and the legs share the meet part.  With imm, one
    immigration path (the process started from zero) is then drawn and
    added to both legs, so left - right is unchanged: immigration is free.
    mu and nu are mass vectors, or both (n_samples, d) arrays giving each
    row its own pair of initial states (decomposed rowwise).  Returns one
    CoupledPair per time.
    """
    mu, nu = _starts(mu, nu, mech.d)
    meet = sample_path(jordan_decompose(mu, nu)[0], mech, times, cfg, rng)
    legs = [(m + pair.left, m + pair.right)
            for m, pair in zip(meet, couple_jordan_pieces(mu, nu, mech, times, cfg, rng))]
    if imm is not None:
        influx = sample_path(np.zeros(mech.d), mech, times, cfg, rng, imm=imm)
        for (left, right), f in zip(legs, influx):
            left += f
            right += f
    return [CoupledPair(lf, rt) for lf, rt in legs]
