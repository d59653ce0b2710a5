"""Posterior beliefs over hypotheses and their Bayes dynamics.

Beliefs are kept in log space (log masses plus a cached normalized vector)
so that long observation sequences cannot underflow, and every update
renormalizes via log-sum-exp.  ``normalize`` (the posterior step) and
``posterior_mode`` (the declaration) act on one row or a (B, M) stack, as
does ``posterior_error`` (the chance that declaration is wrong); the
simulator's lockstep engine and fixed-horizon path call them on whole
blocks, ``Belief`` and ``map_hypothesis`` on one posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import ZERO_PROB
from .exceptions import ImpossibleObservationError, UndefinedOddsError
from .model import log0


# Relative tolerance per step under which posterior masses tie.
TIE_TOL = 1e-12


def normalize(log_masses: np.ndarray):
    """The posterior of unnormalized log masses, over the last axis.

    Shifts each row of a row or a (B, M) stack by its max, exponentiates and
    normalizes.  Returns (shifted log masses, probabilities, each row's total
    before normalizing).
    """
    shifted = log_masses - log_masses.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    total = p.sum(axis=-1)
    return shifted, p / total[..., None], total


def posterior_mode(probs: np.ndarray, steps=0):
    """The posterior mode of each row, the lowest index among tied masses.

    Masses that are equal in exact arithmetic differ by rounding that grows
    with the step count (the simulator's two paths sum a trial's log masses
    in different orders).  As ``exact_pairwise`` snaps structural ties,
    masses within a relative ``TIE_TOL`` per step of the row's largest count
    as tied; ``steps`` is the step count of each row (at least 1 is used).
    """
    cut = probs.max(axis=-1) * np.exp(-TIE_TOL * np.maximum(steps, 1))
    return (probs >= cut[..., None]).argmax(axis=-1)


def posterior_error(probs: np.ndarray):
    """The mass off the mode of each row, over the last axis.

    Summed directly from the smaller masses: ``1 - max`` cancels, and reads
    0 once the error is below the rounding of the largest mass.
    """
    return np.sort(probs, axis=-1)[..., :-1].sum(axis=-1)


@dataclass(frozen=True)
class Belief:
    """A normalized posterior: log_masses and the matching probability vector."""

    log_masses: np.ndarray
    probs: np.ndarray

    @classmethod
    def from_probs(cls, probs) -> "Belief":
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("belief must be a 1-D vector over at least two hypotheses")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("belief masses must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"belief must sum to 1, got {float(p.sum())}")
        return cls.from_log_masses(log0(np.where(p > ZERO_PROB, p, 0.0)))

    @classmethod
    def from_log_masses(cls, log_masses) -> "Belief":
        lm = np.asarray(log_masses, dtype=float)
        top = lm.max(initial=-math.inf)
        if math.isnan(top) or top == math.inf:
            raise ValueError("belief log masses must not be NaN or +inf")
        if top == -math.inf:
            raise ImpossibleObservationError("belief has no remaining mass")
        shifted, probs, total = normalize(lm)
        lm = shifted - math.log(total)
        lm.setflags(write=False)
        probs.setflags(write=False)
        return cls(log_masses=lm, probs=probs)

    @property
    def M(self) -> int:
        return self.probs.size


def bayes_update(belief: Belief, model, a: int, z) -> Belief:
    """Condition the belief on observing symbol z after playing action a."""
    lm = belief.log_masses + model.log_likelihood(a, z)
    if not np.any(np.isfinite(lm)):
        raise ImpossibleObservationError(
            f"observation {z} under action {a} has zero probability under every "
            "hypothesis with remaining mass"
        )
    return Belief.from_log_masses(lm)


def log_odds(belief: Belief, i: int, j: int) -> float:
    """log of the posterior odds of hypothesis i against hypothesis j."""
    li = belief.log_masses[i]
    lj = belief.log_masses[j]
    if li == -math.inf and lj == -math.inf:
        raise UndefinedOddsError(f"hypotheses {i} and {j} both have zero mass")
    if li == -math.inf:
        return -math.inf
    if lj == -math.inf:
        return math.inf
    return float(li - lj)


def map_hypothesis(belief: Belief) -> int:
    """Index of the posterior mode; ties (up to rounding) break toward the lowest index."""
    return int(posterior_mode(belief.probs))
