"""Posterior beliefs over hypotheses and their Bayes dynamics.

Beliefs are kept in log space (log masses plus a cached normalized vector)
so that long observation sequences cannot underflow, and every update
renormalizes via log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import ZERO_PROB
from .exceptions import ImpossibleObservationError, UndefinedOddsError
from .model import log0


def _normalize_log_masses(log_masses: np.ndarray):
    finite = log_masses[np.isfinite(log_masses)]
    if finite.size == 0:
        raise ImpossibleObservationError("belief has no remaining mass")
    m = finite.max()
    shifted = log_masses - m
    probs = np.exp(shifted)
    total = probs.sum()
    probs = probs / total
    log_masses = shifted - math.log(total)
    return log_masses, probs


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
            raise ValueError(f"belief must sum to 1, got {p.sum()!r}")
        return cls.from_log_masses(log0(np.where(p > ZERO_PROB, p, 0.0)))

    @classmethod
    def from_log_masses(cls, log_masses) -> "Belief":
        lm = np.asarray(log_masses, dtype=float)
        lm, probs = _normalize_log_masses(lm)
        lm.setflags(write=False)
        probs.setflags(write=False)
        return cls(log_masses=lm, probs=probs)

    @property
    def M(self) -> int:
        return self.probs.size

    def max_prob(self) -> float:
        return float(self.probs.max())


def bayes_update(belief: Belief, model, a: int, z) -> Belief:
    """Condition the belief on observing symbol z after playing action a."""
    lm = belief.log_masses + model.log_likelihood(a, z)
    if not np.any(np.isfinite(lm)):
        raise ImpossibleObservationError(
            f"observation {z!r} under action {a} has zero probability under every "
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
    """Index of the posterior mode; ties break toward the lowest index."""
    return int(np.argmax(belief.probs))
