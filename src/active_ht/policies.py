"""Sensing policies: which action to play, when to stop, what to declare.

A policy is queried with the current posterior (a probability vector) and
the number of steps already taken.  ``action_weights`` returns the action
distribution to draw from, or None to stop; ``declare`` picks the posterior
mode (lowest index on ties).  ``batch_weights`` answers the same question for
a stack of posteriors at one step, as the simulator's lockstep engine asks
it: the base class loops over ``action_weights``, so a subclass that defines
only that still runs, and the built-in families answer with array
operations.  Policies are pure and hold no generator: every action draw,
``step``'s and the simulator's, maps a uniform from the caller's generator
through ``model.inverse_cdf_index``, so identical seeds replay identical
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import BoundsReport
from .exceptions import AssumptionError
from .model import ObservationModel, as_weights, inverse_cdf_index

# Threshold-stopping policies abort a trial after this many multiples of
# log(L) / maxmin reliability; truncations are flagged, never dropped.
HORIZON_FACTOR = 1000.0


class Policy:
    """Interface shared by all policies."""

    safety_horizon: Optional[int] = None

    def action_weights(self, probs: np.ndarray, step_count: int):
        raise NotImplementedError

    def batch_weights(self, probs: np.ndarray, step_count: int):
        """``action_weights`` for every row of ``probs`` (B, M) at one step.

        Returns ``(weights (B, K), stop (B,))``: ``stop`` is True exactly
        where ``action_weights`` returns None, and those rows of ``weights``
        are unspecified.
        """
        rows = [self.action_weights(p, step_count) for p in probs]
        stop = np.array([w is None for w in rows], dtype=bool)
        go = [np.asarray(w, dtype=float) for w in rows if w is not None]
        weights = np.zeros((len(rows), go[0].size if go else 0))
        if go:
            weights[~stop] = go
        return weights, stop

    def declare(self, probs: np.ndarray) -> int:
        return int(np.argmax(probs))

    def step(self, probs: np.ndarray, step_count: int, rng: np.random.Generator):
        """Draw the next action, or return None to stop."""
        w = self.action_weights(probs, step_count)
        if w is None:
            return None
        return int(inverse_cdf_index(np.cumsum(w), rng.random()))

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedRulePolicy(Policy):
    """Draw actions i.i.d. from one rule; stop at a fixed horizon or a
    posterior threshold (exactly one of the two must be given)."""

    weights: np.ndarray
    n: Optional[int] = None
    threshold: Optional[float] = None
    safety_horizon: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "weights", as_weights(self.weights))
        if (self.n is None) == (self.threshold is None):
            raise ValueError("specify exactly one of n (fixed horizon) or threshold")
        if self.n is not None and self.n < 0:
            raise ValueError("fixed horizon must be nonnegative")
        if self.threshold is not None and not 0.0 < self.threshold < 1.0:
            raise ValueError("stopping threshold must lie in (0, 1)")

    def action_weights(self, probs: np.ndarray, step_count: int):
        if self.n is not None:
            return self.weights if step_count < self.n else None
        return None if probs.max() >= self.threshold else self.weights

    def batch_weights(self, probs: np.ndarray, step_count: int):
        B = probs.shape[0]
        if self.n is not None:
            stop = np.full(B, step_count >= self.n)
        else:
            stop = probs.max(axis=1) >= self.threshold
        return np.broadcast_to(self.weights, (B, self.weights.size)), stop

    def descriptor(self) -> dict:
        mode = (
            {"stop": "fixed_n", "n": int(self.n)}
            if self.n is not None
            else {"stop": "threshold", "threshold": self.threshold}
        )
        return {
            "kind": "fixed",
            "weights": self.weights.tolist(),
            "safety_horizon": self.safety_horizon,
            **mode,
        }


@dataclass(frozen=True)
class TwoPhasePolicy(Policy):
    """Explore with a robust rule, then exploit the posterior mode's rule.

    While the posterior mode is below ``phase_threshold`` actions come from
    ``explore_weights``; afterwards from ``exploit_weights[mode]``.  Stops
    once the mode reaches ``stop_threshold``.
    """

    explore_weights: np.ndarray
    exploit_weights: np.ndarray  # (M, K)
    phase_threshold: float
    stop_threshold: float
    safety_horizon: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "explore_weights", as_weights(self.explore_weights))
        w = np.asarray(self.exploit_weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "exploit_weights", w)
        if not 0.0 < self.stop_threshold < 1.0:
            raise ValueError("stop threshold must lie in (0, 1)")
        if not 0.0 < self.phase_threshold <= 1.0:
            raise ValueError("phase threshold must lie in (0, 1]")

    def action_weights(self, probs: np.ndarray, step_count: int):
        top = probs.max()
        if top >= self.stop_threshold:
            return None
        if top < self.phase_threshold:
            return self.explore_weights
        return self.exploit_weights[np.argmax(probs)]

    def batch_weights(self, probs: np.ndarray, step_count: int):
        top = probs.max(axis=1)
        weights = self.exploit_weights[probs.argmax(axis=1)]
        weights[top < self.phase_threshold] = self.explore_weights
        return weights, top >= self.stop_threshold

    def descriptor(self) -> dict:
        return {
            "kind": "two_phase",
            "explore_weights": self.explore_weights.tolist(),
            "exploit_weights": self.exploit_weights.tolist(),
            "phase_threshold": self.phase_threshold,
            "stop_threshold": self.stop_threshold,
            "safety_horizon": self.safety_horizon,
        }


def fixed_lambda_policy(
    rule,
    *,
    n: Optional[int] = None,
    threshold: Optional[float] = None,
    safety_horizon: Optional[int] = None,
) -> FixedRulePolicy:
    """An i.i.d.-rule policy with either a fixed horizon or a posterior threshold."""
    return FixedRulePolicy(
        weights=as_weights(rule), n=n, threshold=threshold, safety_horizon=safety_horizon
    )


def _stop_threshold(model: ObservationModel) -> float:
    return 1.0 - 1.0 / model.penalty


def _safety_horizon(model: ObservationModel, maxmin_value: float) -> int:
    if not math.isfinite(maxmin_value) or maxmin_value <= 0.0:
        raise AssumptionError("safety horizon undefined: max-min reliability is not positive")
    return int(math.ceil(HORIZON_FACTOR * math.log(model.penalty) / maxmin_value))


def nn_policy(model: ObservationModel, report: BoundsReport) -> FixedRulePolicy:
    """Non-adaptive, non-sequential: the discrimination-optimal rule for a
    deterministic number of steps sized so the posterior error is O(1/L)."""
    if not (report.d_hat > 1e-12):
        raise AssumptionError("fixed-horizon sizing requires a positive discrimination exponent")
    logL = math.log(model.penalty)
    logp = np.log(model.prior)
    spread = min(
        logp[i] - logp[j] for i in range(model.M) for j in range(model.M) if i != j
    )
    steps = (logL + math.log(model.M - 1) - spread) / report.d_hat
    return FixedRulePolicy(
        weights=report.d_hat_rule.weights, n=max(1, int(math.ceil(steps)))
    )


def sn_policy(model: ObservationModel, report: BoundsReport) -> FixedRulePolicy:
    """Sequential, non-adaptive: i.i.d. actions from the rule minimizing the
    prior-weighted cost bound, stopping once some posterior clears 1 - 1/L."""
    return FixedRulePolicy(
        weights=report.cost_bounds.sn_upper_rule.weights,
        threshold=_stop_threshold(model),
        safety_horizon=_safety_horizon(model, report.maxmin_r),
    )


def sa_policy(
    model: ObservationModel,
    report: BoundsReport,
    *,
    phase_threshold: float = 0.5,
) -> TwoPhasePolicy:
    """Sequential and adaptive: explore with the max-min rule until one
    hypothesis dominates, then switch to that hypothesis's best rule."""
    exploit = np.vstack([rule.weights for rule, _ in report.reliabilities])
    return TwoPhasePolicy(
        explore_weights=report.maxmin_rule.weights,
        exploit_weights=exploit,
        phase_threshold=phase_threshold,
        stop_threshold=_stop_threshold(model),
        safety_horizon=_safety_horizon(model, report.maxmin_r),
    )


def build_policy(
    kind: str,
    model: ObservationModel,
    report: Optional[BoundsReport] = None,
    *,
    rule=None,
    n: Optional[int] = None,
    threshold: Optional[float] = None,
    phase_threshold: float = 0.5,
) -> Policy:
    """Construct a policy by family name: ``nn``, ``sn``, ``sa`` or ``fixed``."""
    if kind == "fixed":
        if rule is None:
            raise ValueError("fixed policies need an action rule")
        weights = as_weights(rule, model.K)
        horizon = None
        if threshold is not None and report is not None:
            horizon = _safety_horizon(model, report.maxmin_r)
        return fixed_lambda_policy(weights, n=n, threshold=threshold, safety_horizon=horizon)
    if report is None:
        raise ValueError(f"policy kind {kind!r} needs a bounds report")
    if kind == "nn":
        return nn_policy(model, report)
    if kind == "sn":
        return sn_policy(model, report)
    if kind == "sa":
        return sa_policy(model, report, phase_threshold=phase_threshold)
    raise ValueError(f"unknown policy kind {kind!r}")
