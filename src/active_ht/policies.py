"""Sensing policies: which action to play and when to stop.

A policy is an action rule and a stop.  The rule is ``batch_weights``:
given the number of steps already taken and the posteriors (B, M) of the
live trials, it returns each row's action distribution (B, K).  The stop is
two fields, ``threshold`` and ``horizon``; ``stops`` applies a stack of such
stops, which the simulator tops with a policy's own and ``exact_eval`` runs
as a stack of one.  Both ask ``stops`` and ``batch_weights`` once per step,
and the built-in families answer with array operations.  A policy does not
choose the declaration: at the stop every evaluator declares
``belief.posterior_mode``, the MAP rule that every cost bound scores.
Policies are pure and hold no generator: the simulator maps a uniform from
each trial's generator through ``model.inverse_cdf_index``, so identical
seeds replay identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .belief import _first_max
from .bounds import BoundsReport, _log_prior_spreads, maxmin_reliability, report_at_penalty
from .exceptions import AssumptionError
from .model import ObservationModel, _check_count, as_weights

# Threshold-stopping policies abort a trial after this many multiples of
# log(1 / (1 - T)) / maxmin reliability for a stop threshold T (log L for
# sn and sa, whose T is 1 - 1/L); truncations are flagged, never dropped.
HORIZON_FACTOR = 1000.0

# sa explores until the posterior mode reaches this mass.
PHASE_THRESHOLD = 0.5


class Policy:
    """Interface shared by all policies: an action rule and a stop (see ``stops``)."""

    threshold: Optional[float] = None
    horizon: Optional[int] = None

    def batch_weights(self, probs: np.ndarray, step_count: int) -> np.ndarray:
        """The action distribution (B, K) of each row of ``probs`` (B, M) at one step."""
        raise NotImplementedError


def _check_stop(policy: Policy) -> None:
    """A policy stops: it has a threshold in (0, 1), a whole-number horizon >= 0, or both."""
    if policy.threshold is None and policy.horizon is None:
        raise ValueError("a policy needs a stop: a threshold, a horizon or both")
    if policy.threshold is not None and not 0.0 < policy.threshold < 1.0:
        raise ValueError("stopping threshold must lie in (0, 1)")
    if policy.horizon is not None:
        _check_count(policy.horizon, "horizon")


def _stop_stack(pairs) -> np.ndarray:
    """The (2, P) thresholds and horizons of the (threshold, horizon) stops
    ``pairs``, None read as +inf; both rows must be non-decreasing."""
    return np.array([[math.inf if x is None else x for x in row] for row in zip(*pairs)], dtype=float)


def stops(stack: np.ndarray, top: np.ndarray, step: int) -> np.ndarray:
    """How many stops of ``stack`` (see ``_stop_stack``) each trial meets at
    ``step``, given its posterior mode's mass ``top`` (B,): a trial meets a
    stop once ``top`` reaches its threshold, or at its horizon, and so meets
    the first stops of a non-decreasing stack."""
    thresholds, horizons = stack
    return np.maximum(thresholds.searchsorted(top, "right"), horizons.searchsorted(step, "right"))


def _truncated(stack: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Whether stop p of ``stack`` truncated a trial that met it with mode mass
    ``top[p]`` (P, B): it was met below a threshold it has."""
    thresholds = stack[0][:, None]
    return (top < thresholds) & (thresholds < math.inf)


@dataclass(frozen=True)
class FixedRulePolicy(Policy):
    """Draw actions i.i.d. from one rule, whatever the posterior."""

    weights: np.ndarray
    threshold: Optional[float] = None
    horizon: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "weights", as_weights(self.weights))
        _check_stop(self)

    def batch_weights(self, probs: np.ndarray, step_count: int) -> np.ndarray:
        return np.broadcast_to(self.weights, (probs.shape[0], self.weights.size))


@dataclass(frozen=True)
class TwoPhasePolicy(Policy):
    """Explore with a robust rule, then exploit the posterior mode's rule.

    While the posterior mode is below ``phase_threshold`` actions come from
    ``explore_weights``; afterwards from ``exploit_weights[mode]``.
    """

    explore_weights: np.ndarray
    exploit_weights: np.ndarray  # (M, K)
    phase_threshold: float
    threshold: Optional[float] = None
    horizon: Optional[int] = None

    def __post_init__(self):
        explore = as_weights(self.explore_weights)
        object.__setattr__(self, "explore_weights", explore)
        w = np.vstack([as_weights(row, explore.size) for row in self.exploit_weights])
        w.setflags(write=False)
        object.__setattr__(self, "exploit_weights", w)
        _check_stop(self)
        if not 0.0 < self.phase_threshold <= 1.0:
            raise ValueError("phase threshold must lie in (0, 1]")

    def batch_weights(self, probs: np.ndarray, step_count: int) -> np.ndarray:
        weights = self.exploit_weights[_first_max(probs)]
        weights[probs.max(axis=1) < self.phase_threshold] = self.explore_weights
        return weights


def fixed_lambda_policy(
    rule,
    *,
    n: Optional[int] = None,
    threshold: Optional[float] = None,
    safety_horizon: Optional[int] = None,
) -> FixedRulePolicy:
    """An i.i.d.-rule policy with a fixed horizon ``n`` or a posterior threshold;
    only a threshold rule takes a ``safety_horizon``, a fixed one ends every trial."""
    if (n is None) == (threshold is None):
        raise ValueError("specify exactly one of n (fixed horizon) or threshold")
    if n is not None and safety_horizon is not None:
        raise ValueError("a fixed-horizon rule takes no safety horizon")
    return FixedRulePolicy(weights=rule, threshold=threshold, horizon=safety_horizon if n is None else n)


def _stop_threshold(model: ObservationModel) -> float:
    return 1.0 - 1.0 / model.penalty


def _safety_horizon(log_ratio: float, maxmin_value: float) -> int:
    if not 0.0 < maxmin_value < math.inf:
        state = "infinite" if maxmin_value == math.inf else "not positive"
        raise AssumptionError(f"safety horizon undefined: max-min reliability is {state}")
    return int(math.ceil(HORIZON_FACTOR * log_ratio / maxmin_value))


def nn_policy(model: ObservationModel, report: BoundsReport) -> FixedRulePolicy:
    """Non-adaptive, non-sequential: the discrimination-optimal rule for a
    deterministic number of steps sized so the posterior error is O(1/L)."""
    if not (report.d_hat > 1e-12):
        raise AssumptionError("fixed-horizon sizing requires a positive discrimination exponent")
    logL = math.log(model.penalty)
    spread = _log_prior_spreads(model.prior)[0].min()
    steps = (logL + math.log(model.M - 1) - spread) / report.d_hat
    return FixedRulePolicy(weights=report.d_hat_rule.weights, horizon=max(1, int(math.ceil(steps))))


def sn_policy(model: ObservationModel, report: BoundsReport) -> FixedRulePolicy:
    """Sequential, non-adaptive: i.i.d. actions from the rule minimizing the
    prior-weighted cost bound at the model's penalty, stopping once some
    posterior clears 1 - 1/L."""
    return FixedRulePolicy(
        weights=report_at_penalty(report, model).cost_bounds.sn_upper_rule.weights,
        threshold=_stop_threshold(model),
        horizon=_safety_horizon(math.log(model.penalty), report.maxmin_r),
    )


def sa_policy(model: ObservationModel, report: BoundsReport) -> TwoPhasePolicy:
    """Sequential and adaptive: explore with the max-min rule until one
    hypothesis dominates, then switch to that hypothesis's best rule."""
    return TwoPhasePolicy(
        explore_weights=report.maxmin_rule.weights,
        exploit_weights=[rule for rule, _ in report.reliabilities],
        phase_threshold=PHASE_THRESHOLD,
        threshold=_stop_threshold(model),
        horizon=_safety_horizon(math.log(model.penalty), report.maxmin_r),
    )


def build_policy(
    kind: str,
    model: ObservationModel,
    report: Optional[BoundsReport] = None,
    *,
    rule=None,
    n: Optional[int] = None,
    threshold: Optional[float] = None,
) -> Policy:
    """Construct a policy by family name: ``nn``, ``sn``, ``sa`` or ``fixed``.

    The built families ``nn``, ``sn`` and ``sa`` are fixed by the model and
    its bounds ``report``, and reject ``rule``, ``n`` and ``threshold``.  A
    ``fixed`` policy plays ``rule`` with exactly one of ``n`` / ``threshold``
    and needs no report: a threshold rule's safety horizon is sized from the
    threshold and the model's max-min reliability, so a rule that plays only
    uninformative actions is truncated instead of running forever.
    """
    if kind == "fixed":
        if rule is None:
            raise ValueError("fixed policies need an action rule")
        policy = fixed_lambda_policy(as_weights(rule, model.K), n=n, threshold=threshold)
        if threshold is None:
            return policy
        _, maxmin_value = maxmin_reliability(model)
        return replace(policy, horizon=_safety_horizon(-math.log1p(-threshold), maxmin_value))
    builders = {"nn": nn_policy, "sn": sn_policy, "sa": sa_policy}
    if kind not in builders:
        raise ValueError(f"unknown policy kind {kind!r}")
    if rule is not None or n is not None or threshold is not None:
        raise ValueError(f"policy kind {kind!r} takes no rule, n or threshold")
    if report is None:
        raise ValueError(f"policy kind {kind!r} needs a bounds report")
    return builders[kind](model, report)
