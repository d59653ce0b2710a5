"""In-memory span tracing around the calls into each ``active_ht`` layer.

Nothing inside the package is instrumented.  Instead, ``Tracer.installed``
replaces module attributes (``active_ht.simulator.run_trials``, the
``linprog`` that ``active_ht.bounds`` imported, ...) with wrappers that record
a span per call and restores them on exit.  Calls made through those module
attributes, by the benchmark or by the package itself, are therefore traced;
with the tracer not installed the package runs untouched.

Pool workers forked by ``run_trials`` inherit the wrappers but their spans
are not collected: the parent's ``run_trials`` span covers the pool's wall
time.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from active_ht import bounds, divergences, oracle, simulator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    op: int                # id of the benchmark op that caused it


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return [(s.end - s.start) - covered(children[k]) for k, s in enumerate(spans)]


class Tracer:
    """Records spans and counters for one traced pass of a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), math.nan, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; on_result(counts, args, kwargs, result)."""

        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap fn to count calls only, for functions too hot for a span each."""

        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextmanager
    def op_span(self, name: str):
        """Span for one benchmark op; library spans under it share its op id."""
        self.op += 1
        rec = self._enter(f"bench.{name}")
        try:
            yield
        finally:
            self._exit(rec)

    @contextmanager
    def installed(self):
        """Swap every traced module attribute for its wrapper, then restore."""
        saved = []
        for module, attr, wrapper in self._patches():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _patches(self):
        s, c = self.span, self.counted
        return [
            (simulator, "sweep_L", s("simulator.sweep_L", simulator.sweep_L)),
            (simulator, "run_trials", s("simulator.run_trials", simulator.run_trials, _count_trials)),
            (simulator, "pairwise_error_rates",
             s("simulator.pairwise_error_rates", simulator.pairwise_error_rates, _count_pairwise_trials)),
            (simulator, "estimate_error_exponent",
             s("simulator.estimate_error_exponent", simulator.estimate_error_exponent)),
            (simulator, "build_policy", s("policies.build_policy", simulator.build_policy)),
            (simulator, "report_at_penalty", s("bounds.report_at_penalty", simulator.report_at_penalty)),
            (bounds, "compute_bounds", s("bounds.compute_bounds", bounds.compute_bounds)),
            (bounds, "validate", s("model.validate", bounds.validate)),
            (bounds, "kl_matrix", s("bounds.kl_matrix", bounds.kl_matrix)),
            (bounds, "linprog", s("bounds.linprog", bounds.linprog)),
            (bounds, "max_harmonic_reliability",
             s("bounds.max_harmonic_reliability", bounds.max_harmonic_reliability)),
            (bounds, "leading_order_bounds", s("bounds.leading_order_bounds", bounds.leading_order_bounds)),
            (bounds, "d_hat", s("bounds.d_hat", bounds.d_hat)),
            (bounds, "simplex_grid", s("bounds.simplex_grid", bounds.simplex_grid, _count_grid)),
            (bounds, "tilted_exponent", c("divergences.tilted_exponent", bounds.tilted_exponent)),
            (divergences, "tilted_exponent", c("divergences.tilted_exponent", divergences.tilted_exponent)),
            (oracle, "alpha_max", s("divergences.alpha_max", oracle.alpha_max)),
            (oracle, "exact_eval", s("oracle.exact_eval", oracle.exact_eval, _count_nodes("exact_nodes"))),
            (oracle, "backward_eval",
             s("oracle.backward_eval", oracle.backward_eval, _count_nodes("backward_states"))),
            (oracle, "exact_pairwise", s("oracle.exact_pairwise", oracle.exact_pairwise, _count_pairwise_states)),
        ]


def _count_trials(counts, args, kwargs, result):
    summary, _ = result
    counts["trials"] += summary.n_trials
    counts["trial_steps"] += round(summary.n_trials * summary.mean_tau)
    counts["truncated"] += summary.n_truncated


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_pairwise_trials(counts, args, kwargs, result):
    # pairwise_error_rates(model, rule, n, n_trials, seed) runs n_trials per hypothesis
    model = _arg(args, kwargs, 0, "model")
    n = _arg(args, kwargs, 2, "n")
    trials = model.M * _arg(args, kwargs, 3, "n_trials")
    counts["trials"] += trials
    counts["trial_steps"] += trials * n


def _count_grid(counts, args, kwargs, result):
    counts["grid_points"] += int(result.shape[0])


def _count_nodes(key):
    def hook(counts, args, kwargs, result):
        counts[key] += result.nodes

    return hook


def _count_pairwise_states(counts, args, kwargs, result):
    # exact_pairwise enumerates every count matrix over the (action, symbol)
    # cells of the actions the rule plays: C(n + cells - 1, cells - 1) states.
    model = _arg(args, kwargs, 0, "model")
    rule = _arg(args, kwargs, 1, "rule")
    w = np.asarray(getattr(rule, "weights", rule), dtype=float)
    cells = int((w > 0.0).sum()) * model.kernel.probs.shape[2]
    counts["pairwise_states"] += math.comb(result.n + cells - 1, cells - 1)


# Per-layer metrics of one traced pass (set-up plus one round of ops), by
# name and unit.  README.md maps each one to the end-to-end metric and the
# workload it should move.  A layer a workload never calls reads 0.
PER_LAYER = {
    "simulator.us_per_trial_step": "us",
    "simulator.us_per_trial": "us",
    "simulator.run_trials_s": "s",
    "simulator.run_trials_calls": "count",
    "simulator.sweep_self_s": "s",
    "simulator.pairwise_mc_s": "s",
    "simulator.exponent_s": "s",
    "simulator.trials": "count",
    "simulator.trial_steps": "count",
    "simulator.truncated": "count",
    "simulator.scaling_eff": "ratio",
    "policies.build_s": "s",
    "policies.build_calls": "count",
    "bounds.report_at_penalty_s": "s",
    "bounds.harmonic_s": "s",
    "bounds.leading_order_s": "s",
    "bounds.d_hat_s": "s",
    "bounds.grid_points": "count",
    "bounds.lp_s": "s",
    "bounds.lp_calls": "count",
    "bounds.kl_matrix_s": "s",
    "bounds.self_s": "s",
    "model.validate_s": "s",
    "divergences.tilted_exponent_calls": "count",
    "divergences.alpha_max_s": "s",
    "divergences.alpha_max_calls": "count",
    "oracle.exact_eval_s": "s",
    "oracle.exact_eval_nodes": "count",
    "oracle.backward_eval_s": "s",
    "oracle.backward_states": "count",
    "oracle.pairwise_s": "s",
    "oracle.pairwise_states": "count",
    "oracle.states_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def uncovered_share(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] that no library span covers (benchmark spans excluded)."""
    inside = [
        (max(s.start, start), min(s.end, end))
        for s in spans
        if not s.name.startswith("bench.") and s.end > start and s.start < end
    ]
    return 1.0 - covered(inside) / (end - start)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics derivable from one pass's spans and counts.

    ``simulator.scaling_eff`` and the ``trace.*`` entries compare passes, so
    the caller fills them in.
    """
    dur: Counter = Counter()
    calls: Counter = Counter()
    own: Counter = Counter()
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        dur[s.name] += s.end - s.start
        calls[s.name] += 1
        own[s.name] += self_s
    n = tracer.counts
    mc_s = dur["simulator.run_trials"] + dur["simulator.pairwise_error_rates"]
    oracle_s = dur["oracle.exact_eval"] + dur["oracle.backward_eval"] + dur["oracle.exact_pairwise"]
    states = n["exact_nodes"] + n["backward_states"] + n["pairwise_states"]
    out = {
        "simulator.us_per_trial_step": 1e6 * _ratio(mc_s, n["trial_steps"]),
        "simulator.us_per_trial": 1e6 * _ratio(mc_s, n["trials"]),
        "simulator.run_trials_s": dur["simulator.run_trials"],
        "simulator.run_trials_calls": calls["simulator.run_trials"],
        "simulator.sweep_self_s": own["simulator.sweep_L"],
        "simulator.pairwise_mc_s": dur["simulator.pairwise_error_rates"],
        "simulator.exponent_s": dur["simulator.estimate_error_exponent"],
        "simulator.trials": n["trials"],
        "simulator.trial_steps": n["trial_steps"],
        "simulator.truncated": n["truncated"],
        "policies.build_s": dur["policies.build_policy"],
        "policies.build_calls": calls["policies.build_policy"],
        "bounds.report_at_penalty_s": dur["bounds.report_at_penalty"],
        "bounds.harmonic_s": dur["bounds.max_harmonic_reliability"],
        "bounds.leading_order_s": dur["bounds.leading_order_bounds"],
        "bounds.d_hat_s": dur["bounds.d_hat"],
        "bounds.grid_points": n["grid_points"],
        "bounds.lp_s": dur["bounds.linprog"],
        "bounds.lp_calls": calls["bounds.linprog"],
        "bounds.kl_matrix_s": dur["bounds.kl_matrix"],
        "bounds.self_s": own["bounds.compute_bounds"],
        "model.validate_s": dur["model.validate"],
        "divergences.tilted_exponent_calls": n["divergences.tilted_exponent"],
        "divergences.alpha_max_s": dur["divergences.alpha_max"],
        "divergences.alpha_max_calls": calls["divergences.alpha_max"],
        "oracle.exact_eval_s": dur["oracle.exact_eval"],
        "oracle.exact_eval_nodes": n["exact_nodes"],
        "oracle.backward_eval_s": dur["oracle.backward_eval"],
        "oracle.backward_states": n["backward_states"],
        "oracle.pairwise_s": dur["oracle.exact_pairwise"],
        "oracle.pairwise_states": n["pairwise_states"],
        "oracle.states_per_s": _ratio(states, oracle_s),
    }
    return {key: float(v) if PER_LAYER[key] != "count" else int(v) for key, v in out.items()}
