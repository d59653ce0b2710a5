"""The three benchmark workloads: ``sweep``, ``bounds-corpus`` and ``oracle-check``.

Each workload builds its inputs from the seed in ``setup`` and runs a fixed
list of ops, one after another (a closed loop with one client), in
``run_round``.  Every op is one call into a public ``active_ht`` function,
made through its module attribute so that ``tracing.Tracer`` can wrap it.
Every result is checked; an op that raises or fails a check counts as
failed.  A round also feeds its results into a digest, which must repeat
exactly for the same seed (and, for ``sweep``, at any worker count).
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from active_ht import bounds, oracle, policies, simulator

from . import inputs

# Frozen reference values, the same ones tests/test_acceptance.py pins.
TWO_PROBE_MAXMIN = 0.6506724213610958
TWO_PROBE_RSTAR = 0.7506835950503012
TWO_PROBE_GAIN = 0.204738            # published rounded to 1e-4 resolution
GAUSSIAN_MAXMIN = 0.875
GAUSSIAN_RSTAR = 1.3068528194400546
TWO_PROBE_PAIR_PREDICTED = 0.16847903891768543


@dataclass
class Op:
    name: str
    seconds: float
    problems: list[str]


@dataclass
class Round:
    """The ops of one pass over a workload, their checks and their digest."""

    tracer: Optional[object] = None
    ops: list[Op] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    wall: float = 0.0
    window: tuple = ()  # (start, end) of the ops in a traced pass
    _hash: object = field(default_factory=hashlib.sha256)

    def run(self, name: str, call: Callable, check: Optional[Callable] = None):
        """Time call(); check(result) returns a list of problems.

        Returns the result, or None when the call raised.
        """
        scope = self.tracer.op_span(name) if self.tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.ops.append(Op(name, time.perf_counter() - t0, [f"raised {exc!r}"]))
            return None
        seconds = time.perf_counter() - t0
        self.ops.append(Op(name, seconds, list(check(result)) if check else []))
        return result

    def fail(self, name: str, problem: str) -> None:
        """Attach a problem to the op that was last run under ``name``."""
        for op in reversed(self.ops):
            if op.name == name:
                op.problems.append(problem)
                return
        raise KeyError(name)

    def record(self, *values) -> None:
        """Feed exact results into the digest (floats by their bit pattern)."""
        for v in values:
            arr = np.asarray(v, dtype=float)
            self._hash.update(repr(arr.shape).encode())
            self._hash.update(np.ascontiguousarray(arr).tobytes())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def seconds_of(self, prefix: str) -> float:
        return sum(op.seconds for op in self.ops if op.name.startswith(prefix))


def _median(values):
    return float(np.median(values))


def _percentile(values, q):
    return float(np.percentile(values, q))


# --------------------------------------------------------------------- sweep

SWEEP_COMBOS = (
    ("two_probe", "sn"),
    ("two_probe", "sa"),
    ("garbled", "sa"),
    ("gaussian_binary", "sn"),
    ("gaussian_binary", "sa"),
)


class Sweep:
    """sweep_L for sn/sa on two-probe, sa on garbled, sn/sa on Gaussian binary.

    Almost all time is the per-step scalar trial loop (simulator + policies)
    on both kernel types and at M = 2 and 3; bounds appears only in set-up.
    """

    name = "sweep"
    uses_workers = True
    SIZES = {
        "full": dict(L_values=(1e2, 1e3, 1e4, 1e5, 1e6), trials=2048),
        # two 1024-trial blocks, so workers > 1 still uses the process pool
        "smoke": dict(L_values=(1e2, 1e3), trials=1040),
    }

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.L_values = self.SIZES[size]["L_values"]
        self.trials = self.SIZES[size]["trials"]

    def setup(self):
        models = {name: inputs.REFERENCE[name]() for name, _ in SWEEP_COMBOS}
        reports = {name: bounds.compute_bounds(model) for name, model in models.items()}
        return models, reports

    def run_round(self, state, rnd: Round, workers: int) -> None:
        models, reports = state
        top_L = max(self.L_values)
        costs = {}
        steps = 0
        for idx, (mname, kind) in enumerate(SWEEP_COMBOS):
            op = f"sweep_L:{mname}:{kind}"
            out = rnd.run(
                op,
                lambda: simulator.sweep_L(
                    models[mname], kind, self.L_values, self.trials, (self.seed, idx),
                    report=reports[mname], workers=workers,
                ),
                _check_sweep,
            )
            if out is None:
                continue
            points, summaries = out
            for p in points:
                rnd.record(p.L, p.mean_tau, p.se_tau, p.pe, p.se_pe, p.cost, p.n_truncated)
            steps += sum(round(s.n_trials * s.mean_tau) for s in summaries)
            costs[(mname, kind)] = next(p.cost for p in points if p.L == top_L)
        sn, sa = costs.get(("two_probe", "sn")), costs.get(("two_probe", "sa"))
        if sn is not None and sa is not None and not sa < sn:
            rnd.fail("sweep_L:two_probe:sa", f"sa cost {sa} not below sn cost {sn} at L={top_L:g}")
        rnd.stats.update(
            mc_s=rnd.seconds_of("sweep_L:"),
            trials=self.trials * len(self.L_values) * len(SWEEP_COMBOS),
            trial_steps=steps,
        )

    @staticmethod
    def summarize(rounds: list[Round]) -> dict:
        return _mc_rates(rounds)


def _check_sweep(out):
    points, _ = out
    for p in points:
        if p.n_truncated:
            yield f"L={p.L:g}: {p.n_truncated} truncated trials"
        if not p.pe <= 1.0 / p.L:
            yield f"L={p.L:g}: pe {p.pe} above 1/L"


def _mc_rates(rounds: list[Round]) -> dict:
    """trial_steps_per_s and trials_per_s: medians over rounds of count / MC-call time."""
    n = len(rounds)
    return {
        "trial_steps_per_s": (_median([r.stats["trial_steps"] / r.stats["mc_s"] for r in rounds]), "1/s", n),
        "trials_per_s": (_median([r.stats["trials"] / r.stats["mc_s"] for r in rounds]), "1/s", n),
    }


# ------------------------------------------------------------- bounds-corpus

class BoundsCorpus:
    """compute_bounds at its defaults on the reference and random models.

    Pure bounds/divergences work with no simulation.  K = 1 models take
    ~10 ms and M >= 3, K = 4 models seconds, so the median and the tail of
    the per-model latency move for different reasons.
    """

    name = "bounds-corpus"
    uses_workers = False
    SIZES = {
        "full": dict(per_k=15, ks=(1, 2, 3, 4), gaussian_shapes=inputs.GAUSSIAN_SHAPES),
        "smoke": dict(per_k=1, ks=(1, 2), gaussian_shapes=((2, 1),)),
    }

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self):
        rng = np.random.default_rng(self.seed)
        models = [(name, build()) for name, build in inputs.REFERENCE.items()]
        models += inputs.finite_corpus(rng, self.size["per_k"], self.size["ks"])
        models += inputs.gaussian_corpus(rng, self.size["gaussian_shapes"])
        return models

    def run_round(self, models, rnd: Round, workers: int) -> None:
        latencies = []
        for name, model in models:
            rep = rnd.run(f"compute_bounds:{name}", lambda: bounds.compute_bounds(model), _bounds_check(name))
            latencies.append(rnd.ops[-1].seconds)
            if rep is not None:
                rnd.record(
                    rep.d_hat, rep.maxmin_r, rep.minmax_r, rep.max_r_bar, rep.r_bar_star,
                    rep.cost_bounds.sn_upper, rep.cost_bounds.sn_lower, rep.cost_bounds.sa_upper,
                    rep.d_hat_rule.weights, rep.max_r_bar_rule.weights,
                )
        rnd.stats["latencies"] = latencies

    @staticmethod
    def summarize(rounds: list[Round]) -> dict:
        lat = [x for r in rounds for x in r.stats["latencies"]]
        return {
            "bounds_per_s": (_median([len(r.stats["latencies"]) / sum(r.stats["latencies"]) for r in rounds]),
                             "1/s", len(rounds)),
            "bounds_p50_ms": (1e3 * _percentile(lat, 50), "ms", len(lat)),
            "bounds_p75_ms": (1e3 * _percentile(lat, 75), "ms", len(lat)),
        }


def _bounds_check(name: str):
    def check(rep):
        tol = 1e-6
        chain = (
            ("r_bar_star >= max_r_bar", rep.r_bar_star, rep.max_r_bar),
            ("max_r_bar >= maxmin_r", rep.max_r_bar, rep.maxmin_r),
            ("maxmin_r >= d_hat", rep.maxmin_r, rep.d_hat),
            ("d_hat >= 0", rep.d_hat, 0.0),
            ("r_bar_star >= minmax_r", rep.r_bar_star, rep.minmax_r),
            ("minmax_r >= maxmin_r", rep.minmax_r, rep.maxmin_r),
        )
        for label, hi, lo in chain:
            if not hi >= lo - tol:
                yield f"ordering chain broken: {label} ({hi} < {lo})"
        if name == "two_probe":
            yield from _frozen("maxmin_r", rep.maxmin_r, TWO_PROBE_MAXMIN, rel=1e-9)
            yield from _frozen("r_bar_star", rep.r_bar_star, TWO_PROBE_RSTAR, rel=1e-9)
            if not abs(rep.gains.adaptivity_coefficient - TWO_PROBE_GAIN) <= 1e-4:
                yield f"adaptivity coefficient {rep.gains.adaptivity_coefficient} != {TWO_PROBE_GAIN}"
        elif name == "garbled":
            if not (rep.gains.zero_adaptivity and abs(rep.max_r_bar - rep.r_bar_star) <= tol):
                yield f"garbled model has adaptivity gain {rep.r_bar_star - rep.max_r_bar}"
        elif name == "gaussian_binary":
            yield from _frozen("maxmin_r", rep.maxmin_r, GAUSSIAN_MAXMIN, rel=1e-9)
            yield from _frozen("r_bar_star", rep.r_bar_star, GAUSSIAN_RSTAR, rel=1e-9)

    return check


def _frozen(label, value, frozen, rel):
    if not abs(value - frozen) <= rel * abs(frozen):
        yield f"{label} {value} != frozen {frozen}"


# -------------------------------------------------------------- oracle-check

class OracleCheck:
    """Exact oracles against each other and against fixed-horizon Monte Carlo.

    The only workload that exercises ``oracle``.  Its Monte Carlo is the
    vectorised fixed-horizon path, where building one generator per trial is
    most of the cost; it runs in one process.
    """

    name = "oracle-check"
    uses_workers = False
    SIZES = {
        "full": dict(horizon={"two_probe": 9, "garbled": 6}, mc={"two_probe": 131072, "garbled": 65536},
                     pair_n={"two_probe": 40, "garbled": 10}, pair_mc=16384, exp_trials=16384,
                     budgets=(8, 11, 14, 17)),
        "smoke": dict(horizon={"two_probe": 5, "garbled": 3}, mc={"two_probe": 4096, "garbled": 2048},
                      pair_n={"two_probe": 16, "garbled": 4}, pair_mc=1024, exp_trials=2048,
                      budgets=(4, 6, 8, 10)),
    }
    UNIFORM = [0.5, 0.5]  # both oracle models have K = 2

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]

    def setup(self):
        models = {"two_probe": inputs.two_probe(), "garbled": inputs.garbled()}
        return models, bounds.compute_bounds(models["two_probe"])

    def run_round(self, state, rnd: Round, workers: int) -> None:
        models, report = state
        cfg = self.size
        trials = steps = 0
        exact_pe = {}
        for sub, mname in enumerate(("two_probe", "garbled"), start=1):
            model, h = models[mname], cfg["horizon"][mname]
            policy = policies.fixed_lambda_policy(self.UNIFORM, n=h)
            ex = rnd.run(f"exact_eval:{mname}", lambda: oracle.exact_eval(model, policy, oracle.OracleBudget(horizon=h)),
                         _check_mass)
            bk = rnd.run(f"backward_eval:{mname}", lambda: oracle.backward_eval(model, self.UNIFORM, h))
            if ex is not None and bk is not None:
                rnd.record(ex.pe, ex.expected_tau, ex.nodes, bk.pe, bk.nodes)
                exact_pe[mname] = ex.pe
                if not abs(ex.pe - bk.pe) <= 1e-10:
                    rnd.fail(f"backward_eval:{mname}", f"backward pe {bk.pe} vs exact {ex.pe}")
            n_mc = cfg["mc"][mname]
            out = rnd.run(f"run_trials:{mname}", lambda: simulator.run_trials(model, policy, n_mc, (self.seed, sub)))
            trials += n_mc
            steps += n_mc * h
            if out is not None:
                summary, _ = out
                rnd.record(summary.pe, summary.se_pe, summary.n_wrong)
                if mname in exact_pe and not abs(summary.pe - exact_pe[mname]) <= 4.0 * summary.se_pe:
                    rnd.fail(f"run_trials:{mname}", f"MC pe {summary.pe} is over 4 SE from exact {exact_pe[mname]}")

        pairs = {}
        for mname in ("two_probe", "garbled"):
            n = cfg["pair_n"][mname]
            pairs[mname] = rnd.run(
                f"exact_pairwise:{mname}",
                lambda: oracle.exact_pairwise(models[mname], self.UNIFORM, n),
                _check_sandwich if mname == "two_probe" else None,
            )
            if pairs[mname] is not None:
                rnd.record(pairs[mname].rates, pairs[mname].ties, [s.exponent for s in pairs[mname].sandwiches])

        gb, n_pair, n_mc = models["garbled"], cfg["pair_n"]["garbled"], cfg["pair_mc"]
        out = rnd.run("pairwise_error_rates:garbled",
                      lambda: simulator.pairwise_error_rates(gb, self.UNIFORM, n_pair, n_mc, (self.seed, 3)))
        trials += gb.M * n_mc
        steps += gb.M * n_mc * n_pair
        if out is not None:
            rates, _ = out
            rnd.record(rates)
            if pairs["garbled"] is not None:
                for problem in _check_pairwise_mc(rates, pairs["garbled"], n_mc):
                    rnd.fail("pairwise_error_rates:garbled", problem)

        tp, budgets, n_exp = models["two_probe"], cfg["budgets"], cfg["exp_trials"]
        rule = report.d_hat_rule
        exact_by_budget = {}
        for b in budgets:
            bk = rnd.run(f"backward_eval:two_probe:nn{b}", lambda: oracle.backward_eval(tp, rule, int(b)))
            if bk is not None:
                exact_by_budget[b] = bk.pe
        est = rnd.run("estimate_error_exponent:two_probe:nn",
                      lambda: simulator.estimate_error_exponent(tp, "nn", budgets, n_exp, (self.seed, 4), report=report),
                      _check_exponent(exact_by_budget, n_exp, tp.M))
        trials += len(budgets) * n_exp
        steps += n_exp * int(sum(budgets))
        if est is not None:
            rnd.record(est.slope, est.slope_stderr, [p.pe for p in est.points], [p.n_errors for p in est.points])

        rnd.stats.update(
            mc_s=sum(rnd.seconds_of(p) for p in ("run_trials:", "pairwise_error_rates:", "estimate_error_exponent:")),
            exact_s=sum(rnd.seconds_of(p) for p in ("exact_eval:", "backward_eval:", "exact_pairwise:")),
            trials=trials,
            trial_steps=steps,
        )

    @staticmethod
    def summarize(rounds: list[Round]) -> dict:
        out = _mc_rates(rounds)
        out["exact_s"] = (_median([r.stats["exact_s"] for r in rounds]), "s", len(rounds))
        return out


def _check_mass(ex):
    worst = float(ex.mass_residuals().max())
    if not worst <= 1e-12:
        yield f"mass residual {worst} above 1e-12"


def _check_sandwich(pw):
    s = pw.sandwiches[0]
    yield from _frozen("sandwich predicted", s.predicted, TWO_PROBE_PAIR_PREDICTED, rel=1e-9)
    if not s.gap <= 0.15:
        yield f"sandwich gap {s.gap} above 0.15"


def _check_pairwise_mc(rates, exact, n_trials):
    # The MC counts a strict win by floating-point comparison, so an exactly
    # tied count class may land on either side: accept [rate, rate + ties].
    M = rates.shape[0]
    for i in range(M):
        for j in range(M):
            if i == j:
                continue
            lo, hi = exact.rates[i, j], exact.rates[i, j] + exact.ties[i, j]
            se = math.sqrt(hi * (1.0 - hi) / n_trials)
            if not lo - 4.0 * se <= rates[i, j] <= hi + 4.0 * se:
                yield f"MC rate[{i},{j}] {rates[i, j]} over 4 SE from exact [{lo}, {hi}]"


def _check_exponent(exact_by_budget, n_trials, M):
    def check(est):
        if est.lower_bound_only:
            yield "nn exponent fit is lower-bound-only"
        # Posterior error lies in [0, 1 - 1/M], so its variance is at most
        # pe * (1 - 1/M - pe): a conservative standard error for the check.
        cap = 1.0 - 1.0 / M
        for p in est.points:
            exact = exact_by_budget.get(p.budget)
            if exact is None or not p.clean:
                continue
            se = math.sqrt(exact * (cap - exact) / n_trials)
            if not abs(p.pe - exact) <= 4.0 * se:
                yield f"nn pe {p.pe} at budget {p.budget:g} over 4 SE from exact {exact}"

    return check


WORKLOADS = {w.name: w for w in (Sweep, BoundsCorpus, OracleCheck)}
