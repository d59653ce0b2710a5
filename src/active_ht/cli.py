"""Operator command line: model ingestion, batch runs, CSV + manifest emission.

Subcommands: validate, bounds, simulate, sweep, exponents, gains, binary,
oracle-check.  Exit codes are a stable scripting contract:

* 0  success
* 2  validation / assumption failure (bad or unreadable model file,
     indistinguishable pairs)
* 3  exact-evaluation state budget or horizon exhausted
* 4  usage error (unknown flags, malformed values, wrong subcommand for model,
     an output that cannot be written)

Errors print a single machine-parsable line ``active-ht: <kind>: <message>``
on stderr.  Result CSVs open with a ``# manifest=<id>`` line naming the run
manifest; the id hashes the command, parameters, model digest and solver
settings (never timestamps or thread counts), so re-running a command
reproduces every result file byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .bounds import GAP_TOL, KL_CAP, PIVOT_TOL, binary_specialize, compute_bounds, dominance_check
from .exceptions import (
    ActiveHTError,
    AssumptionError,
    BudgetError,
    HorizonError,
    ModelValidationError,
    UsageError,
)
from .model import load_model, validate
from .oracle import OracleBudget, backward_eval, exact_eval
from .policies import build_policy
from .simulator import BLOCK, estimate_error_exponent, run_trials, sweep_L

ARTIFACT_VERSION = "0.12.0"

SWEEP_HEADER = ["L", "logL", "mean_tau", "se_tau", "pe", "se_pe", "cost", "cost_over_logL", "n_truncated"]
SUMMARY_HEADER = [
    "n_trials", "mean_tau", "se_tau", "pe", "se_pe", "cost", "se_cost",
    "n_wrong", "n_truncated", "L", "seed",
]
TRIALS_HEADER = ["index", "theta", "tau", "declared", "correct", "posterior_error", "truncated"]
EXPONENTS_HEADER = [
    "budget", "L", "mean_tau", "pe", "n_errors", "clean", "neg_log_pe",
]


# ---------------------------------------------------------------------------
# emission helpers

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return "%.9g" % float(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def emit_csv(path, header, rows, manifest_id=None) -> None:
    """Write one result table: UTF-8, comma separated, 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest_id is not None:
            fh.write(f"# manifest={manifest_id}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


def _model_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_SOLVER_SETTINGS = {
    "kl_cap": KL_CAP,
    "pivot_tol": PIVOT_TOL,
    "block_size": BLOCK,
    "theta_stratification": "prior_quota",
    "gap_tol": GAP_TOL,
}


def make_manifest(command, model_path, parameters, master_seed, threads):
    """Run manifest; the id covers everything that can influence results."""
    core = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "model_file": os.path.basename(str(model_path)),
        "model_digest": _model_digest(model_path),
        "parameters": parameters,
        "solver_settings": _SOLVER_SETTINGS,
        "master_seed": master_seed,
    }
    canon = json.dumps(core, sort_keys=True, separators=(",", ":"))
    manifest_id = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return {
        "manifest_id": manifest_id,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "threads": threads,
        **core,
    }


def write_manifest(prefix, manifest) -> str:
    path = f"{prefix}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# Parsed flags that never enter a manifest's parameters: the subcommand and
# model file have their own manifest fields, and neither the worker count
# nor the output prefix can change a result.
_NOT_PARAMETERS = ("command", "model", "threads", "out")


def _write_artifacts(args, tables, threads) -> None:
    """With ``--out``, write each ``(suffix, header, rows)`` table as
    ``<out><suffix>.csv`` and then the run manifest.

    The manifest's parameters are the parsed flags minus ``_NOT_PARAMETERS``,
    so each argparse dest is named after its manifest key.
    """
    if not args.out:
        return
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    manifest = make_manifest(
        args.command, args.model, parameters, getattr(args, "seed", None), threads
    )
    try:
        for suffix, header, rows in tables:
            emit_csv(f"{args.out}{suffix}.csv", header, rows, manifest["manifest_id"])
        write_manifest(args.out, manifest)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _check_out(args) -> None:
    """Refuse an ``--out`` prefix whose directory does not exist, before any work runs."""
    out = getattr(args, "out", None)
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"cannot write output {out}: directory {os.path.dirname(out)} does not exist")


def _load(path):
    """``load_model``, with a file it cannot read (missing, a directory, not
    permitted) reported as a validation error."""
    try:
        return load_model(path)
    except OSError as exc:
        raise ModelValidationError(f"cannot read model file: {exc}") from exc


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_list(text: str):
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _penalty_list(text: str):
    penalties = _float_list(text)
    if not all(math.isfinite(L) and L > 1.0 for L in penalties):
        raise argparse.ArgumentTypeError(f"penalties must be finite and exceed 1, got {text}")
    return penalties


def _threads_default(args_value):
    if args_value is not None:
        return max(1, int(args_value))
    env = os.environ.get("ACTIVE_HT_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def build_parser() -> _Parser:
    parser = _Parser(prog="active-ht", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text, parents=()):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.add_argument("model", help="model file (JSON)")
        return p

    run = _Parser(add_help=False)
    run.add_argument("--policy", required=True, choices=["nn", "sn", "sa", "fixed"])
    run.add_argument("--lambda", type=_float_list, help="action weights w1,w2,...")
    run.add_argument("--trials", type=int, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--threads", type=int)
    run.add_argument("--out", help="prefix for CSV + manifest output")

    stop = _Parser(add_help=False)
    stop.add_argument("--n", type=int, help="fixed horizon (fixed policy)")
    stop.add_argument("--threshold", type=float, help="posterior stop threshold (fixed policy)")

    p = add("validate", "check the model's testability assumptions")

    p = add("bounds", "asymptotic coefficients, bounds, gains, exponents")
    p.add_argument("--out", help="prefix for CSV + manifest output")

    p = add("simulate", "Monte Carlo run of one policy", [run, stop])
    p.add_argument("--record-trials", action="store_true", help="also emit per-trial CSV")

    p = add("sweep", "cost-vs-penalty table for one policy family", [run, stop])
    p.add_argument("--L", type=_penalty_list, required=True, help="penalties l1,l2,... (each > 1)")

    p = add("exponents", "error-exponent slope estimate for one policy family", [run])
    p.add_argument("--budgets", type=_float_list, required=True, help="step budgets t1,t2,...")

    p = add("gains", "sequentiality/adaptivity coefficients and dominance verdict")

    p = add("binary", "two-hypothesis closed forms and the adaptivity-gain predicate")

    p = add("oracle-check", "exact enumeration vs Monte Carlo agreement suite")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--lambda", type=_float_list)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=10_000_000,
                   help="cap on merged count-vector states the exact evaluators visit (exit 3 past it)")
    p.add_argument("--threads", type=int)

    return parser


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> int:
    model = _load(args.model)
    report = validate(model)
    kernel = "finite" if model.is_finite else "gaussian"
    print(f"M={model.M} K={model.K} kernel={kernel} L={_fmt(model.penalty)}")
    print(f"distinguishable: {_fmt(report.distinguishable)}")
    pairs = ", ".join(map(str, report.indistinguishable_pairs)) or "(none)"
    print(f"indistinguishable_pairs: {pairs}")
    print(f"likelihood_ratio_bound: {_fmt(report.likelihood_ratio_bound)}")
    print(f"bounded_ratios: {_fmt(report.bounded_ratios)}")
    print(f"usable_for_bounds: {_fmt(report.usable_for_bounds)}")
    for note in report.notes:
        print(f"note: {note}")
    if not report.distinguishable:
        _error_line("validation", "indistinguishable hypothesis pairs: " + pairs)
        return 2
    return 0


def _cmd_bounds(args) -> int:
    model = _load(args.model)
    report = compute_bounds(model)
    print(report.to_json())
    _write_artifacts(args, [("", *report.csv_rows())], 1)
    return 0


def _run_inputs(args):
    """(model, threads, report, rule) of a simulate, sweep or exponents run.

    ``--policy fixed`` needs ``--lambda`` and, where the command takes stop
    flags, exactly one of ``--n`` / ``--threshold``; it gets no bounds
    report.  The built families take none of those flags and get a report.
    """
    lam = vars(args)["lambda"]
    stops = [getattr(args, flag, None) for flag in ("n", "threshold")]
    if args.policy == "fixed":
        if lam is None:
            raise UsageError("--policy fixed requires --lambda")
        if "n" in args and stops.count(None) != 1:
            raise UsageError("fixed policies take exactly one of --n / --threshold")
    elif lam is not None or stops != [None, None]:
        raise UsageError(f"--policy {args.policy} takes no --lambda, --n or --threshold")
    model = _load(args.model)
    report = compute_bounds(model) if args.policy != "fixed" else None
    rule = np.asarray(lam, dtype=float) if lam is not None else None
    return model, _threads_default(args.threads), report, rule


def _cmd_simulate(args) -> int:
    model, threads, report, rule = _run_inputs(args)
    policy = build_policy(args.policy, model, report, rule=rule, n=args.n, threshold=args.threshold)
    summary, records = run_trials(
        model,
        policy,
        args.trials,
        args.seed,
        record_trials=args.record_trials,
        workers=threads,
    )
    print(
        f"trials={summary.n_trials} mean_tau={_fmt(summary.mean_tau)} "
        f"se_tau={_fmt(summary.se_tau)} pe={_fmt(summary.pe)} se_pe={_fmt(summary.se_pe)} "
        f"cost={_fmt(summary.cost)} n_wrong={summary.n_wrong} n_truncated={summary.n_truncated}"
    )
    row = [
        summary.n_trials, summary.mean_tau, summary.se_tau, summary.pe, summary.se_pe,
        summary.cost, summary.se_cost, summary.n_wrong, summary.n_truncated,
        summary.penalty, args.seed,
    ]
    tables = [("", SUMMARY_HEADER, [row])]
    if args.record_trials:
        trial_rows = (
            [r.index, r.theta, r.tau, r.declared, r.correct, r.posterior_error, r.truncated]
            for r in records
        )
        tables.append(("_trials", TRIALS_HEADER, trial_rows))
    _write_artifacts(args, tables, threads)
    return 0


def _cmd_sweep(args) -> int:
    model, threads, report, rule = _run_inputs(args)
    points, _ = sweep_L(
        model,
        args.policy,
        args.L,
        args.trials,
        args.seed,
        report=report,
        rule=rule,
        fixed_n=args.n,
        threshold=args.threshold,
        workers=threads,
    )
    for p in points:
        print(
            f"L={_fmt(p.L)} mean_tau={_fmt(p.mean_tau)} pe={_fmt(p.pe)} "
            f"cost={_fmt(p.cost)} cost/logL={_fmt(p.cost_over_log_L)} n_truncated={p.n_truncated}"
        )
    rows = [
        [p.L, p.log_L, p.mean_tau, p.se_tau, p.pe, p.se_pe, p.cost, p.cost_over_log_L, p.n_truncated]
        for p in points
    ]
    _write_artifacts(args, [("", SWEEP_HEADER, rows)], threads)
    return 0


def _cmd_exponents(args) -> int:
    model, threads, report, rule = _run_inputs(args)
    est = estimate_error_exponent(
        model,
        args.policy,
        args.budgets,
        args.trials,
        args.seed,
        report=report,
        rule=rule,
        workers=threads,
    )
    print(
        f"policy={est.policy_kind} slope={_fmt(est.slope)} "
        f"slope_stderr={_fmt(est.slope_stderr)} intercept={_fmt(est.intercept)} "
        f"lower_bound_only={_fmt(est.lower_bound_only)}"
    )
    for p in est.points:
        print(
            f"budget={_fmt(p.budget)} L={_fmt(p.penalty) if p.penalty is not None else '-'} "
            f"mean_tau={_fmt(p.mean_tau)} pe={_fmt(p.pe)} errors={p.n_errors}"
            + ("" if p.clean else " (floored)")
        )
    rows = [
        [
            p.budget,
            p.penalty if p.penalty is not None else math.nan,
            p.mean_tau,
            p.pe,
            p.n_errors,
            p.clean,
            p.neg_log_pe,
        ]
        for p in est.points
    ]
    _write_artifacts(args, [("", EXPONENTS_HEADER, rows)], threads)
    return 0


def _cmd_gains(args) -> int:
    model = _load(args.model)
    report = compute_bounds(model)
    g = report.gains
    print(f"sequentiality_coefficient: {_fmt(g.sequentiality_coefficient)}")
    print(f"adaptivity_coefficient: {_fmt(g.adaptivity_coefficient)}")
    print(f"zero_adaptivity: {_fmt(g.zero_adaptivity)}")
    dom = dominance_check(model)
    print(f"dominating_action: {dom if dom is not None else 'none'}")
    return 0


def _cmd_binary(args) -> int:
    model = _load(args.model)
    if model.M != 2:
        raise UsageError(f"binary subcommand requires M == 2, model has M = {model.M}")
    rep = binary_specialize(model)
    print(f"kl_1_to_2_per_action: {','.join(_fmt(v) for v in rep.d12)}")
    print(f"kl_2_to_1_per_action: {','.join(_fmt(v) for v in rep.d21)}")
    print(f"best_reliability_1: {_fmt(rep.r1_star)} at actions {list(rep.argmax_set_1)}")
    print(f"best_reliability_2: {_fmt(rep.r2_star)} at actions {list(rep.argmax_set_2)}")
    print(f"harmonic_reliability: {_fmt(rep.r_bar_star)}")
    print(f"logarithmic adaptivity gain: {_fmt(rep.log_adaptivity_gain)}")
    return 0


def _cmd_oracle_check(args) -> int:
    model = _load(args.model)
    threads = _threads_default(args.threads)
    if not model.is_finite:
        raise UsageError("oracle-check requires a finite-kernel model")
    lam = vars(args)["lambda"]
    rule = np.asarray(lam if lam is not None else [1.0 / model.K] * model.K, dtype=float)
    policy = build_policy("fixed", model, rule=rule, n=args.horizon)
    budget = OracleBudget(horizon=max(args.horizon, 1), nodes=args.nodes)
    exact = exact_eval(model, policy, budget)
    dp = backward_eval(model, rule, args.horizon, budget)
    summary, _ = run_trials(model, policy, args.trials, args.seed, workers=threads)
    dp_gap = abs(exact.pe - dp.pe)
    mc_gap = abs(summary.pe - exact.pe)
    sigma = summary.se_pe
    mass = float(np.max(exact.mass_residuals()))
    print(f"exact: E_tau={_fmt(exact.expected_tau)} pe={_fmt(exact.pe)} cost={_fmt(exact.cost)}")
    print(f"exact_states: {exact.nodes}")
    print(f"backward_dp: pe={_fmt(dp.pe)} |gap|={_fmt(dp_gap)}")
    print(f"monte_carlo: pe={_fmt(summary.pe)} se={_fmt(sigma)} |gap|={_fmt(mc_gap)}")
    print(f"mass_residual_max: {_fmt(mass)}")
    exact_ok = dp_gap <= 1e-10 and mass <= 1e-12
    # Under one expected error in all the trials, as at a deep horizon, the
    # Monte Carlo sees only the common paths and cannot test the exact pe;
    # an exact pe of 0 is still tested, since every trial must then read 0
    if exact_ok and 0.0 < exact.pe * args.trials < 1.0:
        print("agreement: unresolved")
        return 0
    # M ulps of the exact pe absorb the rounding of its sum
    ok = exact_ok and mc_gap <= 4.0 * sigma + model.M * np.finfo(float).eps * exact.pe
    print(f"agreement: {_fmt(ok)}")
    return 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "exponents": _cmd_exponents,
    "gains": _cmd_gains,
    "binary": _cmd_binary,
    "oracle-check": _cmd_oracle_check,
}


def _error_line(kind: str, message: str) -> None:
    text = " ".join(str(message).split())
    print(f"active-ht: {kind}: {text}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _error_line("usage", str(exc))
        return 4
    except (BudgetError, HorizonError) as exc:
        kind = "budget" if isinstance(exc, BudgetError) else "horizon"
        _error_line(kind, str(exc))
        return 3
    except ModelValidationError as exc:
        _error_line("validation", str(exc))
        return 2
    except AssumptionError as exc:
        _error_line("assumption", str(exc))
        return 2
    except FileNotFoundError as exc:  # the model file, gone before its digest was read
        _error_line("validation", f"cannot read model file: {exc}")
        return 2
    except ActiveHTError as exc:
        _error_line("error", str(exc))
        return 2
    except ValueError as exc:
        _error_line("usage", str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
