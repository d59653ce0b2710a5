"""Release acceptance suite: thirteen numbered end-to-end checks.

Each test pins one release requirement — corpus-level invariants, frozen
reference coefficients, Monte Carlo vs. exact-oracle agreement, empirical
error-exponent ordering, and artifact determinism — at fixed seeds, sample
sizes and wall-clock budgets.  On success every test prints a greppable
``[ k] PASS`` line (visible under ``pytest -rP`` or ``-s``).

The suite is heavier than the unit tests: roughly six minutes on four cores,
dominated by the exponent-slope runs of check 11.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from active_ht.bounds import (
    binary_specialize,
    compute_bounds,
    dominance_check,
    max_reliability,
    minmax_reliability,
)
from active_ht.cli import main as cli_main
from active_ht.divergences import kl, renyi
from active_ht.model import RandomizedRule, save_model
from active_ht.oracle import OracleBudget, exact_eval, exact_pairwise
from active_ht.policies import build_policy, fixed_lambda_policy
from active_ht.simulator import estimate_error_exponent, run_trials, sweep_L

from conftest import (
    make_garbled_model,
    make_gaussian_binary_model,
    random_finite_model,
)

MAXMIN = 0.6506724213610958      # two-probe model: best worst-hypothesis drift
RSTAR = 0.7506835950503012       # two-probe model: adaptive coefficient denominator
SN_COEFF = 1.53687               # 1 / MAXMIN, rounded as published in the release notes
SA_COEFF = 1.33212               # 1 / RSTAR
GAIN_COEFF = 0.204738            # SN_COEFF - SA_COEFF per unit log-penalty
WORKERS = 4


def _ok(num: int, label: str) -> None:
    print(f"[{num:2d}] PASS — {label}")


@pytest.fixture(scope="module")
def two_probe_sweeps(two_probe_model, two_probe_report):
    """Shared penalty sweeps for checks 4-6: (points, seconds) per family."""
    Ls = [1e3, 1e4, 1e5, 1e6]
    out = {}
    for family, seed in (("sn", 4001), ("sa", 4002)):
        t0 = time.perf_counter()
        points, _ = sweep_L(
            two_probe_model, family, Ls, 10_000, seed, report=two_probe_report, workers=WORKERS
        )
        out[family] = (points, time.perf_counter() - t0)
    return out


def test_01_coefficient_ordering_chain():
    # On 100 seeded random finite models (M <= 4, K <= 4, |Z| <= 5) the
    # computed coefficients obey the ordering chain within 1e-6.
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    tol = 1e-6
    for _ in range(100):
        m = random_finite_model(rng)
        rep = compute_bounds(m)
        assert rep.r_bar_star >= rep.max_r_bar - tol
        assert rep.max_r_bar >= rep.maxmin_r - tol
        assert rep.maxmin_r >= rep.d_hat - tol
        assert rep.d_hat >= -tol
        # side relations: the harmonic mean of the per-hypothesis maxima
        # dominates their minimum, which dominates the maxmin value
        assert rep.r_bar_star >= rep.minmax_r - tol
        assert rep.minmax_r >= rep.maxmin_r - tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(1, f"coefficient ordering chain on 100 random models ({elapsed:.1f}s)")


def test_02_renyi_weight_bound():
    # (1-a)*D_a(p||q) <= min{(1-a)*D(p||q), a*D(q||p)} on a 101-point order
    # grid for 1000 random finite distribution pairs, slack 1e-9.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    alphas = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for _ in range(1000):
        z = int(rng.integers(2, 6))
        p = rng.dirichlet(np.full(z, 1.0))
        q = rng.dirichlet(np.full(z, 1.0))
        kpq, kqp = kl(p, q), kl(q, p)
        for a in alphas:
            lhs = (1.0 - a) * renyi(p, q, a)
            bound = min((1.0 - a) * kpq, a * kqp)
            worst = max(worst, lhs - bound)
    assert worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(2, f"weighted divergence bound on 1000 pairs, max slack {worst:.2e} ({elapsed:.1f}s)")


def test_03_binary_closed_forms():
    # On 100 random two-hypothesis models the generic LP reproduces the
    # closed forms: best reliability = best single-action divergence, and the
    # adaptive denominator is the larger cross direction.
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    for _ in range(100):
        m = random_finite_model(rng, n_hypotheses=2)
        rep = binary_specialize(m)
        q = m.kernel.probs
        d12 = [kl(q[0, a], q[1, a]) for a in range(m.K)]
        d21 = [kl(q[1, a], q[0, a]) for a in range(m.K)]
        assert_allclose(rep.r1_star, max(d12), atol=1e-9, rtol=0.0)
        assert_allclose(rep.r2_star, max(d21), atol=1e-9, rtol=0.0)
        v1 = max_reliability(m, 0)[1]
        v2 = max_reliability(m, 1)[1]
        assert abs(v1 - rep.r1_star) <= 1e-9
        assert abs(v2 - rep.r2_star) <= 1e-9
        assert abs(2.0 / (1.0 / v1 + 1.0 / v2) - rep.r_bar_star) <= 1e-9
        assert abs(minmax_reliability(m) - min(v1, v2)) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(3, f"binary closed forms match the generic LP on 100 models ({elapsed:.1f}s)")


def test_04_stop_when_confident_coefficient(two_probe_sweeps):
    # Threshold-stopped fixed-rule family: cost / log L at L = 1e6 lands
    # within 15% of the predicted coefficient 1/MAXMIN.
    points, elapsed = two_probe_sweeps["sn"]
    last = points[-1]
    assert last.L == 1e6
    assert abs(last.cost_over_log_L - SN_COEFF) <= 0.15 * SN_COEFF
    assert elapsed < 300.0
    _ok(4, f"stop-when-confident coefficient {last.cost_over_log_L:.4f} "
           f"vs {SN_COEFF} +-15% ({elapsed:.1f}s)")


def test_05_two_phase_coefficient(two_probe_sweeps):
    # Two-phase adaptive family: cost / log L at L = 1e6 within 15% of the
    # predicted coefficient 1/RSTAR.
    points, elapsed = two_probe_sweeps["sa"]
    last = points[-1]
    assert last.L == 1e6
    assert abs(last.cost_over_log_L - SA_COEFF) <= 0.15 * SA_COEFF
    assert elapsed < 300.0
    _ok(5, f"two-phase coefficient {last.cost_over_log_L:.4f} "
           f"vs {SA_COEFF} +-15% ({elapsed:.1f}s)")


def test_06_adaptivity_gain(two_probe_model, two_probe_report, two_probe_sweeps):
    # The binary adaptivity predicate holds, the predicted per-log-penalty
    # gain matches the published value, and the measured cost gap at L = 1e6
    # separates by at least 3 pooled standard errors.
    assert binary_specialize(two_probe_model).log_adaptivity_gain is True
    assert abs(two_probe_report.gains.adaptivity_coefficient - GAIN_COEFF) <= 1e-4
    sn = two_probe_sweeps["sn"][0][-1]
    sa = two_probe_sweeps["sa"][0][-1]
    gap = sn.cost - sa.cost
    pooled = math.sqrt(
        sn.se_tau**2 + (sn.L * sn.se_pe) ** 2 + sa.se_tau**2 + (sa.L * sa.se_pe) ** 2
    )
    assert gap > 0.0
    assert gap >= 3.0 * pooled
    _ok(6, f"adaptivity gain {two_probe_report.gains.adaptivity_coefficient:.6f} per logL, "
           f"measured gap {gap:.2f} = {gap / pooled:.1f} pooled stderr")


def test_07_garbled_action_zero_gain():
    # When one action's kernel is a column-stochastic garbling of another's,
    # the degraded action is detected and the adaptivity gain vanishes.
    t0 = time.perf_counter()
    m = make_garbled_model()
    assert dominance_check(m) == 0
    rep = compute_bounds(m)
    assert abs(rep.max_r_bar - rep.r_bar_star) <= 1e-6
    assert rep.gains.zero_adaptivity is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(7, f"garbled action detected, |maxR - R*| = "
           f"{abs(rep.max_r_bar - rep.r_bar_star):.2e} ({elapsed:.1f}s)")


def test_08_posterior_error_guarantee(two_probe_model, two_probe_report):
    # The confidence-threshold stopping rule keeps the terminal posterior
    # error of every single trial at or below 1/L: zero violations in 1e5.
    t0 = time.perf_counter()
    policy = build_policy("sn", two_probe_model, two_probe_report)
    summary, records = run_trials(
        two_probe_model, policy, 100_000, 8008, record_trials=True, workers=WORKERS
    )
    cap = 1.0 / two_probe_model.penalty
    violations = sum(1 for r in records if r.posterior_error > cap)
    assert summary.n_truncated == 0
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(8, f"pathwise posterior error <= 1/L on 100000 trials, "
           f"0 violations ({elapsed:.1f}s)")


def test_09_monte_carlo_matches_oracle(two_probe_model):
    # Monte Carlo at N = 1e6 agrees with exhaustive enumeration on the fixed
    # half/half rule at horizon 6 within 4 standard errors.
    t0 = time.perf_counter()
    policy = fixed_lambda_policy([0.5, 0.5], n=6)
    exact = exact_eval(two_probe_model, policy, OracleBudget(horizon=16))
    assert_allclose(exact.pe, 0.077180078125, rtol=1e-12)
    summary, _ = run_trials(two_probe_model, policy, 1_000_000, 9009, workers=WORKERS)
    gap = abs(summary.pe - exact.pe)
    assert gap <= 4.0 * summary.se_pe
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(9, f"Monte Carlo vs oracle gap {gap / summary.se_pe:.2f} sigma "
           f"at N=1e6 ({elapsed:.1f}s)")


def test_10_pairwise_exponent_sandwich(two_probe_model):
    # The observed pairwise misordering decay at horizon 16 sits within 0.15
    # of the alpha-optimized single-step discrimination value.
    t0 = time.perf_counter()
    ex = exact_pairwise(two_probe_model, RandomizedRule([0.5, 0.5]), 16, OracleBudget(horizon=32))
    s = ex.sandwiches[0]
    assert_allclose(s.predicted, 0.16847903891768543, rtol=1e-9)
    assert s.gap <= 0.15
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(10, f"exponent sandwich gap {s.gap:.4f} <= 0.15 at horizon 16 ({elapsed:.1f}s)")


def test_11_empirical_exponent_ordering(two_probe_model, two_probe_report):
    # Empirical error-exponent slopes at budgets {8, 11, 14, 17}, 1e5 trials
    # per point: the adaptive family is at least the stop-rule family minus
    # two stderr, the fixed-everything family stays near half the stop-rule
    # coefficient, and the adaptive slope is within 25% of RSTAR.
    t0 = time.perf_counter()
    budgets = [8, 11, 14, 17]
    est = {}
    for family, seed in (("sa", 11001), ("sn", 11002), ("nn", 11003)):
        est[family] = estimate_error_exponent(
            two_probe_model, family, budgets, 100_000, seed, report=two_probe_report, workers=WORKERS
        )
        assert not est[family].lower_bound_only
    assert est["sa"].slope >= est["sn"].slope - 2.0 * est["sn"].slope_stderr
    assert est["nn"].slope <= 0.5 * MAXMIN + 0.10
    assert abs(est["sa"].slope - RSTAR) <= 0.25 * RSTAR
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(11, f"slopes sa={est['sa'].slope:.4f} sn={est['sn'].slope:.4f} "
            f"nn={est['nn'].slope:.4f} ordered as required ({elapsed:.1f}s)")


def test_12_gaussian_bound_structure():
    # On the fixed Gaussian binary model the three bound entries keep their
    # structural order and the fixed-everything lower bound carries the
    # factor-two form 2 log L / MAXMIN exactly.
    t0 = time.perf_counter()
    m = make_gaussian_binary_model()
    rep = compute_bounds(m)
    assert_allclose(rep.maxmin_r, 0.875, rtol=1e-9)
    assert_allclose(rep.r_bar_star, 1.3068528194400546, rtol=1e-9)
    assert rep.exponents.sa >= rep.exponents.sn >= 0.5 * rep.maxmin_r
    assert rep.cost_bounds.sa_upper <= rep.cost_bounds.sn_upper <= rep.cost_bounds.nn_lower_factor2
    assert_allclose(
        rep.cost_bounds.nn_lower_factor2, 2.0 * math.log(m.penalty) / rep.maxmin_r, rtol=1e-12
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(12, f"gaussian bound structure holds, factor-2 entry "
            f"{rep.cost_bounds.nn_lower_factor2:.4f} ({elapsed:.1f}s)")


def test_13_artifact_determinism(two_probe_model, tmp_path, capsys):
    # Re-running any simulate/sweep command with the same parameters must
    # reproduce the result CSVs byte for byte, independent of thread count.
    t0 = time.perf_counter()
    model_path = str(tmp_path / "model.json")
    save_model(two_probe_model, model_path)
    sim = ["simulate", model_path, "--policy", "fixed", "--lambda", "0.5,0.5",
           "--n", "6", "--trials", "2000", "--seed", "77", "--record-trials"]
    swp = ["sweep", model_path, "--policy", "sn", "--L", "100,1000",
           "--trials", "1000", "--seed", "78"]
    outputs = []
    for tag, argv in (("sim", sim), ("swp", swp)):
        digests = []
        for attempt, threads in enumerate((1, 3)):
            prefix = str(tmp_path / f"{tag}{attempt}")
            rc = cli_main([*argv, "--threads", str(threads), "--out", prefix])
            assert rc == 0
            files = [f"{prefix}.csv"]
            if tag == "sim":
                files.append(f"{prefix}_trials.csv")
            blobs = tuple(open(f, "rb").read() for f in files)
            with open(f"{prefix}.manifest.json", encoding="utf-8") as fh:
                digests.append((blobs, json.load(fh)["manifest_id"]))
        (blobs_a, id_a), (blobs_b, id_b) = digests
        assert blobs_a == blobs_b
        assert id_a == id_b
        outputs.append(tag)
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(13, f"byte-identical artifacts for {', '.join(outputs)} reruns ({elapsed:.1f}s)")
