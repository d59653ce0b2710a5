"""Monte Carlo evaluation: trial mechanics, seeding, sweeps, pairwise
error rates, and the error-exponent estimator."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from active_ht import (
    FiniteKernel,
    FixedRulePolicy,
    ObservationModel,
    OracleBudget,
    RandomizedRule,
    TwoPhasePolicy,
    build_policy,
    compute_bounds,
    estimate_error_exponent,
    exact_pairwise,
    fixed_lambda_policy,
    pairwise_error_rates,
    run_trials,
    stratified_hypotheses,
    sweep_L,
)
from conftest import make_gaussian_binary_model, make_garbled_model, make_two_probe_model


def _summaries_equal(a, b):
    return (
        a.n_trials == b.n_trials
        and a.mean_tau == b.mean_tau
        and a.se_tau == b.se_tau
        and a.pe == b.pe
        and a.se_pe == b.se_pe
        and a.cost == b.cost
        and a.n_wrong == b.n_wrong
        and a.n_truncated == b.n_truncated
    )


class TestRunTrials:
    def test_declare_from_prior_without_observing(self, two_probe_model):
        pol = fixed_lambda_policy([1.0, 0.0], n=0)
        summary, records = run_trials(two_probe_model, pol, 2000, 10, record_trials=True)
        # No data: the tie-broken declaration is hypothesis 0, wrong exactly
        # when the stratified truth is hypothesis 1 (half the trials).
        assert summary.mean_tau == 0.0
        assert summary.pe == 0.5
        assert summary.se_pe == 0.0
        assert all(r.tau == 0 and r.declared == 0 for r in records)

    def test_bitwise_deterministic(self, two_probe_model, two_probe_report):
        pol = build_policy("sn", two_probe_model, two_probe_report)
        s1, _ = run_trials(two_probe_model, pol, 3000, 11)
        s2, _ = run_trials(two_probe_model, pol, 3000, 11)
        assert _summaries_equal(s1, s2)

    def test_worker_count_does_not_change_the_fold(self, two_probe_model, two_probe_report):
        pol = build_policy("sa", two_probe_model, two_probe_report)
        serial, _ = run_trials(two_probe_model, pol, 4000, 12, workers=1)
        sharded, _ = run_trials(two_probe_model, pol, 4000, 12, workers=4)
        assert _summaries_equal(serial, sharded)

    def test_fast_and_scalar_paths_agree(self, two_probe_model):
        # A fixed-horizon rule takes the vectorized path; the same behavior
        # expressed through per-step queries takes the generic loop.  Both
        # consume the per-trial uniform stream in the same order, so they
        # must see identical trajectories.
        from active_ht import Policy

        class _Stepwise(Policy):
            def __init__(self, weights, n):
                self.weights = np.asarray(weights, dtype=float)
                self.n = n

            def action_weights(self, probs, step_count):
                return self.weights if step_count < self.n else None

        # Asymmetric success rates so that no sample path lands on an exact
        # posterior tie (ties are resolved by float dust and may differ
        # between the two computations).
        m = ObservationModel(
            kernel=FiniteKernel(
                [[[0.85, 0.15], [0.4, 0.6]], [[0.3, 0.7], [0.9, 0.1]]]
            ),
            prior=[0.5, 0.5],
            penalty=1000.0,
        )
        s_fast, _ = run_trials(m, fixed_lambda_policy([0.5, 0.5], n=6), 5000, 13)
        s_scalar, _ = run_trials(m, _Stepwise([0.5, 0.5], 6), 5000, 13)
        assert s_fast.mean_tau == s_scalar.mean_tau
        assert s_fast.n_wrong == s_scalar.n_wrong
        assert_allclose(s_fast.pe, s_scalar.pe, rtol=1e-12)
        assert_allclose(s_fast.cost, s_scalar.cost, rtol=1e-12)

    def test_user_subclass_with_truncating_horizon(self, two_probe_model):
        # A subclass defining only action_weights runs through the default
        # batch_weights; a second one overriding declare is honoured too.
        from active_ht import Policy

        class _Capped(Policy):
            safety_horizon = 6

            def action_weights(self, probs, step_count):
                return None if probs.max() >= 0.99 else np.array([0.5, 0.5])

        class _DeclaresOne(_Capped):
            def declare(self, probs):
                return 1

        summary, records = run_trials(two_probe_model, _Capped(), 1500, 26, record_trials=True)
        taus = np.array([r.tau for r in records])
        trunc = np.array([r.truncated for r in records])
        errs = np.array([r.posterior_error for r in records])
        assert 0 < summary.n_truncated == trunc.sum() < 1500
        assert np.all(taus[trunc] == 6) and np.all(taus[~trunc] <= 6)
        assert np.all(errs[~trunc] <= 0.01) and np.all(errs[trunc] > 0.01)
        assert summary.mean_tau == taus.mean()
        assert summary.n_wrong == sum(r.declared != r.theta for r in records)
        assert all(r.correct == (r.declared == r.theta) for r in records)
        # The vectorized built-in equivalent sees the same trajectories.
        builtin, _ = run_trials(
            two_probe_model, fixed_lambda_policy([0.5, 0.5], threshold=0.99, safety_horizon=6), 1500, 26
        )
        assert builtin == summary

        other, others = run_trials(two_probe_model, _DeclaresOne(), 1500, 26, record_trials=True)
        assert all(r.declared == 1 for r in others)
        assert other.n_wrong == sum(r.theta != 1 for r in records)
        assert [(r.tau, r.truncated, r.posterior_error) for r in others] == list(zip(taus, trunc, errs))

    def test_fixed_horizon_subclass_declare_is_honoured(self, two_probe_model):
        class _DeclaresOne(FixedRulePolicy):
            def declare(self, probs):
                return 1

        pol = _DeclaresOne(weights=[0.5, 0.5], n=6)
        summary, records = run_trials(two_probe_model, pol, 1000, 27, record_trials=True)
        assert {r.declared for r in records} == {1}
        assert summary.n_wrong == sum(r.theta != 1 for r in records) == 500

    def test_summary_matches_records(self, two_probe_model, two_probe_report):
        pol = build_policy("sn", two_probe_model, two_probe_report)
        summary, records = run_trials(two_probe_model, pol, 2500, 14, record_trials=True)
        taus = np.array([r.tau for r in records], dtype=float)
        errs = np.array([r.posterior_error for r in records])
        assert_allclose(summary.mean_tau, taus.mean(), rtol=1e-12)
        assert_allclose(summary.pe, errs.mean(), rtol=1e-12)
        assert_allclose(summary.se_tau, taus.std(ddof=1) / math.sqrt(taus.size), rtol=1e-9)
        assert_allclose(
            summary.cost,
            summary.mean_tau + two_probe_model.penalty * summary.pe,
            rtol=0.0,
            atol=0.0,
        )
        assert summary.n_wrong == sum(not r.correct for r in records)

    def test_posterior_error_band_for_threshold_stop(self, two_probe_model, two_probe_report):
        m = two_probe_model.with_penalty(10_000.0)
        pol = build_policy("sn", m, two_probe_report)
        summary, _ = run_trials(m, pol, 10_000, 15)
        assert summary.pe <= 1.0 / m.penalty + 3.0 * summary.se_pe

    def test_gaussian_model_runs(self, gaussian_binary_model):
        pol = fixed_lambda_policy([0.5, 0.5], n=8)
        summary, _ = run_trials(gaussian_binary_model, pol, 4000, 16)
        assert 0.0 < summary.pe < 0.5
        assert summary.mean_tau == 8.0


def _skewed_three_model() -> ObservationModel:
    """M = 3, K = 3 finite model with a non-uniform prior."""
    return ObservationModel(
        kernel=FiniteKernel(
            [
                [[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.5, 0.4, 0.1]],
                [[0.2, 0.5, 0.3], [0.6, 0.3, 0.1], [0.5, 0.1, 0.4]],
                [[0.3, 0.3, 0.4], [0.2, 0.2, 0.6], [0.1, 0.6, 0.3]],
            ]
        ),
        prior=[0.5, 0.3, 0.2],
        penalty=1000.0,
    )


def _sn(weights, L, horizon=10_000):
    return FixedRulePolicy(weights=weights, threshold=1.0 - 1.0 / L, safety_horizon=horizon)


def _sa(explore, exploit, L, horizon=10_000):
    return TwoPhasePolicy(
        explore_weights=explore,
        exploit_weights=exploit,
        phase_threshold=0.5,
        stop_threshold=1.0 - 1.0 / L,
        safety_horizon=horizon,
    )


# Policies are pinned by their parameters, not built from compute_bounds, so
# that only the simulator can move the recorded summaries below.
SEED_CONTRACT_CASES = {
    "two_probe-sn": lambda: (make_two_probe_model(), _sn([0.5, 0.5], 1000.0)),
    "two_probe-sa": lambda: (make_two_probe_model(), _sa([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1000.0)),
    "garbled-sn": lambda: (make_garbled_model(), _sn([0.7, 0.3], 100.0)),
    "garbled-sa": lambda: (
        make_garbled_model(),
        _sa([0.5, 0.5], [[1.0, 0.0], [0.6, 0.4], [0.2, 0.8]], 100.0),
    ),
    "gaussian-sn": lambda: (make_gaussian_binary_model(), _sn([0.5, 0.5], 1000.0)),
    "gaussian-sa": lambda: (
        make_gaussian_binary_model(),
        _sa([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1000.0),
    ),
    "skewed3-sn": lambda: (_skewed_three_model(), _sn([0.2, 0.5, 0.3], 1000.0)),
    "skewed3-sa": lambda: (
        _skewed_three_model(),
        _sa([0.2, 0.5, 0.3], [[0.6, 0.1, 0.3], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]], 1000.0),
    ),
    "two_probe-truncated": lambda: (
        make_two_probe_model(),
        fixed_lambda_policy([0.5, 0.5], threshold=0.985, safety_horizon=5),
    ),
    # fixed horizons take the vectorized fixed-rule path, not the lockstep engine
    "two_probe-n9": lambda: (make_two_probe_model(), FixedRulePolicy(weights=[0.5, 0.5], n=9)),
    "garbled-n6": lambda: (make_garbled_model(), FixedRulePolicy(weights=[0.7, 0.3], n=6)),
    "gaussian-n6": lambda: (make_gaussian_binary_model(), FixedRulePolicy(weights=[0.3, 0.7], n=6)),
}

# (mean_tau, se_tau, pe, se_pe, cost, se_cost, n_wrong, n_truncated) of
# run_trials(model, policy, 1500, (41, index)).  The sequential entries were
# recorded from the per-trial scalar loop that the lockstep engine replaced,
# the fixed-horizon ones from the fixed-rule path before the simulator read
# its tables from the model.  Compared with ==: any difference breaks the
# seed contract.
SEED_CONTRACT = {
    "two_probe-sn": (11.522666666666666, 0.14086714728283486, 0.0005860236714570628, 6.5768368252952e-06, 12.10869033812373, 0.14017880950659156, 0, 0),
    "two_probe-sa": (10.832666666666666, 0.1497414558330099, 0.000512453085701764, 5.562740509003807e-06, 11.345119752368431, 0.14898316868481232, 0, 0),
    "garbled-sn": (21.478, 0.425531766630683, 0.00639193701188531, 6.727912840958147e-05, 22.117193701188533, 0.42769347652136974, 12, 0),
    "garbled-sa": (28.441333333333333, 0.567670174768693, 0.006579048460931861, 7.02339404749471e-05, 29.099238179426518, 0.5702078565282622, 6, 0),
    "gaussian-sn": (10.896666666666667, 0.18190182424572904, 0.0003514624001042687, 8.65399030291185e-06, 11.248129066770936, 0.18278900113016394, 1, 0),
    "gaussian-sa": (9.164666666666667, 0.1620695696318018, 0.00023650675501610922, 7.150088981021644e-06, 9.401173421682776, 0.16240542270030078, 0, 0),
    "skewed3-sn": (27.373333333333335, 0.3338476796672146, 0.0006620673747409163, 5.297765782277761e-06, 28.035400708074253, 0.33379168936535186, 2, 0),
    "skewed3-sa": (22.241333333333333, 0.2717232150485554, 0.000666576885411642, 5.176753666811817e-06, 22.907910218744977, 0.27166952555705126, 2, 0),
    "two_probe-truncated": (4.508, 0.019521790109557305, 0.09637431892661168, 0.0032812334282679508, 100.88231892661167, 3.2898045292944884, 133, 827),
    "two_probe-n9": (9.0, 0.0, 0.041851676298230396, 0.002425092207372995, 50.851676298230394, 2.4250922073729946, 58, 0),
    "garbled-n6": (6.0, 0.0, 0.22975829401749154, 0.004496798925640755, 28.975829401749152, 0.4496798925640753, 347, 0),
    "gaussian-n6": (6.0, 0.0, 0.09291043911889814, 0.0034771304388404637, 98.91043911889814, 3.477130438840464, 143, 0),
}

# pairwise_error_rates(garbled, [0.7, 0.3], 6, 1500, (41, 12)), recorded with
# the fixed-horizon entries above.
SEED_CONTRACT_PAIRWISE = [
    [0.0, 0.11533333333333333, 0.11066666666666666],
    [0.08333333333333333, 0.0, 0.164],
    [0.06333333333333334, 0.25866666666666666, 0.0],
]


@pytest.mark.parametrize("index, name", enumerate(SEED_CONTRACT_CASES))
def test_seed_contract_summaries(index, name):
    model, policy = SEED_CONTRACT_CASES[name]()
    s, _ = run_trials(model, policy, 1500, (41, index))
    got = (s.mean_tau, s.se_tau, s.pe, s.se_pe, s.cost, s.se_cost, s.n_wrong, s.n_truncated)
    assert (s.n_trials, s.penalty, s.master_seed) == (1500, model.penalty, (41, index))
    assert got == SEED_CONTRACT[name]


def test_seed_contract_pairwise_rates():
    rates, _ = pairwise_error_rates(make_garbled_model(), [0.7, 0.3], 6, 1500, (41, 12))
    assert rates.tolist() == SEED_CONTRACT_PAIRWISE


class TestStratification:
    def test_uniform_prior_exact_quotas(self):
        thetas = stratified_hypotheses(np.array([0.5, 0.5]), 10)
        assert np.bincount(thetas, minlength=2).tolist() == [5, 5]
        thetas3 = stratified_hypotheses(np.full(3, 1.0 / 3.0), 9)
        assert np.bincount(thetas3, minlength=3).tolist() == [3, 3, 3]

    def test_skewed_prior_quotas(self):
        thetas = stratified_hypotheses(np.array([0.7, 0.3]), 10)
        assert np.bincount(thetas, minlength=2).tolist() == [7, 3]

    def test_prefix_balance(self):
        prior = np.array([0.6, 0.4])
        thetas = stratified_hypotheses(prior, 1000)
        counts = np.cumsum(thetas == 0)
        steps = np.arange(1, 1001)
        assert np.all(np.abs(counts - 0.6 * steps) <= 1.0)


class TestSweep:
    def test_cost_identity_and_policy_rebuild(self, two_probe_model, two_probe_report):
        points, summaries = sweep_L(
            two_probe_model,
            "sn",
            [100.0, 1000.0],
            2000,
            17,
            report=two_probe_report,
        )
        assert len(points) == 2
        for pt, s in zip(points, summaries):
            assert_allclose(pt.cost, pt.mean_tau + pt.L * pt.pe, atol=0.0)
            assert_allclose(pt.cost_over_log_L, pt.cost / math.log(pt.L), rtol=1e-15)
            assert_allclose(pt.log_L, math.log(pt.L), rtol=1e-15)
            assert s.n_trials == 2000
        # Larger penalty -> later stopping.
        assert points[1].mean_tau > points[0].mean_tau

    def test_fixed_policy_sweep(self, two_probe_model):
        points, _ = sweep_L(
            two_probe_model,
            "fixed",
            [100.0, 1000.0],
            1000,
            18,
            rule=[0.5, 0.5],
            fixed_n=6,
        )
        assert all(pt.mean_tau == 6.0 for pt in points)


class TestPairwiseRates:
    def test_no_data_is_never_strictly_ordered(self, two_probe_model):
        rates, se = pairwise_error_rates(two_probe_model, RandomizedRule([0.5, 0.5]), 0, 500, 19)
        assert np.all(rates == 0.0)

    def test_identical_kernels_all_mass_in_ties(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        rates, _ = pairwise_error_rates(m, RandomizedRule([1.0]), 8, 2000, 20)
        assert np.all(rates == 0.0)
        exact = exact_pairwise(m, RandomizedRule([1.0]), 8, OracleBudget(horizon=16))
        assert_allclose(exact.ties[0][1], 1.0, rtol=1e-12)
        assert exact.rates[0][1] == 0.0

    def test_near_identical_kernels_split_evenly(self):
        # An epsilon-separated pair has (to first order) driftless log odds,
        # so the strictly-ordered paths split about half and half.
        eps = 1e-4
        m = ObservationModel(
            kernel=FiniteKernel([[[0.5 + eps, 0.5 - eps]], [[0.5 - eps, 0.5 + eps]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        n_trials = 40_000
        rates, se = pairwise_error_rates(m, RandomizedRule([1.0]), 9, n_trials, 21)
        band = 3.0 * math.sqrt(0.25 / n_trials)
        assert abs(rates[0][1] - 0.5) < band

    def test_matches_exact_oracle(self):
        # Asymmetric rates so no sample path is an exact posterior tie; on
        # tie-heavy lattice models the Monte Carlo strict comparison resolves
        # mathematical ties by accumulated float noise.
        m = ObservationModel(
            kernel=FiniteKernel(
                [[[0.85, 0.15], [0.4, 0.6]], [[0.3, 0.7], [0.9, 0.1]]]
            ),
            prior=[0.5, 0.5],
            penalty=1000.0,
        )
        rule = RandomizedRule([0.5, 0.5])
        exact = exact_pairwise(m, rule, 6, OracleBudget(horizon=16))
        assert exact.ties[0][1] == 0.0
        rates, se = pairwise_error_rates(m, rule, 6, 30_000, 22)
        for i, j in ((0, 1), (1, 0)):
            gap = abs(rates[i][j] - exact.rates[i][j])
            assert gap <= 4.0 * max(se[i][j], 1e-4)

    def test_long_horizon_decay_rate(self, two_probe_model):
        # At horizon 40 the per-step decay of the misordering probability is
        # within 20% of the exhaustively computed value.
        rule = RandomizedRule([0.5, 0.5])
        n = 40
        exact = exact_pairwise(two_probe_model, rule, n, OracleBudget(horizon=64))
        rates, _ = pairwise_error_rates(two_probe_model, rule, n, 200_000, 4242)
        mc_rate = -math.log(rates[0][1]) / n
        exact_rate = -math.log(exact.rates[0][1]) / n
        assert abs(mc_rate - exact_rate) <= 0.2 * exact_rate


class TestExponentEstimate:
    def test_floored_points_are_flagged_and_excluded(self, two_probe_model, two_probe_report):
        est = estimate_error_exponent(
            two_probe_model,
            "sa",
            [10, 15, 20, 25],
            100_000,
            21001,
            report=two_probe_report,
            workers=4,
        )
        flags = [p.clean for p in est.points]
        assert flags[:2] == [True, True]
        assert not any(flags[2:])
        floored = [p for p in est.points if not p.clean]
        assert all(p.pe == 0.5 / est.n_trials for p in floored)
        assert not est.lower_bound_only
        # Fit uses the clean points; the target decay rate is 0.750684.
        assert abs(est.slope - 0.750684) <= 0.25 * 0.750684

    def test_all_floored_reports_lower_bound(self, two_probe_model, two_probe_report):
        est = estimate_error_exponent(
            two_probe_model,
            "sn",
            [18, 24],
            300,
            23,
            report=two_probe_report,
        )
        assert est.lower_bound_only
        assert all(not p.clean for p in est.points)

    def test_budget_tuning_hits_target(self, two_probe_model, two_probe_report):
        est = estimate_error_exponent(
            two_probe_model,
            "sn",
            [8.0],
            20_000,
            24,
            report=two_probe_report,
            workers=4,
        )
        pt = est.points[0]
        assert pt.tuned
        assert abs(pt.mean_tau - 8.0) <= 0.03 * 8.0

    def test_fixed_horizon_budgets_run_exactly(self, two_probe_model, two_probe_report):
        est = estimate_error_exponent(
            two_probe_model,
            "nn",
            [4, 6, 8],
            20_000,
            25,
            report=two_probe_report,
        )
        for pt, budget in zip(est.points, [4, 6, 8]):
            assert pt.mean_tau == budget
        assert est.slope > 0.0
