"""Rate coefficients: per-hypothesis LPs, max-min/harmonic optimizations,
the fixed-rule discrimination exponent, and the derived cost bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from active_ht import (
    FiniteKernel,
    ObservationModel,
    RandomizedRule,
    binary_specialize,
    compute_bounds,
    d_hat,
    dominance_check,
    gains_from_values,
    harmonic_reliability,
    kl,
    kl_matrix,
    max_harmonic_reliability,
    max_reliability,
    maxmin_reliability,
    minmax_reliability,
    reliability,
    report_at_penalty,
    simplex_grid,
)
from conftest import make_two_probe_model, random_finite_model

MAXMIN_TP = 0.6506724213610958
RSTAR_TP = 0.7506835950503012
DHAT_TP = 0.16960418110785774


class TestReliability:
    def test_matches_direct_formula(self, two_probe_model):
        D = kl_matrix(two_probe_model)
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.dirichlet(np.ones(2))
            want = min(np.dot(w, D[0, 1]), math.inf)
            assert_allclose(
                reliability(two_probe_model, 0, RandomizedRule(w)), want, rtol=1e-12
            )

    def test_lp_beats_dense_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            m = random_finite_model(rng)
            grid = simplex_grid(m.K, 0.05)
            for i in range(m.M):
                _, lp_val = max_reliability(m, i)
                grid_best = max(reliability(m, i, RandomizedRule(w)) for w in grid)
                assert lp_val >= grid_best - 1e-9

    def test_maxmin_beats_dense_grid(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            m = random_finite_model(rng)
            rule, val = maxmin_reliability(m)
            grid_best = max(
                min(reliability(m, i, RandomizedRule(w)) for i in range(m.M))
                for w in simplex_grid(m.K, 0.05)
            )
            assert val >= grid_best - 1e-9
            attained = min(reliability(m, i, rule) for i in range(m.M))
            assert_allclose(attained, val, rtol=1e-9, atol=1e-12)

    def test_harmonic_identity(self, two_probe_model):
        rule = RandomizedRule([0.5, 0.5])
        r0 = reliability(two_probe_model, 0, rule)
        r1 = reliability(two_probe_model, 1, rule)
        want = 2.0 / (1.0 / r0 + 1.0 / r1)
        assert_allclose(harmonic_reliability(two_probe_model, rule), want, rtol=1e-12)


class TestTwoProbeCoefficients:
    def test_kl_matrix(self, two_probe_model):
        D = kl_matrix(two_probe_model)
        assert_allclose(D[0, 1], [0.5506612476718906, 0.7506835950503014], rtol=1e-13)
        assert_allclose(D[1, 0], [0.7506835950503014, 0.5506612476718906], rtol=1e-13)
        assert_allclose(D[0, 0], 0.0, atol=0.0)

    def test_report_values(self, two_probe_report):
        rep = two_probe_report
        assert_allclose(rep.maxmin_r, MAXMIN_TP, rtol=1e-12)
        assert_allclose(rep.max_r_bar, MAXMIN_TP, rtol=1e-12)
        assert_allclose(rep.maxmin_rule.weights, [0.5, 0.5], atol=1e-9)
        assert_allclose(rep.r_bar_star, RSTAR_TP, rtol=1e-12)
        assert_allclose(rep.minmax_r, RSTAR_TP, rtol=1e-12)
        assert_allclose(rep.d_hat, DHAT_TP, rtol=1e-9)
        assert rep.flags == ()

    def test_best_per_hypothesis_rules_are_vertices(self, two_probe_report):
        (rule0, val0), (rule1, val1) = two_probe_report.reliabilities
        assert_allclose(rule0.weights, [0.0, 1.0], atol=1e-9)
        assert_allclose(rule1.weights, [1.0, 0.0], atol=1e-9)
        assert_allclose([val0, val1], [RSTAR_TP, RSTAR_TP], rtol=1e-12)

    def test_cost_bounds(self, two_probe_report):
        cb = two_probe_report.cost_bounds
        assert_allclose(cb.nn_upper, 40.7286850705009, rtol=1e-9)
        assert_allclose(cb.nn_lower_factor2, 21.23266655295545, rtol=1e-9)
        assert_allclose(cb.sn_upper, 10.616333276477725, rtol=1e-9)
        assert_allclose(cb.sa_upper, 9.2019531591326, rtol=1e-9)
        assert_allclose(cb.na_lower, cb.sa_upper, rtol=1e-12)
        # With a uniform prior the sequential bounds collapse to log L / rate.
        logL = math.log(1000.0)
        assert_allclose(cb.sn_upper, logL / MAXMIN_TP, rtol=1e-12)
        assert_allclose(cb.sa_upper, logL / RSTAR_TP, rtol=1e-12)

    def test_gains(self, two_probe_report):
        g = two_probe_report.gains
        assert_allclose(g.sequentiality_coefficient, 1.5368716533400484, rtol=1e-9)
        assert_allclose(g.adaptivity_coefficient, 0.2047524934255538, rtol=1e-9)
        assert not g.zero_adaptivity

    def test_exponents_mirror_rates(self, two_probe_report):
        e = two_probe_report.exponents
        assert_allclose(e.nn, two_probe_report.d_hat, rtol=1e-12)
        assert_allclose(e.sn, two_probe_report.maxmin_r, rtol=1e-12)
        assert_allclose(e.sa, two_probe_report.r_bar_star, rtol=1e-12)
        assert_allclose(e.na_upper, two_probe_report.r_bar_star, rtol=1e-12)

    def test_serialization_round_trip(self, two_probe_report):
        doc = two_probe_report.to_dict()
        assert doc["r_bar_star"] == two_probe_report.r_bar_star
        assert two_probe_report.to_json()
        header, rows = two_probe_report.csv_rows()
        assert header[0] == "name"
        assert any(r[0] == "r_bar_star" for r in rows)


class TestGaussianCoefficients:
    def test_report_values(self, gaussian_binary_model):
        rep = compute_bounds(gaussian_binary_model)
        assert_allclose(rep.maxmin_r, 0.875, rtol=1e-12)
        assert_allclose(rep.max_r_bar, 0.875, rtol=1e-12)
        assert_allclose(rep.r_bar_star, 1.3068528194400546, rtol=1e-12)
        assert_allclose(rep.d_hat, 0.17211672293201685, rtol=1e-6)
        assert rep.flags == ("unbounded_likelihood_ratios",)

    def test_binary_closed_forms(self, gaussian_binary_model):
        b = binary_specialize(gaussian_binary_model)
        assert b.argmax_set_1 == (1,)
        assert b.argmax_set_2 == (0,)
        assert b.log_adaptivity_gain
        assert_allclose(b.r1_star, 1.3068528194400546, rtol=1e-12)
        assert_allclose(b.r_bar_star, 1.3068528194400546, rtol=1e-12)


class TestChainOrdering:
    def test_sample_of_random_models(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            m = random_finite_model(rng)
            rep = compute_bounds(m, grid_resolution=0.1, polish_evals=120)
            tol = 1e-6
            assert rep.r_bar_star >= rep.max_r_bar - tol
            assert rep.max_r_bar >= rep.maxmin_r - tol
            assert rep.maxmin_r >= rep.d_hat - tol
            assert rep.minmax_r >= rep.maxmin_r - tol
            assert rep.d_hat >= -tol


class TestDominance:
    def test_garbled_action_detected(self, garbled_model):
        assert dominance_check(garbled_model) == 0

    def test_no_dominating_action_on_two_probe(self, two_probe_model):
        assert dominance_check(two_probe_model) is None

    def test_garbled_model_has_no_adaptivity_gain(self, garbled_model):
        rep = compute_bounds(garbled_model)
        assert abs(rep.max_r_bar - rep.r_bar_star) <= 1e-6
        assert rep.gains.zero_adaptivity
        assert_allclose(rep.gains.adaptivity_coefficient, 0.0, atol=1e-6)


class TestGainsFromValues:
    def test_positive_gap(self):
        g = gains_from_values(0.5, 0.5, 1.0)
        # Per-log-penalty cost saved by sequential stopping (factor-2 fixed
        # horizon vs threshold stopping) and by adapting the rule.
        assert_allclose(g.sequentiality_coefficient, 2.0 / 0.5 - 1.0 / 0.5, atol=1e-12)
        assert_allclose(g.adaptivity_coefficient, 1.0 / 0.5 - 1.0 / 1.0, atol=1e-12)
        assert not g.zero_adaptivity

    def test_zero_gap_flag(self):
        g = gains_from_values(0.6, 0.75, 0.75)
        assert g.zero_adaptivity
        assert_allclose(g.adaptivity_coefficient, 0.0, atol=1e-12)


class TestSimplexGrid:
    def test_k2_half_resolution(self):
        pts = simplex_grid(2, 0.5)
        assert pts.shape == (3, 2)
        assert_allclose(sorted(pts[:, 0].tolist()), [0.0, 0.5, 1.0])

    def test_rows_are_distributions(self):
        pts = simplex_grid(3, 0.25)
        assert np.all(pts >= 0.0)
        assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)


class TestDHat:
    def test_two_probe_optimum_is_a_vertex(self, two_probe_report):
        w = two_probe_report.d_hat_rule.weights
        assert_allclose(sorted(w.tolist()), [0.0, 1.0], atol=1e-9)

    def test_identical_kernels_give_zero(self):
        from active_ht import FiniteKernel, ObservationModel

        m = ObservationModel(
            kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        opt = d_hat(m, grid_resolution=0.5)
        assert_allclose(opt.value, 0.0, atol=1e-12)

    def test_single_action_matches_alpha_max(self, two_probe_model):
        from active_ht import FiniteKernel, ObservationModel, alpha_max

        rows = two_probe_model.kernel.probs[:, :1, :]
        m = ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.5], penalty=10.0)
        opt = d_hat(m, grid_resolution=0.5)
        direct = alpha_max(m, 0, 1, RandomizedRule([1.0]))
        assert_allclose(opt.value, direct.value, rtol=1e-9)


class TestPenaltyRescaling:
    def test_uniform_prior_scales_with_log_penalty(self, two_probe_model, two_probe_report):
        m2 = two_probe_model.with_penalty(10_000.0)
        rep2 = report_at_penalty(two_probe_report, m2)
        ratio = math.log(10_000.0) / math.log(1000.0)
        assert_allclose(rep2.cost_bounds.sn_upper, two_probe_report.cost_bounds.sn_upper * ratio, rtol=1e-12)
        assert_allclose(rep2.cost_bounds.sa_upper, two_probe_report.cost_bounds.sa_upper * ratio, rtol=1e-12)
        assert_allclose(rep2.cost_bounds.nn_upper, two_probe_report.cost_bounds.nn_upper * ratio, rtol=1e-12)
        # Rates do not depend on the penalty.
        assert rep2.r_bar_star == two_probe_report.r_bar_star
        assert rep2.penalty == 10_000.0

    def test_same_penalty_is_identity(self, two_probe_model, two_probe_report):
        assert report_at_penalty(two_probe_report, two_probe_model) is two_probe_report

    def test_nonuniform_prior_matches_fresh_solve(self):
        from active_ht import FiniteKernel, ObservationModel

        rng = np.random.default_rng(9)
        rows = rng.dirichlet(np.ones(3), size=(2, 2))
        m = ObservationModel(
            kernel=FiniteKernel(rows), prior=[0.3, 0.7], penalty=100.0
        )
        rep = compute_bounds(m, grid_resolution=0.1, polish_evals=120)
        m2 = m.with_penalty(5000.0)
        warm = report_at_penalty(rep, m2)
        cold = compute_bounds(m2, grid_resolution=0.1, polish_evals=120)
        assert_allclose(warm.cost_bounds.sn_upper, cold.cost_bounds.sn_upper, rtol=1e-5)
        assert_allclose(warm.cost_bounds.sa_upper, cold.cost_bounds.sa_upper, rtol=1e-5)
        assert_allclose(warm.cost_bounds.nn_upper, cold.cost_bounds.nn_upper, rtol=1e-5)


class TestMaxHarmonic:
    def test_never_below_maxmin(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            m = random_finite_model(rng)
            _, maxmin_val = maxmin_reliability(m)
            _, harm_val = max_harmonic_reliability(m)
            assert harm_val >= maxmin_val - 1e-9

    def test_two_probe_equal_point_is_optimal(self, two_probe_model):
        # The two per-hypothesis rates sum to a constant along the simplex,
        # so the harmonic mean peaks exactly where they are equal.
        rule, val = max_harmonic_reliability(two_probe_model)
        assert_allclose(rule.weights, [0.5, 0.5], atol=1e-6)
        assert_allclose(val, MAXMIN_TP, rtol=1e-9)

    def test_optima_beat_simplex_grid_and_are_attained(self):
        # max_r_bar, sn_upper and sn_lower on random models with K = 1..4,
        # non-uniform priors, and a penalty small enough that some sn_lower
        # weight is <= 0 (those terms are dropped from the sum).
        rng = np.random.default_rng(41)
        for K in (1, 2, 3, 4):
            for M in (2, 3):
                rows = rng.dirichlet(np.full(3, 0.8), size=(M, K))
                prior = np.array([0.7, 0.3] if M == 2 else [0.6, 0.3, 0.1])
                m = ObservationModel(kernel=FiniteKernel(rows), prior=prior, penalty=2.0)
                rep = compute_bounds(m, grid_resolution=0.25, polish_evals=20)
                assert rep.to_dict() == compute_bounds(m, grid_resolution=0.25, polish_evals=20).to_dict()

                D = kl_matrix(m)
                logL = math.log(m.penalty)
                logp = np.log(prior)
                spread_min = np.array([logp[i] - np.delete(logp, i).max() for i in range(M)])
                spread_max = np.array([logp[i] - np.delete(logp, i).min() for i in range(M)])
                w_lo = prior * (logL - spread_max)
                assert np.any(w_lo <= 0.0)

                def weighted_inverse(coeffs, w):
                    return sum(
                        c / reliability(m, i, RandomizedRule(w), D)
                        for i, c in enumerate(coeffs)
                        if c > 0.0
                    )

                grid = simplex_grid(K, 0.05)
                cb = rep.cost_bounds
                best_harmonic = max(harmonic_reliability(m, RandomizedRule(w), D) for w in grid)
                assert rep.max_r_bar >= best_harmonic * (1.0 - 1e-9)
                assert_allclose(rep.max_r_bar, harmonic_reliability(m, rep.max_r_bar_rule, D), rtol=1e-12)
                for value, rule, coeffs in (
                    (cb.sn_upper, cb.sn_upper_rule, prior * (logL - spread_min)),
                    (cb.sn_lower, cb.sn_lower_rule, w_lo),
                ):
                    best = min(weighted_inverse(coeffs, w) for w in grid)
                    assert value <= best * (1.0 + 1e-9) + 1e-12
                    assert_allclose(value, weighted_inverse(coeffs, rule.weights), rtol=1e-12, atol=1e-15)


class TestCappedDivergences:
    """Models where some KL divergences are infinite and enter the solves at KL_CAP."""

    @staticmethod
    def _check(m, fully_separable):
        rep = compute_bounds(m, grid_resolution=0.1, polish_evals=50)
        assert "kl_capped" in rep.flags
        attained = harmonic_reliability(m, rep.max_r_bar_rule)
        assert rep.max_r_bar == attained
        assert math.isinf(rep.max_r_bar) == fully_separable

    def test_every_pair_separated(self):
        # Actions 0 and 1 both give each hypothesis its own symbol, so every
        # pair has disjoint supports under both and the optimum is a flat face.
        rows = np.zeros((3, 3, 3))
        rows[:, 0, :] = np.eye(3)
        rows[:, 1, :] = np.eye(3)[[1, 2, 0]]
        rows[:, 2, :] = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        m = ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.3, 0.2], penalty=100.0)
        self._check(m, fully_separable=True)

    def test_some_pairs_separated(self):
        # Under action 0 hypothesis 0 alone has disjoint support; the pair
        # (1, 2) keeps finite divergences under both actions.
        rows = np.array([
            [[1.0, 0.0, 0.0], [0.6, 0.3, 0.1]],
            [[0.0, 0.5, 0.5], [0.2, 0.5, 0.3]],
            [[0.0, 0.3, 0.7], [0.3, 0.3, 0.4]],
        ])
        m = ObservationModel(kernel=FiniteKernel(rows), prior=[0.2, 0.3, 0.5], penalty=100.0)
        self._check(m, fully_separable=False)
