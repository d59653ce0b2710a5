"""Rate coefficients: per-hypothesis LPs, max-min/harmonic optimizations,
the fixed-rule discrimination exponent, and the derived cost bounds."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog as highs_linprog

from active_ht import (
    AssumptionError,
    FiniteKernel,
    GaussianKernel,
    ObservationModel,
    RandomizedRule,
    alpha_max,
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
    tilted_exponent,
)
from active_ht import bounds
from active_ht.bounds import KL_CAP, _log_prior_spreads, _pair_exponents, _reliability_lp
from active_ht.model import as_weights
from conftest import make_two_probe_model, random_finite_model, run_python, scalar_golden_max

MAXMIN_TP = 0.6506724213610958
RSTAR_TP = 0.7506835950503012
DHAT_TP = 0.16960418110785774


def _scalar_pair_exponent(m, i, j, rule):
    """max over alpha of sum_a w_a (1 - alpha) D_alpha(q_i^a || q_j^a), from the
    scalar tilted_exponent and the scalar golden recurrence: a reference that
    shares no code with the batched pair search of d_hat and alpha_max."""
    w = as_weights(rule, m.K)
    terms = [(w[a], m.density_of(i, a), m.density_of(j, a)) for a in range(m.K) if w[a] > 0.0]
    return scalar_golden_max(lambda x: sum(wa * tilted_exponent(p, q, x) for wa, p, q in terms))[1]


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

    @pytest.mark.parametrize("i", [-1, 2])
    def test_hypothesis_index_outside_the_model_is_rejected(self, two_probe_model, i):
        # -1 must not wrap around to the last hypothesis, nor 2 escape as IndexError.
        for call in (
            lambda: reliability(two_probe_model, i, [0.5, 0.5]),
            lambda: max_reliability(two_probe_model, i),
            lambda: alpha_max(two_probe_model, i, 0, [0.5, 0.5]),
            lambda: alpha_max(two_probe_model, 0, i, [0.5, 0.5]),
        ):
            with pytest.raises(ValueError, match=f"hypothesis index {i} is outside"):
                call()


def _model_with_zeros(seed):
    """A random finite model with ~30% zero kernel entries, so that some
    divergences are +inf."""
    rng = np.random.default_rng(seed)
    M, K, Z = (int(x) for x in rng.integers((2, 1, 2), (5, 5, 5)))
    rows = rng.dirichlet(np.ones(Z), size=(M, K))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[..., 0] += rows.sum(axis=-1) == 0.0
    rows /= rows.sum(axis=-1, keepdims=True)
    return ObservationModel(kernel=FiniteKernel(rows), prior=rng.dirichlet(np.full(M, 2.0)), penalty=100.0), rng


def _highs_game(rows):
    """(value, dual bound) of max t s.t. rows @ w >= t, w on the simplex, from
    scipy's HiGHS: an independent reference for the tableau solver."""
    n, K = rows.shape
    res = highs_linprog(
        np.concatenate([np.zeros(K), [-1.0]]),
        A_ub=np.hstack([-rows, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.concatenate([np.ones(K), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * K + [(None, None)],
        method="highs",
    )
    assert res.success, res.message
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    return float((rows @ res.x[:K]).min()), float((y / y.sum() @ rows).max())


def _random_game(kind, rng):
    n, K = (int(x) for x in rng.integers(1, 9, size=2))
    if kind == "K=1":
        K = 1
    elif kind == "n=1":
        n = 1
    if kind == "ties":
        return rng.integers(-2, 3, size=(n, K)).astype(float)
    rows = rng.normal(size=(n, K))
    if kind == "duplicated":
        rows = rows[rng.integers(0, n, size=n + 3)][:, rng.integers(0, K, size=K + 2)]
    return rows


class TestGameSolver:
    """``bounds.linprog``, the tableau simplex behind every LP, against HiGHS."""

    @pytest.mark.parametrize("seed, kind", enumerate(["negative", "K=1", "n=1", "duplicated", "ties"]))
    def test_value_and_dual_bound_match_highs(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            rows = _random_game(kind, rng)
            w, y = bounds.linprog(rows)
            for p in (w, y):
                assert np.all(p >= 0.0) and math.isclose(p.sum(), 1.0, rel_tol=1e-15)
            value, upper = _highs_game(rows)
            # Relative to the table's largest entry, since a game's value may be 0.
            atol = 1e-12 * np.abs(rows).max()
            assert_allclose((rows @ w).min(), value, rtol=1e-12, atol=atol)
            assert_allclose((y @ rows).max(), upper, rtol=1e-12, atol=atol)

    def test_degenerate_game_terminates(self):
        # Each row covers two of four columns; 3 of the solve's 5 pivots are
        # degenerate (their ratio test ties at 0), where Bland's rule is what
        # rules out cycling.  A child process turns a cycle into a timeout.
        rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        script = (
            f"import numpy as np; from active_ht.bounds import linprog; rows = np.array({rows}, float); "
            "print(repr(float((rows @ linprog(rows)[0]).min())))"
        )
        proc = run_python("-c", script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert_allclose(float(proc.stdout), 0.5, rtol=1e-12)

    def test_capped_lps_stay_within_highs(self, monkeypatch):
        # Every LP compute_bounds solves on 60 models with ~30% zero kernel
        # entries; those with entries at KL_CAP mix scales 1e6 apart, and may
        # lose at most 1e-8 of HiGHS's value.
        recorded = []

        def recording(rows):
            recorded.append(np.array(rows))
            return solve(rows)

        solve = bounds.linprog
        monkeypatch.setattr(bounds, "linprog", recording)
        for seed in range(60):
            try:
                compute_bounds(_model_with_zeros(seed)[0])
            except AssumptionError:
                pass
        capped = [rows for rows in recorded if rows.max() >= KL_CAP]
        assert len(capped) > 100
        for rows in capped:
            value = (rows @ _reliability_lp(rows)[0]).min()
            assert value >= _highs_game(rows)[0] * (1.0 - 1e-8)


class TestReliabilityTableProperties:
    """The vectorized reliability table against loops over scalars, on models
    where some divergences are infinite."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dominance_spreads_and_harmonic_match_loops(self, seed):
        m, rng = _model_with_zeros(seed)
        D = kl_matrix(m)
        M, K = m.M, m.K

        dominating = [
            s for s in range(K)
            if all(D[i, j, a] <= D[i, j, s] + 1e-9 for i in range(M) for j in range(M) for a in range(K))
        ]
        assert dominance_check(m) == (dominating[0] if dominating else None)

        logp = np.log(m.prior)
        diffs = [[logp[i] - logp[j] for j in range(M) if j != i] for i in range(M)]
        min_ratio, max_ratio = _log_prior_spreads(m.prior)
        assert min_ratio.tolist() == [min(d) for d in diffs]
        assert max_ratio.tolist() == [max(d) for d in diffs]

        w = rng.dirichlet(np.ones(K))
        w[rng.random(K) < 0.3] = 0.0
        w = w / w.sum() if w.sum() > 0.0 else np.eye(K)[0]

        def mixture(i, j):
            terms = [w[a] * D[i, j, a] for a in range(K) if w[a] > 0.0]  # 0 * inf = 0
            return math.inf if math.inf in terms else sum(terms)

        R = [min(mixture(i, j) for j in range(M) if j != i) for i in range(M)]
        assert_allclose([reliability(m, i, w) for i in range(M)], R, rtol=1e-12, atol=0.0)
        if min(R) <= 0.0:
            want = 0.0
        elif all(math.isinf(r) for r in R):
            want = math.inf
        else:
            want = M / sum(1.0 / r for r in R)
        assert_allclose(harmonic_reliability(m, w), want, rtol=1e-12, atol=0.0)


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

    def test_binary_rejects_indistinguishable_pairs(self):
        rows = [[[0.3, 0.7], [0.6, 0.4]], [[0.3, 0.7], [0.6, 0.4]]]
        m = ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.5], penalty=10.0)
        with pytest.raises(AssumptionError, match=r"indistinguishable hypothesis pairs: \(0, 1\)"):
            binary_specialize(m)


class TestChainOrdering:
    def test_sample_of_random_models(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            m = random_finite_model(rng)
            rep = compute_bounds(m)
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

    def test_equal_infinite_values_are_a_zero_gap(self):
        # Disjoint supports: every reliability is infinite, and inf - inf is NaN.
        m = ObservationModel(kernel=FiniteKernel([[[1.0, 0.0]], [[0.0, 1.0]]]), prior=[0.5, 0.5], penalty=10.0)
        rep = compute_bounds(m)
        assert rep.max_r_bar == rep.r_bar_star == math.inf
        assert rep.gains.adaptivity_coefficient == 0.0
        assert rep.gains.zero_adaptivity


class TestSimplexGrid:
    def test_k2_half_resolution(self):
        pts = simplex_grid(2, 0.5)
        assert pts.shape == (3, 2)
        assert_allclose(sorted(pts[:, 0].tolist()), [0.0, 0.5, 1.0])

    def test_rows_are_distributions(self):
        pts = simplex_grid(3, 0.25)
        assert np.all(pts >= 0.0)
        assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    def test_order_is_ascending_lexicographic(self):
        # d_hat's screen ranks its points in this order, so near-ties break by it
        for K in range(1, 6):
            for n in (1, 2, 4, 5):
                compositions = sorted(
                    [combo.count(c) for c in range(K)] for combo in combinations_with_replacement(range(K), n)
                )
                assert np.array_equal(simplex_grid(K, 1.0 / n), np.array(compositions) / n)
        assert np.array_equal(simplex_grid(3, 1.5), np.eye(3)[::-1])  # above 1: the vertices

    @pytest.mark.parametrize(
        "K, resolution, name",
        [(0, 0.1, "K"), (2.0, 0.1, "K"), (3, 0.0, "resolution"), (3, -0.1, "resolution"),
         (3, math.nan, "resolution"), (3, math.inf, "resolution")],
    )
    def test_bad_input_is_named(self, K, resolution, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            simplex_grid(K, resolution)


class TestDHat:
    @staticmethod
    def _worst_pair(m, w):
        """F at w, scored through the scalar reference, not d_hat's pair evaluator."""
        return min(_scalar_pair_exponent(m, i, j, w) for i in range(m.M) for j in range(i + 1, m.M))

    @pytest.mark.parametrize("name", ["two_probe", "disjoint_support", "gaussian_m3"])
    def test_pair_exponents_match_tilted_exponent(self, name, two_probe_model):
        rng = np.random.default_rng(5)
        m = {
            "two_probe": two_probe_model,
            # Hypotheses 0 and 1 have disjoint supports under action 0: E = +inf.
            "disjoint_support": ObservationModel(
                kernel=FiniteKernel([
                    [[1.0, 0.0, 0.0], [0.6, 0.3, 0.1]],
                    [[0.0, 0.5, 0.5], [0.2, 0.5, 0.3]],
                    [[0.0, 0.3, 0.7], [0.3, 0.3, 0.4]],
                ]),
                prior=[0.2, 0.3, 0.5],
                penalty=100.0,
            ),
            "gaussian_m3": ObservationModel(
                kernel=GaussianKernel(means=rng.normal(size=(3, 2)), variances=rng.uniform(0.5, 3.0, size=(3, 2))),
                prior=np.full(3, 1.0 / 3.0),
                penalty=100.0,
            ),
        }[name]
        alphas = np.array([0.0, 0.3, 1.0])
        I, J = np.nonzero(~np.eye(m.M, dtype=bool))  # every ordered pair, i > j included
        pairs = list(zip(I, J))
        exponents = _pair_exponents(m, (I, J))
        # One job per (pair, alpha), every pair in one call.
        got = exponents(np.repeat(np.arange(len(pairs)), alphas.size), np.tile(alphas, len(pairs)))
        got = got.reshape(len(pairs), alphas.size, m.K)
        for p, (i, j) in enumerate(pairs):
            for a in range(m.K):
                for s, alpha in enumerate(alphas):
                    want = tilted_exponent(m.density_of(i, a), m.density_of(j, a), alpha)
                    assert_allclose(got[p, s, a], want, rtol=1e-12, atol=1e-15)
                    # A one-job call gives the same value.
                    assert_allclose(exponents(np.array([p]), np.array([alpha]))[0, a], want, rtol=1e-12, atol=1e-15)
        assert np.isinf(got).any() == (name == "disjoint_support")
        # E' and E'' against central differences of E and E', which extend
        # smoothly past the ends of [0, 1]; separated cells (E = +inf) are skipped.
        jobs, x = np.repeat(np.arange(len(pairs)), alphas.size), np.tile(alphas, len(pairs))
        E, first, second = exponents(jobs, x, derivatives=True)
        assert np.array_equal(E, got.reshape(E.shape))
        h = 1e-6
        up, down = exponents(jobs, x + h, derivatives=True), exponents(jobs, x - h, derivatives=True)
        finite = np.isfinite(E)
        with np.errstate(invalid="ignore"):  # inf - inf on the separated cells
            slope, curvature = (up[0] - down[0]) / (2.0 * h), (up[1] - down[1]) / (2.0 * h)
        assert_allclose(first[finite], slope[finite], rtol=1e-6, atol=1e-8)
        assert_allclose(second[finite], curvature[finite], rtol=1e-6, atol=1e-8)
        assert np.all(second[finite] <= 1e-12)  # E is concave in alpha

    def test_two_probe_optimum_is_a_vertex(self, two_probe_report):
        w = two_probe_report.d_hat_rule.weights
        assert_allclose(sorted(w.tolist()), [0.0, 1.0], atol=1e-9)

    def test_identical_kernels_give_zero(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        opt = d_hat(m)
        assert_allclose(opt.value, 0.0, atol=1e-12)
        assert opt.d_hat_upper == 0.0

    def test_single_action_matches_alpha_max(self, two_probe_model):
        rows = two_probe_model.kernel.probs[:, :1, :]
        m = ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.5], penalty=10.0)
        opt = d_hat(m)
        direct = alpha_max(m, 0, 1, RandomizedRule([1.0]))
        assert_allclose(opt.value, direct.value, rtol=1e-9)
        assert opt.value <= opt.d_hat_upper <= opt.value * (1.0 + 1e-9)

    def test_bracket_holds_on_random_models(self):
        # d_hat_upper bounds d_hat from above; the dense grid optimum, scored
        # by the scalar reference, bounds it from below; and the value is F at the rule.
        rng = np.random.default_rng(77)
        models = []
        for K, M in ((1, 4), (2, 2), (2, 3), (3, 3), (4, 2)):
            rows = rng.dirichlet(np.full(3, 0.8), size=(M, K))
            models.append(ObservationModel(kernel=FiniteKernel(rows), prior=np.full(M, 1.0 / M), penalty=100.0))
        for K, M in ((2, 3), (3, 2)):
            kernel = GaussianKernel(means=rng.normal(size=(M, K)), variances=rng.uniform(0.5, 3.0, size=(M, K)))
            models.append(ObservationModel(kernel=kernel, prior=np.full(M, 1.0 / M), penalty=100.0))
        for m in models:
            opt = d_hat(m)
            assert opt.value <= opt.d_hat_upper
            grid_best = max(self._worst_pair(m, w) for w in simplex_grid(m.K, 0.05))
            assert opt.value >= grid_best * (1.0 - 1e-12)
            assert_allclose(self._worst_pair(m, opt.rule), opt.value, rtol=1e-9)

    @pytest.mark.parametrize(
        "name, value, weights",
        [
            ("two_probe", 0.16960418110785774, [1.0, 0.0]),
            ("garbled", 0.05559116763042172, [1.0, 0.0]),
            ("gaussian_binary", 0.17211672293201677, [1.0, 0.0]),
        ],
    )
    def test_reference_values_do_not_drift(self, name, value, weights, request):
        # Bit-for-bit pins: a change to the alpha search or the pair
        # evaluator that moves these also moves the CLI's bounds artifacts.
        opt = d_hat(request.getfixturevalue(f"{name}_model"))
        assert opt.value == value
        assert opt.rule.weights.tolist() == weights
        assert opt.d_hat_upper == value

    @pytest.mark.parametrize("name", ["two_probe", "garbled", "gaussian_binary"])
    def test_reference_models_are_certified(self, name, request):
        opt = d_hat(request.getfixturevalue(f"{name}_model"))
        assert opt.value <= opt.d_hat_upper <= opt.value * (1.0 + 1e-9)

    def test_ascent_climbs_past_the_screen(self):
        # A random M = 3, K = 4 model whose optimum is off every grid point;
        # a 0.02 grid sweep with a local simplex polish reaches only 0.1228833527.
        rows = [
            [[0.03335349724719007, 0.44530333541887285, 0.2613034648642968, 0.26003970246964025],
             [0.15697571203953983, 0.31806594369172597, 0.29447284219376957, 0.23048550207496454],
             [0.09271039968115136, 0.4219964812942832, 0.17822722016784434, 0.30706589885672103],
             [0.27539790051934654, 0.439251070633492, 0.2180458880238415, 0.0673051408233198]],
            [[0.06605876866090689, 0.47376788792416635, 0.34808334023275395, 0.1120900031821728],
             [0.3891225515479535, 0.517721192310572, 0.00881350796240824, 0.08434274817906627],
             [0.03896894622014867, 0.14801751891112505, 0.6402904557077906, 0.17272307916093568],
             [0.0667879022407235, 0.23018954171043218, 0.37187392811905534, 0.3311486279297889]],
            [[0.5155559034367003, 0.21269605260247373, 0.07170502311451316, 0.20004302084631273],
             [0.09245640284830633, 0.5394608675339457, 0.17969185718760936, 0.18839087243013872],
             [0.16140172590856872, 0.2170861150680544, 0.3064185518092161, 0.3150936072141607],
             [0.23179554589504234, 0.21300427052244364, 0.06435398477229416, 0.49084619881021996]],
        ]
        m = ObservationModel(
            kernel=FiniteKernel(rows),
            prior=[0.25050080097456684, 0.33445257792288763, 0.4150466211025456],
            penalty=9066.250090161933,
        )
        opt = d_hat(m)
        assert opt.value >= 0.1228899
        assert opt.value <= opt.d_hat_upper


class TestReliabilityPins:
    # Bit-for-bit pins of everything read from the reliability table; a change
    # that moves one of them also moves the CLI's bounds artifacts.
    PINS = {
        "two_probe": dict(
            reliabilities=[([0.0, 1.0], 0.7506835950503012), ([1.0, 0.0], 0.7506835950503012)],
            maxmin_r=0.6506724213610958, minmax_r=0.7506835950503012,
            r_bar_star=0.7506835950503012, max_r_bar=0.6506724213610958,
            sn=(10.616333276477725, 10.616333276477725), sa=(9.2019531591326, 9.2019531591326),
            nn=(40.7286850705009, 40.7286850705009, 21.23266655295545),
            dominance=None, binary_r_bar_star=0.7506835950503012,
        ),
        "garbled": dict(
            reliabilities=[([1.0, 0.0], 0.9704758097650875), ([1.0, 0.0], 0.188848996990402),
                           ([1.0, 0.0], 0.25353856342155195)],
            maxmin_r=0.188848996990402, minmax_r=0.188848996990402,
            r_bar_star=0.2921177425631009, max_r_bar=0.2921177425631009,
            sn=(15.764773976347296, 15.764773976347296), sa=(15.764773976347296, 15.764773976347296),
            nn=(82.83996149539334, 82.83996149539334, 48.770925547697175),
            dominance=0, binary_r_bar_star=None,
        ),
        "gaussian_binary": dict(
            reliabilities=[([0.0, 1.0], 1.3068528194400546), ([1.0, 0.0], 1.3068528194400546)],
            maxmin_r=0.8749999999999999, minmax_r=1.3068528194400546,
            r_bar_star=1.3068528194400546, max_r_bar=0.8749999999999999,
            sn=(7.8945774616938715, 7.8945774616938715), sa=(5.285794372729664, 5.285794372729664),
            nn=(40.13413200825689, 40.13413200825689, 15.789154923387743),
            dominance=None, binary_r_bar_star=1.3068528194400546,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_reference_values_do_not_drift(self, name, request):
        pin = self.PINS[name]
        m = request.getfixturevalue(f"{name}_model")
        rep = compute_bounds(m)
        cb = rep.cost_bounds
        assert [(rule.weights.tolist(), value) for rule, value in rep.reliabilities] == pin["reliabilities"]
        assert (rep.maxmin_r, rep.minmax_r) == (pin["maxmin_r"], pin["minmax_r"])
        assert (rep.r_bar_star, rep.max_r_bar) == (pin["r_bar_star"], pin["max_r_bar"])
        assert (cb.sn_upper, cb.sn_lower) == pin["sn"]
        assert (cb.sa_upper, cb.sa_lower) == pin["sa"]
        assert (cb.nn_upper, cb.nn_lower, cb.nn_lower_factor2) == pin["nn"]
        assert dominance_check(m) == pin["dominance"]
        if m.M == 2:
            assert binary_specialize(m).r_bar_star == pin["binary_r_bar_star"]


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
        rep = compute_bounds(m)
        m2 = m.with_penalty(5000.0)
        warm = report_at_penalty(rep, m2)
        cold = compute_bounds(m2)
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
                rep = compute_bounds(m)
                assert rep.to_dict() == compute_bounds(m).to_dict()

                logL = math.log(m.penalty)
                logp = np.log(prior)
                spread_min = np.array([logp[i] - np.delete(logp, i).max() for i in range(M)])
                spread_max = np.array([logp[i] - np.delete(logp, i).min() for i in range(M)])
                w_lo = prior * (logL - spread_max)
                assert np.any(w_lo <= 0.0)

                def weighted_inverse(coeffs, w):
                    return sum(
                        c / reliability(m, i, RandomizedRule(w))
                        for i, c in enumerate(coeffs)
                        if c > 0.0
                    )

                grid = simplex_grid(K, 0.05)
                cb = rep.cost_bounds
                best_harmonic = max(harmonic_reliability(m, RandomizedRule(w)) for w in grid)
                assert rep.max_r_bar >= best_harmonic * (1.0 - 1e-9)
                assert_allclose(rep.max_r_bar, harmonic_reliability(m, rep.max_r_bar_rule), rtol=1e-12)
                for value, rule, coeffs in (
                    (cb.sn_upper, cb.sn_upper_rule, prior * (logL - spread_min)),
                    (cb.sn_lower, cb.sn_lower_rule, w_lo),
                ):
                    best = min(weighted_inverse(coeffs, w) for w in grid)
                    assert value <= best * (1.0 + 1e-9) + 1e-12
                    assert_allclose(value, weighted_inverse(coeffs, rule.weights), rtol=1e-12, atol=1e-15)

    def test_two_hypotheses_solve_the_sn_program_once(self, monkeypatch):
        # With M = 2 each hypothesis has one rival, so the sn_upper and
        # sn_lower weights coincide whatever the prior.
        calls = []
        solve = bounds._minimize_weighted_inverse
        monkeypatch.setattr(bounds, "_minimize_weighted_inverse", lambda *a: calls.append(a) or solve(*a))
        rows = np.random.default_rng(9).dirichlet(np.ones(3), size=(2, 2))
        m = ObservationModel(kernel=FiniteKernel(rows), prior=[0.3, 0.7], penalty=100.0)
        cb = compute_bounds(m).cost_bounds
        assert len(calls) == 2  # max_harmonic_reliability, then sn
        assert cb.sn_lower == cb.sn_upper
        assert np.array_equal(cb.sn_lower_rule.weights, cb.sn_upper_rule.weights)


class TestBarrierSolvePins:
    # Bit-for-bit pins, as float.hex, of every weighted-inverse barrier solve
    # of compute_bounds: (value, rule) for max_r_bar, sn_upper and sn_lower.
    # The random_finite_model seeds span K = 1..4 and M = 2..4 with
    # non-uniform priors, so sn_lower is its own solve for M >= 3.
    PINS = {
        "random_0": (  # M = 4, K = 3
            ("0x1.06bbdedd6ac55p+0", ["0x1.37e6fc497a1b5p-2", "0x1.7df1d5b8e2b9ap-2", "0x1.4a272dfda32b3p-2"]),
            ("0x1.e847100531adcp+2", ["0x1.698c873dc6374p-2", "0x1.d530a6c38f07bp-2", "0x1.8285a3fd5581fp-3"]),
            ("0x1.9cc2a9ff9519cp+2", ["0x1.636b5496ee014p-2", "0x1.ca6b0ef4379bap-2", "0x1.a45338e9b4c63p-3"]),
        ),
        "random_1": (  # M = 3, K = 3
            ("0x1.118c86c918123p+0", ["0x1.9d69c0a937bb0p-1", "0x0.0p+0", "0x1.8a58fd5b2113fp-3"]),
            ("0x1.a227b362b499ep+2", ["0x1.f23165bc16961p-2", "0x0.0p+0", "0x1.06e74d21f4b50p-1"]),
            ("0x1.766871247bcdcp+2", ["0x1.de236138eb235p-2", "0x0.0p+0", "0x1.10ee4f638a6e6p-1"]),
        ),
        "random_3": (  # M = 4, K = 1
            ("0x1.58fe5ffe8b910p-8", ["0x1.0000000000000p+0"]),
            ("0x1.6f7ada9a1128cp+10", ["0x1.0000000000000p+0"]),
            ("0x1.3aae19f166db6p+10", ["0x1.0000000000000p+0"]),
        ),
        "random_4": (  # M = 4, K = 4
            ("0x1.12dcb2d3dde66p-2", ["0x1.db9000cc2b6f2p-2", "0x1.b362498a5627bp-3", "0x1.4abeda6ea97d1p-2", "0x0.0p+0"]),
            ("0x1.083a0b58ab820p+5", ["0x1.dc2dbca34a50ap-2", "0x1.b128567ae4730p-3", "0x1.4b3e181f4375ep-2", "0x0.0p+0"]),
            ("0x1.e18fc68c58954p+4", ["0x1.de9eb58ed1335p-2", "0x1.b15f62c51b980p-3", "0x1.48b1990ea100cp-2", "0x0.0p+0"]),
        ),
        "random_9": (  # M = 3, K = 4
            ("0x1.5ec196b5257c7p-1", ["0x1.1765744cb15ddp-2", "0x0.0p+0", "0x0.0p+0", "0x1.744d45d9a7512p-1"]),
            ("0x1.a6191ec46ca29p+3", ["0x1.0faa88a537ff2p-2", "0x0.0p+0", "0x0.0p+0", "0x1.782abbad64007p-1"]),
            ("0x1.9dc7aaa1d83e4p+3", ["0x1.0faa88a5930d6p-2", "0x0.0p+0", "0x0.0p+0", "0x1.782abbad36795p-1"]),
        ),
        "random_11": (  # M = 2, K = 1
            ("0x1.24c12f4098cdbp-1", ["0x1.0000000000000p+0"]),
            ("0x1.f801a8b5c817ap+3", ["0x1.0000000000000p+0"]),
            ("0x1.f801a8b5c817ap+3", ["0x1.0000000000000p+0"]),
        ),
        "random_12": (  # M = 3, K = 2
            ("0x1.c70e9d3f18796p-2", ["0x1.179b919a1bc98p-1", "0x1.d0c8dccbc86d1p-2"]),
            ("0x1.3ebc3792a733cp+4", ["0x1.179b919a17fb4p-1", "0x1.d0c8dccbd0098p-2"]),
            ("0x1.f609a1d42bff1p+3", ["0x1.179b919a17f7fp-1", "0x1.d0c8dccbd0103p-2"]),
        ),
        "random_14": (  # M = 2, K = 4
            ("0x1.5060b24727ea1p-1", ["0x0.0p+0", "0x1.fffffffffc892p-1", "0x1.bb7018bcf809ap-40", "0x0.0p+0"]),
            ("0x1.b2e85634e14f4p+3", ["0x0.0p+0", "0x1.fffffffffc846p-1", "0x1.bdcecab5af0ccp-40", "0x0.0p+0"]),
            ("0x1.b2e85634e14f4p+3", ["0x0.0p+0", "0x1.fffffffffc846p-1", "0x1.bdcecab5af0ccp-40", "0x0.0p+0"]),
        ),
        "flat_face": (  # M = 3, K = 3
            ("inf", ["0x1.ffffbb379d27fp-2", "0x1.00002264316c0p-1", "0x0.0p+0"]),
            ("0x0.0p+0", ["0x1.ffffc9f3b5b6dp-2", "0x1.00001b062524ap-1", "0x0.0p+0"]),
            ("0x0.0p+0", ["0x1.fff30e142622dp-2", "0x1.000678f5eceeap-1", "0x0.0p+0"]),
        ),
        "zero_entry": (  # M = 3, K = 2
            ("0x1.07339d21bc961p-3", ["0x1.f13511cacce49p-10", "0x1.ff0765771a999p-1"]),
            ("0x1.4fba795db14d4p+5", ["0x1.8060ecbd1c6f1p-10", "0x1.ff3fcf89a171dp-1"]),
            ("0x1.234f84bc8d96bp+5", ["0x1.876f9dc1cb629p-10", "0x1.ff3c48311f1a5p-1"]),
        ),
    }

    @staticmethod
    def _model(name):
        if name.startswith("random_"):
            return random_finite_model(np.random.default_rng(int(name.split("_")[1])))
        return {"flat_face": _flat_face_model, "zero_entry": _zero_entry_model}[name]()

    @pytest.mark.parametrize("name", list(PINS))
    def test_solves_do_not_drift(self, name):
        rep = compute_bounds(self._model(name))
        cb = rep.cost_bounds
        solves = [(rep.max_r_bar, rep.max_r_bar_rule), (cb.sn_upper, cb.sn_upper_rule),
                  (cb.sn_lower, cb.sn_lower_rule)]
        got = tuple((float(v).hex(), [float(x).hex() for x in rule.weights]) for v, rule in solves)
        assert got == self.PINS[name]

    def test_searches_take_few_iterations(self, monkeypatch):
        # Over these models the alpha search reads 6.8 evaluator calls per
        # _pair_optima call (49.0 for a golden-section search to a 1e-9
        # bracket), and a barrier solve takes 39.0 Newton steps, one
        # least-squares solve each (51.8 when each stage starts at the last center).
        counts = dict(optima=0, evaluations=0, solves=0, steps=0)

        def counted(key, f):
            def call(*args, **kwargs):
                counts[key] += 1
                return f(*args, **kwargs)
            return call

        optima, barrier = bounds._pair_optima, bounds._barrier_rule
        monkeypatch.setattr(
            bounds, "_pair_optima",
            counted("optima", lambda exponents, *a: optima(counted("evaluations", exponents), *a)),
        )
        monkeypatch.setattr(bounds, "_barrier_rule", counted("solves", barrier))
        monkeypatch.setattr(np.linalg, "lstsq", counted("steps", np.linalg.lstsq))
        for name in self.PINS:
            compute_bounds(self._model(name))
        assert counts["optima"] == 25 and counts["solves"] == 23
        assert counts["evaluations"] <= 10 * counts["optima"]
        assert counts["steps"] <= 42 * counts["solves"]


def _halving_step(ds, s):
    """The line search's own sequence: halve from 1 until every 1 + step * ds / s > 0."""
    step = 1.0
    while step > 1e-12 and not np.all(step * ds / s > -1.0):
        step *= 0.5
    return step


class TestFirstFeasibleStep:
    @given(st.lists(st.tuples(st.floats(1e-150, 1e150), st.floats(-1e150, 1e150)), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_is_the_first_feasible_halving_step(self, pairs):
        s, ds = np.array(pairs).T
        assert bounds._first_feasible_step(ds, s) == _halving_step(ds, s)

    @pytest.mark.parametrize("k", [0, 1, 2, 38, 39, 40, 41, 60, 600])
    def test_power_of_two_ratios(self, k):
        # -ds / s = 2**k exactly: 2**-k lands on -1, which fails, so the step is
        # 2**-(k + 1), until the search's floor 2**-40; k > 40 is past that floor.
        s = np.array([3.0, 0.5, 7.0])
        ds = np.array([-3.0 * 2.0**k, 1.0, -7.0])
        step = bounds._first_feasible_step(ds, s)
        assert step == _halving_step(ds, s) == 2.0 ** -min(k + 1, 40)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_non_finite_ratio_skips_nothing(self, bad):
        assert bounds._first_feasible_step(np.array([bad, -8.0]), np.array([1.0, 1.0])) == 1.0


def _flat_face_model():
    # Actions 0 and 1 both give each hypothesis its own symbol, so every
    # pair has disjoint supports under both and the optimum is a flat face.
    rows = np.zeros((3, 3, 3))
    rows[:, 0, :] = np.eye(3)
    rows[:, 1, :] = np.eye(3)[[1, 2, 0]]
    rows[:, 2, :] = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
    return ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.3, 0.2], penalty=100.0)


def _zero_entry_model():
    # Under action 0 hypothesis 0 alone has disjoint support; the pair
    # (1, 2) keeps finite divergences under both actions.
    rows = np.array([
        [[1.0, 0.0, 0.0], [0.6, 0.3, 0.1]],
        [[0.0, 0.5, 0.5], [0.2, 0.5, 0.3]],
        [[0.0, 0.3, 0.7], [0.3, 0.3, 0.4]],
    ])
    return ObservationModel(kernel=FiniteKernel(rows), prior=[0.2, 0.3, 0.5], penalty=100.0)


class TestCappedDivergences:
    """Models where some KL divergences are infinite and enter the solves at KL_CAP."""

    @staticmethod
    def _check(m, fully_separable):
        rep = compute_bounds(m)
        assert "kl_capped" in rep.flags
        attained = harmonic_reliability(m, rep.max_r_bar_rule)
        assert rep.max_r_bar == attained
        assert math.isinf(rep.max_r_bar) == fully_separable
        assert math.isinf(rep.d_hat) == fully_separable
        return rep

    def test_every_pair_separated(self):
        rep = self._check(_flat_face_model(), fully_separable=True)
        # No pair is left whose Chernoff informations are all finite.
        assert math.isinf(rep.d_hat_upper)

    def test_fully_separable_model_has_zero_sn_bounds(self):
        # One action gives the two hypotheses disjoint supports: every R(i, w)
        # is infinite, so the sn bounds sum nothing but 0 terms, as sa does.
        m = ObservationModel(kernel=FiniteKernel([[[1, 0]], [[0, 1]]]), prior=[0.5, 0.5], penalty=10.0)
        rep = self._check(m, fully_separable=True)
        assert rep.cost_bounds.sn_upper == rep.cost_bounds.sn_lower == 0.0
        assert rep.cost_bounds.sa_upper == 0.0

    def test_some_pairs_separated(self):
        m = _zero_entry_model()
        rep = self._check(m, fully_separable=False)
        # The certificate LP runs over the pair (1, 2) alone and still bounds F.
        assert math.isfinite(rep.d_hat_upper)
        assert rep.d_hat <= rep.d_hat_upper
        chernoff_12 = max(_scalar_pair_exponent(m, 1, 2, e) for e in np.eye(2))
        assert_allclose(rep.d_hat_upper, chernoff_12, rtol=1e-9)
