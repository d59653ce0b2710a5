"""Exhaustive evaluation: forward enumeration, the independent backward
recursion, and exact pairwise misordering rates."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from active_ht import (
    BudgetError,
    FiniteKernel,
    HorizonError,
    ObservationModel,
    OracleBudget,
    Policy,
    RandomizedRule,
    TwoPhasePolicy,
    alpha_max,
    backward_eval,
    exact_eval,
    exact_pairwise,
    fixed_lambda_policy,
    run_trials,
)
from active_ht.bounds import _count_matrices, _count_ranks
from conftest import random_finite_model

HALF_RULE = RandomizedRule([0.5, 0.5])


def _sym_single_action():
    return ObservationModel(
        kernel=FiniteKernel([[[0.9, 0.1]], [[0.1, 0.9]]]),
        prior=[0.5, 0.5],
        penalty=10.0,
    )


class TestExactEval:
    def test_two_probe_fixed_horizon(self, two_probe_model):
        pol = fixed_lambda_policy([0.5, 0.5], n=6)
        ev = exact_eval(two_probe_model, pol, OracleBudget(horizon=16))
        assert_allclose(ev.pe, 0.077180078125, rtol=1e-12)
        assert_allclose(ev.expected_tau, 6.0, rtol=1e-12)
        assert_allclose(ev.cost, ev.expected_tau + 1000.0 * ev.pe, rtol=1e-12)
        # merged count-vector states over 4 cells: sum of C(d + 3, 3), d = 0..6
        assert ev.nodes == 210
        assert ev.truncated_mass == 0.0
        assert max(ev.mass_residuals()) <= 1e-12

    def test_no_data_declares_from_prior(self, two_probe_model):
        ev = exact_eval(two_probe_model, fixed_lambda_policy([1.0, 0.0], n=0), OracleBudget())
        assert ev.pe == 0.5
        assert ev.expected_tau == 0.0
        assert ev.nodes == 1

    def test_perfectly_separating_observation(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[1.0, 0.0]], [[0.0, 1.0]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        ev = exact_eval(m, fixed_lambda_policy([1.0], n=1), OracleBudget())
        assert ev.pe == 0.0
        assert ev.expected_tau == 1.0

    def test_threshold_policy_with_truncation_matches_monte_carlo(self):
        # A 0.95 threshold needs two net steps of evidence, so the paths that
        # keep alternating symbols survive to the safety horizon and leave a
        # small but strictly positive truncated mass.
        m = _sym_single_action()
        pol = fixed_lambda_policy([1.0], threshold=0.95, safety_horizon=24)
        ev = exact_eval(m, pol, OracleBudget(horizon=32))
        assert 0.0 < ev.truncated_mass < 1e-6
        assert ev.pe <= 0.05 + ev.truncated_mass
        assert max(ev.mass_residuals()) <= 1e-12
        summary, _ = run_trials(m, pol, 100_000, 303)
        se = max(summary.se_pe, 1e-6)
        assert abs(summary.pe - ev.pe) <= 4.0 * se
        assert abs(summary.mean_tau - ev.expected_tau) <= 4.0 * summary.se_tau

    def test_node_budget_enforced(self, two_probe_model):
        with pytest.raises(BudgetError):
            exact_eval(
                two_probe_model,
                fixed_lambda_policy([0.5, 0.5], n=6),
                OracleBudget(horizon=16, nodes=100),
            )

    def test_horizon_guard(self, two_probe_model):
        with pytest.raises(HorizonError):
            exact_eval(
                two_probe_model,
                fixed_lambda_policy([0.5, 0.5], n=40),
                OracleBudget(horizon=16),
            )

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            OracleBudget(horizon=0)
        # every ``nodes > budget`` test is False under NaN, which would turn the cap off
        for nodes in (0, math.nan, 2.5):
            with pytest.raises(ValueError, match=f"nodes must be a positive integer, got {nodes}"):
                OracleBudget(nodes=nodes)
        assert OracleBudget(nodes=np.int64(10)).nodes == 10

    def test_fractional_horizons_are_rejected(self, two_probe_model):
        # a horizon is a whole number of steps; a float is a usage error,
        # not a failure deep inside the enumeration
        policy = fixed_lambda_policy([0.5, 0.5], n=3)
        calls = [
            (lambda: exact_eval(two_probe_model, policy, OracleBudget(horizon=3.5)), "positive integer, got 3.5"),
            (lambda: backward_eval(two_probe_model, [0.5, 0.5], 2.5), "nonnegative integer, got 2.5"),
            (lambda: exact_pairwise(two_probe_model, [0.5, 0.5], 2.5), "positive integer, got 2.5"),
        ]
        for call, message in calls:
            with pytest.raises(ValueError, match=f"horizon must be a {message}"):
                call()

    def test_numpy_integer_horizons_run(self, two_probe_model):
        policy = fixed_lambda_policy([0.5, 0.5], n=3)
        assert exact_eval(two_probe_model, policy, OracleBudget(horizon=np.int64(4))) == exact_eval(
            two_probe_model, policy, OracleBudget(horizon=4)
        )
        assert backward_eval(two_probe_model, [0.5, 0.5], np.int64(3)) == backward_eval(two_probe_model, [0.5, 0.5], 3)
        by_numpy = exact_pairwise(two_probe_model, [0.5, 0.5], np.int64(3))
        assert_allclose(by_numpy.rates, exact_pairwise(two_probe_model, [0.5, 0.5], 3).rates, rtol=0, atol=0)


def _raw_paths(model, policy, horizon):
    """(E[tau], pe, truncated mass) by walking every raw (action, symbol) path."""
    q = model.kernel.probs
    M, K, Z = q.shape
    totals = [0.0, 0.0, 0.0]

    def walk(v, d):
        s = v.sum()
        # the stop is tested here, not through policies.stops, so that this
        # stays a reference independent of exact_eval and the simulator
        reached = policy.threshold is not None and (v / s).max() >= policy.threshold
        if reached or (policy.horizon is not None and d >= policy.horizon):
            totals[0] += d * s
            totals[1] += s - v.max()
            totals[2] += s if policy.threshold is not None and not reached else 0.0
            return
        assert d < horizon
        w = policy.batch_weights((v / s)[None], d)[0]
        for a in range(K):
            for z in range(Z):
                child = w[a] * v * q[:, a, z]
                if child.sum() > 0.0:
                    walk(child, d + 1)

    walk(np.asarray(model.prior, dtype=float), 0)
    return totals


class _PosteriorMatching(Policy):
    """Plays each probe with its hypothesis' posterior mass."""

    threshold, horizon = 0.9, 6

    def batch_weights(self, probs, step_count):
        return probs.copy()


SEQUENTIAL_POLICIES = {
    "threshold": fixed_lambda_policy([0.3, 0.7], threshold=0.95, safety_horizon=7),
    "two_phase": TwoPhasePolicy(
        explore_weights=[0.5, 0.5],
        exploit_weights=[[0.9, 0.1], [0.1, 0.9]],
        phase_threshold=0.7,
        threshold=0.97,
        horizon=7,
    ),
    "user_subclass": _PosteriorMatching(),
}


class TestSequentialPolicies:
    @pytest.mark.parametrize("name", sorted(SEQUENTIAL_POLICIES))
    def test_merged_states_equal_raw_paths(self, two_probe_model, name):
        pol = SEQUENTIAL_POLICIES[name]
        ev = exact_eval(two_probe_model, pol, OracleBudget(horizon=8))
        tau, pe, trunc = _raw_paths(two_probe_model, pol, 8)
        assert_allclose(ev.expected_tau, tau, rtol=1e-12)
        assert_allclose(ev.pe, pe, rtol=1e-12)
        assert_allclose(ev.truncated_mass, trunc, rtol=1e-12)
        assert ev.truncated_mass > 0.0
        assert max(ev.mass_residuals()) <= 1e-12

    @pytest.mark.parametrize(
        "pol",
        [
            fixed_lambda_policy([0.5, 0.5], threshold=0.999, safety_horizon=60),
            TwoPhasePolicy(
                explore_weights=[0.5, 0.5],
                exploit_weights=[[0.9, 0.1], [0.1, 0.9]],
                phase_threshold=0.8,
                threshold=0.999,
                horizon=60,
            ),
        ],
        ids=["threshold", "two_phase"],
    )
    def test_long_safety_horizon_matches_monte_carlo(self, two_probe_model, pol):
        # Raw paths at depth 60 number 4**60; merged count vectors stay ~1e5.
        ev = exact_eval(two_probe_model, pol, OracleBudget(horizon=64))
        assert ev.nodes < 200_000
        assert len(ev.entering_mass) == 61
        assert max(ev.mass_residuals()) <= 1e-12
        summary, _ = run_trials(two_probe_model, pol, 20_000, 2026)
        assert abs(summary.pe - ev.pe) <= 4.0 * summary.se_pe
        assert abs(summary.mean_tau - ev.expected_tau) <= 4.0 * summary.se_tau

    def test_a_horizon_only_two_phase_policy_matches_monte_carlo(self, two_probe_model):
        # sa's action rule stopped at a fixed horizon alone, the shape of an na
        # policy: every path runs to the horizon and none is truncated
        pol = TwoPhasePolicy(
            explore_weights=[0.5, 0.5],
            exploit_weights=[[0.0, 1.0], [1.0, 0.0]],
            phase_threshold=0.5,
            horizon=8,
        )
        ev = exact_eval(two_probe_model, pol, OracleBudget(horizon=8))
        assert ev.stopped_mass[:8] == (0.0,) * 8 and ev.truncated_mass == 0.0
        assert_allclose(ev.expected_tau, 8.0, rtol=1e-12)
        assert max(ev.mass_residuals()) <= 1e-12
        summary, _ = run_trials(two_probe_model, pol, 20_000, 2027)
        assert (summary.mean_tau, summary.se_tau, summary.n_truncated) == (8.0, 0.0, 0)
        assert abs(summary.pe - ev.pe) <= 4.0 * summary.se_pe

    @pytest.mark.parametrize("seed", [2028, 2029])
    @pytest.mark.parametrize("name", sorted(SEQUENTIAL_POLICIES))
    def test_monte_carlo_truncates_the_exact_mass(self, two_probe_model, name, seed):
        # the engine and exact_eval apply one stop rule, so they cut the same mass
        pol = SEQUENTIAL_POLICIES[name]
        exact = exact_eval(two_probe_model, pol, OracleBudget(horizon=8)).truncated_mass
        summary, _ = run_trials(two_probe_model, pol, 20_000, seed)
        share = summary.n_truncated / summary.n_trials
        assert abs(share - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / summary.n_trials)

    def test_guards_apply_to_sequential_policies(self, two_probe_model):
        pol = SEQUENTIAL_POLICIES["two_phase"]
        with pytest.raises(HorizonError):
            exact_eval(two_probe_model, pol, OracleBudget(horizon=6))
        with pytest.raises(BudgetError):
            exact_eval(two_probe_model, pol, OracleBudget(horizon=8, nodes=20))


@st.composite
def _finite_models(draw):
    """A small random model with zero kernel entries and a rule with zero weights."""
    M, K, Z = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.dirichlet(np.ones(Z), size=(M, K))
    q[rng.random((M, K, Z)) < draw(st.sampled_from([0.0, 0.25, 0.5]))] = 0.0
    q[..., 0] += q.sum(axis=2) == 0.0  # keep every row a distribution
    q /= q.sum(axis=2, keepdims=True)
    w = rng.dirichlet(np.ones(K))
    if K > 1 and draw(st.booleans()):
        w[rng.integers(K)] = 0.0
        w /= w.sum()
    model = ObservationModel(kernel=FiniteKernel(q), prior=rng.dirichlet(np.full(M, 2.0)), penalty=50.0)
    return model, w, draw(st.integers(0, 5))


class TestMergedStatesOnRandomModels:
    @given(_finite_models())
    @settings(max_examples=40, deadline=None)
    def test_merged_states_equal_raw_paths(self, case):
        # zero kernel entries leave cells empty, so states merge over the occupied cells only
        model, w, n = case
        horizon = min(n, 3)  # up to 12**3 raw paths
        for pol in (
            fixed_lambda_policy(w, threshold=0.9, safety_horizon=horizon),
            TwoPhasePolicy(
                explore_weights=w,
                exploit_weights=np.eye(model.K)[np.arange(model.M) % model.K],
                phase_threshold=0.6,
                threshold=0.9,
                horizon=horizon,
            ),
        ):
            ev = exact_eval(model, pol, OracleBudget(horizon=max(horizon, 1)))
            tau, pe, trunc = _raw_paths(model, pol, horizon)
            assert_allclose([ev.expected_tau, ev.pe, ev.truncated_mass], [tau, pe, trunc], rtol=1e-12, atol=1e-12)


class TestBackwardAgreement:
    @given(_finite_models())
    @settings(max_examples=60, deadline=None)
    def test_forward_pass_equals_backward_recursion(self, case):
        model, w, n = case
        fwd = exact_eval(model, fixed_lambda_policy(w, n=n), OracleBudget(horizon=8))
        bk = backward_eval(model, RandomizedRule(w), n, OracleBudget(horizon=8))
        assert_allclose(fwd.pe, bk.pe, rtol=1e-12)
        assert_allclose(fwd.expected_tau, n, rtol=1e-12)
        assert fwd.nodes <= bk.nodes
        assert max(fwd.mass_residuals()) <= 1e-12


    def test_two_probe_agreement(self, two_probe_model):
        bk = backward_eval(two_probe_model, HALF_RULE, 6, OracleBudget(horizon=16))
        assert_allclose(bk.pe, 0.077180078125, rtol=1e-10)
        assert bk.expected_tau == 6.0
        # Count-matrix states over depths 0..6 with 4 cells.
        assert bk.nodes == sum(math.comb(d + 3, 3) for d in range(7))

    @pytest.mark.parametrize("n", [0, 3])
    def test_mass_diagnostics_describe_a_fixed_horizon(self, two_probe_model, n):
        # all mass enters every depth and stops at the horizon
        bk = backward_eval(two_probe_model, HALF_RULE, n)
        assert len(bk.entering_mass) == len(bk.stopped_mass) == n + 1
        assert bk.stopped_mass[-1] == 1.0
        assert np.all(bk.mass_residuals() == 0.0)

    def test_agreement_on_random_rules(self, two_probe_model):
        rng = np.random.default_rng(404)
        for _ in range(5):
            w = rng.dirichlet(np.ones(2))
            pol = fixed_lambda_policy(w, n=5)
            fwd = exact_eval(two_probe_model, pol, OracleBudget(horizon=16))
            bk = backward_eval(two_probe_model, RandomizedRule(w), 5, OracleBudget(horizon=16))
            assert_allclose(bk.pe, fwd.pe, rtol=1e-10)
            assert_allclose(bk.expected_tau, fwd.expected_tau, rtol=1e-12)

    def test_garbled_model_agreement(self, garbled_model):
        rule = RandomizedRule([0.7, 0.3])
        fwd = exact_eval(garbled_model, fixed_lambda_policy([0.7, 0.3], n=4), OracleBudget())
        bk = backward_eval(garbled_model, rule, 4, OracleBudget())
        assert_allclose(bk.pe, fwd.pe, rtol=1e-10)

    @pytest.mark.parametrize("n", [498, 1200])
    def test_deep_horizon_agreement(self, two_probe_model, n):
        # one depth per loop pass: no Python recursion limit, and posteriors
        # from log masses, so the ~1e-39 .. 1e-90 error masses do not underflow
        budget = OracleBudget(horizon=n)
        fwd = exact_eval(two_probe_model, fixed_lambda_policy([1.0, 0.0], n=n), budget)
        bk = backward_eval(two_probe_model, RandomizedRule([1.0, 0.0]), n, budget)
        assert type(bk.pe) is float
        assert 0.0 < bk.pe < 1e-30
        assert_allclose(bk.pe, fwd.pe, rtol=1e-12)
        # one action with two symbols: d + 1 count vectors at depth d
        assert bk.nodes == (n + 1) * (n + 2) // 2


class TestExactPairwise:
    def test_count_matrices_follow_itertools_order(self):
        for cells, n in ((1, 4), (2, 5), (4, 3), (5, 6)):
            expected = [
                [combo.count(c) for c in range(cells)]
                for combo in combinations_with_replacement(range(cells), n)
            ]
            ranks = np.arange(math.comb(n + cells - 1, cells - 1))
            assert _count_matrices(cells, n, ranks).tolist() == expected
            assert _count_matrices(cells, n, ranks[1::3]).tolist() == expected[1::3]

    def test_count_ranks_invert_count_matrices(self):
        for cells in (1, 2, 4, 5):
            for n in (0, 1, 3, 7, 12):
                ranks = np.arange(math.comb(n + cells - 1, cells - 1))
                assert _count_ranks(_count_matrices(cells, n, ranks)).tolist() == ranks.tolist()
                assert _count_ranks(_count_matrices(cells, n, ranks[::-2])).tolist() == ranks[::-2].tolist()

    def test_ranks_refuse_to_wrap(self):
        # 12 cells: 254 draws is the deepest lattice whose ranks fit int64
        deepest = np.zeros((1, 12), dtype=np.int64)
        deepest[0, -1] = 254
        assert _count_ranks(deepest).tolist() == [math.comb(254 + 11, 11) - 1]
        deepest[0, -1] = 300  # true rank 5.5e19 > 2**63 - 1
        with pytest.raises(BudgetError, match="int64"):
            _count_ranks(deepest)
        with pytest.raises(BudgetError, match="int64"):
            _count_matrices(12, 255, np.arange(1))

    @pytest.mark.parametrize(
        "weights, rates",
        [
            ([0.5, 0.5], [[0.0, 0.15456495625244554, 0.1821815168664446],
                          [0.09614144843975368, 0.0, 0.21433195406414993],
                          [0.07885334583702072, 0.28589269294521175, 0.0]]),
            ([0.7, 0.3], [[0.0, 0.1117517395464269, 0.11135562982593344],
                          [0.08161906047970736, 0.0, 0.19195922441384955],
                          [0.06533829173100236, 0.2692817362974935, 0.0]]),
        ],
    )
    def test_garbled_rates_pinned(self, garbled_model, weights, rates):
        # Recorded from the per-state loop evaluator this chunked one replaced.
        ex = exact_pairwise(garbled_model, RandomizedRule(weights), 6, OracleBudget(horizon=8))
        assert_allclose(ex.rates, rates, rtol=1e-12)
        assert_allclose(ex.ties, np.zeros((3, 3)), rtol=1e-12)

    def test_two_probe_sixteen_steps(self, two_probe_model):
        ex = exact_pairwise(two_probe_model, HALF_RULE, 16, OracleBudget(horizon=32))
        assert_allclose(ex.rates[0][1], 0.008536151582484374, rtol=1e-12)
        assert_allclose(ex.rates[1][0], 0.008536151582484374, rtol=1e-12)
        assert_allclose(ex.ties[0][1], 0.0028899529847274063, rtol=1e-12)
        s = ex.sandwiches[0]
        assert (s.i, s.j) == (0, 1)
        assert_allclose(s.exponent, 0.29771531294483444, rtol=1e-12)
        assert_allclose(s.predicted, 0.16847903891768543, rtol=1e-12)
        assert_allclose(s.gap, s.exponent - s.predicted, rtol=1e-12)
        direct = alpha_max(two_probe_model, 0, 1, HALF_RULE)
        assert_allclose(s.predicted, direct.value, rtol=1e-12)

    def test_single_step_point_mass_rule(self, two_probe_model):
        delta = RandomizedRule([1.0, 0.0])
        ex = exact_pairwise(two_probe_model, delta, 1, OracleBudget(horizon=4))
        assert_allclose(ex.rates[0][1], 0.1, rtol=1e-12)
        assert_allclose(ex.rates[1][0], 0.4, rtol=1e-12)
        assert ex.ties[0][1] == 0.0

    def test_identical_kernels_are_all_ties(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        ex = exact_pairwise(m, RandomizedRule([1.0]), 8, OracleBudget(horizon=16))
        assert ex.rates[0][1] == 0.0
        assert ex.rates[1][0] == 0.0
        assert_allclose(ex.ties[0][1], 1.0, rtol=1e-12)

    def test_swap_symmetry_and_partition(self, two_probe_model):
        # Swapping both hypotheses and probe arms maps this model onto itself,
        # so the two conditional misordering rates and tie masses coincide,
        # and under either truth the beat/lose/tie events partition the paths.
        for n in (3, 7, 12):
            ex = exact_pairwise(two_probe_model, HALF_RULE, n, OracleBudget(horizon=16))
            assert_allclose(ex.rates[0][1], ex.rates[1][0], rtol=1e-12)
            assert_allclose(ex.ties[0][1], ex.ties[1][0], rtol=1e-12)
            assert_allclose(
                ex.rates[0][1] + (1.0 - ex.rates[1][0] - ex.ties[1][0]) + ex.ties[0][1],
                1.0,
                rtol=1e-12,
            )
            # Odd horizons cannot balance the evidence counts, so no ties.
            if n % 2 == 1:
                assert ex.ties[0][1] == 0.0
            else:
                assert ex.ties[0][1] > 0.0
            assert ex.rates[0][1] + ex.rates[1][0] < 1.0

    def test_predictions_use_the_rates_rule(self):
        # the rule is validated once: renormalizing validated weights again
        # moves the last bit of a few rules (1 of these 66), and with it
        # alpha_max's optimum
        model = random_finite_model(np.random.default_rng(4), 3)
        rng = np.random.default_rng(66)
        for w in rng.dirichlet(np.ones(model.K), size=66):
            ex = exact_pairwise(model, w, 2)
            for s in ex.sandwiches:
                direct = alpha_max(model, s.i, s.j, RandomizedRule(w))
                assert (s.predicted, s.alpha_star) == (direct.value, direct.alpha_star)

    def test_monotone_decay_in_horizon(self, two_probe_model):
        values = [
            exact_pairwise(two_probe_model, HALF_RULE, n, OracleBudget(horizon=40)).rates[0][1]
            for n in (4, 8, 16, 24)
        ]
        assert values == sorted(values, reverse=True)
