"""Monte Carlo evaluation: trial mechanics, seeding, sweeps, pairwise
error rates, and the error-exponent estimator."""

import copy
import dataclasses
import itertools
import math
import multiprocessing
import os
import pickle
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from active_ht import policies, simulator
from active_ht import (
    AssumptionError,
    FiniteKernel,
    FixedRulePolicy,
    ObservationModel,
    OracleBudget,
    Policy,
    RandomizedRule,
    TwoPhasePolicy,
    build_policy,
    compute_bounds,
    estimate_error_exponent,
    exact_eval,
    exact_pairwise,
    fixed_lambda_policy,
    maxmin_reliability,
    pairwise_error_rates,
    report_at_penalty,
    run_trials,
    stratified_hypotheses,
    sweep_L,
)
from active_ht.belief import posterior_mode
from active_ht.policies import HORIZON_FACTOR
from conftest import (
    TWO_PROBE_ROWS,
    make_blind_model,
    make_gaussian_binary_model,
    make_garbled_model,
    make_two_probe_model,
    random_finite_model,
    run_python,
)


class _Stepwise(Policy):
    """A fixed-n i.i.d. rule written as a plain Policy, so it runs in the engine."""

    def __init__(self, weights, n):
        self.weights = np.asarray(weights, dtype=float)
        self.horizon = n

    def batch_weights(self, probs, step_count):
        return np.tile(self.weights, (probs.shape[0], 1))


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

    def test_rounding_ties_declare_the_lowest_index(self, two_probe_model):
        # Masses equal up to rounding tie: posterior_mode and both simulator
        # paths pick index 0.
        row = [0.4999999999999999, 0.5000000000000001]
        model = ObservationModel(kernel=two_probe_model.kernel, prior=row, penalty=10.0)
        assert posterior_mode(np.array(row)) == 0
        for pol in (fixed_lambda_policy([0.5, 0.5], n=0), fixed_lambda_policy([0.5, 0.5], threshold=0.4)):
            _, records = run_trials(model, pol, 50, 3, record_trials=True)
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

    @pytest.mark.parametrize("kind", ["sa", "fixed-horizon"])
    def test_records_come_back_in_trial_order_at_any_worker_count(self, two_probe_model, two_probe_report, kind):
        # 2,500 trials are three blocks, the last one short; the engine and
        # the fixed-horizon path each gather their records block by block
        if kind == "sa":
            pol = build_policy("sa", two_probe_model, two_probe_report)
        else:
            pol = fixed_lambda_policy([0.5, 0.5], n=4)
        serial = run_trials(two_probe_model, pol, 2500, 15, record_trials=True, workers=1)
        assert run_trials(two_probe_model, pol, 2500, 15, record_trials=True, workers=2) == serial
        summary, records = serial
        assert [record.index for record in records] == list(range(2500))
        assert sum(record.tau for record in records) == round(summary.mean_tau * 2500)

    def test_fast_and_scalar_paths_agree(self, two_probe_model):
        # A fixed-horizon rule takes the vectorized path; the same behavior
        # expressed through per-step queries takes the generic loop.  Both
        # consume the per-trial uniform stream in the same order, so they
        # must see identical trajectories.
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

    @pytest.mark.parametrize(
        "make_model", [make_two_probe_model, make_garbled_model, make_gaussian_binary_model]
    )
    def test_fixed_rule_paths_agree_on_ties_and_gaussian_kernels(self, make_model):
        # Both paths draw each step's action and symbol from the same two
        # uniforms on either kernel type, and snap tied modes to the lowest
        # index; two-probe's symmetric rows end hundreds of trials tied.
        model = make_model()
        s_fast, _ = run_trials(model, fixed_lambda_policy([0.3, 0.7], n=6), 20_000, 47)
        s_engine, _ = run_trials(model, _Stepwise([0.3, 0.7], 6), 20_000, 47)
        assert s_fast.mean_tau == s_engine.mean_tau
        assert s_fast.n_wrong == s_engine.n_wrong
        assert_allclose(s_fast.pe, s_engine.pe, rtol=1e-12)

    @pytest.mark.parametrize(
        "make_model", [make_two_probe_model, make_garbled_model, make_gaussian_binary_model]
    )
    def test_fixed_rule_paths_agree_across_refills(self, make_model):
        # the engine refills its uniforms every CHUNK steps; the fixed path
        # draws a trial's 2n at once
        n = 3 * simulator.CHUNK + 5
        model = make_model()
        s_fast, _ = run_trials(model, fixed_lambda_policy([0.3, 0.7], n=n), 2500, 49)
        s_engine, _ = run_trials(model, _Stepwise([0.3, 0.7], n), 2500, 49)
        assert s_fast.mean_tau == s_engine.mean_tau
        assert s_fast.n_wrong == s_engine.n_wrong
        assert_allclose(s_fast.pe, s_engine.pe, rtol=1e-12)

    @pytest.mark.parametrize("make_model", [make_two_probe_model, make_gaussian_binary_model])
    @pytest.mark.parametrize("n", [8, 9, 17])
    def test_fixed_rule_sums_each_trial_in_step_order(self, monkeypatch, make_model, n):
        # The block's (M, n, B) log-likelihoods keep the step axis outside
        # the trial axis, so numpy adds a trial's n terms one after another.
        # Summed along a contiguous axis they would be added pairwise, which
        # rounds differently from n = 8 on and moves the seed pins.
        model = make_model()
        seen = []
        log_likelihood = ObservationModel.log_likelihood

        def recording(self, a, z):
            seen.append(log_likelihood(self, a, z))
            return seen[-1]

        monkeypatch.setattr(ObservationModel, "log_likelihood", recording)
        thetas = np.arange(simulator.BLOCK) % model.M
        lm = simulator._fixed_rule_logmass_block(model, np.array([0.3, 0.7]), n, thetas, (53,), 0)
        (ll,) = seen
        total = ll[:, 0]
        for t in range(1, n):
            total = total + ll[:, t]
        np.testing.assert_array_equal(lm, np.log(model.prior)[:, None] + total)

    def test_user_subclass_with_truncating_horizon(self, two_probe_model):
        # A user subclass that stops at a threshold is truncated at its own
        # safety horizon, like the built-in threshold rule.
        class _Capped(Policy):
            threshold, horizon = 0.99, 6

            def batch_weights(self, probs, step_count):
                return np.full((probs.shape[0], 2), 0.5)

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

    def test_fixed_horizon_subclass_batch_weights_is_honoured(self, two_probe_model):
        # Overriding batch_weights moves a fixed-n rule into the engine, which
        # plays the override as exact_eval does.
        class _PlaysLeader(FixedRulePolicy):
            def batch_weights(self, probs, step_count):
                return np.eye(2)[probs.argmax(axis=1)]

        pol = _PlaysLeader(weights=[0.5, 0.5], horizon=6)
        summary, _ = run_trials(two_probe_model, pol, 20_000, 1)
        exact = exact_eval(two_probe_model, pol)
        assert summary.mean_tau == 6.0
        assert abs(summary.pe - exact.pe) <= 4.0 * summary.se_pe

    def test_tiny_posterior_error_is_resolved(self, two_probe_model):
        # 500 plays of probe 0 leave an exact error of 4.4e-39, below the
        # rounding of 1 - max; the mass off the mode still reads positive.
        pol = fixed_lambda_policy([1.0, 0.0], n=500)
        summary, _ = run_trials(two_probe_model, pol, 2000, 1)
        assert summary.pe > 0.0
        assert summary.se_pe > 0.0

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
    return FixedRulePolicy(weights=weights, threshold=1.0 - 1.0 / L, horizon=horizon)


def _sa(explore, exploit, L, horizon=10_000):
    return TwoPhasePolicy(
        explore_weights=explore,
        exploit_weights=exploit,
        phase_threshold=0.5,
        threshold=1.0 - 1.0 / L,
        horizon=horizon,
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
    "two_probe-n9": lambda: (make_two_probe_model(), FixedRulePolicy(weights=[0.5, 0.5], horizon=9)),
    "garbled-n6": lambda: (make_garbled_model(), FixedRulePolicy(weights=[0.7, 0.3], horizon=6)),
    "gaussian-n6": lambda: (make_gaussian_binary_model(), FixedRulePolicy(weights=[0.3, 0.7], horizon=6)),
    # 2n = 120 uniforms a trial, drawn in one call
    "garbled-n60": lambda: (make_garbled_model(), FixedRulePolicy(weights=[0.7, 0.3], horizon=60)),
}

# (mean_tau, se_tau, pe, se_pe, cost, se_cost, n_wrong, n_truncated) of
# run_trials(model, policy, 1500, (41, index)), recorded when the trials'
# uniforms became the counter-based streams of _trial_keys and _uniforms
# (artifact version 0.12.0).  Compared with ==: any difference breaks the
# seed contract.
SEED_CONTRACT = {
    "two_probe-sn": (11.588666666666667, 0.14595762364495227, 0.0005821726503572971, 6.538106326713831e-06, 12.170839317023963, 0.14513498493224528, 0, 0),
    "two_probe-sa": (10.526666666666667, 0.14472556645475487, 0.000519133106045643, 5.6546607751419195e-06, 11.04579977271231, 0.1439451861321699, 2, 0),
    "garbled-sn": (21.955333333333332, 0.4375442452716138, 0.006360863097875319, 6.885235540467289e-05, 22.591419643120865, 0.43972128189658416, 10, 0),
    "garbled-sa": (29.205333333333332, 0.597815591244969, 0.006662257580847704, 6.995032589798615e-05, 29.871559091418103, 0.6002689311256079, 13, 0),
    "gaussian-sn": (10.678, 0.18641602267838914, 0.0003397955557097773, 8.446867402000102e-06, 11.017795555709778, 0.18721697853701852, 0, 0),
    "gaussian-sa": (9.132666666666667, 0.16137418460007968, 0.00024735867447249206, 7.383244619864543e-06, 9.38002534113916, 0.16185027337452443, 1, 0),
    "skewed3-sn": (27.205333333333332, 0.329679838312545, 0.0006624760302373075, 5.238682719328985e-06, 27.86780936357064, 0.3296713210488541, 0, 0),
    "skewed3-sa": (22.834, 0.2835381666159813, 0.0006604442652842301, 4.993863737608758e-06, 23.49444426528423, 0.28325007805989366, 1, 0),
    "two_probe-truncated": (4.516, 0.019312350110747476, 0.09297171738138707, 0.003167347416538123, 97.48771738138707, 3.1757668806959356, 123, 851),
    "two_probe-n9": (9.0, 0.0, 0.042161717380017366, 0.0024525292568986844, 51.161717380017365, 2.4525292568986847, 62, 0),
    "garbled-n6": (6.0, 0.0, 0.2271327265807807, 0.004549803399243127, 28.713272658078072, 0.4549803399243127, 340, 0),
    "gaussian-n6": (6.0, 0.0, 0.09197539226947807, 0.0034041143786118985, 97.97539226947806, 3.404114378611899, 146, 0),
    "garbled-n60": (60.0, 0.0, 0.00634114786510231, 0.0009834349829504051, 60.63411478651023, 0.0983434982950362, 7, 0),
}

# pairwise_error_rates(garbled, [0.7, 0.3], 6, 1500, (41, 12)), recorded with
# the fixed-horizon entries above.
SEED_CONTRACT_PAIRWISE = [
    [0.0, 0.11666666666666667, 0.108],
    [0.07266666666666667, 0.0, 0.20266666666666666],
    [0.06266666666666666, 0.2613333333333333, 0.0],
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


# float.hex of (mean_tau, pe, se_pe) on random_finite_model(default_rng(200),
# n_hypotheses=M), recorded with the entries above.  numpy adds a contiguous row of 8 or more masses pairwise but a strided one
# in sequence, so these pin the order in which the Bayes update sums a
# hypothesis-major stack.  Both models have one action, so sn and sa play
# alike through their two classes.
SEED_CONTRACT_LARGE_M = {
    9: ("0x1.0aa5e353f7ceep+8", "0x1.a4a555927a4a2p-13", "0x1.0c1dd9eb57384p-20"),
    12: ("0x1.a1f4bc6a7ef9ep+8", "0x1.9bf51fa552e53p-14", "0x1.5cea56bf07148p-22"),
}

# the same for sweep_L(M = 12 model, "sa", [100, 1000], 1500, (43, 2))
SEED_CONTRACT_LARGE_M_SWEEP = [
    ("0x1.a8619f0fb38a9p+7", "0x1.1c2f5d31e87a2p-7", "0x1.f68b3c234f65bp-16"),
    ("0x1.41f0a3d70a3d7p+8", "0x1.c999742efa336p-11", "0x1.80fe7145392eap-19"),
]


def _hex_pin(summary):
    return tuple(x.hex() for x in (summary.mean_tau, summary.pe, summary.se_pe))


@pytest.mark.parametrize("M", list(SEED_CONTRACT_LARGE_M))
@pytest.mark.parametrize("kind", ["sn", "sa"])
def test_seed_contract_large_m(M, kind):
    model = random_finite_model(np.random.default_rng(200), n_hypotheses=M)
    rule = np.full(model.K, 1.0 / model.K)
    policy = _sn(rule, model.penalty) if kind == "sn" else _sa(rule, [rule] * M, model.penalty)
    summary, _ = run_trials(model, policy, 1500, (43, M))
    assert _hex_pin(summary) == SEED_CONTRACT_LARGE_M[M]


def test_seed_contract_large_m_sweep():
    model = random_finite_model(np.random.default_rng(200), n_hypotheses=12)
    _, summaries = sweep_L(model, "sa", [100.0, 1000.0], 1500, (43, 2), report=compute_bounds(model))
    assert [_hex_pin(summary) for summary in summaries] == SEED_CONTRACT_LARGE_M_SWEEP


_WORD = 2**32
_MASK, _PHI = 2**64 - 1, 0x9E3779B97F4A7C15


def _mix64_ref(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


def _reference_stream(path, k, T):
    """Uniforms 1 ... T of trial k of seed path ``path``, in Python integers."""
    h = 0
    for word in path:
        limbs = [word >> shift & _MASK for shift in range(0, max(word.bit_length(), 1), 64)]
        for x in [len(limbs), *limbs]:
            h = _mix64_ref((h + _PHI & _MASK) ^ x)
    seed = _mix64_ref(_mix64_ref(k * _PHI + h & _MASK) ^ h)
    gamma = _mix64_ref(seed + _PHI & _MASK) | 1
    if bin(gamma ^ gamma >> 1).count("1") < 24:
        gamma ^= 0xAAAAAAAAAAAAAAAA
    return [(_mix64_ref(seed + c * gamma & _MASK) >> 11) * 2.0**-53 for c in range(1, T + 1)]


@st.composite
def _seed_blocks(draw, max_B=48):
    path = tuple(draw(st.lists(st.integers(0, 2**160), max_size=6)))
    B = draw(st.integers(1, max_B))
    offset = draw(st.integers(0, 16))
    k0 = draw(st.sampled_from([offset, _WORD - B - offset]))
    return path, k0, B


@given(_seed_blocks(), st.integers(1, 40))
@example(((2**64,), 0, 4), 3)
@example(((0, 2**64 - 1, 2**128), _WORD - 4, 4), 3)
@example(((41, 3), 0, 400), 2)  # about 1.7% of steps take SplitMix's weak-step repair
@settings(max_examples=60, deadline=None)
def test_block_stream_equals_the_integer_reference(case, T):
    path, k0, B = case
    got = simulator._uniforms(simulator._trial_keys(path, k0, B), 0, T)
    assert got.shape == (T, B) and got.dtype == np.float64
    for b in range(B):
        assert got[:, b].tolist() == _reference_stream(path, k0 + b, T)


def test_the_path_encoding_is_prefix_free():
    # a word's limb count precedes its limbs, so no two of these paths meet
    paths = [(), (0,), (0, 0), (1,), (0, 1), (1, 0), (2**64,), (2**64, 0), (1, 1), (2**128,)]
    streams = {tuple(_reference_stream(path, 0, 2)) for path in paths}
    assert len(streams) == len(paths)
    assert len({int(simulator._path_hash(path)) for path in paths}) == len(paths)


@given(_seed_blocks(), st.lists(st.integers(1, 40), min_size=1, max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_a_stream_continues_on_any_subset_of_rows_and_chunk_split(case, chunks, random):
    # the lockstep engine refills only its live trials, at a counter offset
    path, k0, B = case
    keys = simulator._trial_keys(path, k0, B)
    rows = np.array(sorted(random.sample(range(B), random.randint(1, B))))
    want = simulator._uniforms(keys, 0, sum(chunks))[:, rows]
    got, c0 = [], 0
    for T in chunks:
        got.append(simulator._uniforms(keys[:, rows], c0, T))
        c0 += T
    assert np.concatenate(got).tolist() == want.tolist()


@given(_seed_blocks(max_B=1024))
@settings(max_examples=30, deadline=None)
def test_steps_are_odd_and_keys_distinct(case):
    path, k0, B = case
    seed, gamma = simulator._trial_keys(path, k0, B).tolist()
    assert all(g & 1 for g in gamma)
    # SplitMix's repair leaves no step with fewer than 24 bit transitions
    assert min(bin(g ^ g >> 1).count("1") for g in gamma) >= 24
    assert len(set(seed)) == B and len(set(gamma)) == B


# Stream quality at fixed seeds: no external battery runs offline, so these
# are chi-square and correlation checks over 2**20 uniforms each, bounded to
# fail only at p < 1e-6.  _Z is the two-sided normal quantile of 1e-6.
_Z = 4.8916


def _quality_block(seed):
    return simulator._uniforms(simulator._trial_keys((seed,), 0, 1024), 0, 1024)


@pytest.mark.parametrize("seed", [0, 1, 41])
def test_uniforms_pass_chi_square_on_bins_and_pairs(seed):
    from scipy.stats import chi2

    U = _quality_block(seed)
    singles = np.bincount((U * 64).astype(np.intp).ravel(), minlength=64)
    pairs = (U[0::2] * 8).astype(np.intp) * 8 + (U[1::2] * 8).astype(np.intp)  # consecutive draws of a trial
    for counts in (singles, np.bincount(pairs.ravel(), minlength=64)):
        expected = counts.sum() / 64
        stat = ((counts - expected) ** 2 / expected).sum()
        assert chi2.sf(stat, 63) > 1e-6


@pytest.mark.parametrize("seed", [0, 1, 41])
def test_uniforms_are_uncorrelated_within_and_across_trials(seed):
    U = _quality_block(seed) - 0.5
    # lag 1 within each trial (an action uniform and its symbol uniform), and trials k and k + 1 at one counter
    for x, y in ((U[:-1], U[1:]), (U[:, :-1], U[:, 1:])):
        r = (x * y).mean() / math.sqrt((x * x).mean() * (y * y).mean())
        assert abs(r) * math.sqrt(x.size) < _Z


def test_simulation_builds_no_generator(monkeypatch, two_probe_model, two_probe_report, gaussian_binary_model):
    def refuse(*args, **kwargs):
        raise AssertionError("the simulator built a numpy generator")

    monkeypatch.setattr(np.random, "PCG64", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    run_trials(two_probe_model, build_policy("sn", two_probe_model, two_probe_report), 1100, 3)
    run_trials(gaussian_binary_model, fixed_lambda_policy([0.5, 0.5], threshold=0.99), 1100, 4)
    run_trials(gaussian_binary_model, fixed_lambda_policy([0.5, 0.5], n=5), 1100, 5)
    sweep_L(two_probe_model, "sa", [10.0, 100.0], 600, 6, report=two_probe_report, workers=1)


def test_more_than_2_to_the_32_trials_are_rejected_before_any_work(monkeypatch, two_probe_model, two_probe_report):
    # the seed contract caps a run at 2**32 trials (see _check_trials)
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(simulator, "stratified_hypotheses", refuse)
    monkeypatch.setattr(simulator, "_fixed_rule_logmass_block", refuse)
    too_many = 2**32 + 1
    with pytest.raises(ValueError, match=r"n_trials must be at most 2\*\*32"):
        run_trials(two_probe_model, fixed_lambda_policy([0.5, 0.5], n=3), too_many, 1)
    with pytest.raises(ValueError, match=r"n_trials must be at most 2\*\*32"):
        sweep_L(two_probe_model, "sn", [10.0], too_many, 1, report=two_probe_report)
    with pytest.raises(ValueError, match=r"n_trials must be at most 2\*\*32"):
        pairwise_error_rates(two_probe_model, [0.5, 0.5], 3, too_many, 1)


@pytest.mark.parametrize("count", [2.5, 1024.5, 3.0])
def test_fractional_trial_counts_are_rejected_before_any_work(monkeypatch, two_probe_model, two_probe_report, count):
    # a trial count is a whole number: a float is refused, never rounded
    # into a run of some other size
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(simulator, "stratified_hypotheses", refuse)
    monkeypatch.setattr(simulator, "_fixed_rule_logmass_block", refuse)
    calls = [
        lambda: run_trials(two_probe_model, fixed_lambda_policy([0.5, 0.5], n=3), count, 1),
        lambda: sweep_L(two_probe_model, "sa", [10.0, 100.0], count, 1, report=two_probe_report),
        lambda: pairwise_error_rates(two_probe_model, [0.5, 0.5], 3, count, 1),
        lambda: estimate_error_exponent(two_probe_model, "sa", [4, 6], count, 1, report=two_probe_report),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"n_trials must be a positive integer, got {count}")):
            call()


def test_numpy_integer_counts_run(two_probe_model, two_probe_report):
    n_trials, horizon = np.int64(1100), np.int64(3)
    policy = fixed_lambda_policy([0.5, 0.5], n=3)
    by_numpy = run_trials(two_probe_model, fixed_lambda_policy([0.5, 0.5], n=horizon), n_trials, 1)
    assert by_numpy == run_trials(two_probe_model, policy, 1100, 1)
    sweep = sweep_L(two_probe_model, "sa", [10.0, 100.0], n_trials, 1, report=two_probe_report)
    assert sweep == sweep_L(two_probe_model, "sa", [10.0, 100.0], 1100, 1, report=two_probe_report)
    rates, _ = pairwise_error_rates(two_probe_model, [0.5, 0.5], horizon, n_trials, 1)
    assert np.array_equal(rates, pairwise_error_rates(two_probe_model, [0.5, 0.5], 3, 1100, 1)[0])


def test_negative_seed_raises_as_default_rng_does(two_probe_model):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng((-1, 0))
    with pytest.raises(ValueError) as got:
        run_trials(two_probe_model, fixed_lambda_policy([0.5, 0.5], n=3), 10, -1)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("master_seed", [(1.5, 0), 2.5, (3, np.float64(4.0))])
def test_non_integer_seed_raises_as_default_rng_does(two_probe_model, master_seed):
    # trial 0 of seed path S replays default_rng((*S, 0)); the message adds the word
    path = master_seed if isinstance(master_seed, tuple) else (master_seed,)
    word = next(w for w in path if isinstance(w, float))
    with pytest.raises(TypeError) as expected:
        np.random.default_rng((*path, 0))
    with pytest.raises(TypeError) as got:
        run_trials(two_probe_model, fixed_lambda_policy([0.5, 0.5], n=3), 10, master_seed)
    assert str(got.value) == f"{expected.value}, got {word!r}"


@pytest.mark.parametrize("master_seed", [([1, 2], 0), ("0x10", 0)])
def test_seed_words_numpy_would_parse_are_rejected(two_probe_model, master_seed):
    # numpy flattens the list and reads the hex string; the simulator parses neither
    np.random.default_rng(master_seed)
    with pytest.raises(TypeError, match=re.escape(f"seed must be integer, got {master_seed[0]!r}")):
        run_trials(two_probe_model, fixed_lambda_policy([0.5, 0.5], n=3), 10, master_seed)


@pytest.fixture
def fresh_pool():
    """Close the process's worker pool before and after the test, so that a
    test that counts or fakes pools opens its own and leaves none cached."""
    simulator._close_pool()
    yield
    simulator._close_pool()


def test_sweep_and_exponent_open_one_pool_each(fresh_pool, monkeypatch, two_probe_model, two_probe_report):
    opened = []

    class _CountingPool(simulator.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _CountingPool)

    def sweep(workers):
        _, summaries = sweep_L(
            two_probe_model, "sn", [100.0, 1000.0, 10_000.0], 2500, 33,
            report=two_probe_report, workers=workers,
        )
        return summaries

    pooled = sweep(2)
    assert sweep(2) == pooled
    assert sweep(1) == pooled

    def exponent(workers):
        return estimate_error_exponent(
            two_probe_model, "nn", [4, 6], 2500, 34, report=two_probe_report, workers=workers
        )

    assert exponent(2) == exponent(1)
    assert len(opened) == 1


def test_a_pool_with_a_killed_worker_is_reopened(fresh_pool, two_probe_model):
    policy = fixed_lambda_policy([0.5, 0.5], threshold=0.99)
    first, _ = run_trials(two_probe_model, policy, 2500, 38, workers=2)
    pool = simulator._worker_pool(2)
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken
    again, _ = run_trials(two_probe_model, policy, 2500, 38, workers=2)
    assert again == first
    assert simulator._worker_pool(2) is not pool


def _is_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_new_worker_count_shuts_the_old_pool_down(fresh_pool, monkeypatch, two_probe_model):
    policy = fixed_lambda_policy([0.5, 0.5], threshold=0.99)
    at_four, _ = run_trials(two_probe_model, policy, 4500, 39, workers=4)
    old = list(simulator._worker_pool(4)._processes)
    alive_at_fork = []

    class _CheckingPool(simulator.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            alive_at_fork.extend(pid for pid in old if _is_alive(pid))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _CheckingPool)
    at_two, _ = run_trials(two_probe_model, policy, 4500, 39, workers=2)
    assert at_two == at_four
    assert len(old) == 4 and alive_at_fork == []


def test_a_forked_process_opens_its_own_pool(fresh_pool, two_probe_model):
    policy = fixed_lambda_policy([0.5, 0.5], threshold=0.99)
    expected, _ = run_trials(two_probe_model, policy, 2500, 41, workers=2)
    pool = simulator._worker_pool(2)

    def in_the_fork():
        got, _ = run_trials(two_probe_model, policy, 2500, 41, workers=2)
        ok = got == expected and simulator._worker_pool(2) is not pool
        simulator._close_pool()
        os._exit(0 if ok else 1)

    child = multiprocessing.get_context("fork").Process(target=in_the_fork)
    child.start()
    child.join(timeout=60.0)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
    # the parent's pool is untouched
    assert run_trials(two_probe_model, policy, 2500, 41, workers=2)[0] == expected
    assert simulator._worker_pool(2) is pool


_SWEEP_AND_PRINT_WORKERS = """
from active_ht import compute_bounds, simulator, sweep_L
from conftest import make_two_probe_model

model = make_two_probe_model()
sweep_L(model, "sa", [100.0, 1000.0], 2500, 40, report=compute_bounds(model), workers=2)
print(*simulator._worker_pool(2)._processes)
"""


def test_no_worker_outlives_the_process():
    proc = run_python("-c", _SWEEP_AND_PRINT_WORKERS, cwd=Path(__file__).parent, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2 and not any(_is_alive(pid) for pid in pids)


@pytest.mark.parametrize("make_model, kind", [(make_two_probe_model, "sa"), (make_gaussian_binary_model, "sn")])
def test_sweep_points_equal_their_own_run_trials(make_model, kind):
    # the points differ only in their stops, so they share one pass on the
    # seed path of the first; 2,500 trials make three blocks, the last one short
    model = make_model()
    report = compute_bounds(model)
    L_values = [100.0, 1000.0, 10_000.0]
    serial = sweep_L(model, kind, L_values, 2500, (48, 2), report=report, workers=1)
    assert sweep_L(model, kind, L_values, 2500, (48, 2), report=report, workers=2) == serial
    for idx, L in enumerate(L_values):
        model_L = model.with_penalty(L)
        policy = build_policy(kind, model_L, report_at_penalty(report, model_L))
        summary, _ = run_trials(model_L, policy, 2500, (48, 2, 0))
        assert serial[1][idx] == summary


def _count_lockstep_blocks(monkeypatch):
    calls = []
    engine = simulator._lockstep_block

    def counting(*args, **kwargs):
        calls.append(args[1])
        return engine(*args, **kwargs)

    monkeypatch.setattr(simulator, "_lockstep_block", counting)
    return calls


def _point_runs(model, kind, L_values, n_trials, seed, report=None, **fixed):
    """run_trials of each point's own policy on ``seed``, with records."""
    runs = []
    for L in L_values:
        model_L = model.with_penalty(L)
        report_L = report_at_penalty(report, model_L) if report is not None else None
        policy = build_policy(kind, model_L, report_L, **fixed)
        runs.append(run_trials(model_L, policy, n_trials, seed, record_trials=True))
    return runs


@pytest.mark.parametrize("make_model, kind", [(make_two_probe_model, "sa"), (make_gaussian_binary_model, "sn")])
def test_grouped_points_equal_their_own_run_trials_under_truncation(monkeypatch, make_model, kind):
    # a safety horizon of about log L / maxmin r steps truncates some trials
    # at every point; a trial truncated at a lower point runs on to the next
    monkeypatch.setattr(policies, "HORIZON_FACTOR", 1.0)
    model = make_model()
    report = compute_bounds(model)
    L_values = [100.0, 1000.0, 10_000.0]
    calls = _count_lockstep_blocks(monkeypatch)
    _, summaries = sweep_L(model, kind, L_values, 1500, (48, 3), report=report)
    assert len(calls) == 2
    for summary, (own, _) in zip(summaries, _point_runs(model, kind, L_values, 1500, (48, 3, 0), report)):
        assert summary == own
        assert 0 < summary.n_truncated < summary.n_trials


@pytest.mark.parametrize(
    "make_model, kind, fixed, n_trials",
    [
        (make_two_probe_model, "sa", {}, 1100),
        (make_gaussian_binary_model, "sn", {}, 1100),
        # every trial runs to a safety horizon of thousands of steps
        (make_blind_model, "fixed", {"rule": [1.0, 0.0], "threshold": 0.99}, 64),
    ],
    ids=["two_probe-sa", "gaussian-sn", "truncating-fixed"],
)
def test_trial_tau_is_monotone_in_L(make_model, kind, fixed, n_trials):
    # under common random numbers a higher threshold and a longer horizon
    # never stop a trial sooner
    model = make_model()
    report = None if fixed else compute_bounds(model)
    L_values = [1.5, 3.0, 20.0] if fixed else [10.0, 100.0, 1000.0, 10_000.0]
    runs = _point_runs(model, kind, L_values, n_trials, (48, 4, 0), report, **fixed)
    taus = np.array([[record.tau for record in records] for _, records in runs])
    assert np.all(np.diff(taus, axis=0) >= 0)
    if fixed:
        assert all(summary.n_truncated == n_trials for summary, _ in runs)
    else:
        assert np.any(np.diff(taus, axis=0) > 0)


def test_non_uniform_prior_sn_keeps_one_group_per_point(monkeypatch):
    # the sn rule is re-solved at each L under a non-uniform prior, and moves
    model = ObservationModel(kernel=FiniteKernel(TWO_PROBE_ROWS), prior=[0.7, 0.3], penalty=1000.0)
    report = compute_bounds(model)
    L_values = [20.0, 100.0, 1000.0]
    calls = _count_lockstep_blocks(monkeypatch)
    _, summaries = sweep_L(model, "sn", L_values, 1500, (48, 5), report=report)
    rules = [policy.weights for policy in calls[::2]]
    assert len(calls) == 6 and not any(np.array_equal(a, b) for a, b in zip(rules, rules[1:]))
    for idx, L in enumerate(L_values):
        model_L = model.with_penalty(L)
        policy = build_policy("sn", model_L, report_at_penalty(report, model_L))
        assert summaries[idx] == run_trials(model_L, policy, 1500, (48, 5, idx))[0]


def test_nn_keeps_one_group_per_point(two_probe_model, two_probe_report):
    L_values = [100.0, 10_000.0]
    _, summaries = sweep_L(two_probe_model, "nn", L_values, 1500, (48, 6), report=two_probe_report)
    assert summaries[0].mean_tau < summaries[1].mean_tau
    for idx, L in enumerate(L_values):
        model_L = two_probe_model.with_penalty(L)
        policy = build_policy("nn", model_L, report_at_penalty(two_probe_report, model_L))
        assert summaries[idx] == run_trials(model_L, policy, 1500, (48, 6, idx))[0]


@pytest.mark.parametrize("kind, L_values", [("sa", [100.0, 1000.0, 10_000.0]), ("nn", [100.0, 10_000.0])])
def test_each_sweep_point_is_folded_by_one_run_trials_call(monkeypatch, two_probe_model, two_probe_report, kind, L_values):
    # whether its group shares a pass (sa) or not (nn), each point's blocks
    # reach one call of the module's run_trials, which a tracer can wrap:
    # an (n_blocks, 9) array of that point's stop, with that point's policy
    folds = []
    real_run_trials = simulator.run_trials

    def spy(model, policy, n_trials, master_seed, **kwargs):
        folds.append((model.penalty, policy, kwargs.get("_blocks")))
        return real_run_trials(model, policy, n_trials, master_seed, **kwargs)

    monkeypatch.setattr(simulator, "run_trials", spy)
    _, summaries = sweep_L(two_probe_model, kind, L_values, 2500, (48, 12), report=two_probe_report)
    assert [L for L, _, _ in folds] == L_values
    for (L, policy, blocks), summary in zip(folds, summaries):
        model_L = two_probe_model.with_penalty(L)
        own = build_policy(kind, model_L, report_at_penalty(two_probe_report, model_L))
        assert type(policy) is type(own)
        assert all(np.array_equal(getattr(policy, f.name), getattr(own, f.name)) for f in dataclasses.fields(own))
        assert isinstance(blocks, np.ndarray) and blocks.shape == (3, 9)
        assert blocks[:, 0].sum() == summary.n_trials == 2500


def test_fixed_threshold_sweep_is_one_pass(monkeypatch, two_probe_model):
    calls = _count_lockstep_blocks(monkeypatch)
    points, summaries = sweep_L(
        two_probe_model, "fixed", [10.0, 100.0, 1000.0], 1500, (48, 7), rule=[0.5, 0.5], threshold=0.99
    )
    assert len(calls) == 2
    assert len({point.mean_tau for point in points}) == 1
    policy = build_policy("fixed", two_probe_model, rule=[0.5, 0.5], threshold=0.99)
    own, _ = run_trials(two_probe_model.with_penalty(10.0), policy, 1500, (48, 7, 0))
    assert summaries[0] == own


def test_a_step_that_passes_several_points_records_each(two_probe_model, two_probe_report):
    # thresholds this close put most trials past several lower points at
    # one step, which the pass records in one scatter
    L_values = [100.0, 100.5, 101.0, 101.5, 102.0]
    _, summaries = sweep_L(two_probe_model, "sa", L_values, 1500, (48, 10), report=two_probe_report)
    own = _point_runs(two_probe_model, "sa", L_values, 1500, (48, 10, 0), two_probe_report)
    assert summaries == [summary for summary, _ in own]
    taus = np.array([[record.tau for record in records] for _, records in own])
    assert np.any((taus[1:-1] == taus[:-2]) & (taus[1:-1] == taus[2:]))


class _LayoutProbe(Policy):
    """Plays ``inner`` and records whether each stack it is handed is hypothesis-major."""

    def __init__(self, inner):
        self.inner, self.threshold, self.horizon, self.seen = inner, inner.threshold, inner.horizon, []

    def batch_weights(self, probs, step_count):
        self.seen.append((probs.shape[0], probs.flags.f_contiguous))
        return self.inner.batch_weights(probs, step_count)


@pytest.mark.parametrize(
    "make_model, kind", [(make_two_probe_model, "sa"), (make_garbled_model, "sn"), (make_gaussian_binary_model, "sa")]
)
def test_the_engine_hands_policies_hypothesis_major_stacks(make_model, kind):
    # per-trial maxima and sums over a few hypotheses are fast only across
    # trials; a trial-major stack still gives the same bits, only slower
    model = make_model()
    probe = _LayoutProbe(build_policy(kind, model, compute_bounds(model)))
    run_trials(model, probe, 1100, 11)
    live = [rows for rows, _ in probe.seen]
    assert all(f_contiguous for _, f_contiguous in probe.seen)
    assert len(set(live)) > 10 and min(live) < 64 < max(live)


def test_unsorted_and_duplicate_penalties_come_back_in_input_order(two_probe_model, two_probe_report):
    L_values = [1000.0, 10.0, 1000.0, 100.0]
    points, summaries = sweep_L(two_probe_model, "sa", L_values, 1100, (48, 8), report=two_probe_report)
    assert [point.L for point in points] == L_values
    assert summaries[0] == summaries[2]
    own = _point_runs(two_probe_model, "sa", L_values, 1100, (48, 8, 0), two_probe_report)
    assert summaries == [summary for summary, _ in own]


def test_a_sweep_group_runs_each_block_once(monkeypatch):
    # three points of 2,500 trials: one pass of three blocks, not three
    # passes, and the points' folds rebuild neither the block tasks nor
    # their stratified hypotheses (a quota loop under this prior)
    model = ObservationModel(kernel=FiniteKernel(TWO_PROBE_ROWS), prior=[0.7, 0.3], penalty=1000.0)
    report = compute_bounds(model)
    calls = _count_lockstep_blocks(monkeypatch)
    stratified = []
    stratify = simulator.stratified_hypotheses

    def counting(prior, n):
        stratified.append(n)
        return stratify(prior, n)

    monkeypatch.setattr(simulator, "stratified_hypotheses", counting)
    sweep_L(model, "sa", [100.0, 1000.0, 10_000.0], 2500, (48, 9), report=report)
    assert len(calls) == 3
    assert stratified == [2500]


def test_a_sweep_stratifies_once_across_its_groups(monkeypatch):
    # under a non-uniform prior sn's rule moves with L, so each point is a
    # group of its own; all of them share the model's prior and so one
    # stratification
    model = random_finite_model(np.random.default_rng(100), 4)
    report = compute_bounds(model)
    stratified = []
    stratify = simulator.stratified_hypotheses

    def counting(prior, n):
        stratified.append(n)
        return stratify(prior, n)

    monkeypatch.setattr(simulator, "stratified_hypotheses", counting)
    L_values = [100.0, 1000.0, 10_000.0]
    built = [build_policy("sn", model.with_penalty(L), report) for L in L_values]
    assert not any(simulator._share_a_pass(a, b) for a, b in itertools.combinations(built, 2))
    _, summaries = sweep_L(model, "sn", L_values, 1100, (48, 11), report=report)
    assert stratified == [1100]
    for i, (L, policy) in enumerate(zip(L_values, built)):
        assert summaries[i] == run_trials(model.with_penalty(L), policy, 1100, (48, 11, i))[0]


_SHARING_BASES = {
    FixedRulePolicy: dict(weights=[0.5, 0.5], threshold=0.99, horizon=100),
    TwoPhasePolicy: dict(
        explore_weights=[0.5, 0.5],
        exploit_weights=[[0.0, 1.0], [1.0, 0.0]],
        phase_threshold=0.5,
        threshold=0.99,
        horizon=100,
    ),
}
_OTHER_STOPS = {"threshold": 0.999, "horizon": 200}


@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in _SHARING_BASES for f in dataclasses.fields(cls)])
def test_a_pass_is_shared_only_across_stops(cls, name):
    # every field but the stop decides how a policy plays, so a field added
    # to either class is compared without naming it
    base = cls(**_SHARING_BASES[cls])
    if name in _OTHER_STOPS:
        other = dataclasses.replace(base, **{name: _OTHER_STOPS[name]})
        assert simulator._share_a_pass(base, other)
    else:
        other = copy.copy(base)
        value = getattr(base, name)
        object.__setattr__(other, name, 1 if value is None else np.asarray(value) + 1.0)
        assert not simulator._share_a_pass(base, other)
        assert not simulator._share_a_pass(other, base)


@pytest.mark.parametrize("cls", list(_SHARING_BASES))
def test_a_policy_subclass_never_shares_a_pass(cls):
    sub = type("Sub", (cls,), {})
    fields = _SHARING_BASES[cls]
    assert simulator._share_a_pass(cls(**fields), cls(**fields))
    assert not simulator._share_a_pass(sub(**fields), sub(**fields))
    assert not simulator._share_a_pass(cls(**fields), sub(**fields))


@pytest.mark.parametrize("cls", list(_SHARING_BASES))
def test_a_horizon_only_policy_never_shares_a_pass(cls):
    # without a threshold a policy has no lower stop to record in a pass
    fields = {**_SHARING_BASES[cls], "threshold": None}
    assert not simulator._share_a_pass(cls(**fields), cls(**fields))
    assert not simulator._share_a_pass(cls(**fields), cls(**_SHARING_BASES[cls]))
    assert not simulator._share_a_pass(cls(**_SHARING_BASES[cls]), cls(**fields))


def _spy_exponent_calls(monkeypatch):
    """Record each ``sweep_L`` call's penalties and each direct ``run_trials``
    call's penalty (not the folds ``sweep_L`` makes of its own pass)."""
    sweeps, runs = [], []
    real_sweep_L, real_run_trials = simulator.sweep_L, simulator.run_trials

    def sweep_spy(model, kind, L_values, *args, **kwargs):
        sweeps.append(list(L_values))
        return real_sweep_L(model, kind, L_values, *args, **kwargs)

    def run_spy(*args, **kwargs):
        if kwargs.get("_blocks") is None:
            runs.append(args[0].penalty)
        return real_run_trials(*args, **kwargs)

    monkeypatch.setattr(simulator, "sweep_L", sweep_spy)
    monkeypatch.setattr(simulator, "run_trials", run_spy)
    return sweeps, runs


def test_exponent_probes_run_in_the_shared_pool(fresh_pool, monkeypatch):
    # sn under a non-uniform prior re-solves its rule at each L, so its pilot
    # is one pass per ladder point and maps them through the pool
    model = ObservationModel(kernel=FiniteKernel(TWO_PROBE_ROWS), prior=[0.6, 0.4], penalty=1000.0)
    report = compute_bounds(model)
    opened, mapped = [], []

    class _CountingPool(simulator.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            mapped.append(self)
            return super().map(*args, **kwargs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _CountingPool)
    sweeps, runs = _spy_exponent_calls(monkeypatch)

    def exponent(workers):
        mapped.clear()
        sweeps.clear()
        runs.clear()
        return estimate_error_exponent(model, "sn", [4, 6], 2000, 36, report=report, workers=workers)

    pooled = exponent(2)
    # the pilot and each budget's run map their blocks through the one pool
    assert len(opened) == 1 and len(sweeps) == 1 and len(runs) == 2
    assert len(mapped) == len(sweeps) + len(runs)
    assert all(pool is opened[0] for pool in mapped)
    assert exponent(1) == pooled
    assert len(opened) == 1 and mapped == []


def test_a_budget_takes_one_pilot_sweep_and_one_run(monkeypatch, two_probe_model, two_probe_report):
    # mean tau steps across budget 6 near L = 37, so no penalty hits it
    # within 2%; placement still makes one pilot sweep and one run
    sweeps, runs = _spy_exponent_calls(monkeypatch)
    est = estimate_error_exponent(two_probe_model, "sa", [6], 2000, 36, report=two_probe_report)
    assert len(sweeps) == 1 and len(sweeps[0]) == simulator.LADDER
    assert runs == [est.points[0].penalty]


@pytest.mark.parametrize("kind, budget", [("sn", 5), ("sa", 4), ("sa", 6)])
def test_penalty_probes_never_repeat_a_penalty(monkeypatch, two_probe_model, two_probe_report, kind, budget):
    sweeps, runs = _spy_exponent_calls(monkeypatch)
    estimate_error_exponent(two_probe_model, kind, [budget], 2000, 37, report=two_probe_report)
    # the pilot's ladder rises strictly, and the budget runs once
    (ladder,) = sweeps
    assert len(ladder) == simulator.LADDER and all(a < b for a, b in zip(ladder, ladder[1:]))
    assert len(runs) == 1


def test_pool_task_size_does_not_grow_with_trials(fresh_pool, monkeypatch, two_probe_model):
    sizes, opened = [], []

    class _InlinePool:
        _broken = False

        def __init__(self, max_workers, initializer):
            opened.append(self)

        def shutdown(self):
            pass

        def map(self, fn, tasks):
            for task in tasks:
                sizes.append(len(pickle.dumps(task)))
                yield fn(task)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", _InlinePool)
    policy = fixed_lambda_policy([0.5, 0.5], n=2)
    largest = []
    for n_trials in (2 * simulator.BLOCK, 16 * simulator.BLOCK):
        sizes.clear()
        run_trials(two_probe_model, policy, n_trials, 35, workers=2)
        assert len(sizes) == n_trials // simulator.BLOCK
        largest.append(max(sizes))
    # only the pickled block index may take a byte or two more
    assert largest[1] - largest[0] < 16
    assert len(opened) == 1


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

    @pytest.mark.parametrize("M", [2, 3, 4, 6])
    def test_equals_the_numpy_quota_loop(self, M):
        def numpy_quotas(prior, n):
            counts = np.zeros(prior.size)
            out = np.empty(n, dtype=np.int64)
            for t in range(n):
                i = int(np.argmax(prior * (t + 1) - counts))
                out[t] = i
                counts[i] += 1.0
            return out

        rng = np.random.default_rng(M)
        priors = [rng.dirichlet(np.ones(M)) for _ in range(4)]
        if M == 3:
            priors.append(np.array([0.25, 0.25, 0.5]))  # ties go to the lowest index
        for prior in priors:
            got = stratified_hypotheses(prior, 3000)
            assert got.dtype == np.int64
            assert np.array_equal(got, numpy_quotas(prior, 3000))


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

    def test_fixed_threshold_sweep_is_truncated_at_a_safety_horizon(self):
        # Action 0 is uninformative, so rule [1, 0] never reaches the
        # threshold; its safety horizon comes from the threshold and the
        # model's max-min reliability, with no report, and the sweep flags
        # every trial as truncated there.
        m = make_blind_model()
        points, _ = sweep_L(m, "fixed", [1.5, 3.0], 64, 5, rule=[1.0, 0.0], threshold=0.99)
        assert [pt.n_truncated for pt in points] == [64, 64]
        assert all(pt.pe == 0.5 for pt in points)
        policy = build_policy("fixed", m, rule=[1.0, 0.0], threshold=0.99)
        _, maxmin = maxmin_reliability(m)
        assert policy.horizon == math.ceil(HORIZON_FACTOR * math.log(1.0 / (1.0 - 0.99)) / maxmin)

    @pytest.mark.parametrize("kind", ["nn", "sn", "sa"])
    def test_built_families_need_a_report(self, two_probe_model, kind):
        with pytest.raises(ValueError, match="needs a bounds report"):
            sweep_L(two_probe_model, kind, [100.0], 10, 1)

    def test_built_families_reject_fixed_rule_inputs(self, two_probe_model, two_probe_report):
        with pytest.raises(ValueError, match="takes no rule, n or threshold"):
            sweep_L(two_probe_model, "sn", [100.0], 10, 1, report=two_probe_report, fixed_n=5)


class TestPairwiseRates:
    @pytest.mark.parametrize(
        "n, n_trials, message",
        [
            (4, 0, "n_trials must be a positive integer, got 0"),
            (-1, 100, "horizon must be a nonnegative integer, got -1"),
            (2.5, 100, "horizon must be a nonnegative integer, got 2.5"),
        ],
        ids=["no-trials", "negative-horizon", "fractional-horizon"],
    )
    def test_rejects_bad_sizes(self, two_probe_model, n, n_trials, message):
        with pytest.raises(ValueError, match=message):
            pairwise_error_rates(two_probe_model, [0.5, 0.5], n, n_trials, 1)

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
            [10, 12, 22, 25],
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
        assert abs(pt.mean_tau - 8.0) <= 0.03 * 8.0

    @pytest.mark.parametrize("kind", ["sn", "sa"])
    def test_a_skewed_prior_widens_the_pilot_ladder(self, monkeypatch, kind):
        # under prior [0.99, 0.01] the first ladder, sized by the exponent
        # alone, stops short of budget 17, so its top doubles.  Mean tau is a
        # staircase in L on this lattice model: near tau = 8, sa's rises by
        # 0.39 (5%) at log L = 9.96, and this seed's pilot lands just past
        # that riser (+6.4%), so the bound is one riser plus noise, not 5%
        model = ObservationModel(kernel=FiniteKernel(TWO_PROBE_ROWS), prior=[0.99, 0.01], penalty=1000.0)
        sweeps, runs = _spy_exponent_calls(monkeypatch)
        budgets = [8, 12, 17]
        est = estimate_error_exponent(model, kind, budgets, 20_000, 26, report=compute_bounds(model))
        assert len(sweeps) >= 2 and sweeps[1][-1] > sweeps[0][-1]
        assert len(runs) == len(budgets)
        for pt, budget in zip(est.points, budgets):
            assert abs(pt.mean_tau - budget) <= 0.08 * budget

    def test_fixed_horizon_estimates_keep_their_bits(self, two_probe_model, two_probe_report):
        # recorded before the fit moved from the budget to the measured mean
        # stopping time, which for a fixed horizon is the budget exactly
        pins = {
            "nn": ("0x1.ed493e29808d0p-3", "0x1.d3951dd1fdf27p-6", "0x1.2c6f1b9cdfb32p+0",
                   ["0x1.d3af0cf0e3a58p-4", "0x1.3eeaa58072b3bp-4", "0x1.64e98e2aea39cp-5"]),
            "fixed": ("0x1.e10b4e5bb08b4p-3", "0x1.b18aff3c0253bp-11", "0x1.25e3fa303cd33p+0",
                      ["0x1.fc59cc9b7edf0p-4", "0x1.3ce2719c2c30dp-4", "0x1.8d55bc573518cp-5"]),
        }
        for kind, (slope, stderr, intercept, pes) in pins.items():
            report, rule = (None, [0.5, 0.5]) if kind == "fixed" else (two_probe_report, None)
            est = estimate_error_exponent(two_probe_model, kind, [4, 6, 8], 20_000, 25, report=report, rule=rule)
            assert est.slope.hex() == slope
            assert est.slope_stderr.hex() == stderr
            assert est.intercept.hex() == intercept
            assert [p.pe.hex() for p in est.points] == pes

    def test_a_two_point_fit_has_an_infinite_stderr(self, two_probe_model, two_probe_report):
        # two points fit exactly, so no residual measures the slope's spread
        est = estimate_error_exponent(two_probe_model, "nn", [4, 8], 20_000, 27, report=two_probe_report)
        assert all(p.clean for p in est.points) and not est.lower_bound_only
        assert est.slope > 0.0 and est.slope_stderr == math.inf

    @pytest.mark.parametrize("kind", ["sn", "sa"])
    def test_an_infinite_maxmin_reliability_raises_before_any_run(
        self, monkeypatch, perfect_probe_model, kind
    ):
        report = compute_bounds(perfect_probe_model)
        assert report.maxmin_r == math.inf
        sweeps, runs = _spy_exponent_calls(monkeypatch)
        with pytest.raises(AssumptionError, match="max-min reliability is infinite"):
            estimate_error_exponent(perfect_probe_model, kind, [4, 8], 1000, 1, report=report)
        assert sweeps == [] and runs == []

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

    @pytest.mark.parametrize(
        "kind, budgets",
        [
            ("sn", [math.nan, 5.0]),
            ("sn", [math.inf, 5.0]),
            ("sa", [0.0, 5.0]),
            ("sn", [-4.0, 5.0]),
            ("nn", [2.5, 4.0]),
            ("fixed", [2.5, 4.0, 6.0]),
            ("fixed", [math.nan, 4.0]),
            ("sn", []),  # an empty fit used to return slope 0 with an infinite standard error
        ],
    )
    def test_bad_budgets_are_rejected(self, two_probe_model, two_probe_report, kind, budgets):
        rule = [0.5, 0.5] if kind == "fixed" else None
        with pytest.raises(ValueError, match="budgets must be"):
            estimate_error_exponent(two_probe_model, kind, budgets, 100, 1, report=two_probe_report, rule=rule)

    @pytest.mark.parametrize("kind", ["nn", "sn", "sa"])
    def test_built_families_take_no_rule_and_need_a_report(self, two_probe_model, two_probe_report, kind):
        with pytest.raises(ValueError, match="takes no rule"):
            estimate_error_exponent(two_probe_model, kind, [4], 100, 1, report=two_probe_report, rule=[0.5, 0.5])
        with pytest.raises(ValueError, match="needs a bounds report"):
            estimate_error_exponent(two_probe_model, kind, [4], 100, 1)
