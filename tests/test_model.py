"""Model construction, validation, kernel tables, and JSON round-tripping."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from active_ht import (
    Belief,
    FiniteKernel,
    Gaussian,
    GaussianKernel,
    ModelValidationError,
    ObservationModel,
    RandomizedRule,
    backward_eval,
    bayes_update,
    exact_pairwise,
    likelihood_ratio_bound,
    load_model,
    pairwise_error_rates,
    reliability,
    sample,
    save_model,
    validate,
)
from conftest import make_garbled_model, make_two_probe_model, random_finite_model


class TestConstruction:
    def test_finite_kernel_rows_normalized(self):
        with pytest.raises(ModelValidationError):
            ObservationModel(
                kernel=FiniteKernel([[[0.5, 0.6]], [[0.5, 0.5]]]),
                prior=[0.5, 0.5],
                penalty=10.0,
            )

    def test_negative_probability_rejected(self):
        with pytest.raises(ModelValidationError, match="nonnegative"):
            ObservationModel(
                kernel=FiniteKernel([[[1.5, -0.5]], [[0.5, 0.5]]]),
                prior=[0.5, 0.5],
                penalty=10.0,
            )

    def test_prior_must_sum_to_one(self):
        with pytest.raises(ModelValidationError):
            ObservationModel(
                kernel=FiniteKernel([[[0.5, 0.5]], [[0.4, 0.6]]]),
                prior=[0.6, 0.6],
                penalty=10.0,
            )

    def test_penalty_must_exceed_one(self):
        for bad in (1.0, 0.5, -3.0, math.nan):
            with pytest.raises(ModelValidationError):
                make_two_probe_model(penalty=bad)

    def test_tiny_masses_snap_to_zero(self):
        k = FiniteKernel([[[1.0 - 1e-305, 1e-305]], [[0.5, 0.5]]])
        assert k.probs[0, 0, 1] == 0.0
        assert k.probs[0, 0, 0] == 1.0

    def test_dimensions(self):
        m = make_two_probe_model()
        assert (m.M, m.K) == (2, 2)
        g = make_garbled_model()
        assert (g.M, g.K) == (3, 2)

    def test_with_penalty_returns_new_model(self):
        m = make_two_probe_model(penalty=100.0)
        m2 = m.with_penalty(5000.0)
        assert m2.penalty == 5000.0
        assert m.penalty == 100.0
        assert_allclose(m2.kernel.probs, m.kernel.probs)

    def test_rule_weights_validated(self):
        with pytest.raises(ValueError):
            RandomizedRule([0.7, 0.7])
        with pytest.raises(ValueError):
            RandomizedRule([1.2, -0.2])
        r = RandomizedRule.point_mass(3, 1)
        assert_allclose(r.weights, [0.0, 1.0, 0.0])


class TestValidate:
    def test_two_probe_model_is_testable(self, two_probe_model):
        rep = validate(two_probe_model)
        assert rep.distinguishable
        assert rep.indistinguishable_pairs == ()
        assert rep.bounded_ratios
        # Worst single-step ratio: 0.6 / 0.1 under the mismatched probe.
        assert_allclose(rep.likelihood_ratio_bound, 6.0, rtol=1e-12)

    def test_identical_kernels_flagged(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        rep = validate(m)
        assert not rep.distinguishable
        assert (0, 1) in rep.indistinguishable_pairs

    def test_gaussian_ratios_unbounded(self, gaussian_binary_model):
        rep = validate(gaussian_binary_model)
        assert rep.distinguishable
        assert not rep.bounded_ratios
        assert math.isinf(rep.likelihood_ratio_bound)

    def test_zero_support_symbol_unbounded_ratio(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[1.0, 0.0]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        assert math.isinf(likelihood_ratio_bound(m))


class TestRoundTrip:
    def test_finite_round_trip(self, tmp_path):
        m = make_garbled_model()
        path = tmp_path / "m.json"
        save_model(m, path)
        m2 = load_model(path)
        assert_allclose(m2.kernel.probs, m.kernel.probs)
        assert_allclose(m2.prior, m.prior)
        assert m2.penalty == m.penalty

    def test_gaussian_round_trip(self, tmp_path, gaussian_binary_model):
        path = tmp_path / "g.json"
        save_model(gaussian_binary_model, path)
        m2 = load_model(path)
        assert_allclose(m2.kernel.means, gaussian_binary_model.kernel.means)
        assert_allclose(m2.kernel.variances, gaussian_binary_model.kernel.variances)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelValidationError):
            load_model(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"M": 2}))
        with pytest.raises(ModelValidationError):
            load_model(path)

    def test_random_models_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for idx in range(10):
            m = random_finite_model(rng)
            path = tmp_path / f"r{idx}.json"
            save_model(m, path)
            m2 = load_model(path)
            assert_allclose(m2.kernel.probs, m.kernel.probs, atol=0.0)
            assert_allclose(m2.prior, m.prior, atol=0.0)


class TestSampling:
    def test_finite_sample_frequencies(self, two_probe_model):
        rng = np.random.default_rng(123)
        draws = sample(two_probe_model, 0, 0, rng, size=200_000)
        freq = np.bincount(draws, minlength=2) / draws.size
        # 3-sigma binomial band around (0.9, 0.1)
        assert abs(freq[0] - 0.9) < 3.0 * math.sqrt(0.9 * 0.1 / draws.size)

    def test_gaussian_sample_moments(self, gaussian_binary_model):
        rng = np.random.default_rng(321)
        draws = sample(gaussian_binary_model, 1, 0, rng, size=200_000)
        assert abs(draws.mean() - 1.0) < 3.0 * 2.0 / math.sqrt(draws.size)
        assert abs(draws.var() - 4.0) < 0.1


@st.composite
def _likelihood_cases(draw):
    """A random finite (with zero entries) or Gaussian model and an (a, z) query."""
    M, K = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Z = draw(st.integers(2, 4))
        q = rng.dirichlet(np.ones(Z), size=(M, K))
        q[rng.random((M, K, Z)) < 0.3] = 0.0
        q[..., 0] += q.sum(axis=2) == 0.0  # keep every row a distribution
        kernel = FiniteKernel(q / q.sum(axis=2, keepdims=True))
        symbols = lambda shape: rng.integers(Z, size=shape)
    else:
        kernel = GaussianKernel(rng.normal(size=(M, K)), rng.uniform(0.1, 4.0, size=(M, K)))
        symbols = lambda shape: rng.normal(scale=3.0, size=shape)
    model = ObservationModel(kernel=kernel, prior=rng.dirichlet(np.full(M, 2.0)), penalty=50.0)
    if draw(st.booleans()):
        return model, int(rng.integers(K)), symbols(())[()]
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    a = rng.integers(K, size=shape[-1:])  # broadcasts against z
    return model, a, symbols(shape)


class TestLogLikelihood:
    @given(_likelihood_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_scalar_densities(self, case):
        model, a, z = case
        got = model.log_likelihood(a, z)
        shape = np.broadcast_shapes(np.shape(a), np.shape(z))
        assert got.shape == (model.M, *shape)
        a_b, z_b = np.broadcast_to(a, shape), np.broadcast_to(z, shape)
        k = model.kernel
        for i in range(model.M):
            for idx in np.ndindex(shape):
                ai, zi = int(a_b[idx]), z_b[idx]
                if model.is_finite:
                    q = k.probs[i, ai, int(zi)]
                    want = math.log(q) if q > 0.0 else -math.inf
                else:
                    want = Gaussian(float(k.means[i, ai]), float(k.variances[i, ai])).log_density(float(zi))
                assert_allclose(got[(i, *idx)], want, rtol=1e-13)

    @given(_likelihood_cases())
    @settings(max_examples=40, deadline=None)
    def test_bayes_update_normalizes_the_summed_log_masses(self, case):
        model, a, z = case
        a, z = np.ravel(a)[0], np.ravel(z)[0]
        lm = np.log(model.prior) + model.log_likelihood(a, z)
        if not np.isfinite(lm).any():
            return  # an impossible observation; covered in test_belief
        want = np.exp(lm - lm.max())
        got = bayes_update(Belief.from_probs(model.prior), model, a, z)
        assert_allclose(got.probs, want / want.sum(), rtol=1e-12, atol=1e-300)

    def test_derived_tables_are_read_only_and_shared(self, two_probe_model):
        kernel = two_probe_model.kernel
        assert two_probe_model.with_penalty(5.0).kernel.log_probs is kernel.log_probs
        for table in (kernel.log_probs, kernel.cdf):
            assert not table.flags.writeable


def _bad_rule_calls():
    """The functions that take a model and an action rule, on a K = 2 model."""
    m = make_two_probe_model()
    return {
        "backward_eval": lambda rule: backward_eval(m, rule, 3),
        "exact_pairwise": lambda rule: exact_pairwise(m, rule, 3),
        "pairwise_error_rates": lambda rule: pairwise_error_rates(m, rule, 3, 100, 1),
        "reliability": lambda rule: reliability(m, 0, rule),
    }


@pytest.mark.parametrize("rule", [[0.7, 0.7], [1.0], [0.2, 0.3, 0.5]], ids=["off_simplex", "short", "long"])
@pytest.mark.parametrize("name", sorted(_bad_rule_calls()))
def test_rule_inputs_are_checked(name, rule):
    with pytest.raises(ValueError):
        _bad_rule_calls()[name](rule)
