"""Model construction, validation, kernel tables, and JSON round-tripping."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtri

from active_ht import (
    FiniteKernel,
    Gaussian,
    GaussianKernel,
    ModelValidationError,
    ObservationModel,
    RandomizedRule,
    backward_eval,
    compute_bounds,
    exact_pairwise,
    kl,
    likelihood_ratio_bound,
    load_model,
    pairwise_error_rates,
    reliability,
    save_model,
    validate,
)
from active_ht.belief import normalize
from active_ht.model import draw_symbol, inverse_cdf_index
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

    @pytest.mark.parametrize("scalar, plain", [(np.int64(1000), 1000), (np.float32(1000.0), 1000.0)])
    def test_numpy_scalar_penalties_are_stored_as_python_numbers(self, tmp_path, scalar, plain):
        m = make_two_probe_model(penalty=scalar)
        assert m.penalty == plain and type(m.penalty) is type(plain)
        save_model(m, tmp_path / "scalar.json")
        save_model(make_two_probe_model(penalty=plain), tmp_path / "plain.json")
        assert (tmp_path / "scalar.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert load_model(tmp_path / "scalar.json").penalty == plain

    @pytest.mark.parametrize("bad", [True, np.bool_(True), "1000", math.nan, np.float64(math.inf)])
    def test_a_penalty_must_be_a_real_number(self, bad):
        with pytest.raises(ModelValidationError, match="penalty must be a finite number"):
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

    def test_ratio_bound_matches_pairwise_loop(self):
        def reference(model):
            probs, bound = model.kernel.probs, 1.0
            for a in range(model.K):
                for i in range(model.M):
                    for j in range(model.M):
                        if i == j:
                            continue
                        qi, qj = probs[i, a], probs[j, a]
                        live = qi > 0.0
                        if np.any(live & (qj == 0.0)):
                            return math.inf
                        if np.any(live):
                            bound = max(bound, float(np.max(qi[live] / qj[live])))
            return bound

        rng = np.random.default_rng(2024)
        n_finite = 0
        for _ in range(400):
            M, K, Z = rng.integers(2, 5), rng.integers(1, 4), rng.integers(2, 6)
            q = rng.dirichlet(np.ones(Z), size=(M, K))
            q[:, rng.random((K, Z)) < 0.3] = 0.0           # symbols no hypothesis emits
            q[rng.random((M, K, Z)) < rng.choice([0.0, 0.05])] = 0.0  # one-sided zeros
            q[..., 0] += q.sum(axis=2) == 0.0
            q /= q.sum(axis=2, keepdims=True)
            m = ObservationModel(kernel=FiniteKernel(q), prior=np.full(M, 1.0 / M), penalty=10.0)
            expected = reference(m)
            assert likelihood_ratio_bound(m) == expected
            n_finite += math.isfinite(expected)
        assert 50 <= n_finite <= 350  # both branches are exercised


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


@st.composite
def _draw_cases(draw):
    """A finite or Gaussian kernel, hypotheses i (scalar or (B,)), actions (n, B) and uniforms (n, B).

    Finite rows have zero entries, and one row may fall short of 1 by float
    dust; the uniforms include every cdf step exactly, 0 and the largest
    uniform below 1.
    """
    M, K, n, B = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 3), (1, 3), (1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Z = draw(st.integers(1, 5))
        q = rng.dirichlet(np.ones(Z), size=(M, K))
        q[rng.random((M, K, Z)) < 0.3] = 0.0
        q[..., 0] += q.sum(axis=2) == 0.0
        q /= q.sum(axis=2, keepdims=True)
        if draw(st.booleans()):
            q[rng.integers(M), rng.integers(K)] *= 1.0 - 2.0**-50
        kernel = FiniteKernel(q)
        special = np.concatenate([kernel.cdf.ravel(), [0.0, 1.0 - 2.0**-53]])
    else:
        kernel = GaussianKernel(rng.normal(size=(M, K)), rng.uniform(0.1, 4.0, size=(M, K)))
        special = np.array([0.0, 1e-17, 0.5, 1.0 - 2.0**-53])
    u = np.where(rng.random((n, B)) < 0.5, rng.choice(special, size=(n, B)), rng.random((n, B)))
    i = int(rng.integers(M)) if draw(st.booleans()) else rng.integers(M, size=B)
    return kernel, i, rng.integers(K, size=(n, B)), u


class TestSampling:
    # one uniform a symbol, as the simulator draws them
    def test_finite_sample_frequencies(self, two_probe_model):
        rng = np.random.default_rng(123)
        draws = draw_symbol(two_probe_model.kernel, 0, 0, rng.random(200_000))
        freq = np.bincount(draws, minlength=2) / draws.size
        # 3-sigma binomial band around (0.9, 0.1)
        assert abs(freq[0] - 0.9) < 3.0 * math.sqrt(0.9 * 0.1 / draws.size)

    def test_gaussian_sample_moments(self, gaussian_binary_model):
        rng = np.random.default_rng(321)
        draws = draw_symbol(gaussian_binary_model.kernel, 1, 0, rng.random(200_000))
        assert abs(draws.mean() - 1.0) < 3.0 * 2.0 / math.sqrt(draws.size)
        assert abs(draws.var() - 4.0) < 0.1

    @given(_draw_cases())
    @settings(max_examples=60, deadline=None)
    def test_draw_symbol_matches_per_element_reference(self, case):
        # draw_symbol gathers by flat index; the reference inverts one row at a time
        kernel, i, a, u = case
        got = draw_symbol(kernel, i, a, u)
        assert got.shape == a.shape
        i_b = np.broadcast_to(i, a.shape)
        for idx in np.ndindex(a.shape):
            if isinstance(kernel, FiniteKernel):
                row = kernel.cdf[i_b[idx], a[idx]]
                want = min(np.searchsorted(row, u[idx], side="right"), row.size - 1)
            else:
                m, sd = kernel.means[i_b[idx], a[idx]], kernel.stds[i_b[idx], a[idx]]
                want = m + sd * ndtri(np.clip(u[idx], 1e-16, 1.0 - 1e-16))
            assert got[idx] == want, (idx, got[idx], want)


@st.composite
def _cdf_cases(draw):
    """Non-decreasing cumulative masses (with flat steps, the last entry at or
    below 1) and uniforms, some on a step, in broadcasting shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(1, 5))
    cdf_shape, u_shape = draw(
        st.sampled_from(
            [((), ()), ((), (7,)), ((), (3, 7)), ((7,), (7,)), ((3, 7), (3, 7)), ((7,), (3, 7)), ((3, 1), (3, 7))]
        )
    )
    q = rng.dirichlet(np.ones(K), size=cdf_shape)
    q[rng.random(q.shape) < 0.3] = 0.0  # flat steps
    cdf = np.cumsum(q, axis=-1) * draw(st.sampled_from([1.0, 1.0 - 2.0**-52, 0.75]))
    # every case's u has the broadcast shape, so half its entries can sit on a step of their own row
    steps = np.take_along_axis(np.broadcast_to(cdf, u_shape + (K,)), rng.integers(K, size=u_shape + (1,)), -1)
    return cdf, np.where(rng.random(u_shape) < 0.5, steps[..., 0], rng.random(u_shape))


class TestInverseCdfIndex:
    @given(_cdf_cases())
    @settings(max_examples=100, deadline=None)
    def test_equals_searchsorted_clipped_to_the_last_index(self, case):
        cdf, u = case
        got = inverse_cdf_index(cdf, u)
        shape = np.broadcast_shapes(cdf.shape[:-1], u.shape)
        assert np.shape(got) == shape and np.asarray(got).dtype == np.int64
        rows, points = np.broadcast_to(cdf, shape + cdf.shape[-1:]), np.broadcast_to(u, shape)
        for idx in np.ndindex(shape):
            want = min(np.searchsorted(rows[idx], points[idx], side="right"), cdf.shape[-1] - 1)
            assert np.asarray(got)[idx] == want, (idx, rows[idx], points[idx])

    def test_one_entry_draws_index_zero_in_the_broadcast_shape(self):
        got = inverse_cdf_index(np.ones((3, 1, 1)), np.full((3, 4), 0.5))
        assert got.shape == (3, 4) and got.dtype == np.int64 and not got.any()


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
    # indices may come as numpy int32 as well as int64 or int
    index = draw(st.sampled_from([lambda x: x, np.int32]))
    cast = lambda z: index(z) if model.is_finite else z
    if draw(st.booleans()):
        return model, index(int(rng.integers(K))), cast(symbols(())[()])
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    a = rng.integers(K, size=shape[-1:])  # broadcasts against z
    return model, index(a), cast(symbols(shape))


def _scalar_log_density(model, i, a, z):
    """log q_i(z | a) from the kernel's entry or the scalar Gaussian density."""
    k = model.kernel
    if model.is_finite:
        q = k.probs[i, a, int(z)]
        return math.log(q) if q > 0.0 else -math.inf
    return Gaussian(float(k.means[i, a]), float(k.variances[i, a])).log_density(float(z))


class TestLogLikelihood:
    @given(_likelihood_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_scalar_densities(self, case):
        model, a, z = case
        got = model.log_likelihood(a, z)
        shape = np.broadcast_shapes(np.shape(a), np.shape(z))
        assert got.shape == (model.M, *shape)
        a_b, z_b = np.broadcast_to(a, shape), np.broadcast_to(z, shape)
        for i in range(model.M):
            for idx in np.ndindex(shape):
                want = _scalar_log_density(model, i, int(a_b[idx]), z_b[idx])
                assert_allclose(got[(i, *idx)], want, rtol=1e-13)

    @given(_likelihood_cases())
    @settings(max_examples=40, deadline=None)
    def test_bayes_update_normalizes_the_summed_log_masses(self, case):
        # the engines' step against Bayes' rule, p_i ∝ prior_i q_i(z | a)
        model, a, z = case
        a, z = int(np.ravel(a)[0]), np.ravel(z)[0]
        loglik = np.array([_scalar_log_density(model, i, a, z) for i in range(model.M)])
        if np.isneginf(loglik).all():
            return  # an impossible observation: no hypothesis can emit z
        want = model.prior * np.exp(loglik - loglik.max())
        _, got = normalize(np.log(model.prior) + model.log_likelihood(a, z))
        assert_allclose(got, want / want.sum(), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("z", [4, -1, [0, 4], [[-1]]])
    def test_out_of_range_symbols_raise(self, z):
        # a flat index would read symbol 4 of action 0 as symbol 0 of action 1
        with pytest.raises(IndexError, match=r"symbols must lie in \[0, 4\)"):
            make_garbled_model().log_likelihood(0, z)

    def test_derived_tables_are_read_only_and_shared(self, two_probe_model):
        kernel = two_probe_model.kernel
        copy = two_probe_model.with_penalty(5.0).kernel
        assert copy.log_probs is kernel.log_probs and copy.cdf is kernel.cdf
        for table in (kernel.log_probs, kernel.cdf):
            assert not table.flags.writeable
            # the flat gathers reshape them, which is a view, not a copy per call, only if C-contiguous
            assert table.flags.c_contiguous


class TestKLTable:
    @pytest.mark.parametrize("name", ["two_probe", "zero_entries", "gaussian_binary"])
    def test_equals_kl_entrywise_read_only_and_shared(self, name, gaussian_binary_model):
        m = {
            "two_probe": make_two_probe_model(),
            # Action 0 gives hypothesis 0 a support the others miss: +inf entries.
            "zero_entries": ObservationModel(
                kernel=FiniteKernel([
                    [[1.0, 0.0, 0.0], [0.6, 0.3, 0.1]],
                    [[0.0, 0.5, 0.5], [0.2, 0.5, 0.3]],
                    [[0.0, 0.3, 0.7], [0.3, 0.3, 0.4]],
                ]),
                prior=[0.2, 0.3, 0.5],
                penalty=100.0,
            ),
            "gaussian_binary": gaussian_binary_model,
        }[name]
        D = m.kernel.kl_table
        assert D.shape == (m.M, m.M, m.K)
        for i in range(m.M):
            for j in range(m.M):
                for a in range(m.K):
                    want = 0.0 if i == j else kl(m.density_of(i, a), m.density_of(j, a))
                    assert D[i, j, a] == want
        assert np.isinf(D).any() == (name == "zero_entries")
        assert not D.flags.writeable
        assert m.with_penalty(5.0).kernel.kl_table is D

    def test_second_compute_bounds_calls_no_kl(self, monkeypatch):
        import active_ht.divergences
        import active_ht.model

        calls = []

        def counting(p, q):
            calls.append(1)
            return kl(p, q)

        monkeypatch.setattr(active_ht.divergences, "kl", counting)
        monkeypatch.setattr(active_ht.model, "kl", counting)
        m = make_garbled_model()
        compute_bounds(m)
        assert calls
        calls.clear()
        compute_bounds(m)
        compute_bounds(m.with_penalty(1e4))
        assert not calls


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
