import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpcat.analysis
from dpcat import (
    TOLERANCE,
    Database,
    ExponentialSpec,
    HammingUtility,
    ParameterRangeError,
    PrivacyParams,
    ProductSpec,
    SolutionMatrix,
    batch_matrix_margins,
    error_bounds,
    expected_error,
    exp_dp_condition,
    exponential_to_product,
    k_from_p,
    make_symmetric_product,
    matrix_expected_error,
    optimal_mechanism,
    p_from_k,
    product_dp_condition,
    product_to_exponential,
    sample_feasible_matrices,
    verify_matrix,
)
from conftest import exact_params, make_space

import _oracles

#: The (epsilon, delta) grid of the property suites: the zero-budget
#: boundary, small budgets, and a generous regime.
DEFAULT_EPSILONS = (0.0, 0.1, math.log(2), 1.0, math.log(4), 3.0)
DEFAULT_DELTAS = (0.0, 0.01, 0.1, 0.5)


def exhaustive_error(spec):
    """max_d sum_x h(d, x) * pmf(d, x) by direct enumeration."""
    worst = 0.0
    size = spec.state_count
    for i in range(size):
        row = spec.pmf_row(i)
        total = 0.0
        for j in range(size):
            a = _oracles.all_dbs(spec.space.size, spec.n)[i]
            b = _oracles.all_dbs(spec.space.size, spec.n)[j]
            total += _oracles.hamming(a, b) * float(row[j])
        worst = max(worst, total)
    return worst


class TestExpectedError:
    @pytest.mark.parametrize("m,n,k", [(1, 2, 0.4), (2, 2, 1.0), (3, 1, 0.0)])
    def test_hamming_closed_form_vs_exhaustive(self, m, n, k):
        spec = ExponentialSpec(make_space(m), n, HammingUtility(k))
        profile = expected_error(spec)
        assert profile.expected_error == pytest.approx(
            n / (1 + math.exp(k) / m), abs=1e-12)
        assert profile.expected_error == pytest.approx(exhaustive_error(spec),
                                                       abs=1e-12)

    @pytest.mark.parametrize("m,n,p", [(2, 2, 0.2), (4, 3, 0.1), (1, 2, 0.5)])
    def test_symmetric_product_closed_form(self, m, n, p):
        spec = make_symmetric_product(make_space(m), n, p)
        profile = expected_error(spec)
        assert profile.expected_error == pytest.approx(n * p * m, abs=1e-12)
        assert profile.expected_error == pytest.approx(exhaustive_error(spec),
                                                       abs=1e-12)

    def test_uniform_hits_upper_bound(self):
        m, n = 3, 2
        spec = make_symmetric_product(make_space(m), n, 1 / (m + 1))
        profile = expected_error(spec)
        assert profile.per_row_error == pytest.approx(m / (m + 1))
        assert profile.expected_error == pytest.approx(profile.upper_bound)

    def test_identity_has_zero_error(self, space3):
        spec = make_symmetric_product(space3, 2, 0.0)
        assert expected_error(spec).expected_error == 0.0

    def test_tiny_flip_probability_does_not_cancel(self):
        # 1 - (1 - m*p) loses most digits of m*p once p is near 1e-13
        m, n, p = 2, 3, 1e-13
        spec = make_symmetric_product(make_space(m), n, p)
        assert expected_error(spec).expected_error == pytest.approx(
            n * m * p, rel=1e-12, abs=0)

    def test_hamming_large_k_matches_closed_form(self):
        m, n, k = 2, 4, 30.0
        spec = ExponentialSpec(make_space(m), n, HammingUtility(k))
        assert expected_error(spec).expected_error == pytest.approx(
            n / (1 + math.exp(k) / m), rel=1e-12, abs=0)

    def test_general_spec_exhaustive_route(self, l1_spec):
        profile = expected_error(l1_spec)
        assert profile.expected_error == pytest.approx(
            exhaustive_error(l1_spec), abs=1e-12)

    def test_bounds_attached_with_params(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(1.0))
        params = PrivacyParams(1.0, 0.0)
        profile = expected_error(spec, params)
        lower, upper = error_bounds(params, 2, 2)
        assert profile.lower_bound == lower
        assert profile.upper_bound == upper
        assert lower <= profile.expected_error <= upper


class TestErrorBounds:
    def test_zero_budget_bounds_coincide(self):
        lower, upper = error_bounds(PrivacyParams(0.0, 0.0), 3, 2)
        assert lower == pytest.approx(upper) == pytest.approx(2 * 3 / 4)

    def test_delta_near_one_lower_bound_vanishes(self):
        lower, _ = error_bounds(PrivacyParams(0.0, 1.0), 2, 5)
        assert lower == 0.0

    def test_worked_value(self):
        lower, _ = error_bounds(PrivacyParams(math.log(4), 0.0), 4, 6)
        assert lower == pytest.approx(6 * (1 / (1 + 4 / 4)) * 1.0) \
            == pytest.approx(3.0)


class TestParameterMap:
    def test_uniform_endpoint(self):
        for m in (1, 2, 4):
            assert k_from_p(1 / (m + 1), m) == pytest.approx(0.0, abs=1e-12)
            assert p_from_k(0.0, m) == pytest.approx(1 / (m + 1))

    def test_worked_value(self):
        assert math.exp(k_from_p(0.1, 2)) == pytest.approx(8.0)
        assert k_from_p(0.1, 2) == pytest.approx(math.log(8))

    def test_no_noise_sentinel(self):
        assert k_from_p(0.0, 3) == math.inf
        assert p_from_k(math.inf, 3) == 0.0

    @given(st.integers(1, 5), st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, m, frac):
        p = frac / (m + 1)
        assert p_from_k(k_from_p(p, m), m) == pytest.approx(p, abs=1e-12)

    @given(st.integers(1, 5), st.floats(0.0, 8.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_k(self, m, k):
        assert k_from_p(p_from_k(k, m), m) == pytest.approx(k, abs=1e-9)

    def test_range_errors(self):
        with pytest.raises(ParameterRangeError):
            k_from_p(0.6, 2)
        with pytest.raises(ParameterRangeError):
            p_from_k(-0.5, 2)

    def test_pmf_identity_after_conversion(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(1.3))
        converted = exponential_to_product(spec)
        for i in range(9):
            np.testing.assert_allclose(spec.pmf_row(i), converted.pmf_row(i),
                                       atol=1e-12, rtol=0)
        back = product_to_exponential(converted)
        assert back.utility.k == pytest.approx(1.3, abs=1e-12)

    def test_conversion_consistency_of_conditions(self):
        for m in (1, 2, 3):
            for k in (0.0, 0.4, 1.1, 2.0):
                for eps in DEFAULT_EPSILONS:
                    for delta in DEFAULT_DELTAS:
                        params = PrivacyParams(eps, delta)
                        a = exp_dp_condition(k, params, m).satisfied
                        b = product_dp_condition(p_from_k(k, m), params,
                                                 m).satisfied
                        assert a == b, (m, k, eps, delta)


class TestOptimalMechanism:
    def test_zero_budget_is_uniform(self):
        matrix = optimal_mechanism(PrivacyParams(0.0, 0.0), 3)
        assert np.allclose(matrix.values, 0.25)

    def test_worked_value(self):
        matrix = optimal_mechanism(PrivacyParams(math.log(4), 0.0), 4)
        assert matrix.values[0, 1] == pytest.approx(1 / 8)
        assert matrix.values[0, 0] == pytest.approx(1 / 2)

    def test_binding_identity(self):
        for eps in (0.0, 0.5, 1.0):
            for delta in (0.0, 0.2):
                matrix = optimal_mechanism(PrivacyParams(eps, delta), 3)
                p = matrix.values[0, 1]
                assert matrix.values[0, 0] == pytest.approx(
                    math.exp(eps) * p + delta, abs=1e-12)

    def test_achieves_lower_bound(self):
        for eps in DEFAULT_EPSILONS:
            for delta in DEFAULT_DELTAS:
                params = PrivacyParams(eps, delta)
                for m in (1, 2, 4):
                    for n in (1, 3):
                        matrix = optimal_mechanism(params, m)
                        err = matrix_expected_error(matrix, n)
                        lower, _ = error_bounds(params, m, n)
                        assert err == pytest.approx(lower, abs=1e-12)

    def test_error_monotone_in_budget(self):
        errs = [matrix_expected_error(
            optimal_mechanism(PrivacyParams(eps, 0.0), 3), 1)
            for eps in (0.0, 0.5, 1.0, 2.0)]
        assert errs == sorted(errs, reverse=True)
        errs = [matrix_expected_error(
            optimal_mechanism(PrivacyParams(1.0, d), 3), 1)
            for d in (0.0, 0.1, 0.3)]
        assert errs == sorted(errs, reverse=True)

    def test_degenerate_delta_one(self):
        matrix = optimal_mechanism(PrivacyParams(1.0, 1.0), 2)
        assert np.array_equal(matrix.values, np.eye(3))

    def test_exact_entries(self):
        params = exact_params(Fraction(3), Fraction(1, 4))
        matrix = optimal_mechanism(params, 2, exact=True)
        assert matrix.fractions()[0][1] == Fraction(3, 20)
        assert matrix.fractions()[0][0] == Fraction(3, 20) * 3 + Fraction(1, 4)

    def test_verified_private_with_zero_slack(self):
        params = exact_params(Fraction(2), Fraction(1, 10))
        matrix = optimal_mechanism(params, 3, exact=True)
        report = verify_matrix(matrix, params, exact=True)
        assert report.private and report.margin == 0.0


class TestFeasibleSampling:
    def test_accepted_matrices_pass_verify_matrix(self, rng):
        params = PrivacyParams(1.0, 0.05)
        mats = sample_feasible_matrices(2, params, 40, rng)
        assert mats.shape == (40, 3, 3)
        for values in mats[:10]:
            from dpcat import SolutionMatrix
            assert verify_matrix(SolutionMatrix(values), params).private

    def test_batch_margins_match_verify_matrix(self):
        # one canonical margin: the parent route and the sampler's screen
        # both add e^eps * M[v, c] - M[u, c] over the worst set in c order,
        # then delta, so at m <= 6 (rows summed one by one) they agree
        rng = np.random.default_rng(2315)
        for m in range(1, 7):
            space = make_space(m)
            for _ in range(200):
                matrix = SolutionMatrix(rng.dirichlet(np.ones(m + 1),
                                                      size=m + 1))
                params = PrivacyParams(float(rng.uniform(0.0, 2.0)),
                                       float(rng.choice([0.0, rng.uniform(
                                           0.0, 0.2)])))
                weights = np.exp(ProductSpec(space, 1, matrix).log_weights)
                assert verify_matrix(matrix, params).margin == float(
                    batch_matrix_margins(weights[None], params)[0])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, math.log(2), 3.0])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_batch_margins_match_subset_enumeration(self, m, eps, delta):
        size = m + 1
        rng = np.random.default_rng(100 * m + 7)
        base = rng.dirichlet(np.ones(size))
        zeros = rng.dirichlet(np.ones(size), size=size)
        zeros[:, 0] = 0.0
        zeros[0, 1:] = 0.0
        zeros[0, 0] = 1.0
        zeros /= zeros.sum(axis=1, keepdims=True)
        # rows summing to 1 +- 1e-10: at eps = 0 every term of the ordered
        # pair (row 0, row 1) is negative
        skewed = np.tile(base, (size, 1))
        skewed[0] *= 1 + 1e-10
        skewed[1] *= 1 - 1e-10
        mats = np.concatenate([
            rng.dirichlet(np.ones(size), size=(40, size)),
            rng.dirichlet(np.full(size, 0.2), size=(20, size)),
            np.tile(base, (size, 1))[None],         # identical rows
            zeros[None],
            np.eye(size)[None],
            skewed[None],
        ])
        params = PrivacyParams(eps, delta)
        margins = batch_matrix_margins(mats, params)
        assert margins.shape == (mats.shape[0],)
        for values, margin in zip(mats, margins):
            expected = _oracles.matrix_margin_literal(
                values.tolist(), math.exp(eps), delta)
            assert abs(float(margin) - expected) <= 1e-15
            assert (margin >= -TOLERANCE) == (expected >= -TOLERANCE)

    def test_batch_margins_span_several_chunks(self, rng):
        params = PrivacyParams(1.0, 0.05)
        mats = rng.dirichlet(np.ones(3), size=(5000, 3))
        whole = batch_matrix_margins(mats, params)
        parts = np.concatenate([batch_matrix_margins(mats[i:i + 999], params)
                                for i in range(0, 5000, 999)])
        assert np.array_equal(whole, parts)
        assert batch_matrix_margins(mats[:0], params).shape == (0,)

    def test_no_sampled_matrix_beats_optimal(self, rng):
        # small-scale version of the optimality search
        params = PrivacyParams(1.0, 0.0)
        optimal_err = matrix_expected_error(optimal_mechanism(params, 2), 1)
        mats = sample_feasible_matrices(2, params, 300, rng)
        errs = 1.0 - mats.diagonal(axis1=1, axis2=2).min(axis=1)
        assert float(errs.min()) >= optimal_err - 1e-12

    def test_infeasible_region_raises(self):
        # eps = delta = 0 admits only measure-zero matrices; every batch is
        # still drawn
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        with pytest.raises(RuntimeError, match="feasible"):
            sample_feasible_matrices(2, PrivacyParams(0.0, 0.0), 10, rng,
                                     batch=256, max_batches=3)
        with pytest.raises(RuntimeError, match="feasible"):
            _oracles.sample_feasible_dirichlet(2, 1.0, 0.0, 10, reference,
                                               256, 3, TOLERANCE)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("name, value", [
        ("m", 0), ("count", 0), ("count", -3), ("batch", 0),
        ("max_batches", 0)])
    def test_bad_arguments_are_refused_before_any_draw(self, name, value):
        args = {"m": 2, "count": 10, "batch": 100, "max_batches": 5}
        args[name] = value
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ParameterRangeError, match=f"^{name} must be >= 1"):
            sample_feasible_matrices(args.pop("m"), PrivacyParams(1.0, 0.0),
                                     args.pop("count"), rng, **args)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_batches_are_the_dirichlet_stream(self, m):
        # at delta = 1 every matrix is kept, so a call returns its batch
        size = m + 1
        batch = dpcat.analysis._SCREEN_CHUNK + 5
        ours, theirs = np.random.default_rng(m), np.random.default_rng(m)
        got = sample_feasible_matrices(m, PrivacyParams(0.0, 1.0), batch,
                                       ours, batch=batch)
        want = theirs.dirichlet(np.ones(size), size=(batch, size))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("m, eps, delta, batch, count", [
        (1, math.log(2), 0.0, 9_000, 5),      # filled in the first chunk
        (2, 1.0, 0.1, 8_200, 2_000),          # a chunk and an 8-matrix tail
        (2, 1.0, 0.0, 1_000, 1_000),
        (3, math.log(4), 0.1, 3_000, 1_500),
        (4, 3.0, 0.0, 10_000, 900),
    ])
    def test_matches_the_dirichlet_sampler(self, m, eps, delta, batch,
                                           count):
        ours = np.random.default_rng(count)
        theirs = np.random.default_rng(count)
        for _ in range(2):
            got = sample_feasible_matrices(m, PrivacyParams(eps, delta),
                                           count, ours, batch=batch)
            want = _oracles.sample_feasible_dirichlet(
                m, math.exp(eps), delta, count, theirs, batch, 2000,
                TOLERANCE)
            assert got.shape == want.shape == (count, m + 1, m + 1)
            assert got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_singleton_screen_never_refuses_a_feasible_matrix(self, data):
        m = data.draw(st.integers(1, 4), label="m")
        size = m + 1
        eps = data.draw(st.floats(0.0, 3.0), label="eps")
        delta = data.draw(st.sampled_from(DEFAULT_DELTAS + (1.0,))
                          | st.floats(0.0, 1.0), label="delta")
        params = PrivacyParams(eps, delta)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        dense = rng.dirichlet(np.ones(size), size=(64, size))
        # parents with zero entries, every row keeping one category or more
        sparse = rng.dirichlet(np.full(size, 0.3), size=(64, size))
        sparse[rng.random(sparse.shape)
               < data.draw(st.floats(0.0, 0.8), label="zeros")] = 0.0
        sparse[..., 0] += sparse.sum(axis=-1) == 0.0
        sparse /= sparse.sum(axis=-1, keepdims=True)
        # the zero-slack optimum, entries nudged by up to 4 ulps
        knife = np.repeat(optimal_mechanism(params, m).values[None], 64,
                          axis=0)
        knife = np.maximum(knife + rng.integers(-4, 5, knife.shape)
                           * np.spacing(knife), 0.0)
        mats = np.concatenate([dense, sparse, knife])
        e_eps = math.exp(eps)
        bound = dpcat.analysis._singleton_bound(
            np.ascontiguousarray(mats.transpose(2, 1, 0)), e_eps, delta)
        assert bound.tolist() == [
            min(e_eps * min(col) - max(col) for col in zip(*mat)) + delta
            for mat in mats.tolist()]
        margins = batch_matrix_margins(mats, params)
        assert np.all(margins <= bound)
        assert np.all(bound[margins >= -TOLERANCE] >= -TOLERANCE)
