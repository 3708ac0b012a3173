import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcat import kernels

import _oracles

BACKENDS = kernels.available_backends()


def _random_probs(rng, k):
    p = rng.random(k)
    return p / p.sum()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("include_full", [False, True])
def test_matches_literal_enumeration(backend, include_full):
    impl = kernels.get_backend(backend)
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5, 8, 10):
        if k == 1 and not include_full:
            continue
        p_a = _random_probs(rng, k)
        p_b = _random_probs(rng, k)
        e_eps, delta = 1.7, 0.03
        margin, mask, checks = impl.subset_scan(p_a, p_b, e_eps, delta,
                                                include_full)
        expect, expect_checks = _oracles.subset_scan_literal(
            p_a, p_b, e_eps, delta, include_full)
        assert checks == expect_checks
        assert margin == pytest.approx(expect, abs=1e-13)
        # the witness mask reproduces the reported margin
        direct = (e_eps * p_b[[i for i in range(k) if mask >> i & 1]].sum()
                  + delta - p_a[[i for i in range(k) if mask >> i & 1]].sum())
        assert direct == pytest.approx(margin, abs=1e-13)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel not built")
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_backends_agree(data):
    k = data.draw(st.integers(2, 12))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    include_full = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    p_a = _random_probs(rng, k)
    p_b = _random_probs(rng, k)
    e_eps = math.exp(data.draw(st.floats(0, 3)))
    delta = data.draw(st.sampled_from([0.0, 0.01, 0.3]))
    results = [kernels.get_backend(b).subset_scan(p_a, p_b, e_eps, delta,
                                                  include_full)
               for b in BACKENDS]
    margins = [r[0] for r in results]
    counts = [r[2] for r in results]
    assert counts[0] == counts[1]
    assert margins[0] == pytest.approx(margins[1], abs=1e-13)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_and_degenerate(backend):
    impl = kernels.get_backend(backend)
    # k = 1 without the full set leaves nothing to check
    margin, mask, checks = impl.subset_scan(
        np.array([1.0]), np.array([1.0]), 1.0, 0.0, False)
    assert checks == 0 and math.isinf(margin)
    # k = 1 with the full set: exactly one subset
    margin, mask, checks = impl.subset_scan(
        np.array([0.8]), np.array([0.1]), 1.0, 0.0, True)
    assert checks == 1
    assert mask == 1
    assert margin == pytest.approx(0.1 - 0.8)


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_probabilities(backend):
    impl = kernels.get_backend(backend)
    p_a = np.array([0.0, 0.5, 0.5, 0.0])
    p_b = np.array([0.25, 0.25, 0.25, 0.25])
    margin, mask, checks = impl.subset_scan(p_a, p_b, 1.0, 0.0, False)
    expect, _ = _oracles.subset_scan_literal(p_a, p_b, 1.0, 0.0, False)
    assert checks == 2 ** 4 - 2
    assert margin == pytest.approx(expect, abs=1e-15)


@pytest.mark.parametrize("backend", BACKENDS)
def test_wide_scan_accuracy(backend):
    # 2^18 subsets: accumulated rounding must stay far below the verifier's
    # 1e-12 margin tolerance
    impl = kernels.get_backend(backend)
    rng = np.random.default_rng(3)
    k = 18
    p_a = _random_probs(rng, k)
    p_b = _random_probs(rng, k)
    e_eps = 1.25
    margin, mask, checks = impl.subset_scan(p_a, p_b, e_eps, 0.0, False)
    assert checks == 2 ** k - 2
    # exact evaluation at the witness
    idx = [i for i in range(k) if mask >> i & 1]
    exact = float(e_eps * math.fsum(p_b[idx]) - math.fsum(p_a[idx]))
    assert margin == pytest.approx(exact, abs=5e-14)
    # analytic minimum: sum of the negative per-element terms
    terms = e_eps * p_b - p_a
    analytic = terms[terms < 0].sum()
    assert margin == pytest.approx(analytic, abs=5e-14)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k", [16, 17])
@pytest.mark.parametrize("include_full", [False, True])
def test_all_negative_terms_across_the_split(backend, k, include_full):
    # every term e^eps * p_b - p_a is negative, so the minimum takes the
    # full set, or, when the full set is excluded, all but the largest term;
    # k = 17 puts one element in the high half of the split scan
    impl = kernels.get_backend(backend)
    rng = np.random.default_rng(11)
    p_a = _random_probs(rng, k)
    p_b = 0.1 * _random_probs(rng, k) * p_a
    e_eps, delta = 1.5, 0.02
    terms = e_eps * p_b - p_a
    assert np.all(terms < 0)
    margin, mask, checks = impl.subset_scan(p_a, p_b, e_eps, delta,
                                            include_full)
    expect = delta + math.fsum(terms)
    if not include_full:
        expect -= terms.max()
    assert checks == 2 ** k - (1 if include_full else 2)
    assert margin == pytest.approx(expect, abs=1e-13)
    idx = [i for i in range(k) if mask >> i & 1]
    direct = e_eps * math.fsum(p_b[idx]) + delta - math.fsum(p_a[idx])
    assert direct == pytest.approx(margin, abs=1e-13)
