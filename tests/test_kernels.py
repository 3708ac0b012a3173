import math

import numpy as np
import pytest

from dpcat import kernels

import _oracles


def _random_probs(rng, k):
    p = rng.random(k)
    return p / p.sum()


@pytest.mark.parametrize("include_full", [False, True])
def test_matches_literal_enumeration(include_full):
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5, 8, 10):
        if k == 1 and not include_full:
            continue
        p_a = _random_probs(rng, k)
        p_b = _random_probs(rng, k)
        e_eps, delta = 1.7, 0.03
        margin, mask, checks = kernels.subset_scan(p_a, p_b, e_eps, delta,
                                                   include_full)
        expect, expect_checks = _oracles.subset_scan_literal(
            p_a, p_b, e_eps, delta, include_full)
        assert checks == expect_checks
        assert margin == pytest.approx(expect, abs=1e-13)
        # the witness mask reproduces the reported margin
        direct = (e_eps * p_b[[i for i in range(k) if mask >> i & 1]].sum()
                  + delta - p_a[[i for i in range(k) if mask >> i & 1]].sum())
        assert direct == pytest.approx(margin, abs=1e-13)


def test_empty_and_degenerate():
    # k = 1 without the full set leaves nothing to check
    margin, mask, checks = kernels.subset_scan(
        np.array([1.0]), np.array([1.0]), 1.0, 0.0, False)
    assert checks == 0 and math.isinf(margin)
    # k = 1 with the full set: exactly one subset
    margin, mask, checks = kernels.subset_scan(
        np.array([0.8]), np.array([0.1]), 1.0, 0.0, True)
    assert checks == 1
    assert mask == 1
    assert margin == pytest.approx(0.1 - 0.8)


def test_zero_probabilities():
    p_a = np.array([0.0, 0.5, 0.5, 0.0])
    p_b = np.array([0.25, 0.25, 0.25, 0.25])
    margin, mask, checks = kernels.subset_scan(p_a, p_b, 1.0, 0.0, False)
    expect, _ = _oracles.subset_scan_literal(p_a, p_b, 1.0, 0.0, False)
    assert checks == 2 ** 4 - 2
    assert margin == pytest.approx(expect, abs=1e-15)


def test_wide_scan_accuracy():
    # 2^18 subsets: accumulated rounding must stay far below the verifier's
    # 1e-12 margin tolerance
    rng = np.random.default_rng(3)
    k = 18
    p_a = _random_probs(rng, k)
    p_b = _random_probs(rng, k)
    e_eps = 1.25
    margin, mask, checks = kernels.subset_scan(p_a, p_b, e_eps, 0.0, False)
    assert checks == 2 ** k - 2
    # exact evaluation at the witness
    idx = [i for i in range(k) if mask >> i & 1]
    exact = float(e_eps * math.fsum(p_b[idx]) - math.fsum(p_a[idx]))
    assert margin == pytest.approx(exact, abs=5e-14)
    # analytic minimum: sum of the negative per-element terms
    terms = e_eps * p_b - p_a
    analytic = terms[terms < 0].sum()
    assert margin == pytest.approx(analytic, abs=5e-14)


@pytest.mark.parametrize("k", [16, 17])
@pytest.mark.parametrize("include_full", [False, True])
def test_all_negative_terms_across_the_split(k, include_full):
    # every term e^eps * p_b - p_a is negative, so the minimum takes the
    # full set, or, when the full set is excluded, all but the largest term;
    # k = 17 puts one element in the high half of the split scan
    rng = np.random.default_rng(11)
    p_a = _random_probs(rng, k)
    p_b = 0.1 * _random_probs(rng, k) * p_a
    e_eps, delta = 1.5, 0.02
    terms = e_eps * p_b - p_a
    assert np.all(terms < 0)
    margin, mask, checks = kernels.subset_scan(p_a, p_b, e_eps, delta,
                                               include_full)
    expect = delta + math.fsum(terms)
    if not include_full:
        expect -= terms.max()
    assert checks == 2 ** k - (1 if include_full else 2)
    assert margin == pytest.approx(expect, abs=1e-13)
    idx = [i for i in range(k) if mask >> i & 1]
    direct = e_eps * math.fsum(p_b[idx]) + delta - math.fsum(p_a[idx])
    assert direct == pytest.approx(margin, abs=1e-13)
