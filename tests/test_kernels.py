import math
from fractions import Fraction

import numpy as np
import pytest

from dpcat import kernels
from dpcat.errors import EnumerationBudgetError

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


def _first_minimum_units(a_units, b_units, delta_units, include_full):
    """(margin, mask) of the first minimising mask in integer order, in
    units of 1/64 with e^eps = 2, by literal integer enumeration."""
    k = len(a_units)
    terms = [2 * b - a for a, b in zip(a_units, b_units)]
    best = None
    for mask in range(1, 1 << k):
        if mask == (1 << k) - 1 and not include_full:
            continue
        margin = delta_units + sum(t for i, t in enumerate(terms)
                                   if mask >> i & 1)
        if best is None or margin < best[0]:
            best = (margin, mask)
    return best


def _dyadic_case(rng, k, kind):
    """Integer numerators over 64 of p_a and p_b for one term pattern."""
    a = rng.integers(0, 9, k)
    if kind == "negative":           # 2 * b < a: every term below zero
        a = np.maximum(a, 1)
        b = rng.integers(0, (a + 1) // 2)
    elif kind == "positive":         # 2 * b > a: every term above zero
        b = a // 2 + rng.integers(1, 4, k)
    elif kind == "zeros":            # terms 0 or 1/64, some entries zero
        b = rng.integers(0, 5, k)
        a = 2 * b - rng.integers(0, 2, k) * (b > 0)
    else:
        b = rng.integers(0, 9, k)
    return a, b


@pytest.mark.parametrize("kind", ["mixed", "negative", "positive", "zeros"])
@pytest.mark.parametrize("include_full", [False, True])
@pytest.mark.parametrize("k", range(1, 13))
def test_dyadic_ties_and_corners(k, include_full, kind):
    # multiples of 1/64 with e^eps = 2: every subset sum is exact in float,
    # so the margin and the first minimising mask must match exactly
    if k == 1 and not include_full:
        return
    rng = np.random.default_rng(k)
    a, b = _dyadic_case(rng, k, kind)
    delta_units = 1
    margin, mask, checks = kernels.subset_scan(a / 64, b / 64, 2.0,
                                               delta_units / 64,
                                               include_full)
    expect, expect_mask = _first_minimum_units(a.tolist(), b.tolist(),
                                               delta_units, include_full)
    assert checks == 2 ** k - (1 if include_full else 2)
    assert margin == expect / 64
    assert mask == expect_mask


@pytest.mark.parametrize("include_full", [False, True])
def test_both_excluded_corners_bind(include_full):
    # all terms positive: the best set is the smallest single element, not
    # the empty set; all negative: the full set, or all but the largest
    # term (element 0) when the full set is excluded
    for k in (2, 3, 8, 9):
        a = np.arange(1, k + 1, dtype=float) / 64
        margin, mask, _ = kernels.subset_scan(a, a, 2.0, 0.0, include_full)
        assert (margin, mask) == (1 / 64, 1)
        margin, mask, _ = kernels.subset_scan(a, np.zeros(k), 2.0, 0.0,
                                              include_full)
        full = (1 << k) - 1
        if include_full:
            assert (margin, mask) == (-a.sum(), full)
        else:
            assert (margin, mask) == (-a[1:].sum(), full - 1)


@pytest.mark.parametrize("k", [18, 24, 28])
def test_wide_scan_accuracy(k):
    # up to 2^28 subsets: accumulated rounding must stay far below the
    # verifier's 1e-12 margin tolerance
    rng = np.random.default_rng(3)
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
    analytic = math.fsum(terms[terms < 0])
    assert margin == pytest.approx(analytic, abs=5e-14)


@pytest.mark.parametrize("k", [2, 3, 15, 16, 24, 25])
@pytest.mark.parametrize("include_full", [False, True])
def test_all_negative_terms_across_the_split(k, include_full):
    # every term e^eps * p_b - p_a is negative, so the minimum takes the
    # full set, or, when the full set is excluded, all but the largest term;
    # odd k gives the low half one element more than the high half
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


@pytest.mark.parametrize("kind", ["mixed", "zeros"])
@pytest.mark.parametrize("include_full", [False, True])
@pytest.mark.parametrize("k", range(1, 13))
def test_exact_scan_matches_literal_enumeration(k, include_full, kind):
    # the dyadic cases as Fractions: the exact scan returns a Fraction
    # margin equal to the literal minimum, with the first minimising mask
    if k == 1 and not include_full:
        return
    a, b = _dyadic_case(np.random.default_rng(k), k, kind)
    p_a = [Fraction(int(x), 64) for x in a]
    p_b = [Fraction(int(x), 64) for x in b]
    margin, mask, checks = kernels.subset_scan(p_a, p_b, Fraction(2),
                                               Fraction(1, 64), include_full)
    assert isinstance(margin, Fraction)
    assert (margin, checks) == _oracles.subset_scan_literal(
        p_a, p_b, Fraction(2), Fraction(1, 64), include_full)
    expect, expect_mask = _first_minimum_units(a.tolist(), b.tolist(), 1,
                                               include_full)
    assert (margin, mask) == (Fraction(expect, 64), expect_mask)


def test_width_limit_fails_before_allocating():
    k = kernels.MAX_WIDTH + 1
    with pytest.raises(EnumerationBudgetError) as info:
        kernels.subset_scan(np.zeros(k), np.zeros(k), 1.0, 0.0)
    assert info.value.count == k


def _stacked_columns(rng, k):
    """(k, P) p_a and p_b whose columns hold random pairs, pairs of
    multiples of 1/64 (exact ties), pairs with zero entries, identical
    pairs (p_a = p_b) and one pair repeated."""
    def dyadic(shape):
        return rng.integers(0, 5, shape) / 64
    a = np.hstack([rng.random((k, 2)), dyadic((k, 2)),
                   rng.random((k, 2)) * (rng.random((k, 2)) < 0.5),
                   rng.random((k, 2))])
    b = np.hstack([rng.random((k, 2)), dyadic((k, 2)),
                   rng.random((k, 2)) * (rng.random((k, 2)) < 0.5),
                   a[:, 6:]])
    return np.hstack([a, a[:, :1]]), np.hstack([b, b[:, :1]])


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("include_full", [False, True])
@pytest.mark.parametrize("k", range(1, 25))
def test_stacked_columns_match_one_pair_scans(k, include_full, exact):
    # a (k, P) scan returns, per column, bit for bit the margin and mask
    # of that column's own scan, and P times its check count
    p_a, p_b = _stacked_columns(np.random.default_rng(k), k)
    e_eps, delta = 2.0, 1 / 64
    if exact:
        # the tie, zero and identical-pair columns: wide Fraction scans are
        # slow, and the random columns add nothing the float runs miss
        p_a, p_b = (np.vectorize(Fraction, otypes=[object])(p[:, 2:7:2])
                    for p in (p_a, p_b))
        e_eps, delta = Fraction(e_eps), Fraction(delta)
    margins, masks, checks = kernels.subset_scan(p_a, p_b, e_eps, delta,
                                                 include_full)
    assert margins.shape == masks.shape == (p_a.shape[1],)
    n_checks = (1 << k) - (1 if include_full else 2)
    assert checks == p_a.shape[1] * max(n_checks, 0)
    for p in range(p_a.shape[1]):
        margin, mask, one = kernels.subset_scan(p_a[:, p], p_b[:, p], e_eps,
                                                delta, include_full)
        assert one == max(n_checks, 0)
        assert masks[p] == mask
        if exact:
            assert margins[p] == margin
        else:
            assert np.float64(margins[p]).tobytes() \
                == np.float64(margin).tobytes()
