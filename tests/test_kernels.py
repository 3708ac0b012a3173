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


def _scan(p_a, p_b, e_eps, delta, stacked=False):
    """One pair's ``(margin, mask, checks)``: the pair scanned as a (k, 1)
    stack, or, when ``stacked``, as column 1 of a (k, 3) stack between its
    mirror image and an identical pair."""
    if stacked:
        a = np.column_stack([p_b, p_a, p_a])
        b = np.column_stack([p_a, p_b, p_a])
    else:
        a, b = np.column_stack([p_a]), np.column_stack([p_b])
    margins, masks, checks = kernels.subset_scan(a, b, e_eps, delta)
    col = a.shape[1] // 2
    return margins[col], int(masks[col]), checks // a.shape[1]


@pytest.mark.parametrize("stacked", [False, True])
def test_matches_literal_enumeration(stacked):
    rng = np.random.default_rng(7)
    for k in (2, 3, 5, 8, 10):
        p_a = _random_probs(rng, k)
        p_b = _random_probs(rng, k)
        e_eps, delta = 1.7, 0.03
        margin, mask, checks = _scan(p_a, p_b, e_eps, delta, stacked)
        expect, expect_checks = _oracles.subset_scan_literal(
            p_a, p_b, e_eps, delta, include_full=False)
        assert checks == expect_checks
        assert margin == pytest.approx(expect, abs=1e-13)
        # the witness mask reproduces the reported margin
        direct = (e_eps * p_b[[i for i in range(k) if mask >> i & 1]].sum()
                  + delta - p_a[[i for i in range(k) if mask >> i & 1]].sum())
        assert direct == pytest.approx(margin, abs=1e-13)


def test_empty_and_degenerate():
    # k = 1 leaves no nonempty proper subset to check, for any pair count
    for pairs in (1, 3):
        margins, masks, checks = kernels.subset_scan(
            np.ones((1, pairs)), np.ones((1, pairs)), 1.0, 0.0)
        assert checks == 0
        assert margins.shape == masks.shape == (pairs,)
        assert np.all(np.isinf(margins)) and not masks.any()


def test_zero_probabilities():
    p_a = np.array([0.0, 0.5, 0.5, 0.0])
    p_b = np.array([0.25, 0.25, 0.25, 0.25])
    margin, mask, checks = _scan(p_a, p_b, 1.0, 0.0)
    expect, _ = _oracles.subset_scan_literal(p_a, p_b, 1.0, 0.0, False)
    assert checks == 2 ** 4 - 2
    assert margin == pytest.approx(expect, abs=1e-15)


def test_one_pair_is_a_column_stack():
    # a lone (k,) vector is not a stack of columns
    with pytest.raises(ValueError):
        kernels.subset_scan(np.full(3, 1 / 3), np.full(3, 1 / 3), 1.0, 0.0)


def _first_minimum_units(a_units, b_units, delta_units):
    """(margin, mask) of the first minimising nonempty proper mask in
    integer order, in units of 1/64 with e^eps = 2, by literal integer
    enumeration."""
    k = len(a_units)
    terms = [2 * b - a for a, b in zip(a_units, b_units)]
    best = None
    for mask in range(1, (1 << k) - 1):
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
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("k", range(1, 13))
def test_dyadic_ties_and_corners(k, stacked, kind):
    # multiples of 1/64 with e^eps = 2: every subset sum is exact in float,
    # so the margin and the first minimising mask must match exactly
    rng = np.random.default_rng(k)
    a, b = _dyadic_case(rng, k, kind)
    delta_units = 1
    margin, mask, checks = _scan(a / 64, b / 64, 2.0, delta_units / 64,
                                 stacked)
    assert checks == 2 ** k - 2
    if k == 1:
        assert (math.isinf(margin), mask) == (True, 0)
        return
    expect, expect_mask = _first_minimum_units(a.tolist(), b.tolist(),
                                               delta_units)
    assert margin == expect / 64
    assert mask == expect_mask


@pytest.mark.parametrize("stacked", [False, True])
def test_both_excluded_corners_bind(stacked):
    # all terms positive: the best set is the smallest single element, not
    # the empty set; all negative: all but the largest term (element 0),
    # not the full set
    for k in (2, 3, 8, 9):
        a = np.arange(1, k + 1, dtype=float) / 64
        margin, mask, _ = _scan(a, a, 2.0, 0.0, stacked)
        assert (margin, mask) == (1 / 64, 1)
        margin, mask, _ = _scan(a, np.zeros(k), 2.0, 0.0, stacked)
        assert (margin, mask) == (-a[1:].sum(), (1 << k) - 2)


@pytest.mark.parametrize("k", [18, 24, 28])
def test_wide_scan_accuracy(k):
    # up to 2^28 subsets: accumulated rounding must stay far below the
    # verifier's 1e-12 margin tolerance
    rng = np.random.default_rng(3)
    p_a = _random_probs(rng, k)
    p_b = _random_probs(rng, k)
    e_eps = 1.25
    margin, mask, checks = _scan(p_a, p_b, e_eps, 0.0)
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
@pytest.mark.parametrize("stacked", [False, True])
def test_all_negative_terms_across_the_split(k, stacked):
    # every term e^eps * p_b - p_a is negative, so the minimum takes all
    # but the largest term, the full set being excluded; odd k gives the
    # low half one element more than the high half
    rng = np.random.default_rng(11)
    p_a = _random_probs(rng, k)
    p_b = 0.1 * _random_probs(rng, k) * p_a
    e_eps, delta = 1.5, 0.02
    terms = e_eps * p_b - p_a
    assert np.all(terms < 0)
    margin, mask, checks = _scan(p_a, p_b, e_eps, delta, stacked)
    expect = delta + math.fsum(terms) - terms.max()
    assert checks == 2 ** k - 2
    assert margin == pytest.approx(expect, abs=1e-13)
    idx = [i for i in range(k) if mask >> i & 1]
    direct = e_eps * math.fsum(p_b[idx]) + delta - math.fsum(p_a[idx])
    assert direct == pytest.approx(margin, abs=1e-13)


@pytest.mark.parametrize("kind", ["mixed", "zeros"])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("k", range(1, 13))
def test_exact_scan_matches_literal_enumeration(k, stacked, kind):
    # the dyadic cases as Fractions: the exact scan returns a Fraction
    # margin equal to the literal minimum, with the first minimising mask
    a, b = _dyadic_case(np.random.default_rng(k), k, kind)
    p_a = [Fraction(int(x), 64) for x in a]
    p_b = [Fraction(int(x), 64) for x in b]
    margin, mask, checks = _scan(p_a, p_b, Fraction(2), Fraction(1, 64),
                                 stacked)
    assert (margin, checks) == _oracles.subset_scan_literal(
        p_a, p_b, Fraction(2), Fraction(1, 64), include_full=False)
    if k == 1:
        return
    assert isinstance(margin, Fraction)
    expect, expect_mask = _first_minimum_units(a.tolist(), b.tolist(), 1)
    assert (margin, mask) == (Fraction(expect, 64), expect_mask)


def test_width_limit_fails_before_allocating():
    k = kernels.MAX_WIDTH + 1
    with pytest.raises(EnumerationBudgetError) as info:
        kernels.subset_scan(np.zeros((k, 1)), np.zeros((k, 1)), 1.0, 0.0)
    assert info.value.count == k
    assert str(info.value) == (f"scanning the subsets of {k} elements "
                               f"exceeds the kernel's limit of 40")


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
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("k", range(1, 25))
def test_stacked_columns_match_one_pair_scans(k, reverse, exact):
    # a (k, P) scan returns, per column, bit for bit the margin and mask
    # of that column's own (k, 1) scan, and P times its check count, with
    # the columns in either order
    p_a, p_b = _stacked_columns(np.random.default_rng(k), k)
    e_eps, delta = 2.0, 1 / 64
    if exact:
        # the tie, zero and identical-pair columns: wide Fraction scans are
        # slow, and the random columns add nothing the float runs miss
        p_a, p_b = (np.vectorize(Fraction, otypes=[object])(p[:, 2:7:2])
                    for p in (p_a, p_b))
        e_eps, delta = Fraction(e_eps), Fraction(delta)
    if reverse:
        p_a, p_b = p_a[:, ::-1], p_b[:, ::-1]
    margins, masks, checks = kernels.subset_scan(p_a, p_b, e_eps, delta)
    assert margins.shape == masks.shape == (p_a.shape[1],)
    n_checks = (1 << k) - 2
    assert checks == p_a.shape[1] * n_checks
    for p in range(p_a.shape[1]):
        margin, mask, one = _scan(p_a[:, p], p_b[:, p], e_eps, delta)
        assert one == n_checks
        assert masks[p] == mask
        if exact:
            assert margins[p] == margin
        else:
            assert np.float64(margins[p]).tobytes() \
                == np.float64(margin).tobytes()
