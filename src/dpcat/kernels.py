"""The subset-scan kernel, in NumPy.

Evaluates the privacy margin  e^eps * P_b(A) + delta - P_a(A)  for every
subset A of a small element set and returns the minimum, in float or in
exact rational arithmetic.  Only the brute-force oracle uses it: every
reduced route finds its worst set without enumerating subsets.

The margin is delta plus a sum over the members of A of the terms
t = e^eps * p_b - p_a, so the subset lattice factors into two halves (a
meet-in-the-middle split, Horowitz and Sahni 1974): every subset is a low
mask over the first ceil(k/2) elements joined to a high mask over the rest,
and its margin is delta + high[h] + low[l].  The best subset for each high
mask joins it to the smallest low sum, so one pass over the high table
finds the minimum; only the two excluded corners (the empty set, and the
full set unless it counts) need the low minimum again over a shortened
range.  Time and memory per pair are O(2^(k/2)), and every subset is still
accounted for exactly.  Exact scans build the same two tables over
``Fraction`` objects.

A scan takes one pair as two (k,) vectors, or P pairs as the columns of
two (k, P) arrays: the tables then gain a pair axis, and each pair's sums
are still formed as its own vector's, so every column comes out bit for
bit as its one-pair scan would.  The brute-force oracle passes its
neighbour pairs in chunks whose half tables hold at most 2^20 entries,
the bound ``MAX_WIDTH`` sets for a single pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import EnumerationBudgetError

BACKEND: str = "python"

#: Widest element set scanned: its half tables hold 2^20 float64 entries
#: (8 MiB) each, so a raised subset budget fails before it allocates.
MAX_WIDTH = 40

#: Subset sums of up to this many values come from one cached 0/1 table.
_TABLE_BITS = 8


@lru_cache(maxsize=_TABLE_BITS + 1)
def _bit_table(k: int) -> np.ndarray:
    """(2^k, k) float64 table whose row ``mask`` holds the bits of mask,
    shared by every caller and so read-only."""
    masks = np.arange(1 << k)
    table = (masks[:, None] >> np.arange(k) & 1).astype(np.float64)
    table.flags.writeable = False
    return table


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """out[p, mask] = sum of values[p, i] over the set bits of mask, for the
    P rows of a (P, h) array.

    Up to ``_TABLE_BITS`` values this is one stacked matrix-vector product
    with a cached bit table, row by row, so each row sums as a lone vector
    would; wider sets are the outer sum of their two halves' tables.
    """
    k = values.shape[1]
    if k <= _TABLE_BITS:
        return (_bit_table(k) @ values[:, :, None])[:, :, 0]
    low = (k + 1) // 2
    outer = (_subset_sums(values[:, low:])[:, :, None]
             + _subset_sums(values[:, :low])[:, None, :])
    return outer.reshape(len(values), -1)


def _exact_subset_sums(values: np.ndarray) -> np.ndarray:
    """out[p, mask] = sum of values[p, i] over the set bits of mask, as an
    object array of Fractions: each column of values doubles the table."""
    out = np.full((len(values), 1), Fraction(0), dtype=object)
    for v in values.T:
        out = np.concatenate((out, out + v[:, None]), axis=1)
    return out


def width_error(k: int, text: str | None = None) -> EnumerationBudgetError:
    """Refusal of a scan over k > ``MAX_WIDTH`` elements, written as text."""
    return EnumerationBudgetError(
        f"scanning the subsets of {text or k} elements exceeds the kernel's "
        f"limit of {MAX_WIDTH}", k)


def subset_scan(p_a, p_b, e_eps, delta,
                include_full: bool = False) -> tuple:
    """Minimum privacy margin over subsets of an element set.

    Scans every nonempty subset A of the k elements (the full set too when
    ``include_full``), evaluating  e_eps * P_b(A) + delta - P_a(A), and
    returns ``(min_margin, witness_mask, n_checks)``.  Ties keep the first
    witness in integer mask order.  A ``Fraction`` e_eps makes the scan
    exact: the probabilities and delta are taken as rationals and the
    margin is a ``Fraction``; otherwise everything is float64.

    ``p_a`` and ``p_b`` may also be (k, P) arrays whose column p holds
    pair p: the margin and mask are then arrays, each entry exactly as its
    column's own scan gives it, and the count is ``P * n_checks``.
    """
    k = len(p_a)
    if np.shape(p_b) != np.shape(p_a):
        raise ValueError("probability vectors differ in shape")
    if k > MAX_WIDTH:
        raise width_error(k)
    n_checks = (1 << k) - 1 - (0 if include_full else 1)
    cols = np.shape(p_a)[1:]            # () for one pair, (P,) for P pairs
    if n_checks <= 0:
        if cols:
            return np.full(cols, np.inf), np.zeros(cols, dtype=np.intp), 0
        return float("inf"), 0, 0

    exact = isinstance(e_eps, Fraction)
    if exact:
        delta = Fraction(delta)
        fraction = np.frompyfunc(Fraction, 1, 1)
        terms = e_eps * fraction(p_b) - fraction(p_a)
        sums = _exact_subset_sums
    else:
        e_eps, delta = float(e_eps), float(delta)
        terms = (e_eps * np.asarray(p_b, dtype=np.float64)
                 - np.asarray(p_a, dtype=np.float64))
        sums = _subset_sums
    # one row per pair, contiguous, so every row is summed as one vector
    t = np.ascontiguousarray(terms.reshape(k, -1).T)
    half = (k + 1) // 2
    low = sums(t[:, :half])             # low[p, l]: low mask l of pair p
    high = sums(t[:, half:])
    pairs = np.arange(len(t))
    j = np.argmin(low, axis=1)
    best = high + low[pairs, j][:, None]  # best[p, h]: (h << half) | j
    # The corners drop the empty low set from h = 0 and, unless the full
    # set counts, the full low set from the top h; k >= 2 here unless
    # include_full, so the two corners are distinct columns.
    top = high.shape[1] - 1
    corners = {}
    for h in {0, top}:
        lo = 1 if h == 0 else 0
        hi = low.shape[1] - (h == top and not include_full)
        out = np.flatnonzero((j < lo) | (j >= hi))  # pairs whose j is cut
        corners[h] = at = j.copy()
        at[out] = np.argmin(low[out, lo:hi], axis=1) + lo
        best[out, h] = high[out, h] + low[out, at[out]]
    h = np.argmin(best, axis=1)
    for corner, at in corners.items():
        j = np.where(h == corner, at, j)
    margin = delta + best[pairs, h]
    mask = (h << half) | j
    if cols:
        return margin, mask, len(t) * n_checks
    return (margin[0] if exact else float(margin[0]), int(mask[0]), n_checks)
