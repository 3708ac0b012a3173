"""The subset-scan kernel, in NumPy.

Evaluates the privacy margin  e^eps * P_b(A) + delta - P_a(A)  for every
nonempty proper subset A of a small element set and returns the minimum,
in float or in exact rational arithmetic.  Only the brute-force oracle
uses it: every reduced route finds its worst set without enumerating
subsets.

The margin is delta plus a sum over the members of A of the terms
t = e^eps * p_b - p_a, so the subset lattice factors into two halves (a
meet-in-the-middle split, Horowitz and Sahni 1974): every subset is a low
mask over the first ceil(k/2) elements joined to a high mask over the rest,
and its margin is delta + high[h] + low[l].  The best subset for each high
mask joins it to the smallest low sum, so one pass over the high table
finds the minimum; only the two excluded corners (the empty and the full
set) need the low minimum again over a shortened range.  Time and memory
per pair are O(2^(k/2)), and every subset is still accounted for exactly.
Exact scans build the same two tables over ``Fraction`` objects.

A scan takes P pairs as the columns of two (k, P) arrays, one pair as a
(k, 1) stack: the tables have a pair axis, and each pair's sums are formed
as its own vector's, so every column comes out bit for bit as its (k, 1)
scan would.  The brute-force oracle passes its neighbour pairs in chunks
whose half tables hold at most 2^20 entries, the bound ``MAX_WIDTH`` sets
for a single pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import EnumerationBudgetError

BACKEND: str = "python"

#: Widest element set scanned: its half tables hold 2^20 float64 entries
#: (8 MiB) each, so a wider scan fails before it allocates.
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


def subset_scan(p_a, p_b, e_eps, delta) -> tuple:
    """Minimum privacy margin over the nonempty proper subsets of an
    element set, for each of P pairs.

    ``p_a`` and ``p_b`` are (k, P) arrays whose column p holds pair p.
    For every subset A but the empty and the full set the scan evaluates
    e_eps * P_b(A) + delta - P_a(A), and returns ``(margins, masks,
    n_checks)``: per pair the minimum margin and its witness mask, ties
    keeping the first witness in integer mask order, and P * (2^k - 2),
    the subsets evaluated over all pairs.  A ``Fraction`` e_eps makes the
    scan exact: the probabilities and delta are taken as rationals and
    the margins are ``Fraction`` objects; otherwise everything is float64.
    """
    k, n_pairs = np.shape(p_a)
    if np.shape(p_b) != (k, n_pairs):
        raise ValueError("probability arrays differ in shape")
    if k > MAX_WIDTH:
        raise EnumerationBudgetError(
            f"scanning the subsets of {k} elements exceeds the kernel's "
            f"limit of {MAX_WIDTH}", k)
    if k < 2:                           # no nonempty proper subset
        return np.full(n_pairs, np.inf), np.zeros(n_pairs, dtype=np.intp), 0

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
    t = np.ascontiguousarray(terms.T)
    half = (k + 1) // 2
    low = sums(t[:, :half])             # low[p, l]: low mask l of pair p
    high = sums(t[:, half:])
    pairs = np.arange(n_pairs)
    j = np.argmin(low, axis=1)
    best = high + low[pairs, j][:, None]  # best[p, h]: (h << half) | j
    # The corners drop the empty low set from h = 0 and the full low set
    # from the top h; k >= 2, so they are distinct columns.
    top = high.shape[1] - 1
    corners = {}
    for h, lo, hi in ((0, 1, low.shape[1]), (top, 0, low.shape[1] - 1)):
        out = np.flatnonzero((j < lo) | (j >= hi))  # pairs whose j is cut
        corners[h] = at = j.copy()
        at[out] = np.argmin(low[out, lo:hi], axis=1) + lo
        best[out, h] = high[out, h] + low[out, at[out]]
    h = np.argmin(best, axis=1)
    for corner, at in corners.items():
        j = np.where(h == corner, at, j)
    return delta + best[pairs, h], (h << half) | j, n_pairs * ((1 << k) - 2)
