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
range.  Time and memory per scan are O(2^(k/2)), and every subset is still
accounted for exactly.  Exact scans build the same two tables over
``Fraction`` objects.
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
    """out[mask] = sum of values[i] over the set bits of mask.

    Up to ``_TABLE_BITS`` values this is one product with a cached bit
    table; wider sets are the outer sum of their two halves' tables.
    """
    k = values.shape[0]
    if k <= _TABLE_BITS:
        return _bit_table(k) @ values
    low = (k + 1) // 2
    return (_subset_sums(values[low:])[:, None]
            + _subset_sums(values[:low])).ravel()


def _exact_subset_sums(values: np.ndarray) -> np.ndarray:
    """out[mask] = sum of values[i] over the set bits of mask, as an object
    array of Fractions: each value doubles the table."""
    out = np.array([Fraction(0)], dtype=object)
    for v in values:
        out = np.concatenate((out, out + v))
    return out


def subset_scan(p_a, p_b, e_eps, delta,
                include_full: bool = False) -> tuple:
    """Minimum privacy margin over subsets of an element set.

    Scans every nonempty subset A of the elements (the full set too when
    ``include_full``), evaluating  e_eps * P_b(A) + delta - P_a(A), and
    returns ``(min_margin, witness_mask, n_checks)``.  Ties keep the first
    witness in integer mask order.  A ``Fraction`` e_eps makes the scan
    exact: the probabilities and delta are taken as rationals and the
    margin is a ``Fraction``; otherwise everything is float64.
    """
    k = len(p_a)
    if len(p_b) != k:
        raise ValueError("probability vectors differ in length")
    if k > MAX_WIDTH:
        raise EnumerationBudgetError(
            f"scanning the subsets of {k} elements exceeds the kernel's "
            f"limit of {MAX_WIDTH}", k)
    n_checks = (1 << k) - 1 - (0 if include_full else 1)
    if n_checks <= 0:
        return float("inf"), 0, max(n_checks, 0)

    exact = isinstance(e_eps, Fraction)
    if exact:
        delta = Fraction(delta)
        terms = np.array([e_eps * Fraction(b) - Fraction(a)
                          for a, b in zip(p_a, p_b)], dtype=object)
        sums = _exact_subset_sums
    else:
        e_eps, delta = float(e_eps), float(delta)
        terms = (e_eps * np.ascontiguousarray(p_b, dtype=np.float64)
                 - np.ascontiguousarray(p_a, dtype=np.float64))
        sums = _subset_sums
    half = (k + 1) // 2
    low = sums(terms[:half])
    high = sums(terms[half:])
    j = int(np.argmin(low))
    best = high + low[j]                # best[h]: mask (h << half) | j
    # The corners drop the empty low set from h = 0 and, unless the full
    # set counts, the full low set from the top h; k >= 2 here unless
    # include_full, so the two corners are distinct rows.
    top = high.shape[0] - 1
    corners = {}
    for h in {0, top}:
        lo = 1 if h == 0 else 0
        hi = low.shape[0] - (h == top and not include_full)
        if not lo <= j < hi:
            corners[h] = int(np.argmin(low[lo:hi])) + lo
            best[h] = high[h] + low[corners[h]]
    h = int(np.argmin(best))
    margin = delta + best[h]
    return (margin if exact else float(margin),
            (h << half) | corners.get(h, j), n_checks)
