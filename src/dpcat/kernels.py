"""The subset-scan kernel, in NumPy.

Evaluates the privacy margin  e^eps * P_b(A) + delta - P_a(A)  for every
subset A of a small element set and returns the minimum.  The brute-force
oracle and the general route on utility tables use it.  Subset sums are
built by doubling (each sum is a balanced tree of adds, so rounding error
stays near machine precision instead of growing linearly in 2^k).

For k > _SPLIT_BITS the subset lattice is factored into low/high halves:
the low-half margin offsets are shared by every high-half mask, which keeps
memory at O(2^_SPLIT_BITS) while still accounting for every subset exactly.
"""

from __future__ import annotations

import threading

import numpy as np

BACKEND: str = "python"

_SPLIT_BITS = 16


_buffers = threading.local()


def _tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two float64 scratch tables, each at least ``size`` long.

    They are kept between calls: freshly allocated 512 KB arrays are
    returned to the system and faulted in again on every scan.
    """
    pair = getattr(_buffers, "pair", None)
    if pair is None or pair[0].shape[0] < size:
        pair = _buffers.pair = (np.empty(size), np.empty(size))
    return pair[0][:size], pair[1][:size]


def _subset_sums(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[mask] = sum of values[i] over the set bits of mask, in place."""
    out[0] = 0.0
    width = 1
    for v in values:
        np.add(out[:width], v, out=out[width:2 * width])
        width *= 2
    return out


def subset_scan(p_a, p_b, e_eps: float, delta: float,
                include_full: bool = False) -> tuple[float, int, int]:
    """Minimum privacy margin over subsets of an element set.

    Scans every nonempty subset A of the elements (the full set too when
    ``include_full``), evaluating  e_eps * P_b(A) + delta - P_a(A), and
    returns ``(min_margin, witness_mask, n_checks)``.  Ties keep the first
    witness in scan order.
    """
    p_a = np.ascontiguousarray(p_a, dtype=np.float64)
    p_b = np.ascontiguousarray(p_b, dtype=np.float64)
    e_eps, delta = float(e_eps), float(delta)
    k = p_a.shape[0]
    if p_b.shape[0] != k:
        raise ValueError("probability vectors differ in length")
    n_checks = (1 << k) - 1 - (0 if include_full else 1)
    if n_checks <= 0:
        return float("inf"), 0, max(n_checks, 0)

    low = min(k, _SPLIT_BITS)
    high = k - low
    ca, c = _tables(1 << low)
    _subset_sums(p_a[:low], ca)
    _subset_sums(p_b[:low], c)
    np.multiply(c, e_eps, out=c)
    np.subtract(c, ca, out=c)           # c = e_eps * cb - ca
    full_high = (1 << high) - 1

    # Minima of the low-half offsets under each exclusion, computed on
    # first use: the empty low set is excluded with h = 0, the full one
    # with h = full_high unless the full set counts.
    minima = {}

    def _argmin(lo, hi):
        if (lo, hi) not in minima:
            j = int(np.argmin(c[lo:hi])) + lo
            minima[lo, hi] = j, float(c[j])
        return minima[lo, hi]

    size = c.shape[0]
    best = np.inf
    best_mask = 0
    for h in range(full_high + 1):
        sa = sb = 0.0
        for bit in range(high):
            if h >> bit & 1:
                sa += p_a[low + bit]
                sb += p_b[low + bit]
        lo = 1 if h == 0 else 0
        hi = size - 1 if not include_full and h == full_high else size
        if hi <= lo:
            continue
        j, cmin = _argmin(lo, hi)
        margin = delta + (e_eps * sb - sa) + cmin
        if margin < best:
            best = margin
            best_mask = (h << low) | j
    return float(best), int(best_mask), n_checks
