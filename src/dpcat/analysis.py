"""Error profiles, the exponential/product parameter map, and the
error-optimal mechanism.

Error is measured as the worst-case expected hamming distance between input
and sanitised output, E = max_d E[h(X_d, d)].  For any private mechanism
the per-row error is pinched between (1 - delta)/(1 + e^eps/m) and
m/(m + 1); the symmetric mechanism with p = (1 - delta)/(e^eps + m) meets
the lower bound and no product sanitisation beats it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import digit_matrix
from .errors import ParameterRangeError
from .mechanisms import (
    ExponentialSpec,
    HammingUtility,
    ProductSpec,
    SolutionMatrix,
    _check_flip,
    symmetric_matrix,
)
from .verifier import PrivacyParams, budget, passes

@dataclass(frozen=True)
class ErrorProfile:
    """Worst-case expected hamming error of a mechanism, with bounds.

    ``lower_bound`` needs a privacy budget to evaluate and is None when no
    budget was supplied.  For any mechanism verified private at that budget,
    lower_bound <= expected_error <= upper_bound.
    """

    expected_error: float
    per_row_error: float
    lower_bound: float | None
    upper_bound: float

    def to_json_dict(self) -> dict:
        return {
            "expected_error": self.expected_error,
            "per_row_error": self.per_row_error,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
        }


def error_bounds(params: PrivacyParams, m: int, n: int) -> tuple[float, float]:
    """(lower, upper) bounds on the expected error of any private mechanism."""
    if m < 1 or n < 1:
        raise ParameterRangeError("need m >= 1 and n >= 1")
    lower = n * (1 - params.delta) / (1 + math.exp(params.epsilon) / m)
    upper = n * m / (m + 1)
    return lower, upper


def expected_error(spec, params: PrivacyParams | None = None) -> ErrorProfile:
    """Worst-case expected hamming error of a mechanism spec.

    Product-kind specs (hamming, L1 and product) use their parent matrix,
    n * max_a P(row a is released as another category); utility tables take
    the exhaustive expectation over the space they hold in full.
    """
    m, n = spec.space.m, spec.n
    if spec.product is not None:
        err = matrix_expected_error(spec.product.matrix, n)
    else:
        size = spec.state_count
        digits = digit_matrix(spec.space, n)
        err = 0.0
        for i in range(size):
            h = np.count_nonzero(digits != digits[i], axis=1)
            err = max(err, float(np.dot(h, spec.pmf_row(i))))
    lower = None
    if params is not None:
        lower = error_bounds(params, m, n)[0]
    return ErrorProfile(
        expected_error=err,
        per_row_error=err / n,
        lower_bound=lower,
        upper_bound=n * m / (m + 1),
    )


def p_from_k(k: float, m: int) -> float:
    """Flip probability of the product mechanism equivalent to the hamming
    mechanism with privacy weight k:  p = 1 / (e^k + m).
    """
    return HammingUtility(k).flip_probability(m, False)


def k_from_p(p: float, m: int) -> float:
    """Inverse of :func:`p_from_k`:  e^k = 1/p - m.

    p = 0 maps to the no-noise endpoint, reported as ``math.inf``.
    """
    _check_flip(m, p)
    if p == 0.0:
        return math.inf
    # p within rounding of 1/(m+1) can put e^k a few ulp below 1; clamp.
    return max(math.log(max(1.0 / p - m, 1.0)), 0.0)


def optimal_mechanism(params: PrivacyParams, m: int, *,
                      exact: bool = False) -> SolutionMatrix:
    """The symmetric solution matrix minimising worst-case expected error
    among all product sanitisations private at (epsilon, delta).

    Off-diagonal entries are p = (1 - delta)/(e^eps + m) and the diagonal is
    (e^eps + m*delta)/(e^eps + m), so the binding identity
    diag = e^eps * p + delta holds with zero slack.  delta = 1 degenerates
    to the identity matrix: technically private, no privacy at all.
    """
    if m < 1:
        raise ParameterRangeError("m must be >= 1")
    e_eps, delta = budget(params, exact)
    return symmetric_matrix(m, (1 - delta) / (e_eps + m))


def exponential_to_product(spec: ExponentialSpec) -> ProductSpec:
    """Equivalent symmetric product spec for a hamming-utility exponential
    spec: the product of its parent."""
    if spec.kind != "hamming":
        raise ParameterRangeError(
            "only hamming-utility specs have a symmetric product equivalent")
    return ProductSpec(spec.space, spec.n, spec.product.matrix)


def product_to_exponential(spec: ProductSpec) -> ExponentialSpec:
    """Equivalent hamming spec for a symmetric product spec."""
    p = spec.matrix.symmetric_p()
    if p is None:
        raise ParameterRangeError(
            "only symmetric matrices have a hamming-utility equivalent")
    if spec.matrix.has_exact_entries() and p > 0:
        p_q = spec.matrix.fractions()[0][1]
        utility = HammingUtility.from_e_k(1 / p_q - spec.space.m)
    else:
        utility = HammingUtility(k_from_p(p, spec.space.m))
    return ExponentialSpec(spec.space, spec.n, utility)


def matrix_expected_error(matrix: SolutionMatrix, n: int) -> float:
    """Worst-case expected error of the product mechanism a matrix defines.

    That is ``matrix.stochastic``, which ``verify`` decides.  Sums each
    row's off-diagonal entries rather than taking 1 - diagonal, which
    cancels when the flip probabilities are tiny.
    """
    off = np.where(np.eye(matrix.size, dtype=bool), 0.0, matrix.stochastic)
    return n * float(off.sum(axis=1).max())


#: Matrices per pass of batch_matrix_margins: bounds its (pairs, chunk)
#: temporaries for a library caller that passes a large batch.  The
#: sampler passes one screen chunk's survivors, at most _SCREEN_CHUNK.
_MARGIN_CHUNK = 2048


def batch_matrix_margins(mats: np.ndarray, params: PrivacyParams) -> np.ndarray:
    """Canonical privacy margin of each parent matrix in a (B, s, s) batch.

    The minimum of e^eps * P_j(A) + delta - P_i(A) over ordered category
    pairs i != j and every output set A, the empty set included.  With
    terms t_x = e^eps * M[j, x] - M[i, x], the minimising A holds the
    negative terms (the hockey-stick witness), so the margin is delta plus
    their sum, added in x order: the verifier's float expression, with no
    tie band, and verify_matrix's margin bit for bit for s <= 7.  O(s^3)
    per matrix, batch innermost, over the s(s - 1) ordered pairs only.
    """
    mats = np.asarray(mats, dtype=np.float64)
    size = mats.shape[-1]
    e_eps = math.exp(params.epsilon)
    i, j = np.nonzero(~np.eye(size, dtype=bool))        # ordered pairs i != j
    width = min(mats.shape[0], _MARGIN_CHUNK)
    sums = np.empty((i.size, width))                    # [pair, b]
    terms = np.empty((i.size, width))
    out = np.empty(mats.shape[0])
    for start in range(0, mats.shape[0], _MARGIN_CHUNK):
        chunk = mats[start:start + _MARGIN_CHUNK]
        b = chunk.shape[0]
        cols = np.ascontiguousarray(chunk.transpose(2, 1, 0))  # [x, i, b]
        acc, term = sums[:, :b], terms[:, :b]
        acc.fill(0.0)
        for col in cols:
            np.multiply(e_eps, col[j], out=term)
            term -= col[i]
            np.minimum(term, 0.0, out=term)
            acc += term
        acc += params.delta
        acc.min(axis=0, out=out[start:start + b])
    return out


#: Matrices normalised and singleton-screened per pass of
#: sample_feasible_matrices: the criterion-6 calls (batch 20,000) ran 7%
#: faster than at 2,048 and 25% faster than unchunked on a 2-vCPU x86-64 VM.
_SCREEN_CHUNK = 8192


def _singleton_bound(cols: np.ndarray, e_eps: float,
                     delta: float) -> np.ndarray:
    """An upper bound on the batch_matrix_margins margin of each matrix in
    an [x, row, b] batch, from its singleton output sets.

    w = min over x of e^eps * min_r M[r, x] - max_r M[r, x] is one ordered
    pair's term on {x}, rounded as batch_matrix_margins rounds it (or, in
    a constant column, at least 0).  That pair's hockey-stick sum adds only
    non-positive terms, and a rounded sum of non-positive floats is no
    larger than any one of them, so the margin is at most w + delta,
    rounded.
    """
    worst = np.multiply(e_eps, cols.min(axis=1))        # [x, b]
    worst -= cols.max(axis=1)
    worst = worst.min(axis=0)
    worst += delta
    return worst


def sample_feasible_matrices(m: int, params: PrivacyParams, count: int,
                             rng: np.random.Generator, *,
                             batch: int = 4096,
                             max_batches: int = 2000) -> np.ndarray:
    """Draw row-stochastic matrices from the flat simplex and keep those
    whose parent mechanism is private at (epsilon, delta).

    Returns a (count, m+1, m+1) array.  Raises if the acceptance rate is so
    low that ``max_batches`` rounds cannot fill the request.

    A batch is drawn as ``rng.dirichlet`` draws ``batch * (m+1)`` rows at
    alpha = 1: one standard exponential per entry in C order, each row
    scaled by 1 / its left-to-right sum.  So the matrices and the
    generator's state after each call are those of
    ``rng.dirichlet(np.ones(m+1), size=(batch, m+1))``, and every batch is
    drawn whole.  Rows are scaled in the [x, row, b] layout the screens
    read.  A matrix whose singleton output sets already fail (its
    ``_singleton_bound`` fails the verdict rule, ``verifier.passes``) is
    refused; the rest, about a tenth of the draws at the criterion-6
    budgets, are kept when their ``batch_matrix_margins`` margin passes.
    """
    for name, value in (("m", m), ("count", count), ("batch", batch),
                        ("max_batches", max_batches)):
        if value < 1:
            raise ParameterRangeError(f"{name} must be >= 1, got {value}")
    size = m + 1
    e_eps = math.exp(params.epsilon)
    out = []
    have = 0
    for _ in range(max_batches):
        draws = rng.standard_exponential((batch, size, size))
        for start in range(0, batch, _SCREEN_CHUNK):
            cols = np.ascontiguousarray(
                draws[start:start + _SCREEN_CHUNK].transpose(2, 1, 0))
            acc = cols[0].copy()                         # [row, b]
            for col in cols[1:]:
                acc += col
            cols *= 1.0 / acc
            survive = passes(_singleton_bound(cols, e_eps, params.delta),
                             exact=False)
            if not survive.any():
                continue
            mats = cols[:, :, survive].transpose(2, 1, 0)
            keep = mats[passes(batch_matrix_margins(mats, params),
                               exact=False)]
            out.append(keep)
            have += keep.shape[0]
            if have >= count:
                return np.concatenate(out)[:count]
    raise RuntimeError(
        f"only {have} of {count} requested feasible matrices found after "
        f"{max_batches} batches; the feasible region at eps={params.epsilon}, "
        f"delta={params.delta} is too small for rejection sampling")
