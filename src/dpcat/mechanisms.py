"""Sanitisation mechanisms over finite categorical database spaces.

Two families are provided.  The exponential mechanism assigns each candidate
output database a probability proportional to e^u for a utility function u;
the product mechanism sanitises row by row through a single row-stochastic
matrix (the parent mechanism).  The hamming and negative-L1 utilities are
sums over rows, so e^u/Z factorises row by row: the n-row exponential
mechanism is the product mechanism whose parent is
M[a, b] = e^{u1(a, b)} / sum_c e^{u1(a, c)} for the one-row utility u1.
Such specs carry that ProductSpec as ``product``, and the parent matrix
answers every question the verifier and the sampler ask of them at any row
count.  Full pmf rows over all (m + 1)^n outputs serve only the
brute-force oracle and library callers: ``ProductSpec`` builds the rows of
a whole index array as one block, behind one fixed guard.  A utility table
is held in full, and every array derived from it (the pmf matrix, the
digit table) is no larger, so tables take no enumeration budget.  For the
hamming utility u1 = -k * [a != b] the parent is k-ary randomized response
with flip probability p = 1/(e^k + m).

All probability arithmetic runs in log space and is exponentiated at the
end; e^{-k*h} underflows quickly otherwise.  Specs are immutable after
construction apart from internal memo tables and are safe to share across
threads; sampling needs a caller-owned random generator.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_ENUM_BUDGET,
    CategorySpace,
    Database,
    check_enum_budget,
    database_from_index,
    database_index,
    digit_matrix,
    hamming_distance,
    index_digits,
    parse_record,
    read_csv_records,
    space_size,
    state_count,
    validate_database,
)
from .errors import (
    DataFormatError,
    ExactModeError,
    IncompleteUtilityError,
    ParameterRangeError,
)

#: Row-stochasticity is validated to this absolute tolerance per row;
#: matrices often arrive from text files with limited precision.
ROW_SUM_TOL = 1e-9

#: Two float matrix entries closer than this are treated as equal when
#: detecting symmetric (single-parameter) matrices.
SYMMETRY_TOL = 1e-12

#: Largest exponent x whose e^x is a finite float: the bound on a finite
#: hamming k here and on epsilon in the verifier.
LOG_FLOAT_MAX = math.log(sys.float_info.max)

#: Most entries one block of pmf rows may hold: two rows over the 2^20
#: states of the default enumeration budget.
_BLOCK_ENTRIES = 2 * DEFAULT_ENUM_BUDGET


def _log_normalise(u: np.ndarray) -> np.ndarray:
    """u minus the log-sum-exp of each row: every row exponentiates to a
    distribution."""
    return u - np.logaddexp.reduce(u, axis=1, keepdims=True)


class HammingUtility:
    """u(d, d') = -k * hamming(d, d'), k >= 0.

    ``k = inf`` is the no-noise endpoint: all probability mass stays on the
    input database.  A finite k must keep e^k a finite float.  An exact
    value of e^k may be supplied for rational arithmetic; otherwise the
    binary float ``exp(k)`` is used exactly.
    """

    kind = "hamming"

    def __init__(self, k: float, e_k: Fraction | None = None):
        k = float(k)
        if math.isnan(k) or k < 0:
            raise ParameterRangeError(f"hamming utility needs k >= 0, got {k}")
        if LOG_FLOAT_MAX < k < math.inf:
            raise ParameterRangeError(
                f"hamming utility needs k at most {LOG_FLOAT_MAX!r}, where "
                f"e^k is still a finite float, or k = inf, got {k}")
        if e_k is not None and not e_k >= 1:    # NaN fails every comparison
            raise ParameterRangeError("exact e^k must be >= 1")
        self.k = k
        self.e_k = e_k

    @classmethod
    def from_e_k(cls, e_k: Fraction) -> "HammingUtility":
        return cls(math.log(e_k), Fraction(e_k))

    def exact_e_k(self) -> Fraction | None:
        """Exact e^k, or None at the k = inf endpoint."""
        if math.isinf(self.k):
            return None
        if self.e_k is not None:
            return self.e_k
        return Fraction(math.exp(self.k))

    def value(self, d: Database, d_prime: Database) -> float:
        h = hamming_distance(d, d_prime)
        if math.isinf(self.k):
            return 0.0 if h == 0 else -math.inf
        return -self.k * h

    def row_utility(self, m: int) -> np.ndarray:
        """u1(a, b) = -k * [a != b] over one row's m + 1 categories."""
        u = np.full((m + 1, m + 1), -self.k)
        np.fill_diagonal(u, 0.0)
        return u

    def flip_probability(self, m: int, exact: bool):
        """p = 1/(e^k + m) over m + 1 categories, 0 at k = inf: a float, or
        exact from :meth:`exact_e_k`."""
        if m < 1:
            raise ParameterRangeError("m must be >= 1")
        if not exact:
            return 1.0 / (math.exp(self.k) + m)
        e_k = self.exact_e_k()
        return Fraction(0) if e_k is None else 1 / (Fraction(e_k) + m)

    def parent_matrix(self, m: int) -> "SolutionMatrix":
        """k-ary randomized response: keep a value with probability
        e^k/(e^k + m), release each other category with p = 1/(e^k + m).

        The float entries are exactly those of ``symmetric_matrix(m, p)``
        (p = 0 at k = inf, the identity); the exact entries come from
        :meth:`flip_probability` at the matrix's first ``fractions()`` call.
        """
        return SolutionMatrix(
            _symmetric_entries(m, self.flip_probability(m, False)),
            fractions=lambda: _symmetric_entries(
                m, self.flip_probability(m, True)))


class NegL1Utility:
    """u(d, d') = -sum_i |d_i - d'_i| over the numeric category indices."""

    kind = "l1"

    def value(self, d: Database, d_prime: Database) -> float:
        if d.n != d_prime.n:
            raise IncompleteUtilityError("databases differ in length")
        return -float(sum(abs(a - b) for a, b in zip(d.rows, d_prime.rows)))

    def row_utility(self, m: int) -> np.ndarray:
        """u1(a, b) = -|a - b| over one row's category indices."""
        idx = np.arange(m + 1, dtype=np.float64)
        return -np.abs(idx[:, None] - idx[None, :])

    def parent_matrix(self, m: int) -> "SolutionMatrix":
        """M[a, b] = e^{-|a - b|} / sum_c e^{-|a - c|}."""
        return SolutionMatrix(np.exp(_log_normalise(self.row_utility(m))))


class TableUtility:
    """An explicit utility table over the full database space.

    ``values[i, j]`` is the utility of releasing database j when the input
    is database i, both in canonical enumeration order.  ``assert_fixed_c``
    marks the table as having a constant normaliser; the verifier checks the
    claim before relying on it.
    """

    kind = "table"

    def __init__(self, space: CategorySpace, n: int, values,
                 assert_fixed_c: bool = False):
        values = np.asarray(values, dtype=np.float64)
        states = state_count(space, n)
        if values.shape != (states.value, states.value):
            side = states if states.value is not None else f"({states})"
            raise IncompleteUtilityError(
                f"utility table must be {side}x{side} for this space, "
                f"got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise IncompleteUtilityError("utility table holds non-finite entries")
        self.space = space
        self.n = n
        self.values = values
        self.assert_fixed_c = bool(assert_fixed_c)

    def value(self, d: Database, d_prime: Database) -> float:
        return float(self.values[database_index(self.space, d),
                                 database_index(self.space, d_prime)])


class _Spec:
    """Category space, row count, digit table, and pmf rows from blocks."""

    def __init__(self, space: CategorySpace, n: int):
        if n < 1:
            raise ParameterRangeError("row count must be at least 1")
        self.space = space
        self.n = n
        self._digits: np.ndarray | None = None

    @functools.cached_property
    def state_count(self) -> int:
        """(m + 1) ** n, computed on first use: sampling never needs it,
        and at millions of rows the big int alone takes seconds."""
        return space_size(self.space, self.n)

    def _digit_table(self) -> np.ndarray:
        """(size, n) row values of every database, in canonical order,
        under the default enumeration budget."""
        if self._digits is None:
            self._digits = digit_matrix(self.space, self.n)
        return self._digits

    def log_pmf_row(self, index: int) -> np.ndarray:
        return self.log_pmf_block([index])[0]

    def pmf_row(self, index: int) -> np.ndarray:
        return np.exp(self.log_pmf_row(index))


class ExponentialSpec(_Spec):
    """Exponential mechanism: P(X_d = d') = C * e^{u(d, d')} with C chosen
    per input database so the distribution sums to one.

    A separable utility (hamming, negative L1) makes the spec the product
    of its one-row parent; that ProductSpec is ``product`` and computes
    every probability.  Utility tables have ``product = None`` and are
    enumerated.
    """

    def __init__(self, space: CategorySpace, n: int, utility):
        super().__init__(space, n)
        if isinstance(utility, TableUtility):
            if utility.space is not space and utility.space != space:
                raise IncompleteUtilityError(
                    "utility table was built for a different category space")
            if utility.n != n:
                raise IncompleteUtilityError(
                    f"utility table was built for n={utility.n}, spec has n={n}")
            self.product = None
            self._log_table: tuple[np.ndarray, np.ndarray] | None = None
        else:
            self.product = ProductSpec(space, n,
                                       utility.parent_matrix(space.m),
                                       utility.row_utility(space.m))
        self.utility = utility

    @property
    def kind(self) -> str:
        return self.utility.kind

    @property
    def fixed_normalizer(self) -> bool:
        """True when the prefactor is provably the same for every input."""
        if self.product is None:
            return self.utility.assert_fixed_c
        return self.product.fixed_normalizer

    @property
    def supports_exact(self) -> bool:
        return self.product is not None

    def log_pmf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """A utility table's log pmf and log normalisers, built once.

        Row d of the (size, size) matrix holds log P(X_d = x) for every
        output x; entry d of the vector is log sum_x e^{u(d, x)}.  Each row
        is shifted by its maximum before it is exponentiated.
        """
        if self._log_table is None:
            u = self.utility.values
            hi = u.max(axis=1, keepdims=True)
            norm = hi + np.log(np.exp(u - hi).sum(axis=1, keepdims=True))
            self._log_table = (u - norm, norm[:, 0])
        return self._log_table

    def log_pmf_block(self, indices) -> np.ndarray:
        """Log pmf rows of the inputs at ``indices``: the parent's block
        (see :meth:`ProductSpec.log_pmf_block`), or rows of the table."""
        if self.product is not None:
            return self.product.log_pmf_block(indices)
        return self.log_pmf_table()[0][np.asarray(indices, dtype=np.int64)]

    def exact_pmf_block(self, indices) -> np.ndarray:
        """Exact pmf rows of the inputs at ``indices``, from the parent's
        exact entries."""
        if self.product is None:
            raise ExactModeError(
                f"exact arithmetic is not available for {self.kind!r} "
                f"utilities")
        return self.product.exact_pmf_block(indices)

    def exact_pmf_row(self, index: int) -> list[Fraction]:
        """Exact probabilities from the parent's exact entries."""
        return self.exact_pmf_block([index])[0].tolist()


class SolutionMatrix:
    """Row-stochastic (m+1) x (m+1) matrix defining a parent mechanism.

    Entry [i, j] is the probability that category i is released as
    category j; no entry lies below 0.  Rows may sum to 1 within
    ``ROW_SUM_TOL``; the mechanism verified and sampled is ``stochastic``,
    each row divided by its sum once, so its n-row product is exactly as
    private as one row at every n.  Exact rational entries (also never
    below 0) may ride along, as rows or a function returning them; absent
    that, the binary float values themselves are taken as exact.  Either
    way the ``Fraction`` entries, each row divided by its exact sum, are
    built at the first ``fractions()`` call (a float p's symmetric parent
    takes p itself as exact: see :func:`symmetric_matrix`).
    """

    def __init__(self, values, fractions=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataFormatError(f"matrix must be square, got {values.shape}")
        if values.shape[0] < 2:
            raise DataFormatError("matrix needs at least two categories")
        exact_rows = (() if fractions is None or callable(fractions)
                      else fractions)
        if (np.any(values < 0) or np.any(values > 1 + ROW_SUM_TOL)
                or any(x < 0 for row in exact_rows for x in row)):
            raise DataFormatError("matrix entries must lie in [0, 1]")
        if not np.all(np.isfinite(values)):     # NaN passes every comparison
            raise DataFormatError("matrix holds non-finite entries")
        sums = values.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise DataFormatError(
                f"matrix row {bad[0]} sums to {sums[bad[0]]!r}, "
                f"not 1 within {ROW_SUM_TOL}")
        self.values = values
        self.values.setflags(write=False)
        self._exact = fractions
        self._supplied = fractions is not None
        self._fractions = None

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def has_exact_entries(self) -> bool:
        """True when exact rational entries ride along, False when
        ``fractions()`` takes floats (the values, or a float p) as exact."""
        return self._supplied

    def fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._fractions is None:
            rows = self.values if self._exact is None else self._exact
            if callable(rows):
                rows = rows()
            self._fractions = tuple(
                _stochastic_row([x if isinstance(x, Fraction) else Fraction(x)
                                 for x in row]) for row in rows)
        return self._fractions

    @functools.cached_property
    def stochastic(self) -> np.ndarray:
        """The entries with each row divided by its sum; a row that sums to
        exactly 1 keeps its entries bit for bit."""
        out = self.values / self.values.sum(axis=1, keepdims=True)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def is_symmetric(self) -> bool:
        """Constant diagonal and constant off-diagonal, within
        ``SYMMETRY_TOL``; decided once, as the entries never change."""
        diag = np.diag(self.values)
        off = self.values[~np.eye(self.size, dtype=bool)]
        return bool(np.ptp(diag) <= SYMMETRY_TOL
                    and np.ptp(off) <= SYMMETRY_TOL)

    def symmetric_p(self) -> float | None:
        if not self.is_symmetric:
            return None
        return float(self.values[0, 1])

    @classmethod
    def from_csv(cls, path, exact: bool = False) -> "SolutionMatrix":
        """The matrix a CSV file holds.  Under ``exact`` each field is
        parsed once, as a ``Fraction``, and the floats are taken from those
        (an entry too large for a float becomes inf, as float() reads it).
        """
        parse = (lambda x: Fraction(x.strip())) if exact else float
        rows = [parse_record(record, parse, path, "matrix")
                for record in read_csv_records(path)]
        if not rows:
            raise DataFormatError(f"{path}: empty matrix file")
        if not exact:
            return cls(np.asarray(rows))
        return cls([[_float(x) for x in row] for row in rows], fractions=rows)

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        for row in self.values:
            writer.writerow([repr(float(x)) for x in row])

    def to_json_dict(self) -> dict:
        return {"size": self.size,
                "entries": [[float(x) for x in row] for row in self.values]}


def _stochastic_row(row: list[Fraction]) -> tuple[Fraction, ...]:
    """The row divided by its exact sum, in integers over the common
    denominator; a row that sums to exactly 1 keeps its entries."""
    scale = math.lcm(*(x.denominator for x in row))
    numerators = [x.numerator * (scale // x.denominator) for x in row]
    total = sum(numerators)
    if total == scale:
        return tuple(row)
    return tuple(Fraction(x, total) for x in numerators)


def _float(x: Fraction) -> float:
    """The float nearest x, or inf with x's sign past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class ProductSpec(_Spec):
    """Row-independent sanitisation driven by one parent matrix.

    The probability of releasing d' for input d is the product over rows of
    matrix.stochastic[d_i, d'_i]; rows are sanitised independently and
    identically.  The log weights are log(matrix.stochastic), or, for the
    parent of a separable exponential spec, its one-row utility
    ``row_utility`` minus each row's log normaliser, which keeps utility
    gaps exact.  Full pmf rows come from one builder,
    :meth:`log_pmf_block` and :meth:`exact_pmf_block`, which the row
    methods read; nothing is cached.
    """

    kind = "product"
    supports_exact = True

    def __init__(self, space: CategorySpace, n: int, matrix: SolutionMatrix,
                 row_utility: np.ndarray | None = None):
        if matrix.size != space.size:
            raise DataFormatError(
                f"matrix is {matrix.size}x{matrix.size} but the space has "
                f"{space.size} categories")
        super().__init__(space, n)
        self.matrix = matrix
        if row_utility is None:
            with np.errstate(divide="ignore"):
                row_utility = log_weights = np.log(matrix.stochastic)
        else:
            log_weights = _log_normalise(row_utility)
        self.row_utility = row_utility
        self.log_weights = log_weights

    @property
    def product(self) -> "ProductSpec":
        return self

    @property
    def fixed_normalizer(self) -> bool:
        return self.matrix.is_symmetric

    def log_pmf_block(self, indices) -> np.ndarray:
        """(len(indices), size) log pmf rows of the inputs at ``indices``:
        the outer sum of their rows' log weights, row 0 first."""
        return self._outer_block(indices, self.log_weights, np.add)

    def exact_pmf_block(self, indices) -> np.ndarray:
        """(len(indices), size) object array of the exact pmf rows of the
        inputs at ``indices``: the outer product of their rows' exact
        entries, row 0 first."""
        return self._outer_block(
            indices, np.array(self.matrix.fractions(), dtype=object),
            np.multiply)

    def _outer_block(self, indices, weights: np.ndarray,
                     combine: np.ufunc) -> np.ndarray:
        """Row p is weights[d_0] combined with weights[d_1], then with
        weights[d_2] and so on, for the input d at indices[p]: the order
        that one row at a time takes, so every entry is the same.  A block
        of over ``_BLOCK_ENTRIES`` entries is refused before it is built.
        """
        size = check_enum_budget(self.space, self.n,
                                 _BLOCK_ENTRIES // max(1, len(indices)))
        indices = np.asarray(indices, dtype=np.int64)
        bad = (indices < 0) | (indices >= size)
        if bad.any():
            raise DataFormatError(f"index {indices[bad][0]} outside space "
                                  f"of {size} databases")
        block = np.full((indices.size, 1), combine.identity,
                        dtype=weights.dtype)
        for column in index_digits(self.space, self.n, indices).T:
            block = combine(block[:, :, None], weights[column][:, None, :]
                            ).reshape(indices.size, -1)
        return block

    def exact_pmf_row(self, index: int) -> list[Fraction]:
        return self.exact_pmf_block([index])[0].tolist()


def _check_flip(m: int, p) -> None:
    """m >= 1 and 0 <= p <= 1/(m+1), p as a float with no slack: a symmetric
    parent returns the true value at least as often as any wrong one."""
    if m < 1:
        raise ParameterRangeError("m must be >= 1")
    upper = 1.0 / (m + 1)
    if not 0.0 <= float(p) <= upper:      # NaN fails every comparison
        raise ParameterRangeError(
            f"flip probability must lie in [0, 1/(m+1)] = [0, {upper}], "
            f"got {float(p)}")


def symmetric_matrix(m: int, p) -> SolutionMatrix:
    """The one-parameter matrix: diagonal 1 - m*p, off-diagonal p.

    ``p``, a float or a Fraction in the range of :func:`_check_flip`,
    gives the float entries; the exact ones, built at the first
    ``fractions()`` call, are Fraction(p)'s and sum to 1.  Only a Fraction
    p counts as exact entries riding along (``has_exact_entries``).
    """
    _check_flip(m, p)
    matrix = SolutionMatrix(
        _symmetric_entries(m, p).astype(float),
        fractions=lambda: _symmetric_entries(m, Fraction(p)))
    matrix._supplied = isinstance(p, Fraction)
    return matrix


def _symmetric_entries(m: int, p) -> np.ndarray:
    """1 - m*p on the diagonal and p elsewhere, in p's arithmetic."""
    entries = np.full((m + 1, m + 1), p,
                      dtype=object if isinstance(p, Fraction) else np.float64)
    np.fill_diagonal(entries, 1 - m * p)
    return entries


def make_symmetric_product(space: CategorySpace, n: int, p) -> ProductSpec:
    """Product spec whose parent keeps a value with probability 1 - m*p and
    flips to each other category with probability p.
    """
    return ProductSpec(space, n, symmetric_matrix(space.m, p))


#: Rows _rowwise_sample draws at a time: its uniforms and comparison
#: temporaries hold one block, not the whole database.
_SAMPLE_BLOCK = 1 << 16


def _rowwise_sample(matrix: SolutionMatrix, d: Database,
                    rng: np.random.Generator) -> Database:
    # One uniform draw per row, in row order (drawn block by block: the
    # same stream); row value v maps to min(#{j : u >= cum[v, j]}, m), for
    # cum the parent's cumulative rows (the smallest j with u < cum[v, j]),
    # counted one output category at a time.  Entries are never below 0,
    # so cumulative sums never decrease, and the last of the m + 1 columns
    # could only lift a count to m + 1, which the min would take back: the
    # first m columns give the count.
    cum = np.cumsum(matrix.stochastic, axis=1).T[:-1]
    vals = d.array
    out = np.empty(d.n, dtype=np.int64)
    counts = np.empty(min(d.n, _SAMPLE_BLOCK),
                      dtype=np.min_scalar_type(len(cum)))
    for start in range(0, d.n, _SAMPLE_BLOCK):
        v = vals[start:start + _SAMPLE_BLOCK]
        u = rng.random(v.size)
        count = counts[:v.size]
        count.fill(0)
        for col in cum:
            count += u >= col[v]
        out[start:start + v.size] = count
    return Database._over(out)


def sample(spec, d: Database, rng: np.random.Generator) -> Database:
    """Draw one sanitised database.  Deterministic given the generator state.

    Product-kind specs (every spec but a utility table) sample row by row
    through their parent, which defines the mechanism at every row count,
    so ``d`` may have any number of rows, whatever ``spec.n`` is.  A
    utility table draws from its input's row of the pmf matrix and takes
    only a database of its own n rows.
    """
    validate_database(spec.space, d)
    if spec.product is not None:
        return _rowwise_sample(spec.product.matrix, d, rng)
    if d.n != spec.n:
        raise DataFormatError(
            f"a utility table is fixed to its n={spec.n} rows and "
            f"cannot be rescaled to {d.n}")
    row = spec.pmf_row(database_index(spec.space, d))
    cum = np.cumsum(row)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    idx = min(idx, spec.state_count - 1)
    return database_from_index(spec.space, spec.n, idx)
