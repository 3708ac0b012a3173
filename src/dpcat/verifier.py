"""Decision procedures for (epsilon, delta)-differential privacy.

A mechanism over a finite database space is private iff for every ordered
neighbor pair (d, d') and every output set A,

    P(X_d in A) <= e^eps * P(X_d' in A) + delta.

Every report carries the canonical margin: the minimum of
e^eps * P(X_d' in A) + delta - P(X_d in A) over every pair and every
output set A, the empty set included.  It is at most delta, and when no
set goes below delta the report has no binding pair or set.

``verify_bruteforce`` checks the inequality on every nonempty proper subset
of the space and is the ground-truth oracle.  Its subset scan
(:func:`dpcat.kernels.subset_scan`, in float or exact rational arithmetic)
meets in the middle, so a pair over k states costs O(2^(k/2)) while every
subset is still accounted for.  The pairs go to the kernel as the columns
of their pmf rows, one call per chunk of pairs whose half tables hold at
most 2^20 entries (2^8 exact), so no Python step runs per pair.  It is
the only subset enumerator: ``verify_reduced`` takes each pair's worst
output set directly, the hockey-stick set {x : P_d(x) > e^eps * P_d'(x)}
(Barthe and Olmedo), and only counts the checks of the paper's sufficient
set S, the outputs strictly more likely under d than under d'.

* Product mechanisms (hamming, L1, symmetric and general parent matrices)
  are decided from their one-row parent.  For neighbours differing in row
  i, P_d(x) / P_d'(x) depends on x_i alone, so the worst set is a cylinder
  {x : x_i in A1(d_i, d'_i)} over the parent and S is a box over
  S1(d_i, d'_i), which ``sufficient_set`` returns and ``dp_holds_on_set``
  sums from the parent.  No pmf row or digit table is built.
  ``verify_matrix`` decides a parent by the same route, as the one-row
  spec it generates.
* Utility tables are decided in one array pass over all ordered neighbour
  pairs of the table's log-pmf matrix.
* The paper's check count is one check of S per pair for a symmetric
  parent; one per utility-gap level set of S for a table with a provably
  constant normaliser at delta = 0; every nonempty subset of S otherwise.
  It is computed from the sizes of S, never walked.
* Neither route enumerates a subset, so the subset budget caps brute force
  alone.  ``budget_enum`` caps a product spec's state count, bounding its
  naive count and the indices of its binding cylinder, which are built
  only when read; a table is bounded by its own size.

Set membership compares log-probabilities with a tie band: gaps within
``TIE_BAND`` count as ties and are excluded, since exact ties carry no
utility gap and cannot tighten any margin.  The exact-rational mode redoes
the arithmetic exactly (mechanism parameters are taken at their exact
binary-float values unless exact rationals are supplied) and uses strict
comparisons with no tolerance: product parents in integers over a common
denominator, everything else in ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .core import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    CategorySpace,
    Database,
    DatabaseSet,
    NeighborPair,
    check_enum_budget,
    count_text,
    database_from_index,
    database_index,
    index_digits,
    naive_check_count,
    naive_check_form,
    space_size_over,
    states_text,
    validate_database,
)
from .errors import (
    DataFormatError,
    EnumerationBudgetError,
    ExactModeError,
    ParameterRangeError,
)
from .mechanisms import LOG_FLOAT_MAX, ProductSpec, SolutionMatrix

#: Slack added to every margin comparison to absorb float rounding.
TOLERANCE = 1e-12

#: Log-probability gaps inside this band are ties, excluded from S.
TIE_BAND = 1e-12

#: Half-table entries per brute-force chunk of pairs: the 2^20 floats
#: ``kernels.MAX_WIDTH`` allows one pair.  Exact time goes to ``Fraction``
#: arithmetic, not calls, so exact chunks hold 2^8: one pair at 16 states.
_SCAN_ENTRIES = 1 << 20
_EXACT_SCAN_ENTRIES = 1 << 8


@dataclass(frozen=True)
class PrivacyParams:
    """The privacy budget (0 <= epsilon <= log of the largest float,
    0 <= delta <= 1).

    delta = 1 is the trivial regime: every mechanism qualifies.  For exact
    verification the pair (e^epsilon, delta) may be pinned as rationals;
    otherwise the exact binary values of the floats are used.
    """

    epsilon: float
    delta: float
    e_eps_exact: Fraction | None = None
    delta_exact: Fraction | None = None

    def __post_init__(self):
        if math.isnan(self.epsilon) or self.epsilon < 0:
            raise ParameterRangeError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.epsilon > LOG_FLOAT_MAX:
            raise ParameterRangeError(
                f"epsilon must be at most {LOG_FLOAT_MAX!r}, where e^epsilon "
                f"is still a finite float, got {self.epsilon}")
        if math.isnan(self.delta) or not 0 <= self.delta <= 1:
            raise ParameterRangeError(
                f"delta must lie in [0, 1], got {self.delta}")

    @classmethod
    def from_exact(cls, e_eps: Fraction, delta: Fraction) -> "PrivacyParams":
        e_eps, delta = Fraction(e_eps), Fraction(delta)
        if e_eps < 1:
            raise ParameterRangeError("e^epsilon must be >= 1")
        return cls(math.log(e_eps), float(delta), e_eps, delta)

    @property
    def trivial(self) -> bool:
        return self.delta >= 1

    def exact_pair(self) -> tuple[Fraction, Fraction]:
        e_eps = (self.e_eps_exact if self.e_eps_exact is not None
                 else Fraction(math.exp(self.epsilon)))
        delta = (self.delta_exact if self.delta_exact is not None
                 else Fraction(self.delta))
        return e_eps, delta


@dataclass(frozen=True)
class SetCheckResult:
    holds: bool
    margin: float


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of a closed-form privacy condition."""

    satisfied: bool
    slack: float
    trivial: bool = False


@dataclass(frozen=True)
class SufficientSet:
    """The worst-case output set S for one ordered neighbor pair.

    ``alpha_levels`` and ``partition`` (S split into utility-gap level sets)
    are only populated when the mechanism's normaliser is provably fixed.
    """

    pair: NeighborPair
    members: DatabaseSet
    alpha_levels: tuple[float, ...] | None = None
    partition: tuple[DatabaseSet, ...] | None = None


@dataclass
class VerificationReport:
    """Verdict plus the evidence trail of a verification run."""

    verdict: str                       # "private" | "not-private"
    method: str                        # sufficient-set | partition | brute-force
    epsilon: float
    delta: float
    margin: float                      # canonical: <= delta; inf if trivial
    binding_pair: NeighborPair | None
    binding_set: DatabaseSet | None
    checks_performed: int
    checks_naive: int
    space: CategorySpace
    n: int
    tolerance: float = TOLERANCE
    exact: bool = False
    trivial: bool = False
    checks_form: str | None = None     # checks_performed as an expression

    @property
    def checks_text(self) -> str:
        """``checks_performed`` as exact text of bounded length: the
        decimal, or ``checks_form`` above ``COUNT_DIGIT_CAP`` digits."""
        return count_text(self.checks_performed, self.checks_form)

    @property
    def private(self) -> bool:
        return self.verdict == "private"

    def to_json_dict(self) -> dict:
        pair = None
        if self.binding_pair is not None:
            pair = {
                "d": list(self.binding_pair.d.labels(self.space)),
                "d_prime": list(self.binding_pair.d_prime.labels(self.space)),
                "differing_row": self.binding_pair.differing_row,
            }
        members = None
        if self.binding_set is not None:
            members = _render_set(self.binding_set)
        return {
            "verdict": self.verdict,
            "method": self.method,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "exact": self.exact,
            "trivial": self.trivial,
            "margin": None if math.isinf(self.margin) else self.margin,
            "binding_pair": pair,
            "binding_set": members,
            "checks_performed": self.checks_text,
            "checks_naive": count_text(self.checks_naive,
                                       naive_check_form(self.space, self.n)),
            "tolerance": self.tolerance,
        }


def _render_set(dbset: DatabaseSet):
    """JSON form of a set of databases.

    A one-row cylinder {x : x_i in C} prints as
    ``{"row": i, "categories": [labels of C], "size": len(set)}``, with i
    the lowest such row (the only one unless the set is the whole space).
    A set built as a cylinder prints from its row and categories; any
    other set is recognised from its indices, and is otherwise the list of
    its members' label lists, in index order.  Every nonempty set is a
    cylinder at n = 1.
    """
    space, n = dbset.space, dbset.n
    if dbset.cylinder is not None and dbset.cylinder[1]:
        row, values = dbset.cylinder
        if len(values) == space.size:       # the whole space: every row fits
            row = 0
        return {"row": row, "categories": [space.labels[c] for c in values],
                "size": len(dbset)}
    digits = index_digits(space, n, dbset.indices)
    labels = np.array(space.labels, dtype=object)
    if len(dbset):
        others = space.size ** (n - 1)
        for row in range(n):
            values = np.flatnonzero(np.bincount(digits[:, row],
                                                minlength=space.size))
            if values.size * others == len(dbset):
                return {"row": row, "categories": labels[values].tolist(),
                        "size": len(dbset)}
    return labels[digits].tolist()


def _validate_fixed_normalizer(spec) -> None:
    """Reject a false fixed-C claim: the table's log-normalisers must not
    spread."""
    spread = float(np.ptp(spec.log_pmf_table()[1]))
    if spread > 1e-9:
        raise DataFormatError(
            f"utility table is marked as having a fixed normaliser, but the "
            f"log-normalisers spread over {spread:.3e}")


def _neighbor_pairs(spec):
    """All ordered neighbor pairs as three index arrays (index of d, index
    of d', differing row), in the order of ``enumerate_neighbor_pairs``:
    by d, then by differing row, then by replacement value."""
    k, n = spec.space.size, spec.n
    digits = spec._digit_table()
    ia, rows, values = np.nonzero(digits[:, :, None] != np.arange(k))
    ib = ia + (values - digits[ia, rows]) * k ** (n - 1 - rows)
    return ia, ib, rows


def _require_exact(spec, exact: bool) -> None:
    if exact and not spec.supports_exact:
        raise ExactModeError(
            f"exact mode is not available for {spec.kind!r} specs")


def sufficient_set(spec, pair: NeighborPair, *,
                   exact: bool = False) -> SufficientSet:
    """Outputs strictly more likely under pair.d than under pair.d_prime.

    For mechanisms with a fixed normaliser the utility-gap levels and the
    corresponding partition of S are attached as well.  A product spec
    answers from its parent (see :func:`_parent_cells`); a utility table
    reads its two rows.
    """
    if pair.d.n != spec.n:
        raise DataFormatError(f"pair has {pair.d.n} rows, spec expects {spec.n}")
    _require_exact(spec, exact)
    if spec.product is not None:
        cells, alphas, make_set = _parent_cells(spec, pair, exact)
    else:
        ia = database_index(spec.space, pair.d)
        ib = database_index(spec.space, pair.d_prime)
        with np.errstate(invalid="ignore"):     # NaN gaps: both zero
            gap = spec.log_pmf_row(ia) - spec.log_pmf_row(ib)
        cells = np.flatnonzero(gap > TIE_BAND)
        u = spec.utility.values
        alphas = u[ia, cells] - u[ib, cells]

        def make_set(members):
            return DatabaseSet(spec.space, spec.n, tuple(members.tolist()))
    # a symmetric parent or a fixed-C table: one normaliser for every input
    if not spec.fixed_normalizer:
        return SufficientSet(pair, make_set(cells))
    if spec.product is None:
        _validate_fixed_normalizer(spec)
    levels = sorted(set(alphas.tolist()))       # ascending exact gaps
    return SufficientSet(pair, make_set(cells), alpha_levels=tuple(levels),
                         partition=tuple(make_set(cells[alphas == level])
                                         for level in levels))


def _parent_cells(spec, pair: NeighborPair, exact: bool):
    """S of a product spec from its parent M, as S1, the one-row utility
    gaps over S1, and the function that makes the box of a part of S1.

    With neighbours differing in row i, u = d_i and v = d'_i,
    P_d(x) > P_d'(x) exactly when M[u, x_i] > M[v, x_i] and every other
    row's output is one that M[d_j] releases, so S is the box
    {x : x_i in S1, x_j in supp M[d_j] for every j != i} with
    S1 = {c : M[u, c] > M[v, c]}: decided on the log weights with the
    ``TIE_BAND``, or on the exact entries under ``exact``.  No pmf row,
    digit table or index is built.
    """
    validate_database(spec.space, pair.d)
    validate_database(spec.space, pair.d_prime)
    product = spec.product
    i = pair.differing_row
    u, v = pair.d.rows[i], pair.d_prime.rows[i]
    if exact:
        fracs = product.matrix.fractions()
        s1 = np.array([c for c in range(spec.space.size)
                       if fracs[u][c] > fracs[v][c]], dtype=np.int64)
        released = [[c for c, x in enumerate(row) if x > 0] for row in fracs]
    else:
        log_w = product.log_weights
        with np.errstate(invalid="ignore"):     # NaN gaps: both zero
            s1 = np.flatnonzero(log_w[u] - log_w[v] > TIE_BAND)
        released = [np.flatnonzero(np.isfinite(row)) for row in log_w]
    rows = [released[a] for a in pair.d.rows]

    def make_box(cells):
        return DatabaseSet.from_box(spec.space, spec.n,
                                    rows[:i] + [cells] + rows[i + 1:])
    u1 = product.row_utility
    return s1, u1[u, s1] - u1[v, s1], make_box


def dp_holds_on_set(spec, pair: NeighborPair, A: DatabaseSet,
                    params: PrivacyParams, *,
                    tolerance: float = TOLERANCE,
                    exact: bool = False) -> SetCheckResult:
    """Check the privacy inequality for one pair on one output set.

    The margin is e^eps * P(X_d' in A) + delta - P(X_d in A); the inequality
    holds when the margin clears ``-tolerance`` (0 in exact mode).  On a
    product spec a box A = {x : x_j in A_j} has P(X_d in A) = the product
    over rows j of the sum of M[d_j, c] over A_j, read from the parent (in
    ``Fraction`` under ``exact``, else over the exponentiated log weights
    the pmf rows are built from); any other set sums two pmf rows.
    """
    if len(A) == 0:
        raise DataFormatError("output set must be nonempty")
    _require_exact(spec, exact)
    if A.box is not None and spec.product is not None:
        validate_database(spec.space, pair.d)
        validate_database(spec.space, pair.d_prime)
        weights = (spec.product.matrix.fractions() if exact
                   else np.exp(spec.product.log_weights).tolist())
        pa, pb = (math.prod(sum(weights[r][c] for c in values)
                            for r, values in zip(d.rows, A.box))
                  for d in (pair.d, pair.d_prime))
    else:
        ia = database_index(spec.space, pair.d)
        ib = database_index(spec.space, pair.d_prime)
        idx = list(A.indices)
        if exact:
            row_a, row_b = spec.exact_pmf_row(ia), spec.exact_pmf_row(ib)
            pa, pb = sum(row_a[i] for i in idx), sum(row_b[i] for i in idx)
        else:
            pa = float(spec.pmf_row(ia)[idx].sum())
            pb = float(spec.pmf_row(ib)[idx].sum())
    if exact:
        e_eps, delta = params.exact_pair()
        margin = e_eps * pb + delta - pa
        return SetCheckResult(margin >= 0, float(margin))
    margin = math.exp(params.epsilon) * pb + params.delta - pa
    return SetCheckResult(margin >= -tolerance, margin)


class _Accumulator:
    """Merge per-pair results into a report, keeping the worst margin.

    It starts at the empty output set, whose margin is delta and which has
    no binding pair: a pair binds only by going below delta.
    """

    def __init__(self, params: PrivacyParams, exact: bool):
        self.margin = float(params.delta)
        self.exact_margin: Fraction | None = (params.exact_pair()[1]
                                              if exact else None)
        self.binding = None           # (ia, ib, row, DatabaseSet)
        self.checks = 0
        self.checks_form: str | None = None

    def add(self, margin, binding, checks: int) -> None:
        self.checks += checks
        current = self.exact_margin if self.exact_margin is not None else self.margin
        if margin < current:
            if isinstance(margin, Fraction):
                self.exact_margin = margin
            self.margin = float(margin)
            self.binding = binding


def _subset_count(terms) -> tuple[int, str]:
    """The nonempty subsets of ``count`` sets of ``e`` members each, summed
    over the items ``{e: count}`` of terms, and that sum as an expression."""
    items = sorted(terms.items())
    return (sum(count * (2 ** e - 1) for e, count in items),
            "+".join(f"{count}*(2^{e}-1)" for e, count in items))


def _parent_route(spec, params: PrivacyParams, budget_enum: int,
                  exact: bool) -> _Accumulator:
    """Decide a product spec from its (m+1) x (m+1) parent M.

    For neighbours differing in row i, with u = d_i and v = d'_i,
    P_d(x) / P_d'(x) = M[u, x_i] / M[v, x_i].  The worst output set is the
    cylinder {x : x_i in A1(u, v)}, A1 = {c : M[u, c] > e^eps * M[v, c]},
    with margin e^eps * B * R + delta - A * R: A and B sum rows u and v of
    M over A1, and R = prod_{j != i} r(d_j) over the parent's row sums r,
    largest when every other row sits at a largest row sum.  The paper's
    sufficient set is the cylinder over S1 = {c : M[u, c] > M[v, c]}, of
    |S1| * (m+1)^(n-1) databases when M has no zero entry; each pair takes
    one check of it for a symmetric parent and one per nonempty subset
    otherwise.  The binding set goes on the report as that cylinder, (row,
    A1), with no index built, so the work is O(m^2) in the parent whatever
    n is, plus the counts.

    Exact mode works in integers: the entries N = D * M over their common
    denominator D, e^eps = E_n / E_d and delta = delta_n / delta_d.  Every
    ``>`` is a cross-multiplication, and a pair's margin times
    D^n * E_d * delta_d is delta_d * N_max^(n-1) * (E_n * B - E_d * A) +
    delta_n * E_d * D^n, with A and B now sums of N and N_max the largest
    row sum of N: a positive multiple of E_n * B - E_d * A plus a constant,
    so that key, below 0 where the margin is below delta, picks the same
    binding pair under the same strict ``<``.  One ``Fraction``, the
    reported margin, is built at the end.
    """
    check_enum_budget(spec.space, spec.n, budget_enum)
    product = spec.product
    k, n = spec.space.size, spec.n
    if exact:
        fracs = product.matrix.fractions()
        scale = math.lcm(*(x.denominator for row in fracs for x in row))
        weights = [[x.numerator * (scale // x.denominator) for x in row]
                   for row in fracs]
        e_eps, delta = params.exact_pair()
        e_num, e_den = e_eps.numerator, e_eps.denominator
        support = [[[weights[u][c] > weights[v][c] for c in range(k)]
                    for v in range(k)] for u in range(k)]
        worst = [[[e_den * weights[u][c] > e_num * weights[v][c]
                   for c in range(k)] for v in range(k)] for u in range(k)]
        row_sums = [sum(row) for row in weights]
        released = [sum(1 for x in row if x > 0) for row in weights]
        r_max = max(row_sums)
        best = 0                    # the key of margin delta: the empty set

        def pair_margin(a, b):      # the key, not the margin itself
            return e_num * b - e_den * a
    else:
        log_w = product.log_weights
        with np.errstate(invalid="ignore"):
            log_gap = log_w[:, None, :] - log_w[None, :, :]  # [u, v, c]
        support = (log_gap > TIE_BAND).tolist()      # NaN gaps: both zero
        worst = (log_gap > params.epsilon + TIE_BAND).tolist()
        exp_w = np.exp(log_w)
        weights, row_sums = exp_w.tolist(), exp_w.sum(axis=1).tolist()
        released = np.isfinite(log_w).sum(axis=1).tolist()
        e_eps, delta = math.exp(params.epsilon), params.delta
        r_max = max(row_sums)
        rest = math.prod([r_max] * (n - 1))
        best = delta

        def pair_margin(a, b):
            return e_eps * (b * rest) + delta - a * rest

    # Outputs impossible under both inputs are not in S, so S holds
    # |S1| * prod_{j != i} z(d_j) databases, with z(a) the number of
    # categories row a of M releases: spread maps each value of that
    # product to the number of other-row assignments giving it.
    spread = Counter({1: 1})
    for _ in range(n - 1):
        step = Counter()
        for product_z, count in spread.items():
            for z in released:
                step[product_z * z] += count
        spread = step
    symmetric = product.matrix.is_symmetric()
    checks = 0
    terms = Counter()           # exponent e -> pairs scanning 2^e - 1 subsets
    binding = None
    for u in range(k):
        for v in range(k):
            s1 = sum(support[u][v])
            if not s1:
                continue                    # A1 lies inside S1
            if symmetric:
                checks += k ** (n - 1)      # one check of S per pair
            else:
                for product_z, count in spread.items():
                    terms[s1 * product_z] += count
            cells = [c for c in range(k) if worst[u][v][c]]
            if cells:
                margin = pair_margin(sum(weights[u][c] for c in cells),
                                     sum(weights[v][c] for c in cells))
                if margin < best:
                    best, binding = margin, (u, v, cells)

    acc = _Accumulator(params, exact)
    subsets, sums = _subset_count(terms)
    acc.checks = n * (checks + subsets)
    if terms:
        # past COUNT_DIGIT_CAP digits the count prints as these terms; a
        # symmetric parent's n*pairs*(m+1)^(n-1) would reach the cap only
        # where the naive count, over 2^((m+1)^n), cannot be computed
        acc.checks_form = f"{n}*({sums})"
    if binding is not None:
        if exact:
            d_n, d_d = delta.numerator, delta.denominator
            best = Fraction(d_d * r_max ** (n - 1) * best
                            + d_n * e_den * scale ** n,
                            scale ** n * e_den * d_d)
        # the first canonical pair: other rows at the lowest category with
        # the largest row sum, and u in the first row unless that puts a
        # larger digit ahead of them
        u, v, cells = binding
        low = row_sums.index(r_max)
        row = 0 if u <= low else n - 1
        d = [low] * n
        d[row] = u
        ia = database_index(spec.space, Database(tuple(d)))
        place = k ** (n - 1 - row)
        members = DatabaseSet.from_cylinder(spec.space, n, row, cells)
        acc.add(best, (ia, ia + (v - u) * place, row, members), 0)
    return acc


def _table_route(spec, params: PrivacyParams, partition: bool) -> _Accumulator:
    """Decide a utility table in one array pass over its neighbour pairs.

    The worst output set of a pair (d, d') is its hockey-stick set
    W = {x : log P_d(x) - log P_d'(x) > eps}, whose margin is delta - H with
    H = sum over W of P_d(x) - e^eps * P_d'(x).  The table binds on W of the
    first pair, in canonical order, with the largest H, or not at all when
    no H is positive.  The sufficient set S = {x : P_d(x) > P_d'(x)} only
    counts the paper's checks: one per utility-gap level of S on the
    partition route, every nonempty subset of S otherwise.  Pairs are taken
    ``size`` at a time, so no temporary outgrows the table.
    """
    log_pmf = spec.log_pmf_table()[0]
    utility = spec.utility.values
    pmf = np.exp(log_pmf)
    e_eps = math.exp(params.epsilon)
    ia, ib, rows = _neighbor_pairs(spec)
    size = log_pmf.shape[0]
    hockey = np.empty(ia.size)
    counts = np.empty(ia.size, dtype=np.int64)  # |S|, or its gap levels
    for lo in range(0, ia.size, size):
        chunk = slice(lo, lo + size)
        a, b = ia[chunk], ib[chunk]
        gap = log_pmf[a] - log_pmf[b]
        support = gap > TIE_BAND
        hockey[chunk] = np.where(gap > params.epsilon + TIE_BAND,
                                 pmf[a] - e_eps * pmf[b], 0.0).sum(1)
        if partition:
            levels = np.sort(np.where(support, utility[a] - utility[b],
                                      np.inf), axis=1)
            first = np.isfinite(levels)      # first member of its level
            first[:, 1:] &= levels[:, 1:] != levels[:, :-1]
            counts[chunk] = first.sum(1)
        else:
            counts[chunk] = support.sum(1)

    acc = _Accumulator(params, exact=False)
    if partition:
        acc.checks = int(counts.sum())
    else:
        sizes, number = np.unique(counts[counts > 0], return_counts=True)
        acc.checks, sums = _subset_count(dict(zip(sizes.tolist(),
                                                  number.tolist())))
        acc.checks_form = sums or None
    j = int(np.argmax(hockey))
    if hockey[j] > 0:
        a, b = int(ia[j]), int(ib[j])
        worst = np.flatnonzero(log_pmf[a] - log_pmf[b]
                               > params.epsilon + TIE_BAND)
        binding = (a, b, int(rows[j]),
                   DatabaseSet(spec.space, spec.n, tuple(worst.tolist())))
        acc.add(params.delta - float(hockey[j]), binding, 0)
    return acc


def _build_report(spec, params, acc: _Accumulator, method: str,
                  tolerance: float, exact: bool) -> VerificationReport:
    if exact:
        ok = acc.exact_margin >= 0
    else:
        ok = acc.margin >= -tolerance
    pair = bset = None
    if acc.binding is not None:
        ia, ib, row, bset = acc.binding
        pair = NeighborPair(database_from_index(spec.space, spec.n, ia),
                            database_from_index(spec.space, spec.n, ib), row)
    return VerificationReport(
        verdict="private" if ok else "not-private",
        method=method,
        epsilon=params.epsilon,
        delta=params.delta,
        margin=acc.margin,
        binding_pair=pair,
        binding_set=bset,
        checks_performed=acc.checks,
        checks_naive=naive_check_count(spec.space, spec.n),
        checks_form=acc.checks_form,
        space=spec.space,
        n=spec.n,
        tolerance=0.0 if exact else tolerance,
        exact=exact,
    )


def _trivial_report(spec, params, method: str, tolerance: float,
                    exact: bool) -> VerificationReport:
    return VerificationReport(
        verdict="private", method=method, epsilon=params.epsilon,
        delta=params.delta, margin=math.inf, binding_pair=None,
        binding_set=None, checks_performed=0,
        checks_naive=naive_check_count(spec.space, spec.n),
        space=spec.space, n=spec.n,
        tolerance=0.0 if exact else tolerance, exact=exact, trivial=True)


def verify_reduced(spec, params: PrivacyParams, *,
                   budget_enum: int = DEFAULT_ENUM_BUDGET,
                   tolerance: float = TOLERANCE,
                   exact: bool = False) -> VerificationReport:
    """Decide privacy using the strongest reduction the spec admits.

    Routing: product-kind specs are decided from their parent matrix (see
    :func:`_parent_route`), utility tables in one array pass (see
    :func:`_table_route`), which counts one check per utility-gap cell for a
    fixed-normaliser table at delta = 0 and every nonempty subset of S
    otherwise.  ``budget_enum`` caps a product spec's state count; a table
    is bounded by its own size.
    """
    partition = False
    if spec.product is None and spec.fixed_normalizer:
        _validate_fixed_normalizer(spec)
        partition = params.delta == 0
    method = "partition" if partition else "sufficient-set"
    if params.trivial:
        return _trivial_report(spec, params, method, tolerance, exact)
    _require_exact(spec, exact)
    if spec.product is not None:
        acc = _parent_route(spec, params, budget_enum, exact)
    else:
        acc = _table_route(spec, params, partition)
    return _build_report(spec, params, acc, method, tolerance, exact)


def verify_bruteforce(spec, params: PrivacyParams, *,
                      budget_subsets: int = DEFAULT_SUBSET_BUDGET,
                      tolerance: float = TOLERANCE,
                      exact: bool = False) -> VerificationReport:
    """Ground-truth oracle: check every nonempty proper subset of the space
    for every ordered neighbor pair and record the worst margin.

    A state count over the smaller of the subset budget and the kernel's
    ``MAX_WIDTH`` is refused before any row, or the count itself where it
    is far past that, is built.  The pmf rows of every input come from one
    block.  The first pair in canonical order at the smallest margin binds.
    """
    if space_size_over(spec.space, spec.n,
                       min(budget_subsets, kernels.MAX_WIDTH)):
        size, states = states_text(spec.space, spec.n)
        if budget_subsets >= kernels.MAX_WIDTH:
            raise kernels.width_error(size, states)
        raise EnumerationBudgetError(
            f"database space holds {states} states; the brute-force oracle "
            f"enumerates 2^{states} - 2 subsets per pair, over the budget of "
            f"{budget_subsets}", size)
    if params.trivial:
        return _trivial_report(spec, params, "brute-force", tolerance, exact)
    _require_exact(spec, exact)

    size = spec.state_count
    e_eps, delta = (params.exact_pair() if exact
                    else (math.exp(params.epsilon), params.delta))
    states = np.arange(size)
    pmf = (spec.exact_pmf_block(states) if exact
           else np.exp(spec.log_pmf_block(states)))
    ia, ib, rows = _neighbor_pairs(spec)
    chunk = max(1, (_EXACT_SCAN_ENTRIES if exact else _SCAN_ENTRIES)
                >> (size + 1) // 2)
    margins = np.empty(ia.size, dtype=pmf.dtype)
    masks = np.empty(ia.size, dtype=np.int64)
    checks = 0
    for lo in range(0, ia.size, chunk):
        part = slice(lo, lo + chunk)
        margins[part], masks[part], count = kernels.subset_scan(
            pmf[ia[part]].T, pmf[ib[part]].T, e_eps, delta)
        checks += count
    acc = _Accumulator(params, exact)
    p = int(np.argmin(margins))         # the first canonical pair at the min
    witness = DatabaseSet(spec.space, spec.n,
                          tuple(i for i in range(size) if masks[p] >> i & 1))
    acc.add(margins[p], (int(ia[p]), int(ib[p]), int(rows[p]), witness),
            checks)
    return _build_report(spec, params, acc, "brute-force", tolerance, exact)


def exp_dp_condition(k: float, params: PrivacyParams, m: int, *,
                     e_k: Fraction | None = None,
                     exact: bool = False) -> ConditionResult:
    """Closed form for the hamming-utility mechanism: private iff
    e^k <= (e^eps + m*delta) / (1 - delta).  Necessary and sufficient.
    """
    if math.isnan(k) or k < 0:
        raise ParameterRangeError(f"k must be >= 0, got {k}")
    if m < 1:
        raise ParameterRangeError("m must be >= 1")
    if params.trivial:
        return ConditionResult(True, math.inf, trivial=True)
    if exact:
        e_eps, delta = params.exact_pair()
        if e_k is None:
            if math.isinf(k):
                return ConditionResult(False, -math.inf)
            e_k = Fraction(math.exp(k))
        bound = (e_eps + m * delta) / (1 - delta)
        return ConditionResult(e_k <= bound, float(bound - e_k))
    bound = (math.exp(params.epsilon) + m * params.delta) / (1 - params.delta)
    slack = bound - math.exp(k)
    return ConditionResult(slack >= 0, slack)


def product_dp_condition(p: float, params: PrivacyParams, m: int, *,
                         p_exact: Fraction | None = None,
                         exact: bool = False) -> ConditionResult:
    """Closed form for the symmetric product mechanism: private iff
    p >= (1 - delta) / (e^eps + m).  Necessary and sufficient.
    """
    if m < 1:
        raise ParameterRangeError("m must be >= 1")
    if math.isnan(p) or not 0 <= p <= 1 / (m + 1) + 1e-12:
        raise ParameterRangeError(
            f"flip probability must lie in [0, 1/(m+1)], got {p}")
    if params.trivial:
        return ConditionResult(True, float(p), trivial=True)
    if exact:
        e_eps, delta = params.exact_pair()
        p_q = Fraction(p) if p_exact is None else Fraction(p_exact)
        threshold = (1 - delta) / (e_eps + m)
        return ConditionResult(p_q >= threshold, float(p_q - threshold))
    threshold = (1 - params.delta) / (math.exp(params.epsilon) + m)
    slack = p - threshold
    return ConditionResult(slack >= 0, slack)


def verify_matrix(matrix: SolutionMatrix, params: PrivacyParams, *,
                  space: CategorySpace | None = None,
                  tolerance: float = TOLERANCE,
                  exact: bool = False) -> VerificationReport:
    """Decide privacy of a parent matrix as its one-row product spec (see
    :func:`_parent_route`); the verdict carries over to the product
    mechanism it generates for every row count."""
    if space is None:
        space = CategorySpace(tuple(str(i) for i in range(matrix.size)))
    elif space.size != matrix.size:
        raise DataFormatError(
            f"matrix is {matrix.size}x{matrix.size} but the space has "
            f"{space.size} categories")
    return verify_reduced(ProductSpec(space, 1, matrix), params,
                          tolerance=tolerance, exact=exact)
