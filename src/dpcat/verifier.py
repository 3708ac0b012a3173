"""Decision procedures for (epsilon, delta)-differential privacy.

A mechanism over a finite database space is private iff for every ordered
neighbor pair (d, d') and every output set A,

    P(X_d in A) <= e^eps * P(X_d' in A) + delta.

Every report carries the canonical margin: the minimum of
e^eps * P(X_d' in A) + delta - P(X_d in A) over every pair and every
output set A, the empty set included.  It is at most delta, and a pair
binds only when its margin is below delta: otherwise the report has no
binding pair or set.

``verify_bruteforce`` checks the inequality on every nonempty proper subset
of the space and is the ground-truth oracle.  Its subset scan
(:func:`dpcat.kernels.subset_scan`, in float or exact rational arithmetic)
meets in the middle, so a pair over k states costs O(2^(k/2)) while every
subset is still accounted for.  The pairs go to the kernel as the columns
of their pmf rows, one call per chunk of pairs whose half tables hold at
most 2^20 entries (2^8 exact), so no Python step runs per pair.  It is
the only subset enumerator: ``verify_reduced`` takes each pair's worst
output set directly, the hockey-stick set W = {x : P_d(x) >
e^eps * P_d'(x)} (Barthe and Olmedo), and only counts the checks of the
paper's sufficient set S, the outputs strictly more likely under d than
under d'.  Both of its routes decide through one expression, the margin
delta + Σ_{x∈W} (e^eps * P_d'(x) - P_d(x)) of :func:`_worst_set`, where the
first pair at the smallest sum binds; ``analysis.batch_matrix_margins``
computes the same float expression for a batch of parents.

* Product mechanisms (hamming, L1, symmetric and general parent matrices)
  are decided from their one-row parent.  For neighbours differing in row
  i, P_d(x) / P_d'(x) depends on x_i alone, so the worst set is a cylinder
  {x : x_i in A1(d_i, d'_i)} over the parent and S is a box over
  S1(d_i, d'_i), which ``sufficient_set`` returns and ``dp_holds_on_set``
  sums from the parent, in O(k^3) time and chunk-bounded memory for k
  categories, building no pmf row or digit table.  ``verify_matrix``
  decides a parent by the same route, as the one-row spec it generates.
* Utility tables are decided in one array pass over all ordered neighbour
  pairs of the table's log-pmf matrix, under the same chunk bound.
* The paper's check count is one check of S per pair for a symmetric
  parent; one per utility-gap level set of S for a table with a provably
  constant normaliser at delta = 0; every nonempty subset of S otherwise.
  It is computed from the sizes of S, never walked.
* Neither route enumerates a subset or a state, so the state limit
  ``BRUTE_FORCE_STATES`` caps brute force alone.  Every count on a report
  is a :class:`~dpcat.core.Count`, built from its closed form and printed
  as that form past ``COUNT_DIGIT_CAP`` digits, and a product spec's
  binding pair and set are arrays over its rows: no state budget applies
  to product specs, and only a binding pair too long for any array is
  refused.  A table is bounded by its own size.

Set membership compares log-probabilities with a tie band: one predicate,
gap > eps + ``TIE_BAND`` (:func:`_above`), decides W at eps and S at 0, so
gaps within the band are ties and stay out, since exact ties carry no
utility gap and cannot tighten any margin.  Exact mode compares strictly,
in integers over a common denominator for product parents and in
``Fraction`` otherwise (parameters are their exact binary-float values
unless exact rationals are supplied).  One rule, :func:`passes`, turns
every margin into a verdict: each route's report, the set check, both
closed forms and the sampler's screens.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels, mechanisms
from .core import (
    CategorySpace,
    Count,
    Database,
    DatabaseSet,
    NeighborPair,
    database_from_index,
    database_index,
    index_digits,
    mask_rows,
    naive_check_count,
    state_count,
    validate_database,
)
from .errors import (
    DataFormatError,
    EnumerationBudgetError,
    ExactModeError,
    LengthMismatchError,
    ParameterRangeError,
)
from .mechanisms import LOG_FLOAT_MAX, ProductSpec, SolutionMatrix

#: How far below 0 a float margin may fall and pass: see :func:`passes`.
TOLERANCE = 1e-12

#: Log-probability gaps inside this band are ties, excluded from W and S.
TIE_BAND = 1e-12

#: Largest database space, (m + 1) ** n states, whose subsets brute force
#: scans: 2^24 - 2 per pair.
BRUTE_FORCE_STATES = 24

#: Entries per chunk of pairs on every route, or one pair or parent row if
#: larger: the 2^20 floats ``kernels.MAX_WIDTH`` allows one pair.  Exact
#: time goes to ``Fraction`` arithmetic, not calls, so exact chunks hold 2^8.
_SCAN_ENTRIES = 1 << 20
_EXACT_SCAN_ENTRIES = 1 << 8


@dataclass(frozen=True)
class PrivacyParams:
    """The privacy budget (0 <= epsilon <= log of the largest float,
    0 <= delta <= 1).

    delta = 1 is the trivial regime: every mechanism qualifies.  Exact
    verification takes the pair (e^epsilon, delta) at the exact binary
    values of the floats (:meth:`exact_pair`).
    """

    epsilon: float
    delta: float

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

    @property
    def trivial(self) -> bool:
        return self.delta >= 1

    def exact_pair(self) -> tuple[Fraction, Fraction]:
        return Fraction(math.exp(self.epsilon)), Fraction(self.delta)


def passes(margin, *, exact: bool):
    """The verdict rule: a float margin, or an array of them, passes at
    >= -TOLERANCE, which absorbs rounding; an exact margin at >= 0."""
    return margin >= (0 if exact else -TOLERANCE)


def budget(params: PrivacyParams, exact: bool) -> tuple:
    """(e^eps, delta) in a decision's arithmetic: exact, or floats."""
    return (params.exact_pair() if exact
            else (math.exp(params.epsilon), params.delta))


@dataclass(frozen=True)
class SetCheckResult:
    holds: bool
    margin: float


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of a closed-form privacy condition."""

    satisfied: bool
    margin: float                      # canonical: <= delta; inf if trivial
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
    checks_performed: Count
    checks_naive: Count
    space: CategorySpace
    n: int
    exact: bool = False

    @property
    def private(self) -> bool:
        return self.verdict == "private"

    @property
    def tolerance(self) -> float:
        """Slack of the verdict's margin comparison: none when exact."""
        return 0.0 if self.exact else TOLERANCE

    @property
    def trivial(self) -> bool:
        """delta = 1: private at an infinite margin after no check."""
        return self.delta >= 1

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
            "checks_performed": str(self.checks_performed),
            "checks_naive": str(self.checks_naive),
            "tolerance": self.tolerance,
        }


def _render_set(dbset: DatabaseSet):
    """JSON form of a set of databases.

    A one-row cylinder {x : x_i in C} prints as
    ``{"row": i, "categories": [labels of C], "size": |set|}``, with i the
    lowest such row (the only one unless the set is the whole space).  A
    box that is a cylinder prints from its row and categories, its size a
    JSON int up to ``COUNT_DIGIT_CAP`` digits and past that the string of
    its power form; any other set is recognised from its indices, and is
    otherwise the list of its members' label lists, in index order.  Every
    nonempty set is a cylinder at n = 1.
    """
    space, n = dbset.space, dbset.n
    cylinder = dbset.cylinder
    if cylinder is not None and cylinder[1]:
        row, values = cylinder
        size = ("^", space.size, n - 1)
        size = Count(("*", len(values), size) if len(values) > 1 else size)
        return {"row": row, "categories": [space.labels[c] for c in values],
                "size": str(size) if size.value is None else size.value}
    digits = index_digits(space, n, dbset.indices)
    labels = np.array(space.labels, dtype=object)
    size = len(dbset.indices)
    if size:
        others = space.size ** (n - 1)
        for row in range(n):
            values = np.flatnonzero(np.bincount(digits[:, row],
                                                minlength=space.size))
            if values.size * others == size:
                return {"row": row, "categories": labels[values].tolist(),
                        "size": size}
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
        log_pmf = spec.log_pmf_table()[0]
        cells = np.flatnonzero(_above(log_pmf[ia] - log_pmf[ib], 0.0))
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
    S1 = {c : M[u, c] > M[v, c]} of rows u and v (:func:`_parent_rows`).
    No pmf row, digit table or index is built; the box is a mask.
    """
    validate_database(spec.space, pair.d)
    validate_database(spec.space, pair.d_prime)
    product = spec.product
    i = pair.differing_row
    u, v = int(pair.d.array[i]), int(pair.d_prime.array[i])
    released, _, compare = _parent_rows(product, PrivacyParams(0, 0), exact)
    s1 = np.flatnonzero(compare(u, v)[2])
    rows = released[pair.d.array]

    def make_box(cells):
        mask = rows.copy()
        mask[i] = False
        mask[i, cells] = True
        return DatabaseSet.from_mask(spec.space, mask)
    u1 = product.row_utility
    return s1, u1[u, s1] - u1[v, s1], make_box


def dp_holds_on_set(spec, pair: NeighborPair, A: DatabaseSet,
                    params: PrivacyParams, *,
                    exact: bool = False) -> SetCheckResult:
    """Check the privacy inequality for one pair on one output set.

    The margin is e^eps * P(X_d' in A) + delta - P(X_d in A); the inequality
    holds when the margin :func:`passes`.  On a product spec a box
    A = {x : x_j in A_j} has P(X_d in A) = the product over rows j of the
    sum of M[d_j, c] over A_j, read from the parent (in ``Fraction`` under
    ``exact``, else over the exponentiated log weights the pmf rows are
    built from); any other set sums two pmf rows.
    """
    if not A:
        raise DataFormatError("output set must be nonempty")
    if A.n != pair.d.n:
        raise LengthMismatchError(
            f"output set of {A.n}-row databases for a pair of {pair.d.n} rows")
    _require_exact(spec, exact)
    e_eps, delta = budget(params, exact)
    databases = (pair.d, pair.d_prime)
    if A.box_mask is not None and spec.product is not None:
        for d in databases:
            validate_database(spec.space, d)
        weights = (spec.product.matrix.fractions() if exact
                   else np.exp(spec.product.log_weights).tolist())
        pa, pb = _box_probabilities(weights, A.box_mask, databases, exact)
    else:
        row = spec.exact_pmf_row if exact else spec.pmf_row
        idx = list(A.indices)
        pa, pb = (np.asarray(row(database_index(spec.space, d)))[idx].sum()
                  for d in databases)
    margin = e_eps * pb + delta - pa
    return SetCheckResult(bool(passes(margin, exact=exact)), float(margin))


def _box_probabilities(weights, mask: np.ndarray, databases,
                       exact: bool) -> list:
    """P(X_d in A) for each database d, where A is the box with this
    (n, m + 1) mask: the product over rows j of
    sum(weights[d_j][c] for c in A_j).

    Each distinct (d_j, A_j) sum is formed once.  Floats then multiply in
    row order, as a loop over the rows would; exact factors are raised to
    their counts, which rational arithmetic does not round.
    """
    n, size = mask.shape
    items = mask_rows(mask)
    starts = np.flatnonzero(np.r_[True, items[1:] != items[:-1]])
    shapes, shape_of_run = np.unique(items[starts], return_inverse=True)
    shapes = shapes.view(bool).reshape(-1, size)
    shape_key = np.repeat(shape_of_run.reshape(-1) * size,
                          np.diff(starts, append=n))
    out = []
    for d in databases:
        key = shape_key + d.array                  # shape * size + d_j
        counts = np.bincount(key)
        present = np.flatnonzero(counts)
        factors = [sum(weights[k % size][c]
                       for c in np.flatnonzero(shapes[k // size]).tolist())
                   for k in present.tolist()]
        if exact:
            out.append(math.prod(
                f ** c for f, c in zip(factors, counts[present].tolist())))
        else:
            table = np.zeros(counts.size)
            table[present] = factors
            out.append(float(np.multiply.accumulate(table[key])[-1]))
    return out


def _index_pair(spec, ia, ib, row) -> NeighborPair:
    """The neighbour pair of the databases at two enumeration indices."""
    return NeighborPair(database_from_index(spec.space, spec.n, int(ia)),
                        database_from_index(spec.space, spec.n, int(ib)),
                        int(row))


def _subset_count(terms, times: int = 1) -> Count:
    """``times`` the nonempty subsets of ``count`` sets of ``e`` members
    each, summed over the (e, count) items of terms in order: the Count of
    times*(count*(2^e-1)+...), which decides itself whether it is an int."""
    total = ("+", *(("*", count, ("2^-", e, 1)) for e, count in terms))
    return Count(total if times == 1 else ("*", times, total))


def _parent_checks(pairs: Counter, released: list[int], k: int, n: int,
                   symmetric: bool) -> Count:
    """The paper's checks over every neighbour pair of a product spec, from
    ``pairs``, the number of parent pairs (u, v) per nonempty |S1|.

    A symmetric parent takes one check of S per pair, n * pairs *
    (m+1)^(n-1) in all.  Otherwise each pair takes every nonempty subset of
    S, which holds |S1| * prod_{j != i} z(d_j) databases, z(a) being the
    number of categories parent row a releases: outputs impossible under
    both inputs are not in S.  Where every row releases z categories that
    is n * sum over |S1| of pairs * k^(n-1) * (2^(|S1| * z^(n-1)) - 1);
    otherwise the rows split among release classes, and the count is the
    release-class sum of ``core.Count``.
    """
    if symmetric:
        return Count(("*", n * sum(pairs.values()), ("^", k, n - 1)))
    pairs = tuple(sorted(pairs.items()))
    classes = tuple(sorted(Counter(released).items()))
    if len(classes) > 1:
        return Count(("classes", n, classes, pairs))
    (z, _), = classes

    def times(coef: int, base: int):
        power = ("^", base, n - 1)
        return ("*", coef, power) if coef > 1 else power
    return _subset_count(((times(s1, z), times(count, k))
                          for s1, count in pairs), n)


def _above(gap, eps: float) -> np.ndarray:
    """The tie rule of every float route: x is in W at eps, and in S at
    eps = 0, when its gap log P_d(x) - log P_d'(x) (NaN where both are 0)
    passes eps by more than ``TIE_BAND``."""
    return gap > eps + TIE_BAND


def _worst_set(chunks, delta, scale: int | None = None):
    """The worst-set margin of a route, and the pair that binds it.

    ``chunks`` yields (terms, members) arrays of one row per pair (d, d'),
    in canonical order: t_x = e^eps * P_d'(x) - P_d(x), and the mask of W.
    A pair's margin is delta + Σ_{x∈W} t_x, the row summed by NumPy; exact
    terms are integers over ``scale``, and their margin one ``Fraction``.
    Returns (margin, j, cells), j the first pair at the smallest sum and
    cells its W, or the empty set's (delta, None, None) if not below delta.
    """
    least, j, cells, lo = None, None, None, 0
    for terms, members in chunks:
        sums = np.where(members, terms, 0).sum(axis=-1)
        i = int(np.argmin(sums))
        if least is None or sums[i] < least:
            least, j, cells = sums[i], lo + i, np.flatnonzero(members[i])
        lo += sums.size
    if scale is None:
        margin = float(delta + least)
    else:
        d_n, d_d = delta.as_integer_ratio()
        margin = Fraction(d_n * scale + d_d * least, d_d * scale)
    return (margin, j, cells) if margin < delta else (delta, None, None)


def _parent_rows(product: ProductSpec, params: PrivacyParams, exact: bool):
    """The parent M of a product spec in one arithmetic, as (released,
    scale, compare): the mask M > 0, the denominator of exact terms, and
    compare(u, v), which for row indices u and v that broadcast (a pair, or
    rows u against every v) gives the terms e^eps * M[v, c] - M[u, c] and
    the masks of W, M[u, c] > e^eps * M[v, c], and S1, M[u, c] > M[v, c].

    Floats compare log weights by :func:`_above`.  Exact mode compares
    strictly, in integers: with N = D * M over the common denominator D
    and e^eps = E_n / E_d, the terms are E_n * N[v, c] - E_d * N[u, c]
    over E_d * D.
    """
    e_eps, _ = budget(params, exact)
    if exact:
        fracs = product.matrix.fractions()
        scale = math.lcm(*(x.denominator for row in fracs for x in row))
        weights = np.array([[x.numerator * (scale // x.denominator)
                             for x in row] for row in fracs], dtype=object)
        e_num, e_den = e_eps.as_integer_ratio()

        def compare(u, v):
            terms = e_num * weights[v] - e_den * weights[u]
            return terms, terms < 0, weights[u] > weights[v]
        return weights > 0, e_den * scale, compare
    log_w = product.log_weights
    weights = np.exp(log_w)

    def compare(u, v):
        with np.errstate(invalid="ignore"):
            gap = log_w[u] - log_w[v]           # NaN where both are 0
        return (e_eps * weights[v] - weights[u],
                _above(gap, params.epsilon), _above(gap, 0.0))
    return np.isfinite(log_w), None, compare


def _parent_route(spec, params: PrivacyParams, exact: bool):
    """Decide a product spec from its (m+1) x (m+1) parent M, as (margin,
    binding, checks).

    M is ``matrix.stochastic`` (``fractions()`` in exact mode): every row
    sums to 1, so for neighbours differing in row i, with u = d_i and
    v = d'_i, the other rows contribute a factor of 1 to every cylinder
    over row i.  The worst output set is the cylinder
    {x : x_i in A1(u, v)}, A1 = {c : M[u, c] > e^eps * M[v, c]}, whose
    terms e^eps * M[v, c] - M[u, c] (:func:`_parent_rows`) are the same at
    every n: the k^2 parent pairs (u, v) are the rows :func:`_worst_set`
    sums, in blocks of rows u against every v under ``_SCAN_ENTRIES``, so
    the parent costs O(k^3) time in memory bounded by the chunk.  The same
    pass counts |S1|, and the checks are counted from those sizes (see
    :func:`_parent_checks`) once the margin is decided, so the count never
    changes the verdict.  The binding pair, the first canonical pair at the
    worst margin, has every other row at category 0, and goes on the report
    as two arrays with the cylinder (row, A1) as a mask, A1 as the pass
    found it, so n costs O(n) array writes.  An n whose arrays no array of
    this platform can hold is an EnumerationBudgetError naming n, raised
    before they are allocated.
    """
    k, n = spec.space.size, spec.n
    released, scale, compare = _parent_rows(spec.product, params, exact)
    block = max(1, (_EXACT_SCAN_ENTRIES if exact else _SCAN_ENTRIES) // k // k)
    s1 = np.empty((k, k), dtype=np.int64)       # |S1| of each pair (u, v)

    def chunks():                   # fills s1 as _worst_set reads it
        for lo in range(0, k, block):
            rows = slice(lo, lo + block)
            terms, worst, above = compare((rows, None), None)
            s1[rows] = above.sum(axis=2)
            yield terms.reshape(-1, k), worst.reshape(-1, k)

    margin, j, cells = _worst_set(chunks(), budget(params, exact)[1], scale)
    checks = _parent_checks(Counter(s1[s1 > 0].tolist()),
                            released.sum(axis=1).tolist(), k, n,
                            spec.product.matrix.is_symmetric)
    if j is None:
        return margin, None, checks
    u, v = divmod(j, k)
    if n * (16 + k) > sys.maxsize:
        # two int64 rows and a bool mask row per database row
        raise EnumerationBudgetError(
            f"the binding pair of n = {n} rows needs {16 + k} bytes per "
            f"row, past the {sys.maxsize} bytes an array can hold", n)
    # the first canonical pair: other rows at category 0, and u in the
    # first row unless that puts a larger digit ahead of them
    row = 0 if u == 0 else n - 1
    d = np.zeros(n, dtype=np.int64)
    d[row] = u
    d_prime = d.copy()
    d_prime[row] = v
    pair = NeighborPair(Database.from_array(d), Database.from_array(d_prime),
                        row)
    return margin, (pair, DatabaseSet.from_cylinder(
        spec.space, n, row, cells.tolist())), checks


def _table_route(spec, params: PrivacyParams, partition: bool):
    """Decide a utility table in one array pass over its neighbour pairs,
    as (margin, binding, checks).

    The worst output set of a pair (d, d') is its hockey-stick set
    W = {x : log P_d(x) - log P_d'(x) > eps}, and :func:`_worst_set` sums
    the pairs' pmf rows over it; S = {x : P_d(x) > P_d'(x)} only counts the
    checks.  Pairs are taken ``_SCAN_ENTRIES`` pmf entries at a time, so
    no temporary outgrows the chunk or one row of the table.
    """
    log_pmf = spec.log_pmf_table()[0]
    pmf = np.exp(log_pmf)
    utility = spec.utility.values
    e_eps = math.exp(params.epsilon)
    ia, ib, rows = _neighbor_pairs(spec)
    pairs = max(1, _SCAN_ENTRIES // pmf.shape[0])
    counts = np.empty(ia.size, dtype=np.int64)  # |S|, or its gap levels

    def chunks():                   # fills counts as _worst_set reads it
        for lo in range(0, ia.size, pairs):
            chunk = slice(lo, lo + pairs)
            a, b = ia[chunk], ib[chunk]
            gap = log_pmf[a] - log_pmf[b]
            support = _above(gap, 0.0)
            if partition:
                levels = np.sort(np.where(support, utility[a] - utility[b],
                                          np.inf), axis=1)
                first = np.isfinite(levels)      # first member of its level
                first[:, 1:] &= levels[:, 1:] != levels[:, :-1]
                counts[chunk] = first.sum(1)
            else:
                counts[chunk] = support.sum(1)
            yield e_eps * pmf[b] - pmf[a], _above(gap, params.epsilon)

    margin, j, cells = _worst_set(chunks(), params.delta)
    if partition:
        checks = Count(int(counts.sum()))
    else:
        sizes, number = np.unique(counts[counts > 0], return_counts=True)
        checks = _subset_count(zip(sizes.tolist(), number.tolist()))
    if j is None:
        return margin, None, checks
    return margin, (_index_pair(spec, int(ia[j]), int(ib[j]), rows[j]),
                    DatabaseSet(spec.space, spec.n,
                                tuple(cells.tolist()))), checks


def _build_report(spec, params, result, method: str,
                  exact: bool) -> VerificationReport:
    """The report of a route's (margin, binding, checks); result None is
    the trivial regime delta = 1, private at an infinite margin after no
    check; :func:`passes` decides the margin, a ``Fraction`` if exact."""
    margin, binding, checks = result or (math.inf, None, Count(0))
    pair, bset = binding or (None, None)
    return VerificationReport(
        verdict="private" if passes(margin, exact=exact) else "not-private",
        method=method,
        epsilon=params.epsilon,
        delta=params.delta,
        margin=float(margin),
        binding_pair=pair,
        binding_set=bset,
        checks_performed=checks,
        checks_naive=naive_check_count(spec.space, spec.n),
        space=spec.space,
        n=spec.n,
        exact=exact,
    )


def verify_reduced(spec, params: PrivacyParams, *,
                   exact: bool = False) -> VerificationReport:
    """Decide privacy using the strongest reduction the spec admits.

    Routing: product-kind specs are decided from their parent matrix at any
    row count (see :func:`_parent_route`), utility tables in one array pass
    (see :func:`_table_route`), which counts one check per utility-gap cell
    for a fixed-normaliser table at delta = 0 and every nonempty subset of
    S otherwise.  No state count is enumerated on either route: a table is
    bounded by its own size, and a product spec's check count is a closed
    form at any n, so a product spec refuses only a binding pair too long
    for any array.
    """
    partition = False
    if spec.product is None and spec.fixed_normalizer:
        _validate_fixed_normalizer(spec)
        partition = params.delta == 0
    method = "partition" if partition else "sufficient-set"
    if params.trivial:
        return _build_report(spec, params, None, method, exact)
    _require_exact(spec, exact)
    result = (_parent_route(spec, params, exact) if spec.product is not None
              else _table_route(spec, params, partition))
    return _build_report(spec, params, result, method, exact)


def verify_bruteforce(spec, params: PrivacyParams, *,
                      exact: bool = False) -> VerificationReport:
    """Ground-truth oracle: check every nonempty proper subset of the space
    for every ordered neighbor pair and record the worst margin.

    A space of more than ``BRUTE_FORCE_STATES`` (24) states is refused
    before any digit table, pair array or pmf row, or the state count
    itself where it is past ``COUNT_DIGIT_CAP`` digits, is built.  The pmf
    rows of every input come from one block, and the pairs reach the
    kernel as (k, P) column stacks.  The first pair in canonical order at
    the smallest margin binds.
    """
    states = state_count(spec.space, spec.n)
    if states > BRUTE_FORCE_STATES:
        raise EnumerationBudgetError(
            f"database space holds {states} states; the brute-force oracle "
            f"enumerates 2^{states} - 2 subsets per pair, over the budget of "
            f"{BRUTE_FORCE_STATES}", states.value)
    if params.trivial:
        return _build_report(spec, params, None, "brute-force", exact)
    _require_exact(spec, exact)

    size = spec.state_count
    e_eps, delta = budget(params, exact)
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
    p = int(np.argmin(margins))         # the first canonical pair at the min
    result = delta, None, Count(checks)  # the empty set's margin
    if margins[p] < delta:
        witness = DatabaseSet(spec.space, spec.n, tuple(
            i for i in range(size) if masks[p] >> i & 1))
        result = (margins[p], (_index_pair(spec, ia[p], ib[p], rows[p]),
                               witness), Count(checks))
    return _build_report(spec, params, result, "brute-force", exact)


def exp_dp_condition(k: float, params: PrivacyParams, m: int, *,
                     e_k: Fraction | None = None,
                     exact: bool = False) -> ConditionResult:
    """Closed form for the hamming-utility mechanism: private iff
    e^k <= (e^eps + m*delta) / (1 - delta).  Necessary and sufficient.
    Checks k through ``HammingUtility(k, e_k)`` and decides as its parent,
    p = 1/(e^k + m) (exactly: from e_k, or exp(k) taken as exact).
    """
    p = mechanisms.HammingUtility(k, e_k).flip_probability(m, exact)
    return product_dp_condition(float(p), params, m, p_exact=p, exact=exact)


def product_dp_condition(p: float, params: PrivacyParams, m: int, *,
                         p_exact: Fraction | None = None,
                         exact: bool = False) -> ConditionResult:
    """Closed form for the symmetric product mechanism: private iff
    p >= (1 - delta) / (e^eps + m).  Necessary and sufficient.  ``margin``
    is the parent's canonical margin min(delta, e^eps*p + delta - q,
    e^eps*q + delta - p) at the diagonal q = 1 - m*p, which can lie below
    p by rounding, in floats or exactly (``p_exact``, or p taken as exact),
    and infinite when delta = 1.
    """
    mechanisms._check_flip(m, p)
    if params.trivial:
        return ConditionResult(True, math.inf, trivial=True)
    e_eps, delta = budget(params, exact)
    if exact:
        p = Fraction(p if p_exact is None else p_exact)
    q = 1 - m * p
    margin = min(delta, e_eps * p + delta - q, e_eps * q + delta - p)
    return ConditionResult(passes(margin, exact=exact), float(margin))


def verify_matrix(matrix: SolutionMatrix, params: PrivacyParams, *,
                  space: CategorySpace | None = None,
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
    return verify_reduced(ProductSpec(space, 1, matrix), params, exact=exact)
