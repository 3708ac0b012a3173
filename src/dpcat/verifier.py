"""Decision procedures for (epsilon, delta)-differential privacy.

A mechanism over a finite database space is private iff for every ordered
neighbor pair (d, d') and every output set A,

    P(X_d in A) <= e^eps * P(X_d' in A) + delta.

``verify_bruteforce`` checks that inequality on every nonempty proper subset
of the space and is the ground-truth oracle.  ``verify_reduced`` cuts the
workload using sufficient sets: per pair, only the set S of outputs strictly
more likely under d than under d' can matter.  Three reductions apply, from
strongest to weakest:

* mechanisms with a symmetric parent matrix (symmetric products, and the
  hamming exponential mechanism, which is the product of its one-row
  parent) have a single utility-gap level on S, so one check of S itself
  per pair settles every subset.  For a product mechanism and neighbours
  differing in row i, S is the cylinder {x : x_i in S1(d_i, d'_i)} with S1
  from the one-row parent, so P_d(S) = A[d_i, d'_i] * prod_{j != i} r(d_j)
  with A summing the parent's row d_i over S1 and r the parent's row sums.
  Each pair's check therefore costs O(1) and builds no pmf row;
* utility tables with a provably constant normaliser and delta = 0 need
  one check per utility-gap level set (the cells partitioning S);
* any other mechanism needs every nonempty subset of S, which is still far
  smaller than the full subset lattice.

Set membership compares log-probabilities with a tie band: gaps within
``TIE_BAND`` count as ties and are excluded, since exact ties carry no
utility gap and cannot tighten any margin.  The exact-rational mode redoes
the arithmetic in ``fractions.Fraction`` (mechanism parameters are taken at
their exact binary-float values unless exact rationals are supplied) and
uses strict comparisons with no tolerance.
"""

from __future__ import annotations

import math
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
    database_from_index,
    database_index,
    index_digits,
    naive_check_count,
    naive_check_count_text,
    space_size,
)
from .errors import (
    DataFormatError,
    EnumerationBudgetError,
    ExactModeError,
    ParameterRangeError,
)
from .mechanisms import ProductSpec, SolutionMatrix

#: Slack added to every margin comparison to absorb float rounding.
TOLERANCE = 1e-12

#: Log-probability gaps inside this band are ties, excluded from S.
TIE_BAND = 1e-12


@dataclass(frozen=True)
class PrivacyParams:
    """The privacy budget (epsilon >= 0, 0 <= delta <= 1).

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
    method: str                        # closed-form | sufficient-set | partition | brute-force
    epsilon: float
    delta: float
    margin: float                      # min over performed checks; inf if none
    binding_pair: NeighborPair | None
    binding_set: DatabaseSet | None
    checks_performed: int
    checks_naive: int
    space: CategorySpace
    n: int
    tolerance: float = TOLERANCE
    exact: bool = False
    trivial: bool = False

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
            "checks_performed": str(self.checks_performed),
            # checks_naive is naive_check_count(space, n) on every report
            "checks_naive": naive_check_count_text(self.space, self.n),
            "tolerance": self.tolerance,
        }


def _render_set(dbset: DatabaseSet):
    """JSON form of a set of databases, built from its indices.

    A one-row cylinder {x : x_i in C} prints as
    ``{"row": i, "categories": [labels of C], "size": len(set)}``, with i
    the lowest such row (the only one unless the set is the whole space).
    Any other set is the list of its members' label lists, in index order.
    Every nonempty set is a cylinder at n = 1.
    """
    space, n = dbset.space, dbset.n
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


def _routing(spec) -> str:
    """Which reduction the theory licenses for this spec."""
    if spec.product is not None:
        return "single-set" if spec.product.matrix.is_symmetric() else "general"
    return "fixed-c" if spec.fixed_normalizer else "general"


def _validate_fixed_normalizer(spec, budget: int) -> None:
    """Recompute every log-normaliser and reject a false fixed-C claim."""
    logs = [-spec.log_prefactor(i, budget) for i in range(spec.state_count)]
    spread = max(logs) - min(logs)
    if spread > 1e-9:
        raise DataFormatError(
            f"utility table is marked as having a fixed normaliser, but the "
            f"log-normalisers spread over {spread:.3e}")


def _iter_index_pairs(spec, budget: int = DEFAULT_ENUM_BUDGET):
    """All ordered neighbor pairs as (index_d, index_d_prime, differing_row)."""
    space, n = spec.space, spec.n
    digits = spec._digit_table(budget)
    places = [space.size ** (n - 1 - i) for i in range(n)]
    for a in range(space_size(space, n)):
        row_vals = digits[a]
        for i in range(n):
            va = int(row_vals[i])
            for v in range(space.size):
                if v != va:
                    yield a, a + (v - va) * places[i], i


def _pair_obj(spec, ia: int, ib: int, row: int) -> NeighborPair:
    return NeighborPair(database_from_index(spec.space, spec.n, ia),
                        database_from_index(spec.space, spec.n, ib), row)


def _members_float(spec, ia: int, ib: int, budget: int) -> np.ndarray:
    la = spec.log_pmf_row(ia, budget)
    lb = spec.log_pmf_row(ib, budget)
    with np.errstate(invalid="ignore"):
        diff = la - lb
    member = diff > TIE_BAND
    member[np.isnan(diff)] = False   # both probabilities zero
    return np.nonzero(member)[0]


def _members_exact(pa: list[Fraction], pb: list[Fraction]) -> list[int]:
    return [i for i, (x, y) in enumerate(zip(pa, pb)) if x > y]


def _alpha_values(spec, ia: int, ib: int, members: np.ndarray,
                  budget: int) -> np.ndarray:
    """Utility gaps u(d, .) - u(d', .) on the members of S."""
    if spec.product is None:
        u = spec.utility.values
        return u[ia, members] - u[ib, members]
    # product kind: the gap is the one-row utility gap at the differing row
    digits = spec._digit_table(budget)
    row = int(np.flatnonzero(digits[ia] != digits[ib])[0])
    u1 = spec.product.row_utility
    x = digits[members, row]
    return u1[digits[ia, row], x] - u1[digits[ib, row], x]


def _partition_cells(alphas: np.ndarray, members: np.ndarray):
    """Group members by exact utility-gap value, ascending."""
    cells = []
    for level in sorted(set(alphas.tolist())):
        cells.append((level, members[alphas == level]))
    return cells


def sufficient_set(spec, pair: NeighborPair, *,
                   budget_enum: int = DEFAULT_ENUM_BUDGET,
                   exact: bool = False) -> SufficientSet:
    """Outputs strictly more likely under pair.d than under pair.d_prime.

    For mechanisms with a fixed normaliser the utility-gap levels and the
    corresponding partition of S are attached as well.
    """
    if pair.d.n != spec.n:
        raise DataFormatError(f"pair has {pair.d.n} rows, spec expects {spec.n}")
    ia = database_index(spec.space, pair.d)
    ib = database_index(spec.space, pair.d_prime)
    if exact:
        pa = spec.exact_pmf_row(ia, budget_enum)
        pb = spec.exact_pmf_row(ib, budget_enum)
        members = np.asarray(_members_exact(pa, pb), dtype=np.int64)
    else:
        members = _members_float(spec, ia, ib, budget_enum)
    member_set = DatabaseSet(spec.space, spec.n,
                             tuple(int(i) for i in members))
    route = _routing(spec)
    if route == "fixed-c":
        _validate_fixed_normalizer(spec, budget_enum)
    if route == "general":
        return SufficientSet(pair, member_set)
    alphas = _alpha_values(spec, ia, ib, members, budget_enum)
    cells = _partition_cells(alphas, members)
    return SufficientSet(
        pair, member_set,
        alpha_levels=tuple(level for level, _ in cells),
        partition=tuple(DatabaseSet(spec.space, spec.n,
                                    tuple(int(i) for i in idx))
                        for _, idx in cells))


def dp_holds_on_set(spec, pair: NeighborPair, A: DatabaseSet,
                    params: PrivacyParams, *,
                    budget_enum: int = DEFAULT_ENUM_BUDGET,
                    tolerance: float = TOLERANCE,
                    exact: bool = False) -> SetCheckResult:
    """Check the privacy inequality for one pair on one output set.

    The margin is e^eps * P(X_d' in A) + delta - P(X_d in A); the inequality
    holds when the margin clears ``-tolerance`` (0 in exact mode).
    """
    if len(A) == 0:
        raise DataFormatError("output set must be nonempty")
    ia = database_index(spec.space, pair.d)
    ib = database_index(spec.space, pair.d_prime)
    idx = list(A.indices)
    if exact:
        e_eps, delta = params.exact_pair()
        pa = spec.exact_pmf_row(ia, budget_enum)
        pb = spec.exact_pmf_row(ib, budget_enum)
        margin = (e_eps * sum(pb[i] for i in idx) + delta
                  - sum(pa[i] for i in idx))
        return SetCheckResult(margin >= 0, float(margin))
    pa = spec.pmf_row(ia, budget_enum)
    pb = spec.pmf_row(ib, budget_enum)
    margin = (math.exp(params.epsilon) * float(pb[idx].sum())
              + params.delta - float(pa[idx].sum()))
    return SetCheckResult(margin >= -tolerance, margin)


def _exact_subset_scan(pa, pb, e_eps: Fraction, delta: Fraction,
                       include_full: bool):
    """Gray-code subset walk in exact rational arithmetic."""
    k = len(pa)
    full = (1 << k) - 1
    n_checks = full - (0 if include_full else 1)
    if n_checks <= 0:
        return None, 0, 0
    sa = sb = Fraction(0)
    mask = 0
    best = None
    best_mask = 0
    for i in range(1, full + 1):
        bit = (i & -i).bit_length() - 1
        flip = 1 << bit
        mask ^= flip
        if mask & flip:
            sa += pa[bit]
            sb += pb[bit]
        else:
            sa -= pa[bit]
            sb -= pb[bit]
        if mask == full and not include_full:
            continue
        margin = e_eps * sb + delta - sa
        if best is None or margin < best:
            best = margin
            best_mask = mask
    return best, best_mask, n_checks


class _Accumulator:
    """Merge per-pair results into a report, keeping the worst margin."""

    def __init__(self):
        self.margin = math.inf
        self.exact_margin: Fraction | None = None
        self.binding = None           # (ia, ib, row, member_indices)
        self.checks = 0

    def add(self, margin, binding, checks: int) -> None:
        self.checks += checks
        if margin is None:
            return
        current = self.exact_margin if self.exact_margin is not None else self.margin
        if self.binding is None or margin < current:
            if isinstance(margin, Fraction):
                self.exact_margin = margin
                self.margin = float(margin)
            else:
                self.margin = float(margin)
            self.binding = binding


def _single_set_float(spec, params: PrivacyParams,
                      budget: int) -> _Accumulator:
    """The single-set route over the cylinder identity, in floats.

    For neighbours differing in row i, with u = d_i and v = d'_i, the
    sufficient set is the cylinder {x : x_i in S1(u, v)} and
    P_d(S) = A[u, v] * R, P_d'(S) = B[u, v] * R, where A and B sum the
    parent weights of rows u and v over S1 and R is the product of the
    other rows' weight sums.  Every pair costs O(1) and no pmf row is built
    except the binding pair's two, for its set.
    """
    digits = spec._digit_table(budget)
    size, n = digits.shape
    w_log = spec.product.log_weights
    with np.errstate(invalid="ignore"):
        member = (w_log[:, None, :] - w_log[None, :, :]) > TIE_BAND  # [u, v, c]
    weights = np.exp(w_log)
    mass_a = np.where(member, weights[:, None, :], 0.0).sum(axis=2)
    mass_b = np.where(member, weights[None, :, :], 0.0).sum(axis=2)
    nonempty = member.any(axis=2)
    row_sums = weights.sum(axis=1)
    e_eps = math.exp(params.epsilon)

    best = np.full(size, np.inf)
    best_row = np.zeros(size, dtype=np.int64)
    best_v = np.zeros(size, dtype=np.int64)
    all_d = np.arange(size)
    checks = 0
    for i in range(n):
        rest = np.ones(size)
        for j in range(n):
            if j != i:
                rest *= row_sums[digits[:, j]]
        rest = rest[:, None]
        u = digits[:, i]
        margins = e_eps * (mass_b[u] * rest) + params.delta - mass_a[u] * rest
        valid = nonempty[u]
        checks += int(np.count_nonzero(valid))
        margins[~valid] = np.inf
        v = np.argmin(margins, axis=1)
        worst = margins[all_d, v]
        better = worst < best      # strict: the first row keeps a tie
        best[better] = worst[better]
        best_row[better] = i
        best_v[better] = v[better]

    acc = _Accumulator()
    if checks == 0:
        return acc
    ia = int(np.argmin(best))
    row = int(best_row[ia])
    place = spec.space.size ** (n - 1 - row)
    ib = ia + (int(best_v[ia]) - int(digits[ia, row])) * place
    acc.add(float(best[ia]),
            (ia, ib, row, _members_float(spec, ia, ib, budget)), checks)
    return acc


def _single_set_exact(spec, params: PrivacyParams,
                      budget: int) -> _Accumulator:
    """The cylinder identity of :func:`_single_set_float` in rationals."""
    fracs = spec.product.matrix.fractions()
    k = len(fracs)
    e_eps, delta = params.exact_pair()
    support = [[[c for c in range(k) if fracs[u][c] > fracs[v][c]]
                for v in range(k)] for u in range(k)]
    # margin = e^eps * B * R + delta - A * R = delta + (e^eps * B - A) * R
    gap = [[e_eps * sum(fracs[v][c] for c in support[u][v])
            - sum(fracs[u][c] for c in support[u][v]) for v in range(k)]
           for u in range(k)]
    row_sums = [sum(row) for row in fracs]
    digits = spec._digit_table(budget).tolist()
    n = spec.n
    places = [k ** (n - 1 - i) for i in range(n)]

    acc = _Accumulator()
    best = binding = None
    for ia, row_vals in enumerate(digits):
        for i, u in enumerate(row_vals):
            rest = Fraction(1)
            for j, x in enumerate(row_vals):
                if j != i:
                    rest *= row_sums[x]
            for v in range(k):
                if not support[u][v]:       # empty when v == u
                    continue
                acc.checks += 1
                margin = delta + gap[u][v] * rest
                if best is None or margin < best:
                    best, binding = margin, (ia, ia + (v - u) * places[i], i)
    if binding is not None:
        ia, ib, row = binding
        members = _members_exact(spec.exact_pmf_row(ia, budget),
                                 spec.exact_pmf_row(ib, budget))
        acc.add(best, (ia, ib, row, members), 0)
    return acc


def _build_report(spec, params, acc: _Accumulator, method: str,
                  tolerance: float, exact: bool) -> VerificationReport:
    if exact:
        ok = acc.exact_margin is None or acc.exact_margin >= 0
    else:
        ok = acc.margin >= -tolerance
    pair = bset = None
    if acc.binding is not None:
        ia, ib, row, members = acc.binding
        pair = _pair_obj(spec, ia, ib, row)
        bset = DatabaseSet(spec.space, spec.n, tuple(int(i) for i in members))
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
                   budget_subsets: int = DEFAULT_SUBSET_BUDGET,
                   tolerance: float = TOLERANCE,
                   exact: bool = False) -> VerificationReport:
    """Decide privacy using the strongest reduction the spec admits.

    Routing: product-kind specs with a symmetric parent check S itself per
    pair (one check, any delta, taken from the parent through the cylinder
    identity with no pmf rows); fixed-normaliser tables with delta = 0
    check each utility-gap cell; everything else checks every nonempty
    subset of S.
    """
    route = _routing(spec)
    if route == "fixed-c":
        _validate_fixed_normalizer(spec, budget_enum)
    if route == "single-set":
        method = "sufficient-set"
    elif route == "fixed-c" and params.delta == 0:
        method = "partition"
    else:
        method = "sufficient-set"
    if params.trivial:
        return _trivial_report(spec, params, method, tolerance, exact)
    if exact and not spec.supports_exact:
        raise ExactModeError(
            f"exact mode is not available for {spec.kind!r} specs")

    if route == "single-set":
        single_set = _single_set_exact if exact else _single_set_float
        return _build_report(spec, params,
                             single_set(spec, params, budget_enum),
                             method, tolerance, exact)

    e_eps_f = math.exp(params.epsilon)
    if exact:
        e_eps_q, delta_q = params.exact_pair()

    def handle(pair_idx):
        ia, ib, row = pair_idx
        if exact:
            pa = spec.exact_pmf_row(ia, budget_enum)
            pb = spec.exact_pmf_row(ib, budget_enum)
            members = _members_exact(pa, pb)
            if not members:
                return None, None, 0
            if len(members) > budget_subsets:
                raise EnumerationBudgetError(
                    f"sufficient set holds {len(members)} databases; "
                    f"enumerating its subsets exceeds the budget of "
                    f"{budget_subsets}", len(members))
            margin, mask, checks = _exact_subset_scan(
                [pa[i] for i in members], [pb[i] for i in members],
                e_eps_q, delta_q, include_full=True)
            witness = [members[i] for i in range(len(members)) if mask >> i & 1]
            return margin, (ia, ib, row, witness), checks

        pa = spec.pmf_row(ia, budget_enum)
        pb = spec.pmf_row(ib, budget_enum)
        members = _members_float(spec, ia, ib, budget_enum)
        if members.size == 0:
            return None, None, 0
        if route == "fixed-c" and params.delta == 0:
            alphas = _alpha_values(spec, ia, ib, members, budget_enum)
            best = math.inf
            best_cell = members
            checks = 0
            for _, cell in _partition_cells(alphas, members):
                margin = (e_eps_f * float(pb[cell].sum()) + params.delta
                          - float(pa[cell].sum()))
                checks += 1
                if margin < best:
                    best = margin
                    best_cell = cell
            return best, (ia, ib, row, best_cell), checks
        # general: every nonempty subset of S
        if len(members) > budget_subsets:
            raise EnumerationBudgetError(
                f"sufficient set holds {len(members)} databases; enumerating "
                f"its subsets exceeds the budget of {budget_subsets}",
                len(members))
        margin, mask, checks = kernels.subset_scan(
            pa[members], pb[members], e_eps_f, params.delta,
            include_full=True)
        witness = members[[i for i in range(len(members)) if mask >> i & 1]]
        return margin, (ia, ib, row, witness), checks

    acc = _Accumulator()
    for margin, binding, checks in map(handle,
                                       _iter_index_pairs(spec, budget_enum)):
        acc.add(margin, binding, checks)
    return _build_report(spec, params, acc, method, tolerance, exact)


def verify_bruteforce(spec, params: PrivacyParams, *,
                      budget_subsets: int = DEFAULT_SUBSET_BUDGET,
                      tolerance: float = TOLERANCE,
                      exact: bool = False) -> VerificationReport:
    """Ground-truth oracle: check every nonempty proper subset of the space
    for every ordered neighbor pair and record the worst margin.
    """
    size = spec.state_count
    if size > budget_subsets:
        raise EnumerationBudgetError(
            f"database space holds {size} states; the brute-force oracle "
            f"enumerates 2^{size} - 2 subsets per pair, over the budget of "
            f"{budget_subsets}", size)
    if params.trivial:
        return _trivial_report(spec, params, "brute-force", tolerance, exact)
    if exact and not spec.supports_exact:
        raise ExactModeError(
            f"exact mode is not available for {spec.kind!r} specs")

    e_eps_f = math.exp(params.epsilon)
    if exact:
        e_eps_q, delta_q = params.exact_pair()

    def handle(pair_idx):
        ia, ib, row = pair_idx
        if exact:
            pa = spec.exact_pmf_row(ia)
            pb = spec.exact_pmf_row(ib)
            margin, mask, checks = _exact_subset_scan(
                pa, pb, e_eps_q, delta_q, include_full=False)
        else:
            margin, mask, checks = kernels.subset_scan(
                spec.pmf_row(ia), spec.pmf_row(ib), e_eps_f, params.delta,
                include_full=False)
        witness = [i for i in range(size) if mask >> i & 1]
        return margin, (ia, ib, row, witness), checks

    acc = _Accumulator()
    for margin, binding, checks in map(handle, _iter_index_pairs(spec)):
        acc.add(margin, binding, checks)
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
                  budget_subsets: int = DEFAULT_SUBSET_BUDGET,
                  tolerance: float = TOLERANCE,
                  exact: bool = False) -> VerificationReport:
    """Decide privacy of a parent matrix; the verdict carries over to the
    product mechanism it generates for every row count.

    Symmetric matrices short-circuit through the closed form; general
    matrices get the one-row brute force: all ordered category pairs over
    all nonempty proper subsets of the category set.
    """
    if space is None:
        space = CategorySpace(tuple(str(i) for i in range(matrix.size)))
    elif space.size != matrix.size:
        raise DataFormatError(
            f"matrix is {matrix.size}x{matrix.size} but the space has "
            f"{space.size} categories")
    parent = ProductSpec(space, 1, matrix)

    p = matrix.symmetric_p()
    if p is not None and not params.trivial:
        # Closed form: private iff p >= (1 - delta)/(e^eps + m), which is the
        # margin of the singleton {category 0} for the ordered pair (0, 1).
        if exact:
            fracs = matrix.fractions()
            e_eps, delta = params.exact_pair()
            margin = e_eps * fracs[1][0] + delta - fracs[0][0]
            margin_val = float(margin)
            ok = margin >= 0
        else:
            margin_val = (math.exp(params.epsilon) * float(matrix.values[1, 0])
                          + params.delta - float(matrix.values[0, 0]))
            ok = margin_val >= -tolerance
        binding_pair = NeighborPair(Database((0,)), Database((1,)), 0)
        return VerificationReport(
            verdict="private" if ok else "not-private",
            method="closed-form",
            epsilon=params.epsilon, delta=params.delta,
            margin=margin_val,
            binding_pair=binding_pair,
            binding_set=DatabaseSet(space, 1, (0,)),
            checks_performed=1,
            checks_naive=naive_check_count(space, 1),
            space=space, n=1,
            tolerance=0.0 if exact else tolerance, exact=exact)

    report = verify_bruteforce(parent, params, budget_subsets=budget_subsets,
                               tolerance=tolerance, exact=exact)
    return report
