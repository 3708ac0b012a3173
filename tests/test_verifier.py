import dataclasses
import hashlib
import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import dpcat.analysis
from dpcat import verifier
from dpcat import (
    Database,
    DatabaseSet,
    DataFormatError,
    EnumerationBudgetError,
    LengthMismatchError,
    ExponentialSpec,
    HammingUtility,
    NegL1Utility,
    NeighborPair,
    ParameterRangeError,
    PrivacyParams,
    ProductSpec,
    SolutionMatrix,
    TableUtility,
    dp_holds_on_set,
    enumerate_neighbor_pairs,
    exp_dp_condition,
    make_symmetric_product,
    naive_check_count,
    product_dp_condition,
    sufficient_set,
    symmetric_matrix,
    verify_bruteforce,
    verify_matrix,
    verify_reduced,
)
from dpcat.core import database_from_index, database_index
from conftest import exact_params, make_space

import _oracles


def rows_of(dbset):
    """The row tuples of a set's members, in enumeration order."""
    return [database_from_index(dbset.space, dbset.n, i).rows
            for i in dbset.indices]


def pair_of(a, b):
    row = [i for i in range(len(a)) if a[i] != b[i]][0]
    return NeighborPair(Database(a), Database(b), row)


def random_stochastic(rng, size):
    return SolutionMatrix(rng.dirichlet(np.ones(size), size=size))


def fixed_c_table(rng, space, n):
    """Random utility table with the normaliser pinned to 1 for every row."""
    size = space.size ** n
    raw = rng.uniform(-3, 0, (size, size))
    raw -= np.log(np.exp(raw).sum(axis=1))[:, None]
    return TableUtility(space, n, raw, assert_fixed_c=True)


class TestDpHoldsOnSet:
    def test_uniform_zero_margin(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.0))
        pair = pair_of((0, 1), (2, 1))
        A = DatabaseSet(space3, 2, (0, 3, 7))
        res = dp_holds_on_set(spec, pair, A, PrivacyParams(0.0, 0.0))
        assert res.holds and res.margin == pytest.approx(0.0, abs=1e-15)

    def test_l1_pair_margin_matches_direct_summation(self, l1_spec, space3):
        # reference value from the naive normalisation table
        table = _oracles.pmf_table_from_utility(
            3, 2, lambda a, b: -sum(abs(x - y) for x, y in zip(a, b)))
        members = [(0, 0), (0, 1), (0, 2)]
        eps = 0.4
        expect = (math.exp(eps) * sum(table[(2, 1)][x] for x in members)
                  - sum(table[(0, 1)][x] for x in members))
        pair = pair_of((0, 1), (2, 1))
        A = DatabaseSet(space3, 2, tuple(database_index(space3, Database(x))
                                         for x in members))
        res = dp_holds_on_set(l1_spec, pair, A, PrivacyParams(eps, 0.0))
        assert res.margin == pytest.approx(expect, abs=1e-14)

    def test_delta_one_always_holds(self, l1_spec, space3):
        pair = pair_of((0, 0), (1, 0))
        A = DatabaseSet(space3, 2, tuple(range(8)))
        res = dp_holds_on_set(l1_spec, pair, A, PrivacyParams(0.0, 1.0))
        assert res.holds

    def test_empty_set_rejected(self, l1_spec, space3):
        with pytest.raises(DataFormatError):
            dp_holds_on_set(l1_spec, pair_of((0, 0), (1, 0)),
                            DatabaseSet(space3, 2, ()),
                            PrivacyParams(0.0, 0.0))

    def test_set_of_another_row_count_rejected(self, l1_spec, space3):
        with pytest.raises(LengthMismatchError):
            dp_holds_on_set(l1_spec, pair_of((0, 0), (1, 0)),
                            DatabaseSet(space3, 3, (0,)),
                            PrivacyParams(0.0, 0.0))

    def test_a_million_row_box_in_array_passes(self):
        params = PrivacyParams(0.3, 0.0)
        margins = []
        for n in (1, 10 ** 6):
            spec = ExponentialSpec(make_space(1), n, HammingUtility(0.5))
            d = np.zeros(n, dtype=np.int64)
            d_prime = d.copy()
            d_prime[0] = 1
            pair = NeighborPair(Database.from_array(d),
                                Database.from_array(d_prime), 0)
            box = sufficient_set(spec, pair).members
            start = time.perf_counter()
            margins.append(dp_holds_on_set(spec, pair, box, params).margin)
            assert time.perf_counter() - start < 0.5
            assert "rows" not in vars(pair.d)
        assert margins[1] == pytest.approx(margins[0], abs=1e-12)


class TestSufficientSet:
    def test_l1_far_pair(self, l1_spec, space3):
        s = sufficient_set(l1_spec, pair_of((0, 1), (2, 1)))
        assert rows_of(s.members) \
            == [(0, 0), (0, 1), (0, 2)]
        assert s.alpha_levels is None  # normaliser varies across inputs

    def test_l1_near_pair(self, l1_spec):
        s = sufficient_set(l1_spec, pair_of((1, 1), (2, 1)))
        assert rows_of(s.members) \
            == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_exact_ties_are_excluded(self, l1_spec):
        # for d = (0, b), d' = (2, b) the outputs (1, *) are exact ties:
        # equal utility and equal normaliser, so they stay out of S
        s = sufficient_set(l1_spec, pair_of((0, 0), (2, 0)))
        assert all(d.rows[0] == 0 for d in map(Database, rows_of(s.members)))

    def test_hamming_single_level(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.7))
        s = sufficient_set(spec, pair_of((0, 1), (0, 2)))
        assert s.alpha_levels == (0.7,)
        assert len(s.partition) == 1
        assert s.partition[0].indices == s.members.indices
        assert len(s.members) == 3  # (1 + m)^(n-1) members for any pair

    def test_uniform_has_empty_set(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.0))
        s = sufficient_set(spec, pair_of((0, 1), (0, 2)))
        assert len(s.members) == 0
        assert s.alpha_levels == ()

    def test_symmetric_product_single_level(self, space3):
        spec = make_symmetric_product(space3, 2, 0.1)
        s = sufficient_set(spec, pair_of((1, 0), (1, 2)))
        assert len(s.alpha_levels) == 1
        assert s.alpha_levels[0] == pytest.approx(math.log(0.8 / 0.1))

    def test_off_diagonal_dominant_symmetric_matrix(self, space3):
        # loaded matrices may put more mass off the diagonal; the utility
        # gap is still a single positive level and the reduction still holds
        spec = ProductSpec(space3, 2, SolutionMatrix(np.array(
            [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]])))
        s = sufficient_set(spec, pair_of((1, 0), (1, 2)))
        assert s.alpha_levels == pytest.approx((math.log(2.0),))
        assert all(d.rows[1] == 2 for d in map(Database, rows_of(s.members)))
        for eps in (0.0, 0.5, 1.0):
            params = PrivacyParams(eps, 0.0)
            assert verify_reduced(spec, params).verdict \
                == verify_bruteforce(spec, params).verdict

    def test_fixed_c_table_partition(self, space3, rng):
        utility = fixed_c_table(rng, space3, 2)
        spec = ExponentialSpec(space3, 2, utility)
        s = sufficient_set(spec, pair_of((0, 1), (2, 1)))
        assert s.alpha_levels is not None
        assert list(s.alpha_levels) == sorted(s.alpha_levels)
        assert all(a > 0 for a in s.alpha_levels)
        combined = sorted(i for cell in s.partition for i in cell.indices)
        assert tuple(combined) == s.members.indices


def zero_entry_parent(rng, size):
    """A random parent with zero entries: each row keeps a random nonempty
    set of categories."""
    values = rng.dirichlet(np.ones(size), size=size)
    keep = rng.random((size, size)) < 0.6
    keep[np.arange(size), rng.integers(0, size, size)] = True
    values = np.where(keep, values, 0.0)
    return SolutionMatrix(values / values.sum(axis=1, keepdims=True))


#: Random product specs of every kind: hamming with k = 0 and k = inf
#: among its weights, L1 (exact ties from m = 2), Dirichlet parents, parents
#: with zero entries and symmetric parents (one level per S, identity
#: included).
PARENT_KINDS = {
    "hamming": lambda rng, space, n: ExponentialSpec(space, n, HammingUtility(
        rng.choice([0.0, math.inf, float(rng.uniform(0.1, 3.0))]))),
    "l1": lambda rng, space, n: ExponentialSpec(space, n, NegL1Utility()),
    "dirichlet": lambda rng, space, n: ProductSpec(
        space, n, random_stochastic(rng, space.size)),
    "zeros": lambda rng, space, n: ProductSpec(
        space, n, zero_entry_parent(rng, space.size)),
    "symmetric": lambda rng, space, n: make_symmetric_product(
        space, n, rng.choice([0.0, float(rng.uniform(0.01, 1 / space.size))])),
}

PARENT_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (4, 1)]


class TestParentSufficientSet:
    """A product spec's S is a box over its parent: the same members,
    levels and partition as two full pmf rows give, from no row at all."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", list(PARENT_KINDS))
    def test_box_matches_the_full_row_oracle(self, kind, exact):
        rng = np.random.default_rng(sorted(PARENT_KINDS).index(kind))
        for m, n in PARENT_SHAPES:
            space = make_space(m)
            spec = PARENT_KINDS[kind](rng, space, n)
            for pair in enumerate_neighbor_pairs(space, n):
                got = sufficient_set(spec, pair, exact=exact)
                members, levels, partition = \
                    _oracles.sufficient_set_from_rows(
                        spec.product, pair.d.rows, pair.d_prime.rows,
                        spec.fixed_normalizer, exact, verifier.TIE_BAND)
                assert got.members.box_mask is not None
                assert len(got.members) == len(members)
                assert got.members.indices == tuple(members)
                assert got.alpha_levels == levels
                if partition is None:
                    assert got.partition is None
                else:
                    assert [cell.indices for cell in got.partition] \
                        == [tuple(cell) for cell in partition]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", list(PARENT_KINDS))
    def test_box_margin_matches_the_rows(self, kind, exact):
        # a box sums the parent's rows; the same members as plain indices
        # sum two pmf rows
        rng = np.random.default_rng(10 + sorted(PARENT_KINDS).index(kind))
        params = PrivacyParams(0.3, 0.01)
        for m, n in PARENT_SHAPES:
            space = make_space(m)
            spec = PARENT_KINDS[kind](rng, space, n)
            for pair in enumerate_neighbor_pairs(space, n):
                box = sufficient_set(spec, pair, exact=exact).members
                if not len(box):
                    continue
                plain = DatabaseSet(space, n, box.indices)
                got = dp_holds_on_set(spec, pair, box, params, exact=exact)
                rows = dp_holds_on_set(spec, pair, plain, params,
                                       exact=exact)
                assert got.holds == rows.holds
                if exact:
                    assert got.margin == rows.margin
                else:
                    assert got.margin == pytest.approx(rows.margin,
                                                       abs=1e-15)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", list(PARENT_KINDS))
    def test_box_probabilities_match_the_row_loop(self, kind, exact):
        # random boxes with runs of repeated rows, up to 20 rows: grouped
        # sums give the row loop's floats bit for bit and its Fractions
        rng = np.random.default_rng(30 + sorted(PARENT_KINDS).index(kind))
        params = PrivacyParams(0.3, 0.01)
        for n in (1, 2, 5, 13, 20):
            m = int(rng.integers(1, 5))
            space = make_space(m)
            spec = PARENT_KINDS[kind](rng, space, n)
            weights = (spec.product.matrix.fractions() if exact
                       else np.exp(spec.product.log_weights).tolist())
            for _ in range(6):
                mask = rng.random((n, space.size)) < 0.6
                mask[np.arange(n), rng.integers(0, space.size, n)] = True
                mask = mask[np.sort(rng.integers(0, n, n))]
                box = DatabaseSet.from_mask(space, mask)
                d = rng.integers(0, space.size, n)
                row = int(rng.integers(n))
                d_prime = d.copy()
                d_prime[row] = ((d[row] + rng.integers(1, space.size))
                                % space.size)
                pair = NeighborPair(Database(tuple(d.tolist())),
                                    Database(tuple(d_prime.tolist())), row)
                want = _oracles.box_probabilities_rows(
                    spec.product, [np.flatnonzero(r).tolist() for r in mask],
                    pair.d.rows, pair.d_prime.rows,
                    exact)
                got = verifier._box_probabilities(
                    weights, mask, (pair.d, pair.d_prime), exact)
                assert tuple(got) == want
                assert all(type(g) is type(w) for g, w in zip(got, want))
                if exact:
                    e_eps, delta = params.exact_pair()
                    margin = e_eps * want[1] + delta - want[0]
                    holds = margin >= 0
                else:
                    margin = math.exp(0.3) * want[1] + 0.01 - want[0]
                    holds = margin >= -verifier.TOLERANCE
                result = dp_holds_on_set(spec, pair, box, params, exact=exact)
                assert (result.holds, result.margin) == (holds, float(margin))

    @pytest.mark.parametrize("exact", [False, True])
    def test_builds_no_row_digit_table_or_index(self, monkeypatch, exact):
        import dpcat.core
        import dpcat.mechanisms as mech
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for cls in (mech._Spec, mech.ExponentialSpec, mech.ProductSpec):
            for name in ("_digit_table", "log_pmf_row", "pmf_row",
                         "exact_pmf_row", "log_pmf_block", "exact_pmf_block",
                         "_outer_block"):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name,
                                        counting(name, vars(cls)[name]))
        for module, name in [(dpcat.core, "index_digits"),
                             (verifier, "index_digits"),
                             (mech, "index_digits"),
                             (mech, "digit_matrix"),
                             (dpcat.core, "_box_indices"),
                             (verifier, "database_index")]:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        hamming = ExponentialSpec(make_space(1), 20, HammingUtility(0.5))
        l1 = ExponentialSpec(make_space(2), 12, NegL1Utility())
        params = PrivacyParams(0.3, 0.0)
        for spec, d, size, levels in [(hamming, (0,) * 20, 2 ** 19, (0.5,)),
                                      (l1, (0,) * 12, 3 ** 11, None)]:
            d_prime = (1,) + d[1:]
            pair = NeighborPair(Database(d), Database(d_prime), 0)
            s = sufficient_set(spec, pair, exact=exact)
            assert len(s.members) == size and s.alpha_levels == levels
            dp_holds_on_set(spec, pair, s.members, params, exact=exact)
        assert calls == []


class TestVerifyReduced:
    def test_l1_workload(self, l1_spec):
        report = verify_reduced(l1_spec, PrivacyParams(1.0, 0.0))
        # Exact-tie accounting: sufficient sets here have 24 pairs with
        # 3 members and 12 pairs with 6 members (ties between the extreme
        # categories are excluded, and set sizes are constant across the
        # six instances of each ordered value pair, so every size class
        # has even count).  24 * (2^3 - 1) + 12 * (2^6 - 1) = 924.
        assert report.checks_performed == 924
        assert report.checks_naive == 18360
        assert report.method == "sufficient-set"

    def test_l1_set_size_histogram(self, l1_spec, space3):
        sizes = Counter(len(sufficient_set(l1_spec, pair).members)
                        for pair in enumerate_neighbor_pairs(space3, 2))
        assert sizes == {3: 24, 6: 12}

    def test_hamming_single_check_per_pair(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(1.0))
        report = verify_reduced(spec, PrivacyParams(0.5, 0.0))
        assert report.checks_performed == 36
        assert report.method == "sufficient-set"

    def test_uniform_private_no_checks(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.0))
        report = verify_reduced(spec, PrivacyParams(0.0, 0.0))
        assert report.private
        assert report.checks_performed == 0
        # only the empty set binds: margin delta, no binding pair
        assert report.margin == 0.0 and report.binding_pair is None

    def test_partition_method_for_fixed_c_tables(self, space3, rng):
        spec = ExponentialSpec(space3, 2, fixed_c_table(rng, space3, 2))
        report = verify_reduced(spec, PrivacyParams(1.0, 0.0))
        assert report.method == "partition"
        brute = verify_bruteforce(spec, PrivacyParams(1.0, 0.0))
        assert report.verdict == brute.verdict
        # with delta > 0 the partition reduction is not licensed
        report = verify_reduced(spec, PrivacyParams(1.0, 0.1))
        assert report.method == "sufficient-set"
        assert report.verdict == verify_bruteforce(
            spec, PrivacyParams(1.0, 0.1)).verdict

    def test_false_fixed_c_assertion_rejected(self, l1_spec, space3):
        # an L1 table normaliser genuinely varies; claiming otherwise fails
        table = np.array([[-float(sum(abs(x - y) for x, y in zip(a, b)))
                           for b in _oracles.all_dbs(3, 2)]
                          for a in _oracles.all_dbs(3, 2)])
        spec = ExponentialSpec(space3, 2,
                               TableUtility(space3, 2, table,
                                            assert_fixed_c=True))
        with pytest.raises(DataFormatError, match="fixed normaliser"):
            verify_reduced(spec, PrivacyParams(1.0, 0.0))

    def test_delta_one_short_circuit(self, l1_spec):
        report = verify_reduced(l1_spec, PrivacyParams(0.0, 1.0))
        assert report.private and report.trivial
        assert report.checks_performed == 0

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_tolerance_and_trivial_come_from_the_report(self, l1_spec,
                                                        delta):
        # neither is a field: the tolerance follows the arithmetic, and a
        # report is trivial exactly at delta = 1
        assert {"tolerance", "trivial"}.isdisjoint(
            f.name for f in dataclasses.fields(verifier.VerificationReport))
        for exact in (False, True):
            report = verify_reduced(l1_spec, PrivacyParams(1.0, delta),
                                    exact=exact)
            assert report.tolerance == (0.0 if exact else verifier.TOLERANCE)
            assert report.trivial == (delta == 1.0)
            payload = report.to_json_dict()
            assert (payload["tolerance"], payload["trivial"]) == (
                report.tolerance, report.trivial)

    @pytest.mark.parametrize("exact", [False, True])
    def test_count_leaves_out_outputs_impossible_under_both(self, space3,
                                                             exact):
        # row 0 never releases category 2, so no S holds an output whose
        # other row is 2 while that row's input is 0
        spec = ProductSpec(space3, 2, SolutionMatrix(np.array(
            [[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])))
        walked = sum(2 ** len(sufficient_set(spec, pair, exact=exact).members)
                     - 1 for pair in enumerate_neighbor_pairs(space3, 2))
        report = verify_reduced(spec, PrivacyParams(0.5, 0.0), exact=exact)
        assert report.checks_performed == walked == 700


TABLE_SHAPES = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)]


def circulant_table(rng, space, n):
    """u(i, j) a function of (j - i) mod size: one normaliser for every
    row, and utility gaps that repeat within a pair."""
    idx = np.arange(space.size ** n)
    c = rng.uniform(-3.0, 0.0, idx.size)
    return TableUtility(space, n, c[(idx[None, :] - idx[:, None]) % idx.size],
                        assert_fixed_c=True)


class TestTableRoute:
    """Utility tables are decided in one array pass over their pairs, and
    the paper's check counts are computed, not walked."""

    def test_builds_no_row_and_scans_no_subset(self, monkeypatch):
        import dpcat.kernels
        import dpcat.mechanisms as mech
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("log_pmf_row", "pmf_row"):
            monkeypatch.setattr(mech._Spec, name,
                                counting(name, vars(mech._Spec)[name]))
        monkeypatch.setattr(dpcat.kernels, "subset_scan",
                            counting("subset_scan",
                                     dpcat.kernels.subset_scan))
        rng = np.random.default_rng(8)
        space = make_space(2)
        specs = [ExponentialSpec(space, 2, TableUtility(
                     space, 2, rng.uniform(-3.0, 0.0, (9, 9)))),
                 ExponentialSpec(space, 2, circulant_table(rng, space, 2))]
        for spec in specs:
            for delta in (0.0, 0.1):
                report = verify_reduced(spec, PrivacyParams(0.3, delta))
                assert report.checks_performed > 0
        assert calls == []

    @pytest.mark.parametrize("m,n", TABLE_SHAPES)
    def test_checks_count_every_subset_of_each_sufficient_set(self, m, n):
        rng = np.random.default_rng(70 + 10 * m + n)
        space = make_space(m)
        size = space.size ** n
        for _ in range(3):
            spec = ExponentialSpec(space, n, TableUtility(
                space, n, rng.uniform(-3.0, 0.0, (size, size))))
            walked = sum(2 ** len(sufficient_set(spec, pair).members) - 1
                         for pair in enumerate_neighbor_pairs(space, n))
            for delta in (0.0, 0.1):
                report = verify_reduced(spec, PrivacyParams(0.5, delta))
                assert report.method == "sufficient-set"
                assert report.checks_performed == walked

    @pytest.mark.parametrize("m,n", TABLE_SHAPES)
    def test_partition_checks_count_each_gap_level(self, m, n):
        rng = np.random.default_rng(90 + 10 * m + n)
        space = make_space(m)
        # a hamming table's gaps take one of three values, so cells hold
        # many members
        digits = np.indices((space.size,) * n).reshape(n, -1).T
        hamming = (digits[:, None, :] != digits[None, :, :]).sum(axis=2)
        for utility in (fixed_c_table(rng, space, n),
                        circulant_table(rng, space, n),
                        TableUtility(space, n, -0.7 * hamming,
                                     assert_fixed_c=True)):
            spec = ExponentialSpec(space, n, utility)
            cells = sum(len(sufficient_set(spec, pair).partition)
                        for pair in enumerate_neighbor_pairs(space, n))
            report = verify_reduced(spec, PrivacyParams(0.5, 0.0))
            assert report.method == "partition"
            assert report.checks_performed == cells


FACTORISED_SHAPES = [(1, 3), (2, 3), (3, 2)]


def csv_style_parent(m, p):
    """A symmetric parent as read from a text file: every row sums to
    1 - 5e-10, inside the row-sum tolerance."""
    return SolutionMatrix(symmetric_matrix(m, p).values * (1 - 5e-10))


def factorised_specs(m, n):
    """Product specs with a symmetric parent: one check of S per pair."""
    space = make_space(m)
    return {
        "hamming": ExponentialSpec(space, n, HammingUtility(1.3)),
        "hamming-inf": ExponentialSpec(space, n, HammingUtility(math.inf)),
        "csv-parent": ProductSpec(space, n, csv_style_parent(m, 0.3 / (m + 1))),
    }


def naive_table(spec):
    """{d: {x: P(X_d = x)}} by direct products or normalisation."""
    size, n = spec.space.size, spec.n
    if spec.product is not None:
        return _oracles.product_pmf_table(
            spec.product.matrix.stochastic.tolist(), n)
    index = {d: i for i, d in enumerate(_oracles.all_dbs(size, n))}
    values = spec.utility.values
    return _oracles.pmf_table_from_utility(
        size, n, lambda a, b: float(values[index[a], index[b]]))


def oracle_margin(spec, params):
    return _oracles.canonical_margin(naive_table(spec), spec.space.size,
                                     spec.n, math.exp(params.epsilon),
                                     params.delta)


def nonempty_sufficient_sets(spec):
    return sum(1 for pair in enumerate_neighbor_pairs(spec.space, spec.n)
               if len(sufficient_set(spec, pair).members))


class TestFactorisedRoute:
    """The product route decides every pair from the parent alone."""

    PARAMS = PrivacyParams(0.2, 0.01)       # none of the specs is private

    @pytest.mark.parametrize("m,n", FACTORISED_SHAPES)
    @pytest.mark.parametrize("name", ["hamming", "hamming-inf", "csv-parent"])
    def test_margin_matches_the_oracles(self, m, n, name):
        spec = factorised_specs(m, n)[name]
        report = verify_reduced(spec, self.PARAMS)
        assert report.method == "sufficient-set"
        assert not report.private
        if spec.state_count <= 16:
            reference = verify_bruteforce(spec, self.PARAMS).margin
        else:                   # 2^27 subsets per pair: use the closed form
            reference = oracle_margin(spec, self.PARAMS)
        assert report.margin == pytest.approx(reference, abs=1e-12)
        at_binding = dp_holds_on_set(spec, report.binding_pair,
                                     report.binding_set, self.PARAMS)
        assert report.margin == pytest.approx(at_binding.margin, abs=1e-13)
        assert report.checks_performed == nonempty_sufficient_sets(spec)

    @pytest.mark.parametrize("m,n", FACTORISED_SHAPES)
    def test_uniform_parent_has_no_checks(self, m, n):
        spec = make_symmetric_product(make_space(m), n, 1 / (m + 1))
        report = verify_reduced(spec, self.PARAMS)
        assert report.private
        assert report.checks_performed == 0 == nonempty_sufficient_sets(spec)
        assert report.margin == self.PARAMS.delta
        assert report.binding_pair is None and report.binding_set is None

    @pytest.mark.parametrize("m,n", FACTORISED_SHAPES)
    @pytest.mark.parametrize("name", ["hamming", "hamming-inf", "csv-parent"])
    def test_exact_matches_a_naive_pair_loop(self, m, n, name):
        spec = factorised_specs(m, n)[name]
        e_eps, delta = self.PARAMS.exact_pair()
        index = {d: i for i, d in
                 enumerate(_oracles.all_dbs(spec.space.size, n))}
        best, binding = delta, None
        checks = 0
        for d, dp in _oracles.ordered_neighbor_pairs(spec.space.size, n):
            pa = spec.exact_pmf_row(index[d])
            pb = spec.exact_pmf_row(index[dp])
            checks += any(x > y for x, y in zip(pa, pb))
            worst = [x for x in range(len(pa)) if pa[x] > e_eps * pb[x]]
            margin = (e_eps * sum(pb[x] for x in worst) + delta
                      - sum(pa[x] for x in worst))
            if margin < best:
                best, binding = margin, (d, dp, worst)
        report = verify_reduced(spec, self.PARAMS, exact=True)
        assert report.margin == float(best)
        d, dp, worst = binding
        assert (report.binding_pair.d.rows,
                report.binding_pair.d_prime.rows) == (d, dp)
        # the reported cylinder adds only outputs impossible under d
        pa = spec.exact_pmf_row(index[d])
        assert [x for x in report.binding_set.indices if pa[x] > 0] == worst
        at_binding = dp_holds_on_set(spec, report.binding_pair,
                                     report.binding_set, self.PARAMS,
                                     exact=True)
        assert at_binding.margin == float(best)
        assert report.checks_performed == checks

    @pytest.mark.parametrize("exact", [False, True])
    def test_builds_no_row_and_walks_no_subset(self, monkeypatch, exact):
        import dpcat.kernels
        import dpcat.mechanisms as mech
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        targets = [(cls, name) for cls in (mech._Spec, mech.ExponentialSpec,
                                           mech.ProductSpec)
                   for name in ("_digit_table", "log_pmf_row", "pmf_row",
                                "exact_pmf_row", "log_pmf_block",
                                "exact_pmf_block", "_outer_block")
                   if name in vars(cls)]
        for cls, name in targets:
            monkeypatch.setattr(cls, name, counting(name, vars(cls)[name]))
        monkeypatch.setattr(dpcat.kernels, "subset_scan",
                            counting("subset_scan",
                                     dpcat.kernels.subset_scan))
        space = make_space(2)
        specs = [ExponentialSpec(space, 3, HammingUtility(1.0)),
                 ExponentialSpec(space, 2, NegL1Utility()),
                 make_symmetric_product(space, 3, 0.1),
                 ProductSpec(space, 2, random_stochastic(
                     np.random.default_rng(5), 3))]
        for spec in specs:
            report = verify_reduced(spec, PrivacyParams(0.3, 0.0),
                                    exact=exact)
            assert not report.private
        assert calls == []


class TestVerifyBruteforce:
    def test_uniform_binary_private_everywhere(self):
        spec = make_symmetric_product(make_space(1), 1, 0.5)
        for eps in (0.0, 0.5, 2.0):
            for delta in (0.0, 0.3):
                report = verify_bruteforce(spec, PrivacyParams(eps, delta))
                assert report.private

    def test_matches_literal_oracle(self, space3):
        spec = ExponentialSpec(space3, 1, HammingUtility(1.3))
        table = _oracles.pmf_table_from_utility(
            3, 1, lambda a, b: -1.3 * _oracles.hamming(a, b))
        for eps, delta in [(1.0, 0.0), (1.3, 0.0), (1.5, 0.0), (1.0, 0.2)]:
            ok, worst = _oracles.bruteforce_verdict(table, 3, 1,
                                                    math.exp(eps), delta)
            report = verify_bruteforce(spec, PrivacyParams(eps, delta))
            assert report.private == ok
            assert report.margin == pytest.approx(worst, abs=1e-13)
            assert worst == pytest.approx(_oracles.canonical_margin(
                table, 3, 1, math.exp(eps), delta), abs=1e-13)

    def test_agrees_with_reduced_on_l1(self, l1_spec):
        for eps in (0.0, 0.5, 1.0, 2.0):
            for delta in (0.0, 0.05, 0.5):
                params = PrivacyParams(eps, delta)
                rb = verify_bruteforce(l1_spec, params)
                rr = verify_reduced(l1_spec, params)
                assert rb.verdict == rr.verdict
                assert rb.checks_performed == 18360
                assert rb.margin == pytest.approx(rr.margin, abs=1e-12)

    def test_hamming_tight_condition(self, space3):
        # delta = 0: private exactly when k <= eps
        for k in (0.2, 0.7, 1.0):
            spec = ExponentialSpec(space3, 2, HammingUtility(k))
            for eps in (0.1, 0.2, 0.7, 1.0, 1.5):
                report = verify_bruteforce(spec, PrivacyParams(eps, 0.0))
                assert report.private == (k <= eps), (k, eps)

    def test_budget_error(self, space3):
        spec = ExponentialSpec(space3, 3, HammingUtility(1.0))
        with pytest.raises(EnumerationBudgetError, match="27"):
            verify_bruteforce(spec, PrivacyParams(1.0, 0.0))

    def test_one_guard_before_any_row(self, monkeypatch):
        # 24 states bind, before a digit table, pair array or pmf row is
        # built, in both arithmetics
        def refuse(*args):
            raise AssertionError("built before the guard")
        for name in ("pmf_row", "exact_pmf_row", "_digit_table"):
            monkeypatch.setattr(ExponentialSpec, name, refuse)
        monkeypatch.setattr(verifier, "_neighbor_pairs", refuse)
        spec = ExponentialSpec(make_space(2), 10, NegL1Utility())
        for exact in (False, True):
            with pytest.raises(EnumerationBudgetError) as info:
                verify_bruteforce(spec, PrivacyParams(1.0, 0.0), exact=exact)
            assert str(info.value) == (
                "database space holds 59049 states; the brute-force oracle "
                "enumerates 2^59049 - 2 subsets per pair, over the budget "
                "of 24")
            assert info.value.count == 59049

    @pytest.mark.parametrize("n", [8383, 8384, 10 ** 7])
    def test_refusals_build_no_count_past_the_cap(self, n):
        # 3^8383 has 4,000 digits and prints; 3^8384 and beyond print as
        # the power, and far past the cap the count is never built
        states = f"3^{n}" if n > 8383 else str(3 ** n)
        spec = ExponentialSpec(make_space(2), n, NegL1Utility())
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError) as info:
            verify_bruteforce(spec, PrivacyParams(1.0, 0.0))
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == (
            f"database space holds {states} states; the brute-force oracle "
            f"enumerates 2^{states} - 2 subsets per pair, over the budget "
            f"of 24")

    @pytest.mark.parametrize("m, n", [(1, 3), (1, 4), (3, 2)])
    def test_chunked_scan_gives_the_unchunked_report(self, monkeypatch, m, n):
        # chunks of 1 and 3 pairs against one chunk of every pair: the same
        # margin, binding pair and set (the first canonical pair among the
        # mirror-image pairs that tie) and check count
        rng = np.random.default_rng(m * 10 + n)
        space = make_space(m)
        size = (m + 1) ** n
        specs = [ExponentialSpec(space, n, HammingUtility(1.3)),
                 ProductSpec(space, n, random_stochastic(rng, m + 1)),
                 ExponentialSpec(space, n, TableUtility(
                     space, n, rng.uniform(-3.0, 0.0, (size, size))))]
        half_table = 1 << (size + 1) // 2
        for spec in specs:
            exact_modes = (False, True) if spec.supports_exact and size <= 8 \
                else (False,)
            for exact in exact_modes:
                for params in (PrivacyParams(0.5, 0.0),
                               PrivacyParams(1.0, 0.05)):
                    reports = []
                    for entries in (1 << 20, half_table, 3 * half_table):
                        monkeypatch.setattr(verifier, "_SCAN_ENTRIES",
                                            entries)
                        monkeypatch.setattr(verifier, "_EXACT_SCAN_ENTRIES",
                                            entries)
                        reports.append(verify_bruteforce(spec, params,
                                                         exact=exact))
                    assert reports[0] == reports[1] == reports[2]
                    assert reports[0].binding_pair is not None \
                        or reports[0].private

    def test_report_invariants(self, l1_spec):
        params = PrivacyParams(0.9, 0.0)
        report = verify_bruteforce(l1_spec, params)
        assert report.private == (report.margin >= -report.tolerance)
        assert report.checks_performed <= report.checks_naive
        assert report.checks_naive == naive_check_count(l1_spec.space, 2)
        payload = report.to_json_dict()
        assert payload["checks_naive"] == "18360"
        assert isinstance(payload["checks_performed"], str)


def random_spec(rng, kind):
    """A spec like acceptance criterion 7's fuzz corpus draws."""
    sizes = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)]
    m, n = sizes[int(rng.integers(0, len(sizes)))]
    space = make_space(m)
    if kind == "table":
        size = (m + 1) ** n
        table = rng.uniform(-3.0, 0.0, (size, size))
        return ExponentialSpec(space, n, TableUtility(space, n, table))
    if kind == "symmetric":
        return make_symmetric_product(space, n,
                                      float(rng.uniform(0.0, 1.0)) / (m + 1))
    return ProductSpec(space, n, random_stochastic(rng, m + 1))


EPS_GRID = [0.0, 0.1, math.log(2), 1.0, math.log(4), 3.0]
DELTA_GRID = [0.0, 0.01, 0.1, 0.5]


class TestCanonicalMargin:
    """Every path reports the minimum margin over every output set, the
    empty set included, and binds only below delta."""

    @staticmethod
    def assert_canonical(spec, report, params, expected):
        assert report.margin == pytest.approx(expected, abs=1e-12)
        assert (report.binding_pair is None) == (report.margin == params.delta)
        assert (report.binding_set is None) == (report.binding_pair is None)
        if report.binding_pair is not None:
            at_binding = dp_holds_on_set(spec, report.binding_pair,
                                         report.binding_set, params)
            assert at_binding.margin == pytest.approx(report.margin,
                                                      abs=1e-12)

    @pytest.mark.parametrize("kind", ["table", "symmetric", "asymmetric"])
    def test_every_path_matches_the_divergence(self, kind):
        rng = np.random.default_rng(7007)
        for _ in range(15):
            spec = random_spec(rng, kind)
            table = naive_table(spec)
            for eps in EPS_GRID:
                for delta in DELTA_GRID:
                    params = PrivacyParams(eps, delta)
                    expected = _oracles.canonical_margin(
                        table, spec.space.size, spec.n, math.exp(eps), delta)
                    reduced = verify_reduced(spec, params)
                    brute = verify_bruteforce(spec, params)
                    assert reduced.verdict == brute.verdict
                    reports = [reduced, brute]
                    if spec.product is not None and spec.n == 1:
                        reports.append(verify_matrix(
                            spec.product.matrix, params, space=spec.space))
                    for report in reports:
                        self.assert_canonical(spec, report, params, expected)

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (1, 3)])
    def test_partition_route_sums_the_cells_below_delta(self, m, n):
        # circulant tables, u(i, j) a function of (j - i) mod size, have one
        # normaliser; a pair's worst set is a union of utility-gap cells
        rng = np.random.default_rng(40 + 10 * m + n)
        space = make_space(m)
        idx = np.arange(space.size ** n)
        for _ in range(5):
            c = rng.uniform(-3.0, 0.0, idx.size)
            spec = ExponentialSpec(space, n, TableUtility(
                space, n, c[(idx[None, :] - idx[:, None]) % idx.size],
                assert_fixed_c=True))
            for eps in EPS_GRID:
                params = PrivacyParams(eps, 0.0)
                reduced = verify_reduced(spec, params)
                brute = verify_bruteforce(spec, params)
                assert reduced.method == "partition"
                assert reduced.verdict == brute.verdict
                assert reduced.margin == pytest.approx(brute.margin,
                                                       abs=1e-12)
                self.assert_canonical(spec, reduced, params, brute.margin)


class TestBindingSetJson:
    @pytest.mark.parametrize("seed", [6, 9])
    def test_non_cylinder_set_lists_every_member(self, seed):
        space = make_space(1)
        table = np.random.default_rng(seed).uniform(-3.0, 0.0, (4, 4))
        spec = ExponentialSpec(space, 2, TableUtility(space, 2, table))
        report = verify_bruteforce(spec, PrivacyParams(0.5, 0.0))
        assert len(report.binding_set) == 2       # not {x : x_i in C}
        members = [[space.labels[c] for c in rows]
                   for rows in rows_of(report.binding_set)]
        assert (json.dumps(report.to_json_dict()["binding_set"], indent=2)
                == json.dumps(members, indent=2))

    def test_every_nonempty_set_is_a_cylinder_at_one_row(self):
        space = make_space(3)
        report = verify_matrix(symmetric_matrix(3, 0.1),
                               PrivacyParams(1.0, 0.0), space=space)
        for idx in [(0,), (1, 3), (0, 1, 2)]:
            report.binding_set = DatabaseSet(space, 1, idx)
            assert report.to_json_dict()["binding_set"] == {
                "row": 0, "categories": [str(i) for i in idx],
                "size": len(idx)}


    @pytest.mark.parametrize("m,n,row,categories", [
        (1, 3, 1, (0,)), (2, 3, 2, (2, 0)), (2, 2, 1, (0, 1, 2)),
        (3, 1, 0, (1, 2)), (2, 3, 0, ())])
    def test_cylinder_prints_as_its_indices_would(self, m, n, row,
                                                  categories):
        # the lowest row that fits: row 0 when the cylinder is the space
        space = make_space(m)
        cylinder = DatabaseSet.from_cylinder(space, n, row, categories)
        plain = DatabaseSet(space, n, tuple(
            i for i, x in enumerate(_oracles.all_dbs(m + 1, n))
            if x[row] in categories))
        assert (verifier._render_set(cylinder)
                == verifier._render_set(plain))


class TestClosedForms:
    def test_the_verdict_rule(self):
        tol = verifier.TOLERANCE
        assert verifier.passes(-tol, exact=False)
        assert not verifier.passes(-2 * tol, exact=False)
        assert verifier.passes(Fraction(0), exact=True)
        assert not verifier.passes(Fraction(-1, 10 ** 30), exact=True)
        assert verifier.passes(np.array([-2 * tol, -tol, 0.0]),
                               exact=False).tolist() == [False, True, True]

    @pytest.mark.parametrize("exact", [False, True])
    def test_hamming_knife_edge_agrees_with_verify(self, exact):
        # deciding bound - e^k >= 0 in e^k's units, with no tolerance, calls
        # 68 of these 640 points not private where verify says private,
        # one of them at a verify margin of +1.4e-16; exact margins agree
        # to the bit, float ones only to rounding (the log/exp round trip)
        points = list(_oracles.knife_edge_grid())
        assert len(points) == 640
        for m, eps, delta, k, _ in points:
            params = PrivacyParams(eps, delta)
            spec = ExponentialSpec(make_space(m), 3, HammingUtility(k))
            report = verify_reduced(spec, params, exact=exact)
            closed = exp_dp_condition(k, params, m, exact=exact)
            assert closed.satisfied == report.private, (m, params, k)
            if exact:
                assert closed.margin == report.margin, (m, params, k)

    @pytest.mark.parametrize("exact", [False, True])
    def test_product_knife_edge_agrees_with_verify(self, exact):
        # a spec built from a float p or from Fraction(p) has Fraction(p)'s
        # exact parent, the one the exact closed form takes; a float-built
        # spec whose exact rows were its float rows over their exact sums
        # disagreed with the exact closed form at 77 of these points
        for m, eps, delta, _, p in _oracles.knife_edge_grid():
            params = PrivacyParams(eps, delta)
            closed = product_dp_condition(p, params, m, exact=exact)
            for built in (p, Fraction(p)):
                spec = make_symmetric_product(make_space(m), 3, built)
                report = verify_reduced(spec, params, exact=exact)
                assert closed.satisfied == report.private, (m, params, built)
                if exact:
                    assert closed.margin == report.margin, (m, params, p)

    def test_closed_forms_pass_where_verify_does(self):
        # p a hair under the threshold: the margin 4p - 1 is below 0 but
        # within the tolerance, so both say private; exactly, the same hair
        # fails
        m, params = 2, PrivacyParams(math.log(2), 0.0)
        p = 0.25 - 1e-14
        closed = product_dp_condition(p, params, m)
        assert closed.satisfied and -verifier.TOLERANCE <= closed.margin < 0
        assert verify_matrix(symmetric_matrix(m, p), params).private
        assert not product_dp_condition(p, params, m, exact=True).satisfied

    def test_exp_condition_delta_zero(self):
        for k in (0.0, 0.5, 1.0):
            for eps in (0.0, 0.5, 1.0):
                res = exp_dp_condition(k, PrivacyParams(eps, 0.0), 2)
                assert res.satisfied == (k <= eps)

    def test_zero_weight_always_satisfied(self):
        for eps in (0.0, 1.0):
            for delta in (0.0, 0.5, 0.99):
                assert exp_dp_condition(0.0, PrivacyParams(eps, delta),
                                        3).satisfied

    def test_exp_condition_oracle_cross_check(self, space3):
        # m=2, eps=ln2, delta=0.1: bound = 2.2/0.9; e^0.9 exceeds it
        params = PrivacyParams(math.log(2), 0.1)
        res = exp_dp_condition(0.9, params, 2)
        assert not res.satisfied
        # the parent's margin e^eps*p + delta - (1 - 2p) at p = 1/(e^0.9 + 2)
        assert res.margin == pytest.approx(4 / (math.exp(0.9) + 2) - 0.9)
        spec = ExponentialSpec(space3, 2, HammingUtility(0.9))
        brute = verify_bruteforce(spec, params)
        assert not brute.private
        assert res.margin == pytest.approx(brute.margin, abs=1e-15)

    def test_exp_condition_trivial_delta(self):
        # private at an infinite margin, as a trivial report is
        res = exp_dp_condition(5.0, PrivacyParams(0.0, 1.0), 2)
        assert res.satisfied and res.trivial and res.margin == math.inf
        res = product_dp_condition(0.1, PrivacyParams(0.0, 1.0), 2)
        assert res.satisfied and res.trivial and res.margin == math.inf

    def test_product_condition_uniform_endpoint(self):
        for m in (1, 2, 4):
            for eps in (0.0, 1.0):
                for delta in (0.0, 0.3):
                    res = product_dp_condition(1 / (m + 1),
                                               PrivacyParams(eps, delta), m)
                    assert res.satisfied

    def test_product_condition_threshold(self):
        params = PrivacyParams(math.log(2), 0.0)
        assert product_dp_condition(0.25, params, 2).satisfied
        res = product_dp_condition(0.2, params, 2)
        assert not res.satisfied
        assert res.margin == pytest.approx(2 * 0.2 - (1 - 2 * 0.2))
        spec = make_symmetric_product(make_space(2), 1, 0.2)
        brute = verify_bruteforce(spec, params)
        assert not brute.private
        assert res.margin == pytest.approx(brute.margin, abs=1e-15)

    def test_parameter_range_errors(self):
        with pytest.raises(ParameterRangeError):
            exp_dp_condition(-1.0, PrivacyParams(0.0, 0.0), 2)
        with pytest.raises(ParameterRangeError):
            product_dp_condition(0.6, PrivacyParams(0.0, 0.0), 2)

    @pytest.mark.parametrize("exact", [False, True])
    def test_k_past_the_float_range_is_a_range_error(self, exact):
        # the hamming utility's own k check, naming the limit, not an
        # OverflowError from exp(k)
        with pytest.raises(ParameterRangeError, match="k at most"):
            exp_dp_condition(710.0, PrivacyParams(1.0, 0.0), 2, exact=exact)
        assert not exp_dp_condition(math.inf, PrivacyParams(1.0, 0.0), 2,
                                    exact=exact).satisfied

    def test_flip_probability_has_no_slack(self):
        # one ulp above 1/(m+1) is out of range for every reader
        p = math.nextafter(1 / 3, 1)
        for read in (lambda: symmetric_matrix(2, p),
                     lambda: product_dp_condition(p, PrivacyParams(0, 0), 2),
                     lambda: dpcat.analysis.k_from_p(p, 2)):
            with pytest.raises(ParameterRangeError, match="flip probability"):
                read()
        assert symmetric_matrix(2, 1 / 3).symmetric_p() == 1 / 3


class TestVerifyMatrix:
    def test_identity_not_private(self):
        report = verify_matrix(SolutionMatrix(np.eye(3)),
                               PrivacyParams(1.0, 0.0))
        assert not report.private
        assert report.margin == pytest.approx(math.exp(1.0) * 0 + 0 - 1)

    def test_symmetric_tracks_closed_form(self):
        # the parent route decides symmetric parents too, with the closed
        # form's verdict and margin min(delta, e^eps*p + delta - (1 - m*p))
        m = 4
        matrix = symmetric_matrix(m, 0.1)
        for eps in (0.0, 1.0, math.log(6), 2.0):
            for delta in (0.0, 0.1, 0.5):
                params = PrivacyParams(eps, delta)
                report = verify_matrix(matrix, params)
                assert report.method == "sufficient-set"
                assert report.private == product_dp_condition(
                    0.1, params, m).satisfied
                closed = min(delta,
                             math.exp(eps) * 0.1 + delta - (1 - m * 0.1))
                assert report.margin == pytest.approx(closed, abs=1e-15)
        p = Fraction(1, 10)
        matrix = symmetric_matrix(m, p)
        for e_eps in (Fraction(1), Fraction(6), Fraction(7)):
            for delta in (Fraction(0), Fraction(1, 10)):
                params = exact_params(e_eps, delta)
                report = verify_matrix(matrix, params, exact=True)
                assert report.method == "sufficient-set"
                closed = min(delta, e_eps * p + delta - (1 - m * p))
                assert report.private == (closed >= 0)
                assert report.margin == float(closed)

    def test_exact_mode_sees_a_float_diagonal_below_p(self):
        # p = 0.2 = 1/(m+1) as floats: 1 - 4 * 0.2 rounds below 0.2, so the
        # exact parent is off-diagonal dominant and not private at eps = 0
        matrix = symmetric_matrix(4, 0.2)
        spec = ProductSpec(make_space(4), 1, matrix)
        params = PrivacyParams(0.0, 0.0)
        report = verify_matrix(matrix, params, exact=True)
        brute = verify_bruteforce(spec, params, exact=True)
        assert (report.verdict, report.margin) \
            == (brute.verdict, brute.margin) == ("not-private", -2 ** -54)

    def test_zero_slack_boundary_exact(self):
        e_eps, delta = Fraction(2), Fraction(1, 10)
        m = 3
        p = (1 - delta) / (e_eps + m)
        matrix = symmetric_matrix(m, p)
        params = exact_params(e_eps, delta)
        report = verify_matrix(matrix, params, exact=True)
        assert report.private
        assert report.margin == 0.0

    def test_general_matrix_matches_product_bruteforce(self, rng):
        space = make_space(2)
        for _ in range(5):
            matrix = random_stochastic(rng, 3)
            params = PrivacyParams(float(rng.uniform(0, 2)),
                                   float(rng.choice([0.0, 0.1])))
            parent_report = verify_matrix(matrix, params)
            assert parent_report.method == "sufficient-set"
            # the parent verdict transfers to every row count
            for n in (1, 2):
                spec = ProductSpec(space, n, matrix)
                assert verify_bruteforce(spec, params).verdict \
                    == parent_report.verdict, (matrix.values, params)

    def test_off_diagonal_dominant_symmetric_matrix(self):
        # the input's own category, the worst set of a dominant diagonal, is
        # the wrong one here: each row puts more mass on every other category
        matrix = SolutionMatrix(np.array(
            [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]))
        spec = ProductSpec(make_space(2), 1, matrix)
        for eps in (0.0, 0.5, math.log(2), 1.0):
            params = PrivacyParams(eps, 0.0)
            report = verify_matrix(matrix, params)
            brute = verify_bruteforce(spec, params)
            assert report.verdict == brute.verdict
            assert report.margin == pytest.approx(brute.margin, abs=1e-12)

    def test_checks_counts(self):
        matrix = SolutionMatrix(np.array([[0.7, 0.2, 0.1],
                                          [0.1, 0.8, 0.1],
                                          [0.2, 0.2, 0.6]]))
        report = verify_matrix(matrix, PrivacyParams(1.0, 0.0))
        # the one-row parent route: every nonempty subset of each ordered
        # category pair's sufficient set
        spec = ProductSpec(make_space(2), 1, matrix)
        walked = sum(2 ** len(sufficient_set(spec, pair).members) - 1
                     for pair in enumerate_neighbor_pairs(spec.space, 1))
        assert report.checks_performed == walked == 8
        assert report.checks_naive == 6 * (2 ** 3 - 2)


class TestExactMode:
    def test_equality_case_is_private_exactly(self):
        # e^k pinned to the bound (e^eps + m delta)/(1 - delta): the float
        # margin hovers at rounding noise, the exact margin is exactly 0
        m = 2
        params = PrivacyParams(math.log(2), 0.25)
        e_eps, delta = params.exact_pair()
        e_k = (e_eps + m * delta) / (1 - delta)
        spec = ExponentialSpec(make_space(m), 2,
                               HammingUtility.from_e_k(e_k))
        report = verify_reduced(spec, params, exact=True)
        assert report.private
        assert report.margin == 0.0
        brute = verify_bruteforce(spec, params, exact=True)
        assert brute.private
        assert brute.margin == 0.0

    def test_hair_over_the_bound_is_caught(self):
        m = 2
        params = PrivacyParams(math.log(2), 0.25)
        e_eps, delta = params.exact_pair()
        e_k = (e_eps + m * delta) / (1 - delta) + Fraction(1, 10 ** 30)
        spec = ExponentialSpec(make_space(m), 2,
                               HammingUtility.from_e_k(e_k))
        report = verify_reduced(spec, params, exact=True)
        assert not report.private
        cond = exp_dp_condition(math.log(e_k), params, m, e_k=e_k, exact=True)
        assert not cond.satisfied

    def test_exact_product_verification(self):
        spec = make_symmetric_product(make_space(3), 2, Fraction(1, 8))
        params = exact_params(Fraction(5), Fraction(0))
        report = verify_reduced(spec, params, exact=True)
        # threshold: p >= 1/(e^eps + m) = 1/8 exactly
        assert report.private and report.margin == 0.0
        params = exact_params(Fraction(499, 100), Fraction(0))
        assert not verify_reduced(spec, params, exact=True).private


def rational_parent(rng, size):
    """A random parent with Fraction entries, about a third of them zero;
    every row keeps a positive diagonal so it has mass to normalise."""
    raw = rng.integers(1, 9, (size, size)) * (rng.random((size, size)) > 0.35)
    raw[np.arange(size), np.arange(size)] += 1
    rows = [[Fraction(int(x), int(row.sum())) for x in row] for row in raw]
    return SolutionMatrix([[float(x) for x in row] for row in rows],
                          fractions=rows)


#: M[u, c] = 2 * M[v, c] on several cells, so e^eps = 2 meets exact ties
TIED_PARENT = [[Fraction(4, 10), Fraction(2, 10), Fraction(4, 10)],
               [Fraction(2, 10), Fraction(4, 10), Fraction(4, 10)],
               [Fraction(1, 10), Fraction(1, 10), Fraction(8, 10)]]

#: (e^eps, delta): eps = 0, delta > 0, and e^eps = 2 for TIED_PARENT
EXACT_BUDGETS = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 7)),
                 (Fraction(2), Fraction(0)), (Fraction(2), Fraction(1, 20)),
                 (Fraction(3, 2), Fraction(1, 10)), (Fraction(7, 3),
                                                      Fraction(0))]


class TestIntegerParentRoute:
    """The exact parent route in integers against the Fraction loop."""

    def assert_matches_oracle(self, matrix, n, params):
        space = make_space(matrix.size - 1)
        spec = ProductSpec(space, n, matrix)
        e_eps, delta = params.exact_pair()
        margin, d, d_prime, row, members = _oracles.parent_route_fraction(
            matrix.fractions(), n, e_eps, delta)
        assert verifier._parent_route(spec, params, True)[0] == margin
        report = verify_reduced(spec, params, exact=True)
        assert report.private == (margin >= 0)
        assert report.margin == float(margin)
        if d is None:
            assert report.binding_pair is None and report.binding_set is None
            return
        assert (report.binding_pair.d.rows, report.binding_pair.d_prime.rows,
                report.binding_pair.differing_row) == (d, d_prime, row)
        assert list(report.binding_set.indices) == members

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_rational_parents(self, seed, n):
        rng = np.random.default_rng(seed)
        matrix = rational_parent(rng, int(rng.integers(2, 5)))
        assert any(x == 0 for row in matrix.fractions() for x in row)
        for e_eps, delta in EXACT_BUDGETS:
            self.assert_matches_oracle(
                matrix, n, exact_params(e_eps, delta))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_ties_stay_out_of_the_worst_set(self, n):
        matrix = SolutionMatrix([[float(x) for x in row]
                                 for row in TIED_PARENT],
                                fractions=TIED_PARENT)
        for e_eps, delta in EXACT_BUDGETS:
            self.assert_matches_oracle(
                matrix, n, exact_params(e_eps, delta))
        # at e^eps = 2 the pair (0, 2) beats the tie M[0, 1] = 2 * M[2, 1]
        # only on cell 0; the tied cell adds nothing to the margin, -1/5,
        # and stays out of the binding cylinder
        tied = exact_params(Fraction(2), Fraction(0))
        spec = ProductSpec(make_space(2), n, matrix)
        assert verifier._parent_route(spec, tied, True)[0] == Fraction(-1, 5)
        report = verify_reduced(spec, tied, exact=True)
        assert report.binding_pair.d_prime.rows[0] == 2
        assert report.binding_set.cylinder == (0, (0,))

    @pytest.mark.parametrize("n", [1, 3])
    def test_float_budgets_and_float_entries(self, n):
        # parameters and entries taken at their exact binary-float values
        rng = np.random.default_rng(11)
        matrix = random_stochastic(rng, 3)
        for eps, delta in [(0.0, 0.0), (0.0, 0.05), (0.3, 0.0), (1.1, 0.2)]:
            self.assert_matches_oracle(matrix, n, PrivacyParams(eps, delta))


def release_class_parent(size):
    """Row a releases categories 0..a alike: every row releases a different
    number of categories, so products of those numbers collide."""
    return SolutionMatrix([[1 / (a + 1) if c <= a else 0.0
                            for c in range(size)] for a in range(size)])


class TestCount:
    """Counts against the integer formulas the package computed before:
    the same int, and the same text, in decimal, in product form and, for
    rows releasing different numbers of categories, as the release-class
    sum."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_counts_match_the_integer_reference(self, m, n):
        space = make_space(m)
        count, text = _oracles.naive_check_count(m + 1, n)
        naive = naive_check_count(space, n)
        assert int(naive) == count and str(naive) == text
        rng = np.random.default_rng(m * 10 + n)
        specs = [make(rng, space, n) for make in PARENT_KINDS.values()]
        specs.append(ProductSpec(space, n, release_class_parent(m + 1)))
        for spec in specs:
            log_w = spec.product.log_weights
            with np.errstate(invalid="ignore"):
                s1 = (log_w[:, None, :] - log_w[None, :, :]
                      > verifier.TIE_BAND).sum(axis=2).tolist()
            count, text = _oracles.parent_check_count(
                s1, np.isfinite(log_w).sum(axis=1).tolist(), n,
                spec.product.matrix.is_symmetric)
            checks = verify_reduced(spec, PrivacyParams(0.5, 0.0)
                                    ).checks_performed
            assert int(checks) == count and str(checks) == text
        cylinder = DatabaseSet.from_cylinder(space, n, n - 1, [0, m])
        assert cylinder.size == len(cylinder.indices) == 2 * (m + 1) ** (n - 1)
        assert str(cylinder.size) == str(2 * (m + 1) ** (n - 1))

    #: Rows releasing two and three categories: |S1| = 1 for four parent
    #: pairs and 2 for two.
    PROBE = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5]]

    @pytest.mark.parametrize("n", range(1, 16))
    def test_release_class_sum_matches_the_integer_reference(self, n):
        spec = ProductSpec(make_space(2), n, SolutionMatrix(self.PROBE))
        checks = verify_reduced(spec, PrivacyParams(2.0, 0.3)
                                ).checks_performed
        count, text = _oracles.parent_check_count(
            [[0, 1, 2], [1, 0, 2], [1, 1, 0]], [2, 3, 3], n, False)
        assert int(checks) == count and str(checks) == text
        if checks.value is None:
            assert _oracles.class_sum_value(text) == count

    def test_both_forms_occur_in_the_reference_grid(self):
        texts = [_oracles.naive_check_count(size, n)[1]
                 for size in range(2, 6) for n in range(1, 9)]
        assert any(t.isdigit() for t in texts)
        assert any("*(2^" in t for t in texts)

    #: Single-class parents: every row releases z categories, so
    #: |S| = |S1| * z^(n-1).
    CAP_PARENTS = {
        "m1": [[0.7, 0.3], [0.4, 0.6]],
        "m2": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]],
        "m2z": [[0.5, 0.5, 0.0], [0.0, 0.6, 0.4], [0.3, 0.0, 0.7]],
    }

    @pytest.mark.parametrize("name, n, length, expected", [
        # |S| of 3,998, 3,999, 4,000 and 4,001 digits
        ("m1", 13280, 8011, "1b9e6e2b51a493e7254d07819b18ae3e"
                            "05257b898af8e4882555c732256a9596"),
        ("m1", 13284, 8013, "9758b094d5bf581fa0aaae7495fe8ddf"
                            "d113ca1b983a9bb5fd51d400207e0509"),
        ("m1", 13288, 8017, "837f14ae37b3ab6955c9218826a7a8cb"
                            "fcdd933ea4d246d2219cdfc8cb29270b"),
        ("m1", 13289, 33, "13289*(2*2^13288*(2^(2^13288)-1))"),
        # |S1| of 1 and 2: both |S| at 4,000 digits, then one on each side
        # of the cap, then both past it
        ("m2", 8383, 16022, "337c8638d76f054d0e778e3763cbf2e1"
                            "e2241cccadf2c67f9e50df6542d71990"),
        ("m2", 8384, 16030, "667b28d2009e211533b7a101c8e69af1"
                            "371f330dc353bbd47023c570a35158cd"),
        ("m2", 8385, 56, "8385*(3*3^8384*(2^(3^8384)-1)"
                         "+3*3^8384*(2^(2*3^8384)-1))"),
        # zero entries: z = 2 of 3 categories
        ("m2z", 13288, 8045, "dc41afdae11a72c7b32bd7ffdf0145ec"
                             "cb20a91c4c6cac669ee695da21a9c85a"),
        ("m2z", 13289, 61, "13289*(3*3^13288*(2^(2^13288)-1)"
                           "+3*3^13288*(2^(2*2^13288)-1))"),
    ])
    def test_check_count_text_across_the_cap(self, name, n, length,
                                             expected):
        # whether each |S| prints as its decimal or its power is Count's
        # decision; a text of thousands of digits is pinned by its SHA-256
        rows = self.CAP_PARENTS[name]
        spec = ProductSpec(make_space(len(rows) - 1), n, SolutionMatrix(rows))
        text = str(verify_reduced(spec, PrivacyParams(0.5, 0.0))
                   .checks_performed)
        assert len(text) == length
        if len(expected) != length:
            text = hashlib.sha256(text.encode()).hexdigest()
        assert text == expected

    def test_a_table_count_prints_its_terms_past_the_cap(self):
        count = verifier._subset_count([(5, 1), (13288, 2)])
        assert count.value is None
        assert str(count) == "1*(2^5-1)+2*(2^13288-1)"
        assert int(count) == _oracles.subset_count({5: 1, 13288: 2})[0]


class TestAnyRowCount:
    """Product specs verify at any row count from their parent."""

    PARAMS = PrivacyParams(0.3, 0.01)

    @pytest.mark.parametrize("name", ["hamming", "l1", "dirichlet"])
    def test_a_million_rows_cost_what_the_parent_costs(self, name):
        space = make_space(1 if name == "hamming" else 2)
        n = 10 ** 6
        spec = {"hamming": lambda: ExponentialSpec(space, n,
                                                   HammingUtility(0.5)),
                "l1": lambda: ExponentialSpec(space, n, NegL1Utility()),
                "dirichlet": lambda: ProductSpec(space, n, random_stochastic(
                    np.random.default_rng(3), 3))}[name]()
        start = time.perf_counter()
        report = verify_reduced(spec, self.PARAMS)
        assert time.perf_counter() - start < 0.05
        parent = verify_matrix(spec.product.matrix, self.PARAMS,
                               space=space)
        assert report.verdict == parent.verdict
        assert report.margin == pytest.approx(parent.margin, abs=1e-12)
        assert report.binding_pair.d.n == n
        assert report.checks_performed.value is None

    @pytest.mark.parametrize("exact", [False, True])
    def test_rows_off_one_verify_as_their_normalised_parent(self, tmp_path,
                                                            exact):
        # rows summing to 1 + 5e-10: each is divided by its sum, so the
        # margin at 10^6 rows is the parent's
        path = tmp_path / "m.csv"
        path.write_text("0.6000000005,0.3,0.1\n0.2,0.5000000005,0.3\n"
                        "0.1,0.1,0.8000000005\n")
        matrix = SolutionMatrix.from_csv(path, exact=exact)
        spec = ProductSpec(make_space(2), 10 ** 6, matrix)
        report = verify_reduced(spec, self.PARAMS, exact=exact)
        parent = verify_matrix(matrix, self.PARAMS, exact=exact)
        assert report.verdict == parent.verdict == "not-private"
        if exact:
            assert report.margin == parent.margin
            at_n, at_1 = (verifier._parent_route(s, self.PARAMS, True)[0]
                          for s in (spec, ProductSpec(spec.space, 1, matrix)))
            margin = _oracles.parent_route_fraction(
                matrix.fractions(), 1, *self.PARAMS.exact_pair())[0]
            assert isinstance(at_n, Fraction) and at_n == at_1 == margin
        else:
            assert report.margin == pytest.approx(parent.margin, abs=1e-12)

    def test_a_box_past_sys_maxsize_members(self):
        # 2^69 members: len() overflows, the size and margin do not
        margins = []
        for n in (1, 70):
            spec = ExponentialSpec(make_space(1), n, HammingUtility(0.5))
            pair = NeighborPair(Database((0,) * n),
                                Database((1,) + (0,) * (n - 1)), 0)
            box = sufficient_set(spec, pair).members
            assert box and box.size == 2 ** (n - 1)
            margins.append(dp_holds_on_set(spec, pair, box,
                                           self.PARAMS).margin)
        with pytest.raises(OverflowError):
            len(box)
        assert margins[1] == pytest.approx(margins[0], abs=1e-12)

    def test_release_classes_at_a_million_rows(self):
        # rows releasing one and two categories: the check count is the
        # release-class sum, whose closed form costs the same at any n
        matrix = SolutionMatrix([[1.0, 0.0], [0.5, 0.5]])
        spec = ProductSpec(make_space(1), 10 ** 6, matrix)
        start = time.perf_counter()
        report = verify_reduced(spec, self.PARAMS)
        assert time.perf_counter() - start < 0.1
        parent = verify_matrix(matrix, self.PARAMS, space=spec.space)
        assert report.verdict == parent.verdict
        assert report.margin == pytest.approx(parent.margin, abs=1e-12)
        assert str(report.checks_performed) == (
            "1000000*sum(999999!/(c1!*c2!)*(2*(2^(2^c2)-1)) "
            "for c1+c2=999999)")
        report = verify_reduced(ProductSpec(spec.space, 12, matrix),
                                self.PARAMS)
        count, text = _oracles.parent_check_count([[0, 1], [1, 0]], [1, 2],
                                                  12, False)
        assert int(report.checks_performed) == count
        assert str(report.checks_performed) == text
