import operator
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcat import (
    CategorySpace,
    Database,
    DatabaseSet,
    DataFormatError,
    EnumerationBudgetError,
    LengthMismatchError,
    NeighborPair,
    database_from_index,
    database_index,
    enumerate_databases,
    enumerate_neighbor_pairs,
    hamming_distance,
    load_category_space,
    load_database_csv,
    naive_check_count,
)
import dpcat.core
from dpcat.core import COUNT_DIGIT_CAP, Count
from conftest import make_space

import _oracles


class TestHamming:
    def test_single_differing_row(self):
        assert hamming_distance(Database((0, 1)), Database((2, 1))) == 1

    def test_identical(self):
        d = Database((1, 0, 2))
        assert hamming_distance(d, d) == 0

    def test_all_rows_differ(self):
        assert hamming_distance(Database((0, 1)), Database((2, 0))) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            hamming_distance(Database((0,)), Database((0, 1)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 5))
        rows = st.tuples(*[st.integers(0, m)] * n)
        a, b, c = (Database(data.draw(rows)) for _ in range(3))
        assert hamming_distance(a, a) == 0
        assert (hamming_distance(a, b) == 0) == (a == b)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, c)
                <= hamming_distance(a, b) + hamming_distance(b, c))


class TestEnumeration:
    def test_counts(self, space3):
        assert len(list(enumerate_databases(space3, 2))) == 9
        assert len(list(enumerate_databases(make_space(4), 6))) == 5 ** 6

    def test_two_categories_one_row(self):
        dbs = list(enumerate_databases(make_space(1), 1))
        assert [d.rows for d in dbs] == [(0,), (1,)]

    def test_lexicographic_row0_most_significant(self, space3):
        dbs = [d.rows for d in enumerate_databases(space3, 2)]
        assert dbs[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert dbs == sorted(dbs)

    def test_order_is_stable(self, space3):
        first = [d.rows for d in enumerate_databases(space3, 3)]
        second = [d.rows for d in enumerate_databases(space3, 3)]
        assert first == second

    def test_budget_error_names_size(self):
        # 10^7 states, past the default budget of 2^20
        with pytest.raises(EnumerationBudgetError) as err:
            list(enumerate_databases(make_space(9), 7))
        assert err.value.count == 10 ** 7
        assert "10000000" in str(err.value)

    @pytest.mark.parametrize("n, states", [
        (8383, None),              # 4,000 digits: the decimal, then the power
        (8384, "3^8384"),          # 4,001 digits: the power alone
        (10 ** 7, "3^10000000"),   # far past the cap: no big int is built
    ])
    def test_refusal_builds_no_count_past_the_cap(self, n, states):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError) as err:
            dpcat.core.check_enum_budget(make_space(2), n)
        assert time.perf_counter() - start < 0.1
        if states is None:
            states = f"{3 ** n} = 3^{n}"
        assert str(err.value) == (f"database space holds {states} states, "
                                  f"over the enumeration budget of 1048576")

    def test_budget_boundary_is_exact(self):
        space = make_space(1)
        assert dpcat.core.check_enum_budget(space, 20) == 1 << 20
        assert dpcat.core.check_enum_budget(space, 21, (1 << 21)) == 1 << 21
        with pytest.raises(EnumerationBudgetError):
            dpcat.core.check_enum_budget(space, 21, (1 << 21) - 1)
        with pytest.raises(EnumerationBudgetError):
            dpcat.core.check_enum_budget(space, 1, 0)

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_round_trip(self, m, n, data):
        space = make_space(m)
        idx = data.draw(st.integers(0, (m + 1) ** n - 1))
        assert database_index(space, database_from_index(space, n, idx)) == idx


class TestNeighborPairs:
    def test_counts(self, space3):
        assert len(list(enumerate_neighbor_pairs(space3, 2))) == 36
        assert len(list(enumerate_neighbor_pairs(make_space(1), 1))) == 2
        assert len(list(enumerate_neighbor_pairs(space3, 3))) == 2 * 3 * 27

    def test_pairs_are_distance_one_and_unique(self, space3):
        pairs = list(enumerate_neighbor_pairs(space3, 2))
        seen = set()
        for pair in pairs:
            assert hamming_distance(pair.d, pair.d_prime) == 1
            assert pair.d.rows[pair.differing_row] != \
                pair.d_prime.rows[pair.differing_row]
            seen.add((pair.d.rows, pair.d_prime.rows))
        assert len(seen) == len(pairs)

    def test_both_orientations_present(self, space3):
        pairs = {(p.d.rows, p.d_prime.rows)
                 for p in enumerate_neighbor_pairs(space3, 2)}
        assert all((b, a) in pairs for a, b in pairs)

    def test_matches_reference_enumeration(self):
        pairs = [(p.d.rows, p.d_prime.rows)
                 for p in enumerate_neighbor_pairs(make_space(3), 2)]
        assert sorted(pairs) == sorted(_oracles.ordered_neighbor_pairs(4, 2))

    def test_invalid_pair_rejected(self):
        with pytest.raises(DataFormatError):
            NeighborPair(Database((0, 0)), Database((1, 1)), 0)
        with pytest.raises(DataFormatError):
            NeighborPair(Database((0, 0)), Database((0, 1)), 0)


class TestNaiveCheckCount:
    def test_three_categories_two_rows(self, space3):
        assert naive_check_count(space3, 2) == 18360

    def test_smallest_space(self):
        assert naive_check_count(make_space(1), 1) == 1 * 1 * 2 * (2 ** 2 - 2)

    def test_exceeds_64_bits(self, space3):
        assert naive_check_count(space3, 3) == 162 * (2 ** 27 - 2)
        assert naive_check_count(make_space(2), 5) \
            == 5 * 2 * 243 * (2 ** 243 - 2)

    def test_cap_stays_inside_the_int_to_str_limit(self):
        assert COUNT_DIGIT_CAP <= 4300
        assert str(naive_check_count(make_space(2), 9)) \
            == "354294*(2^19683-2)"


class TestCountPastTheCap:
    """A count past the digit cap compares with any count or int under it
    without building its int: ``int()`` is made to fail, so a comparison
    that builds one fails the test instead of taking seconds.  Two counts
    past the cap do not compare, and no count hashes."""

    @pytest.fixture
    def no_ints(self, monkeypatch):
        def refuse(count):
            raise AssertionError(f"built the int of {count}")
        monkeypatch.setattr(Count, "__int__", refuse)

    def test_a_count_past_the_cap_exceeds_any_under_it(self, no_ints):
        big = Count(("^", 2, 2 ** 24))
        assert big > 10 ** COUNT_DIGIT_CAP - 1 and big != 0
        assert Count(5) < big and not big < 5

    def test_two_counts_past_the_cap_do_not_order(self, no_ints):
        small, large = (naive_check_count(make_space(1), n)
                        for n in (2000, 2001))
        for compare in (operator.lt, operator.le, operator.gt, operator.ge,
                        operator.eq):
            with pytest.raises(TypeError):
                compare(small, large)
        with pytest.raises(TypeError):
            sorted([large, small])

    def test_a_count_has_no_hash(self):
        for count in (Count(5), naive_check_count(make_space(1), 10 ** 6)):
            with pytest.raises(TypeError):
                hash(count)

    @staticmethod
    def expressions():
        """Count expressions of up to about 50,000 bits, either side of
        the cap."""
        leaf = st.one_of(
            st.integers(0, 10 ** 6),
            st.tuples(st.just("^"), st.integers(1, 6), st.integers(0, 20000)),
            st.tuples(st.just("2^-"), st.integers(1, 20000),
                      st.integers(1, 2)))
        return st.one_of(
            leaf, st.tuples(st.sampled_from(["*", "+"]), leaf, leaf))

    @given(expressions(), expressions())
    @settings(max_examples=200, deadline=None)
    def test_comparisons_with_ints_agree_with_the_ints(self, x, y):
        a, b = Count(x), Count(y)
        i, j = int(a), int(b)
        assert (a < j, a == j, a > j) == (i < j, i == j, i > j)
        if a.value is not None or b.value is not None:
            assert (a < b, a == b, a > b) == (i < j, i == j, i > j)


class TestDatabaseArray:
    def test_from_array_equals_the_tuple_constructor(self):
        d = Database.from_array(np.array([2, 0, 1]))
        e = Database((2, 0, 1))
        assert d == e and hash(d) == hash(e) and repr(d) == repr(e)
        assert type(d.rows) is tuple
        assert all(type(r) is int for r in d.rows)
        assert d.n == 3

    def test_array_matches_rows_and_is_read_only(self):
        for d in (Database((1, 0, 2)), Database.from_array([1, 0, 2])):
            assert d.array.tolist() == [1, 0, 2]
            assert d.array is d.array
            with pytest.raises(ValueError):
                d.array[0] = 2

    def test_from_array_builds_rows_on_first_access(self):
        d = Database.from_array([2, 0, 1])
        assert "rows" not in vars(d)
        assert d.n == 3 and d.labels(CategorySpace(("a", "b", "c"))) \
            == ("c", "a", "b")
        assert "rows" not in vars(d)
        assert d.rows is d.rows == (2, 0, 1)
        assert vars(d)["rows"] == (2, 0, 1)

    def test_lazy_and_tuple_databases_are_one_dict_key(self):
        lazy, eager = Database.from_array([1, 0, 2]), Database((1, 0, 2))
        assert hash(lazy) == hash(eager) and lazy == eager
        assert {lazy: "x"}[eager] == "x"
        assert {eager: "y"}[Database.from_array(np.array([1, 0, 2]))] == "y"
        assert len({lazy, eager, Database.from_array([1, 0, 2])}) == 1
        assert Database.from_array([1, 0]) != Database((1, 0, 2))

    def test_from_array_copies_its_input(self):
        values = np.array([0, 1])
        d = Database.from_array(values)
        values[0] = 1
        assert d.rows == (0, 1) and d.array.tolist() == [0, 1]

    def test_from_array_rejects_empty_and_2d(self):
        with pytest.raises(DataFormatError, match="at least one row"):
            Database.from_array(np.array([], dtype=np.int64))
        with pytest.raises(DataFormatError):
            Database.from_array(np.zeros((2, 2), dtype=np.int64))

    def test_out_of_range_rows_name_the_first_row(self, space3):
        with pytest.raises(DataFormatError,
                           match=r"^row 1 holds index 3, outside 0\.\.2$"):
            database_index(space3, Database((0, 3, -1)))
        with pytest.raises(DataFormatError, match="row 0 holds index -1"):
            database_index(space3, Database.from_array([-1, 0]))
        with pytest.raises(DataFormatError, match=f"index {2 ** 70},"):
            database_index(space3, Database((2 ** 70,)))


class TestTypes:
    def test_space_validation(self):
        with pytest.raises(DataFormatError):
            CategorySpace(("only",))
        with pytest.raises(DataFormatError):
            CategorySpace(("a", "a"))

    def test_database_set_canonical(self, space3):
        s = DatabaseSet(space3, 2, (4, 1, 4, 0))
        assert s.indices == (0, 1, 4)
        assert Database((0, 1)) in s
        assert len(s) == 3

    def test_membership_needs_the_same_row_count(self, space3):
        # (1,) and (0, 0, 1) share index 1 with (0, 1) but are not members
        for s in (DatabaseSet(space3, 2, (1,)),
                  DatabaseSet.from_mask(space3, [[1, 0, 0], [0, 1, 0]])):
            assert Database((0, 1)) in s
            assert Database((1,)) not in s
            assert Database((0, 0, 1)) not in s

    def test_neighbor_pair_of_row_tuples_builds_no_array(self):
        pair = NeighborPair(Database((0, 1, 2)), Database((0, 2, 2)), 1)
        assert "_array" not in vars(pair.d)
        assert "_array" not in vars(pair.d_prime)
        with pytest.raises(DataFormatError, match=r"differ at rows \[0, 1\]"):
            NeighborPair(Database((1, 1, 2)), Database((0, 2, 2)), 1)
        # an array-built side is compared as arrays, with the same verdict
        assert NeighborPair(Database.from_array([0, 1, 2]),
                            Database((0, 2, 2)), 1).differing_row == 1


CYLINDERS = [(1, 1, 0, (1,)), (1, 3, 1, (0,)), (2, 3, 0, (0, 2)),
             (2, 3, 2, (1,)), (2, 2, 1, (0, 1, 2)), (3, 2, 0, (3, 1)),
             (3, 2, 1, ()), (2, 4, 3, (2, 0))]


class TestCylinderSet:
    """A set built from a cylinder agrees with the set of its indices."""

    @pytest.mark.parametrize("m,n,row,categories", CYLINDERS)
    def test_agrees_with_the_set_of_its_indices(self, m, n, row, categories):
        space = make_space(m)
        members = [i for i, x in enumerate(_oracles.all_dbs(m + 1, n))
                   if x[row] in categories]
        plain = DatabaseSet(space, n, tuple(members))
        cylinder = DatabaseSet.from_cylinder(space, n, row, categories)
        # the whole space restricts no row and is row 0's cylinder
        whole = len(set(categories)) == space.size
        assert cylinder.cylinder == (0 if whole else row,
                                     tuple(sorted(categories)))
        assert plain.cylinder is None
        # the length comes from the cylinder, not its indices
        assert len(cylinder) == len(plain) == len(members)
        assert "indices" not in vars(cylinder)
        assert cylinder.indices == plain.indices == tuple(members)
        for x in _oracles.all_dbs(m + 1, n):
            assert (Database(x) in cylinder) == (Database(x) in plain)
        assert cylinder == plain and plain == cylinder
        assert hash(cylinder) == hash(plain)
        assert {cylinder, plain} == {plain}

    def test_indices_are_built_once(self, space3, monkeypatch):
        calls = []
        build = dpcat.core._box_indices
        monkeypatch.setattr(dpcat.core, "_box_indices",
                            lambda *args: calls.append(args) or build(*args))
        cylinder = DatabaseSet.from_cylinder(space3, 3, 1, (2,))
        assert len(cylinder) == 9 and calls == []
        assert Database((0, 2, 1)) in cylinder
        assert cylinder.indices is cylinder.indices
        assert len(calls) == 1

    def test_box_indices_past_int64_are_exact(self):
        # one member, (1, 0, ..., 0) at m = 1 and n = 70: index 2^69, past
        # the int64 range, which a wrapping index read as 0
        space = make_space(1)
        mask = np.zeros((70, 2), dtype=bool)
        mask[0, 1] = mask[1:, 0] = True
        box = DatabaseSet.from_mask(space, mask)
        plain = DatabaseSet(space, 70, (2 ** 69,))
        assert Database((1,) + (0,) * 69) in box
        assert int(box.size) == len(plain) == 1
        assert box.indices == plain.indices == (2 ** 69,)
        assert box == plain and hash(box) == hash(plain)
        # the space's last four members, at indices 2^70 - 4 on
        top_mask = np.ones((70, 2), dtype=bool)
        top_mask[:68, 0] = False
        top = DatabaseSet.from_mask(space, top_mask)
        assert top.indices == tuple(range(2 ** 70 - 4, 2 ** 70))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_box_agrees_with_the_set_of_its_indices(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        space = make_space(m)
        for _ in range(10):
            mask = rng.random((n, space.size)) < 0.6
            dbs = _oracles.all_dbs(m + 1, n)
            members = [i for i, x in enumerate(dbs)
                       if all(mask[j, x[j]] for j in range(n))]
            box = DatabaseSet.from_mask(space, mask)
            assert box.box_mask is mask
            # a box that restricts at most one row is a cylinder
            restricted = [j for j in range(n) if not mask[j].all()]
            row = restricted[0] if restricted else 0
            assert box.cylinder == (
                None if len(restricted) > 1
                else (row, tuple(np.flatnonzero(mask[row]).tolist())))
            assert len(box) == len(members)
            assert bool(box) == bool(members)
            for i, x in enumerate(dbs):
                assert (Database(x) in box) == (i in members)
            assert "indices" not in vars(box)    # length, membership: rows
            assert box.indices == tuple(members)
            assert box == DatabaseSet(space, n, tuple(members))

    def test_rejects_boxes_outside_the_space(self, space3):
        for shape in ((2, 4), (2, 2), (3,), (0, 3)):
            with pytest.raises(DataFormatError, match=r"must be \(n, 3\)"):
                DatabaseSet.from_mask(space3, np.ones(shape, dtype=bool))

    def test_rejects_rows_and_categories_outside_the_space(self, space3):
        with pytest.raises(DataFormatError, match="row 2 outside"):
            DatabaseSet.from_cylinder(space3, 2, 2, (0,))
        with pytest.raises(DataFormatError, match="categories outside"):
            DatabaseSet.from_cylinder(space3, 2, 0, (3,))
        with pytest.raises(DataFormatError, match="categories outside"):
            DatabaseSet.from_cylinder(space3, 2, 0, (-1, 0))


class TestLoaders:
    def test_category_file(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text("red\ngreen\n\nblue\n")
        space = load_category_space(path)
        assert space.labels == ("red", "green", "blue")
        assert space.m == 2

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "cats.txt"
        path.write_text("red\nred\n")
        with pytest.raises(DataFormatError):
            load_category_space(path)

    def test_csv_headerless_first_column(self, tmp_path):
        space = CategorySpace(("red", "green", "blue"))
        path = tmp_path / "data.csv"
        path.write_text("red,junk\nblue,junk\n")
        assert load_database_csv(path, space).rows == (0, 2)

    def test_csv_named_column_implies_header(self, tmp_path):
        space = CategorySpace(("red", "green", "blue"))
        path = tmp_path / "data.csv"
        path.write_text("id,colour\n1,green\n2,red\n")
        assert load_database_csv(path, space, column="colour").rows == (1, 0)

    def test_unknown_label_names_row(self, tmp_path):
        space = CategorySpace(("red", "green"))
        path = tmp_path / "data.csv"
        path.write_text("red\nmagenta\n")
        with pytest.raises(DataFormatError, match="row 2.*magenta"):
            load_database_csv(path, space)

    def test_short_row_names_row_and_column(self, tmp_path):
        space = CategorySpace(("red", "green"))
        path = tmp_path / "data.csv"
        path.write_text("id,colour\n1,red\n2\n")
        with pytest.raises(DataFormatError, match="row 3.*'colour'"):
            load_database_csv(path, space, column="colour")

    def test_csv_quoting_blank_lines_and_array(self, tmp_path):
        space = CategorySpace(("red, dark", "green"))
        path = tmp_path / "data.csv"
        path.write_text('id,colour\n1,"red, dark"\n\n2, green \n')
        d = load_database_csv(path, space, column="colour")
        assert d.rows == (0, 1)
        assert d.array.dtype == np.int64 and d.array.tolist() == [0, 1]

    def test_missing_column_rejected(self, tmp_path):
        space = CategorySpace(("red", "green"))
        path = tmp_path / "data.csv"
        path.write_text("id,colour\n1,red\n")
        with pytest.raises(DataFormatError, match="shade"):
            load_database_csv(path, space, column="shade")


#: (file text, labels, column) for the differential loader test
LOADER_CASES = [
    ("c0\r\nc1\r\nc2\r\n", ("c0", "c1", "c2"), None),
    ("c0\rc1\rc2", ("c0", "c1", "c2"), None),
    ("c0\nc1", ("c0", "c1"), None),
    ("c0\r\r\nc1\n\r", ("c0", "c1"), None),
    ("c0\n\n\nc1\n\n", ("c0", "c1"), None),
    ("c0\n  \nc1\n", ("c0", "c1"), None),
    ("c0\n \t\n", ("c0", "", "c1"), None),
    (" c0 ,x\n\tc1\t\nc1  \n", ("c0", "c1"), None),
    ("c0\x00\nc1\n", ("c0", "c1"), None),
    ("c0,\x00\n\x00\n", ("c0", "\x00"), None),
    ("grün\ncafé\n grün\n", ("café", "grün"), None),
    ("日本\n日\n", ("日", "日本"), None),
    ("c2\n c0\n", (" c0", "c1 ", "c2"), None),
    ("c1\nc1 \n", (" c0", "c1 ", "c1"), None),
    ("c0,x,y\nc1\n,c0\n", ("c0", "c1"), None),
    (",\n", ("", "c1"), None),
    ("id,colour\n1,c0\n2\n", ("c0", "c1"), "colour"),
    ("id,colour,note\n1,c0,x\n2,c1\n,,\n", ("c0", "c1"), "colour"),
    ("id,colour,note\n1,c0,x\n,,\n", ("c0", "c1", ""), "note"),
    ("id,colour\r\n1,c1\r\n\r\n2, c0 \r\n", ("c0", "c1"), "colour"),
    ("c0\nc9\n", ("c0", "c1"), None),
    ("id,colour\n", ("c0", "c1"), "colour"),
    ("id,colour", ("c0", "c1"), "colour"),
    ("", ("c0", "c1"), None),
    ("", ("c0", "c1"), "colour"),
    ("\n\n", ("c0", "c1"), None),
    ("\nc0\n", ("c0", "c1"), "colour"),
    ("\nc0\n", ("c0", "c1"), ""),
    (",colour\nc0,c1\nc1\n", ("c0", "c1"), ""),
    ("id,id\n1,c0\n", ("c0", "c1"), "id"),
    ('id,colour\n1,"red, dark"\n2,"c\n1"\n3,c1\n',
     ("red, dark", "c\n1", "c1"), "colour"),
    ('"c0"\r\n c1\r\n"c2\r\n', ("c0", "c1", "c2"), None),
    ('c0\n"c0" \nc1"\n', ("c0", "c1"), None),
    # more blank lines than rows: lines, not rows, bound a block's lines
    ("\n" * 5 + "c0\n", ("c0", "c1"), None),
    ("\r\n" * 5 + "c0\r\n", ("c0", "c1"), None),
    ("\r" * 5 + "c0\r", ("c0", "c1"), None),
    # labels that prefix one another, of three lengths
    ("abc\na\nab\n ab\nabc\na\n", ("a", "ab", "abc"), None),
    ("ab\nabc\nabcd\n", ("a", "ab", "abc"), None),
    # a label longer than 8 bytes beside short ones
    ("Computer games\nx\nc0\n Computer games\nComputer game\n",
     ("c0", "Computer games", "x", "Computer game"), None),
    ("x\nComputer games\nComputer gamez\n", ("c0", "Computer games", "x"),
     None),
    # labels of one length in bytes, each more than one byte
    ("é\nü\né\nüé\n", ("é", "ü"), None),
    ("日本\n中国\n日本\n", ("中国", "日本"), None),
    # one label length, a short row under --column
    ("id,colour\n1,c1\nc0\n3,c0\n", ("c0", "c1"), "colour"),
    ("id,colour\n1,c1\n2,c0\n3\n", ("c0", "c1"), "colour"),
]


def _loader_cases(seed: int, count: int):
    """Random small files: lines of 1-3 fields, mostly labels (of one or
    several byte lengths), some padded, some noise, mixed line ends; one in
    four mostly blank lines; one in twenty quotes."""
    rnd = random.Random(seed)
    pool = ("c0", "c1", "c2", "grün", "日本", "", " c0", "x y",
            "Computer games")
    noise = ("zz", "\x00", "", " ", "c0\x00", "é")
    for _ in range(count):
        labels = tuple(rnd.sample(pool, rnd.randint(2, 4)))
        column = rnd.choice((None, None, "colour", "note", ""))
        lines = ["id,colour,note"] if column and rnd.random() < 0.8 else []
        blanks = rnd.choice((0, 0, 0, 4))   # some files mostly blank lines
        for _ in range(rnd.randint(0, 12)):
            if rnd.random() < 0.1:
                lines.append(rnd.choice(("", " ", "\t")))
                continue
            fields = []
            for _ in range(rnd.randint(1, 3)):
                field = rnd.choice(noise if rnd.random() < 0.04 else labels)
                if rnd.random() < 0.15:
                    field = rnd.choice((" ", "\t")) + field + " "
                fields.append(field)
            lines.append(",".join(fields))
            lines += [""] * rnd.randint(0, blanks)
        ends = [rnd.choice(("\n", "\n", "\r\n", "\r")) for _ in lines]
        if ends and rnd.random() < 0.3:
            ends[-1] = ""
        text = "".join(line + end for line, end in zip(lines, ends))
        if rnd.random() < 0.05:
            text = text.replace(",", '","', 1)
        yield text, labels, column


@pytest.fixture
def csv_calls(monkeypatch):
    """Arguments of each call to the loader's csv.reader path."""
    calls = []
    csv_path = dpcat.core._csv_label_indices

    def counting(*args):
        calls.append(args)
        return csv_path(*args)

    monkeypatch.setattr(dpcat.core, "_csv_label_indices", counting)
    return calls


def _check_against_csv_reader(tmp_path, csv_calls, text, labels, column):
    """Load ``text`` and compare with the csv.reader loop; True when both
    read rows."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    csv_calls.clear()
    rows, error = _oracles.load_csv_labels_literal(path, labels, column)
    if error is None:
        d = load_database_csv(path, CategorySpace(labels), column)
        assert list(d.rows) == rows
        assert d.array.dtype == np.int64
    else:
        with pytest.raises(DataFormatError) as exc:
            load_database_csv(path, CategorySpace(labels), column)
        assert str(exc.value) == error
    # only a file that quotes is read through csv.reader
    assert len(csv_calls) == ('"' in text)
    return error is None


class TestLoaderDifferential:
    """The loader against the row-by-row csv.reader loop: equal rows, or
    the same DataFormatError text."""

    @pytest.mark.parametrize("case", LOADER_CASES)
    def test_cases_match_csv_reader(self, tmp_path, csv_calls, case):
        _check_against_csv_reader(tmp_path, csv_calls, *case)

    def test_seeded_files_match_csv_reader(self, tmp_path, csv_calls):
        read = [_check_against_csv_reader(tmp_path, csv_calls, *case)
                for case in _loader_cases(20261018, 1000)]
        assert 200 <= sum(read) <= 800     # both outcomes well covered

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_small_blocks_match_csv_reader(self, tmp_path, csv_calls,
                                           monkeypatch, block):
        # blocks of a line or a few: every line end is a block boundary
        monkeypatch.setattr(dpcat.core, "_LOAD_BLOCK", block)
        for case in LOADER_CASES:
            _check_against_csv_reader(tmp_path, csv_calls, *case)
        for case in _loader_cases(block, 200):
            _check_against_csv_reader(tmp_path, csv_calls, *case)

    @pytest.mark.parametrize("fault, row", [
        ("1201,c9", "row 1202: unknown category label 'c9'"),
        ("1201", "row 1202: no value in column 'colour'"),
    ])
    def test_errors_in_a_later_block_name_their_row(self, tmp_path,
                                                    monkeypatch, fault, row):
        monkeypatch.setattr(dpcat.core, "_LOAD_BLOCK", 64)
        lines = ["id,colour"] + [f"{i},c{i % 2}" if i % 7 else ""
                                 for i in range(1, 1200)]
        path = tmp_path / "data.csv"
        path.write_bytes(("\r\n".join(lines + ["1200,c1", fault])
                          + "\r\n").encode())
        space = CategorySpace(("c0", "c1"))
        with pytest.raises(DataFormatError) as exc:
            load_database_csv(path, space, column="colour")
        assert str(exc.value) == f"{path}: {row}"
        path.write_bytes(("\r\n".join(lines + ["1200,c1"])).encode())
        rows, _ = _oracles.load_csv_labels_literal(path, space.labels,
                                                   "colour")
        d = load_database_csv(path, space, column="colour")
        assert d.array.tolist() == rows and len(rows) == 1200 - 1200 // 7

    @pytest.mark.parametrize("quote", ["", '"c1"\n'])
    def test_invalid_utf8_names_path_and_byte(self, tmp_path, quote):
        path = tmp_path / "data.csv"
        path.write_bytes(b"c0\n" + quote.encode() + b"\xff\xfe\n")
        with pytest.raises(DataFormatError,
                           match=f"not valid UTF-8 at byte {3 + len(quote)}"):
            load_database_csv(path, CategorySpace(("c0", "c1")))
