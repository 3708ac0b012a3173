import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcat import (
    Database,
    DataFormatError,
    EnumerationBudgetError,
    ExponentialSpec,
    HammingUtility,
    IncompleteUtilityError,
    NegL1Utility,
    ParameterRangeError,
    ProductSpec,
    SolutionMatrix,
    TableUtility,
    database_from_index,
    database_index,
    enumerate_databases,
    hamming_distance,
    load_spec_file,
    make_symmetric_product,
    sample,
    symmetric_matrix,
)
from conftest import make_space

import _oracles
import dpcat.core
import dpcat.mechanisms


def pmf(spec, d, d_prime) -> float:
    """P(X_d = d'), read from the pmf row of d."""
    return float(spec.pmf_row(database_index(spec.space, d))
                 [database_index(spec.space, d_prime)])


class TestExponentialPmf:
    def test_zero_weight_is_uniform(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.0))
        for d_prime in enumerate_databases(space3, 2):
            assert pmf(spec, Database((0, 1)), d_prime) \
                == pytest.approx(1 / 9)

    @pytest.mark.parametrize("m,n,k", [(1, 1, 0.3), (2, 2, 1.0), (3, 2, 0.25),
                                       (2, 3, 2.0)])
    def test_self_probability_closed_form(self, m, n, k):
        # reference: direct normalisation of e^{-k h} over the whole space
        table = _oracles.pmf_table_from_utility(
            m + 1, n, lambda a, b: -k * _oracles.hamming(a, b))
        spec = ExponentialSpec(make_space(m), n, HammingUtility(k))
        d = Database((0,) * n)
        expect = (1 + m * math.exp(-k)) ** -n
        assert pmf(spec, d, d) == pytest.approx(expect, abs=1e-15)
        assert table[d.rows][d.rows] == pytest.approx(expect, abs=1e-15)

    def test_l1_matches_direct_normalisation(self, l1_spec, space3):
        table = _oracles.pmf_table_from_utility(
            3, 2, lambda a, b: -sum(abs(x - y) for x, y in zip(a, b)))
        for d in enumerate_databases(space3, 2):
            for d_prime in enumerate_databases(space3, 2):
                assert pmf(l1_spec, d, d_prime) == pytest.approx(
                    table[d.rows][d_prime.rows], abs=1e-14)

    def test_monotone_in_distance(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.8))
        d = Database((1, 1))
        by_h = {}
        for d_prime in enumerate_databases(space3, 2):
            by_h.setdefault(hamming_distance(d, d_prime), set()).add(
                pmf(spec, d, d_prime))
        assert all(len(v) == 1 for v in by_h.values())
        probs = [by_h[h].pop() for h in sorted(by_h)]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > probs[1] > probs[2]

    def test_no_noise_endpoint(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(math.inf))
        d = Database((2, 0))
        assert pmf(spec, d, d) == 1.0
        assert pmf(spec, d, Database((2, 1))) == 0.0

    def test_scales_without_enumeration(self):
        # hamming pmf has a closed form; n = 60 must not enumerate 2^60
        # states: P(X_d = d) is the product of the parent's diagonal
        spec = ExponentialSpec(make_space(1), 60, HammingUtility(1.0))
        log_w = spec.product.log_weights
        assert math.exp(sum(log_w[r, r] for r in (0,) * 60)) \
            == pytest.approx((1 + math.exp(-1)) ** -60)

    def test_row_normalisation(self, l1_spec):
        for i in range(9):
            assert float(l1_spec.pmf_row(i).sum()) == pytest.approx(1.0,
                                                                    abs=1e-9)


class TestHammingRange:
    @pytest.mark.parametrize("k", [710.0, 800.0, 1e308])
    def test_k_past_the_float_exponent_is_rejected(self, k):
        with pytest.raises(ParameterRangeError, match="k at most"):
            HammingUtility(k)

    @pytest.mark.parametrize("k", [709.0, math.log(2.0 ** 1023), math.inf])
    def test_largest_k_and_the_no_noise_endpoint_answer(self, k):
        parent = HammingUtility(k).parent_matrix(2)
        assert parent.values[0, 0] == 1.0
        assert parent.fractions()[0][0] <= 1


class TestNormConstant:
    """The prefactor C(d) of P(X_d = d') = C(d) * e^{u(d, d')}: hamming and
    L1 have u(d, d) = 0, so C(d) = P(X_d = d)."""

    def test_uniform_prefactor(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(0.0))
        d = Database((1, 2))
        assert pmf(spec, d, d) == pytest.approx(1 / 9)

    def test_k_log2_prefactor_quarter(self, space3):
        # independent check: sum e^{-k h} over all 9 databases, then invert
        k = math.log(2)
        total = sum(math.exp(-k * _oracles.hamming((0, 1), x))
                    for x in _oracles.all_dbs(3, 2))
        assert 1 / total == pytest.approx(1 / 4, abs=1e-15)
        spec = ExponentialSpec(space3, 2, HammingUtility(k))
        d = Database((0, 1))
        assert pmf(spec, d, d) == pytest.approx(1 / 4, abs=1e-15)

    def test_l1_prefactor_matches_exhaustive_sum(self, l1_spec):
        d = Database((0, 1))
        total = sum(math.exp(-sum(abs(x - y) for x, y in zip((0, 1), b)))
                    for b in _oracles.all_dbs(3, 2))
        assert pmf(l1_spec, d, d) == pytest.approx(1 / total, abs=1e-15)

    def test_prefactor_orientation(self, l1_spec):
        # pmf(d, d') must equal prefactor * e^u exactly by construction
        d, d_prime = Database((0, 1)), Database((2, 2))
        u = NegL1Utility().value(d, d_prime)
        assert pmf(l1_spec, d, d_prime) == pytest.approx(
            pmf(l1_spec, d, d) * math.exp(u), rel=1e-12)


class TestProduct:
    def test_hobby_example_parent_probabilities(self):
        space = make_space(4)
        spec = make_symmetric_product(space, 1, 0.1)
        tv, cars = Database((2,)), Database((1,))
        assert pmf(spec, tv, tv) == pytest.approx(0.6)
        assert pmf(spec, tv, cars) == pytest.approx(0.1)

    def test_identity_matrix(self, space3):
        spec = ProductSpec(space3, 2, SolutionMatrix(np.eye(3)))
        d = Database((1, 2))
        for d_prime in enumerate_databases(space3, 2):
            assert pmf(spec, d, d_prime) == (1.0 if d_prime == d
                                                     else 0.0)

    @given(st.integers(1, 3), st.integers(1, 3), st.floats(0.01, 0.24),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_pmf_depends_only_on_distance(self, m, n, p, data):
        p = min(p, 1 / (m + 1))
        spec = make_symmetric_product(make_space(m), n, p)
        rows = st.tuples(*[st.integers(0, m)] * n)
        d = Database(data.draw(rows))
        d_prime = Database(data.draw(rows))
        h = hamming_distance(d, d_prime)
        assert pmf(spec, d, d_prime) == pytest.approx(
            (1 - p * m) ** (n - h) * p ** h)

    def test_pmf_row_matches_reference_table(self, space3):
        matrix = [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]]
        spec = ProductSpec(space3, 2, SolutionMatrix(np.array(matrix)))
        table = _oracles.product_pmf_table(matrix, 2)
        for i in range(9):
            d = database_from_index(space3, 2, i)
            row = spec.pmf_row(i)
            for j in range(9):
                d_prime = database_from_index(space3, 2, j)
                assert row[j] == pytest.approx(table[d.rows][d_prime.rows],
                                               abs=1e-15)

    def test_symmetric_matrix_construction(self):
        mat = symmetric_matrix(4, 0.1)
        assert np.allclose(np.diag(mat.values), 0.6)
        assert mat.symmetric_p() == pytest.approx(0.1)
        uniform = symmetric_matrix(4, 1 / 5)
        assert np.allclose(uniform.values, 0.2)
        identity = symmetric_matrix(4, 0.0)
        assert np.array_equal(identity.values, np.eye(5))

    def test_flip_probability_range(self):
        with pytest.raises(ParameterRangeError, match="1/\\(m\\+1\\)"):
            make_symmetric_product(make_space(4), 2, 0.25)
        with pytest.raises(ParameterRangeError):
            make_symmetric_product(make_space(4), 2, -0.01)

    def test_exact_fraction_entries(self):
        mat = symmetric_matrix(3, Fraction(1, 10))
        assert mat.fractions()[0][0] == Fraction(7, 10)
        assert mat.fractions()[0][1] == Fraction(1, 10)

    def test_exact_rows_sum_to_one(self, space3):
        spec = make_symmetric_product(space3, 2, Fraction(1, 5))
        for i in range(9):
            assert sum(spec.exact_pmf_row(i)) == 1


class TestEquivalence:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2)])
    def test_pmf_tables_identical_under_conversion(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        space = make_space(m)
        for _ in range(10):
            p = float(rng.uniform(0.02, 1 / (m + 1)))
            k = math.log(1 / p - m)
            pspec = make_symmetric_product(space, n, p)
            espec = ExponentialSpec(space, n, HammingUtility(k))
            for i in range((m + 1) ** n):
                np.testing.assert_allclose(pspec.pmf_row(i),
                                           espec.pmf_row(i), atol=1e-12,
                                           rtol=0)


class TestParentMatrix:
    """Separable exponential specs are the product of their one-row parent."""

    @staticmethod
    def kron_rows(matrix, digits):
        out = np.ones(1)
        for v in digits:
            out = np.kron(out, matrix.values[v])
        return out

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("utility", [HammingUtility(0.8), NegL1Utility()],
                             ids=["hamming", "l1"])
    def test_pmf_rows_are_kron_of_parent_rows(self, m, n, utility):
        space = make_space(m)
        spec = ExponentialSpec(space, n, utility)
        parent = utility.parent_matrix(m)
        for i in range((m + 1) ** n):
            d = database_from_index(space, n, i)
            np.testing.assert_allclose(spec.pmf_row(i),
                                       self.kron_rows(parent, d.rows),
                                       atol=1e-15, rtol=0)

    @pytest.mark.parametrize("m,k", [(1, 0.0), (2, 0.7), (4, 3.1), (3, 30.0)])
    def test_hamming_parent_is_symmetric_matrix(self, m, k):
        parent = HammingUtility(k).parent_matrix(m)
        expect = symmetric_matrix(m, 1 / (math.exp(k) + m))
        assert np.array_equal(parent.values, expect.values)
        e_k = Fraction(math.exp(k))
        assert parent.fractions()[0][0] == e_k / (e_k + m)
        assert parent.fractions()[1][0] == 1 / (e_k + m)

    @pytest.mark.parametrize("k", ["0.5", "inf"])
    def test_hamming_load_builds_one_matrix(self, tmp_path, monkeypatch, k):
        # one SolutionMatrix per hamming spec, whose exact rows wait for the
        # first fractions() call
        built = []
        init = SolutionMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(SolutionMatrix, "__init__", counting)
        (tmp_path / "cats.txt").write_text("a\nb\nc\n")
        (tmp_path / "ham.spec").write_text(
            f"type = exponential\nutility = hamming\nk = {k}\n"
            "categories = cats.txt\nn = 4\n")
        spec = load_spec_file(tmp_path / "ham.spec")
        assert len(built) == 1 and built[0] is spec.product.matrix
        assert spec.product.matrix._fractions is None
        p = Fraction(0) if k == "inf" else 1 / (Fraction(math.exp(0.5)) + 2)
        assert spec.product.matrix.fractions()[0] == (1 - 2 * p, p, p)

    def test_l1_parent_rows(self):
        parent = NegL1Utility().parent_matrix(2)
        w = np.exp(-np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        np.testing.assert_allclose(parent.values,
                                   w / w.sum(axis=1, keepdims=True),
                                   atol=1e-15, rtol=0)

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2)])
    def test_exact_hamming_rows(self, m, n):
        space = make_space(m)
        utility = HammingUtility.from_e_k(Fraction(7, 3))
        spec = ExponentialSpec(space, n, utility)
        e_k = Fraction(7, 3)
        for i in range((m + 1) ** n):
            d = database_from_index(space, n, i)
            expect = [e_k ** (n - hamming_distance(d, x)) / (e_k + m) ** n
                      for x in enumerate_databases(space, n)]
            assert spec.exact_pmf_row(i) == expect

    def test_hamming_sample_is_symmetric_product_draw(self):
        m, n, k = 3, 500, 1.3
        space = make_space(m)
        d = Database(tuple(np.random.default_rng(1).integers(0, m + 1, n)))
        espec = ExponentialSpec(space, n, HammingUtility(k))
        pspec = make_symmetric_product(space, n, 1 / (math.exp(k) + m))
        assert sample(espec, d, np.random.default_rng(42)) \
            == sample(pspec, d, np.random.default_rng(42))

    @pytest.mark.parametrize("make", [
        lambda s, n: ExponentialSpec(s, n, HammingUtility(1.0)),
        lambda s, n: ExponentialSpec(s, n, NegL1Utility()),
        lambda s, n: make_symmetric_product(s, n, 0.1),
    ], ids=["hamming", "l1", "product"])
    def test_block_guard_refuses_before_allocating(self, monkeypatch, make):
        # one fixed guard: two rows over 2^20 states are answered, a third
        # row or a larger space is refused before any digit or row is built
        space = make_space(1)
        rows = make(space, 20).log_pmf_block([0, 1])
        assert rows.shape == (2, 1 << 20)

        def refuse(*args):
            raise AssertionError("built before the guard")
        monkeypatch.setattr(dpcat.mechanisms, "index_digits", refuse)
        calls = [(make(space, 20).log_pmf_block, [0, 1, 2]),
                 (make(space, 20).exact_pmf_block, [0, 1, 2])]
        for n in (22, 10 ** 6):
            spec = make(space, n)
            calls += [(spec.log_pmf_block, [0]), (spec.exact_pmf_block, [0]),
                      (spec.pmf_row, 0), (spec.exact_pmf_row, 0)]
        for build, indices in calls:
            with pytest.raises(EnumerationBudgetError):
                build(indices)

    @pytest.mark.parametrize("make", [
        lambda s, n: ExponentialSpec(s, n, HammingUtility(0.8)),
        lambda s, n: ExponentialSpec(s, n, HammingUtility(math.inf)),
        lambda s, n: ExponentialSpec(s, n, NegL1Utility()),
        lambda s, n: ProductSpec(s, n, SolutionMatrix(
            np.random.default_rng(s.size * n).dirichlet(np.ones(s.size),
                                                        size=s.size))),
        lambda s, n: ProductSpec(s, n, SolutionMatrix(
            0.7 * np.eye(s.size) + 0.3 * np.roll(np.eye(s.size), 1, axis=1))),
    ], ids=["hamming", "hamming-inf", "l1", "dirichlet", "zeros"])
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (1, 5), (3, 2)])
    def test_block_is_the_stacked_rows(self, make, m, n):
        # the block's rows are the one-row-at-a-time outer sums bit for bit,
        # and the same rows the row methods return
        space = make_space(m)
        spec = make(space, n)
        product = spec.product
        dbs = _oracles.all_dbs(space.size, n)
        block = spec.log_pmf_block(np.arange(len(dbs)))
        expect = np.stack([_oracles.log_pmf_row_outer(product.log_weights, d)
                           for d in dbs])
        assert np.array_equal(block, expect)
        for i in (0, len(dbs) - 1):
            assert np.array_equal(spec.log_pmf_row(i), expect[i])
            assert np.array_equal(spec.pmf_row(i), np.exp(expect[i]))
        exact = spec.exact_pmf_block([len(dbs) - 1, 0])
        fracs = product.matrix.fractions()
        assert [list(row) for row in exact] == [
            _oracles.exact_pmf_row_outer(fracs, dbs[-1]),
            _oracles.exact_pmf_row_outer(fracs, dbs[0])]
        assert spec.exact_pmf_row(1) == _oracles.exact_pmf_row_outer(
            fracs, dbs[1])

    def test_block_rejects_indices_outside_the_space(self, space3):
        spec = ExponentialSpec(space3, 2, HammingUtility(1.0))
        for index in (-1, 9):
            with pytest.raises(DataFormatError, match=f"index {index}"):
                spec.log_pmf_block([0, index])


class TestSolutionMatrix:
    def test_row_sum_validation(self):
        with pytest.raises(DataFormatError, match="row 1"):
            SolutionMatrix(np.array([[0.5, 0.5], [0.6, 0.5]]))

    def test_entry_range_validation(self):
        with pytest.raises(DataFormatError):
            SolutionMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_csv_round_trip(self, tmp_path):
        mat = symmetric_matrix(2, 0.123456789)
        buf = io.StringIO()
        mat.to_csv(buf)
        path = tmp_path / "m.csv"
        path.write_text(buf.getvalue())
        again = SolutionMatrix.from_csv(path)
        assert np.array_equal(again.values, mat.values)

    def test_csv_exact_mode_parses_fractions(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.6,0.4\n0.4,0.6\n")
        mat = SolutionMatrix.from_csv(path, exact=True)
        assert mat.fractions()[0][0] == Fraction(3, 5)

    def test_csv_exact_mode_parses_each_field_once(self, tmp_path,
                                                  monkeypatch):
        # one Fraction per field, kept by fractions() as it is, and the
        # floats are those float() reads from the same text
        path = tmp_path / "m.csv"
        path.write_text("0.6, 0.4\n0.1,0.9\n")
        parsed = []
        parse_record = dpcat.mechanisms.parse_record
        monkeypatch.setattr(
            dpcat.mechanisms, "parse_record",
            lambda *args: parsed.append(parse_record(*args)) or parsed[-1])
        mat = SolutionMatrix.from_csv(path, exact=True)
        assert len(parsed) == 2
        assert all(got is field for row, got_row in zip(parsed, mat.fractions())
                   for field, got in zip(row, got_row))
        assert mat.values.tolist() == [[0.6, 0.4], [0.1, 0.9]]

    @pytest.mark.parametrize("exact", [False, True])
    def test_csv_entry_past_the_float_range_is_out_of_range(self, tmp_path,
                                                            exact):
        path = tmp_path / "m.csv"
        path.write_text("1e999,0\n0,1\n")
        with pytest.raises(DataFormatError, match=r"must lie in \[0, 1\]"):
            SolutionMatrix.from_csv(path, exact=exact)

    def test_nan_entry_is_rejected(self):
        # NaN fails no comparison, so neither the range nor the row-sum
        # check would see it
        with pytest.raises(DataFormatError, match="non-finite"):
            SolutionMatrix(np.array([[0.5, 0.5], [0.5, np.nan]]))

    def test_entry_below_0_is_rejected(self):
        # even within the row-sum tolerance, where its log would be NaN,
        # and in exact rows whose floats read -0.0
        rows = [[0.5, 0.5 + 1e-10, -1e-10], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]
        with pytest.raises(DataFormatError, match=r"must lie in \[0, 1\]"):
            SolutionMatrix(rows)
        exact = [[Fraction(1, 2), Fraction(1, 2), Fraction(-1, 10 ** 400)],
                 [Fraction(1, 2)] * 2 + [Fraction(0)],
                 [Fraction(0)] + [Fraction(1, 2)] * 2]
        floats = [[float(x) for x in row] for row in exact]
        assert floats[0][2] == 0.0
        with pytest.raises(DataFormatError, match=r"must lie in \[0, 1\]"):
            SolutionMatrix(floats, fractions=exact)
        exact[0][2] = Fraction(0)
        assert SolutionMatrix(floats, fractions=exact).fractions()[0][2] == 0

    def test_symmetry_detection(self):
        assert symmetric_matrix(2, 0.2).is_symmetric is True
        skew = SolutionMatrix(np.array([[0.6, 0.2, 0.2],
                                        [0.2, 0.6, 0.2],
                                        [0.2, 0.3, 0.5]]))
        assert skew.is_symmetric is False
        # decided once per matrix: its entries are read-only
        assert vars(skew)["is_symmetric"] is False
        with pytest.raises(ValueError):
            skew.values[2, 1] = 0.2


class TestTableUtility:
    def test_shape_validation(self, space3):
        with pytest.raises(IncompleteUtilityError):
            TableUtility(space3, 2, np.zeros((9, 8)))

    def test_shape_error_under_a_huge_row_count_prints_a_power(self, space3):
        with pytest.raises(IncompleteUtilityError,
                           match=r"\(3\^200000\)x\(3\^200000\)") as exc:
            TableUtility(space3, 200_000, np.zeros((9, 9)))
        assert len(str(exc.value)) < 1024

    def test_full_mapping_round_trip(self):
        space = make_space(1)
        dbs = [Database((0,)), Database((1,))]
        mapping = {(a, b): -float(abs(a.rows[0] - b.rows[0]))
                   for a in dbs for b in dbs}
        values = np.zeros((2, 2))
        for (a, b), u in mapping.items():
            values[database_index(space, a), database_index(space, b)] = u
        utility = TableUtility(space, 1, values)
        assert utility.value(dbs[0], dbs[1]) == -1.0


class _Uniforms:
    """Hands out fixed uniforms in order, as ``Generator.random`` would."""

    def __init__(self, u):
        self.u, self.at = u, 0

    def random(self, size):
        self.at += size
        return self.u[self.at - size:self.at]


class TestSampling:
    def test_identity_returns_input(self, space3, rng):
        spec = ProductSpec(space3, 4, SolutionMatrix(np.eye(3)))
        d = Database((0, 2, 1, 1))
        assert sample(spec, d, rng) == d

    def test_deterministic_under_seed(self, space3):
        spec = make_symmetric_product(space3, 50, 0.2)
        d = Database(tuple([0, 1, 2] * 17)[:50])
        out1 = sample(spec, d, np.random.default_rng(99))
        out2 = sample(spec, d, np.random.default_rng(99))
        assert out1 == out2

    def test_flip_rate_within_three_sigma(self, rng):
        m, p, n = 3, 0.15, 20000
        spec = make_symmetric_product(make_space(m), n, p)
        d = Database(tuple(rng.integers(0, m + 1, n)))
        out = sample(spec, d, rng)
        flips = hamming_distance(d, out)
        expect = p * m
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(flips / n - expect) <= 3 * sigma

    def test_hamming_error_rate_within_three_sigma(self, rng):
        # sampling a hamming spec goes through the equivalent flip matrix
        m, k, n = 2, 1.1, 20000
        spec = ExponentialSpec(make_space(m), n, HammingUtility(k))
        d = Database(tuple(rng.integers(0, m + 1, n)))
        out = sample(spec, d, rng)
        per_row = 1 / (1 + math.exp(k) / m)
        sigma = math.sqrt(per_row * (1 - per_row) / n)
        assert abs(hamming_distance(d, out) / n - per_row) <= 3 * sigma

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_blocks_draw_one_uniform_stream(self, monkeypatch, block):
        # the rule applied to one rng.random(n) call, the first uniform to
        # row 0: value v becomes min(#{j : u >= cum[v, j]}, m) over all m + 1
        # cumulative entries, on random parents with zero entries and rows
        # whose float cumulative sum ends below 1; a real generator drawn
        # block by block, then fixed uniforms with some at 1 - 2^-53
        monkeypatch.setattr(dpcat.mechanisms, "_SAMPLE_BLOCK", block)
        top = np.nextafter(1.0, 0.0)
        gen = np.random.default_rng(8)
        short_rows = 0
        for m in (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6):
            values = gen.dirichlet(np.ones(m + 1), size=m + 1)
            values[gen.random(values.shape) < 0.2] = 0.0
            values[:, 0] += 1.0 - values.sum(axis=1)    # rows sum to ~1
            matrix = SolutionMatrix(values)
            cum = np.cumsum(matrix.stochastic, axis=1)
            short_rows += int((cum[:, -1] < 1.0).sum())
            rows = gen.integers(0, m + 1, 1_000)
            spec = ProductSpec(make_space(m), rows.size, matrix)
            seed = 21 + m
            edge = gen.random(rows.size)
            edge[gen.random(rows.size) < 0.1] = top
            for u, draws in ((np.random.default_rng(seed).random(rows.size),
                              np.random.default_rng(seed)),
                             (edge, _Uniforms(edge))):
                expected = np.minimum((u[:, None] >= cum[rows]).sum(axis=1),
                                      m)
                out = sample(spec, Database.from_array(rows), draws)
                assert out.array.tolist() == expected.tolist()
        assert short_rows

    @pytest.mark.parametrize("parent", ["hamming", "l1", "dirichlet"])
    def test_any_row_count_draws_as_the_spec_built_there(self, parent):
        # the parent defines a product-kind spec at every n, so the spec's
        # own n does not enter the draws
        m = 3
        space = make_space(m)
        matrix = SolutionMatrix(np.random.default_rng(6).dirichlet(
            np.ones(m + 1), size=m + 1))

        def build(n):
            if parent == "dirichlet":
                return ProductSpec(space, n, matrix)
            utility = (HammingUtility(0.8) if parent == "hamming"
                       else NegL1Utility())
            return ExponentialSpec(space, n, utility)

        for n in (1, 7, 500):
            d = Database.from_array(
                np.random.default_rng(n).integers(0, m + 1, n))
            expected = sample(build(n), d, np.random.default_rng(n + 1))
            for spec_n in (1, 2, 1000):
                assert sample(build(spec_n), d,
                              np.random.default_rng(n + 1)) == expected

    def test_table_refuses_another_row_count(self, space3, rng):
        spec = ExponentialSpec(space3, 1,
                               TableUtility(space3, 1, np.zeros((3, 3))))
        with pytest.raises(DataFormatError, match=(
                r"^a utility table is fixed to its n=1 rows and cannot be "
                r"rescaled to 2$")):
            sample(spec, Database((0, 1)), rng)

    def test_general_utility_inverse_cdf(self, l1_spec, rng):
        counts = {}
        d = Database((0, 1))
        for _ in range(4000):
            out = sample(l1_spec, d, rng)
            counts[out.rows] = counts.get(out.rows, 0) + 1
        prob_self = pmf(l1_spec, d, d)
        freq = counts[(0, 1)] / 4000
        sigma = math.sqrt(prob_self * (1 - prob_self) / 4000)
        assert abs(freq - prob_self) <= 4 * sigma

    def test_state_count_is_not_built_to_sample(self, monkeypatch):
        # (m + 1) ** n is a big int that sampling never reads
        calls = []
        space_size = dpcat.core.space_size

        def counting(space, n):
            calls.append(n)
            return space_size(space, n)

        for module in (dpcat.core, dpcat.mechanisms):
            monkeypatch.setattr(module, "space_size", counting)
        space = make_space(2)
        big = ExponentialSpec(space, 10**7, HammingUtility(1.0))
        assert ProductSpec(space, 10**7, symmetric_matrix(2, 0.1)).n == 10**7
        # a 10^6-row database: at 10^7 the row tuples alone take 0.5 GB
        d = Database.from_array(np.arange(10**6) % 3)
        assert sample(big, d, np.random.default_rng(4)).n == 10**6
        assert calls == []
        small = ExponentialSpec(space, 3, HammingUtility(1.0))
        assert small.state_count == small.state_count == 27
        assert calls == [3]
