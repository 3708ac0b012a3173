"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines inline.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from dpcat import (
    Database,
    ExponentialSpec,
    HammingUtility,
    NegL1Utility,
    PrivacyParams,
    ProductSpec,
    SolutionMatrix,
    TableUtility,
    database_from_index,
    dp_holds_on_set,
    enumerate_neighbor_pairs,
    error_bounds,
    exp_dp_condition,
    expected_error,
    make_symmetric_product,
    matrix_expected_error,
    naive_check_count,
    optimal_mechanism,
    sample_feasible_matrices,
    sufficient_set,
    verify_bruteforce,
    verify_reduced,
)
from dpcat.cli import main as cli_main
from conftest import make_space

GRID_K = [0.25 * i for i in range(9)]                     # 0, 0.25, ..., 2
GRID_EPS = [0.0, 0.1, math.log(2), 1.0, math.log(4)]
GRID_DELTA = [0.0, 0.01, 0.1, 0.5]
GRID_M = [1, 2, 3]
GRID_N = [1, 2]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


def test_criterion_1_example_workload_reproduction(space3, l1_spec):
    with criterion(1, "three-category L1 workload reproduction"):
        start = time.perf_counter()

        pairs = list(enumerate_neighbor_pairs(space3, 2))
        assert len(pairs) == 36

        s = sufficient_set(l1_spec, next(
            p for p in pairs
            if p.d.rows == (0, 1) and p.d_prime.rows == (2, 1)))
        assert [database_from_index(space3, 2, i).rows
                for i in s.members.indices] \
            == [(0, 0), (0, 1), (0, 2)]

        report = verify_reduced(l1_spec, PrivacyParams(1.0, 0.0))
        assert report.checks_naive == 18360
        sizes = {}
        for pair in pairs:
            size = len(sufficient_set(l1_spec, pair).members)
            sizes[size] = sizes.get(size, 0) + 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

        assert sizes == {3: 21, 6: 15}, f"pair split {sizes}"
        assert report.checks_performed == 21 * 7 + 15 * 63 == 1092, \
            f"reduced checks {report.checks_performed}"


def test_criterion_2_condition_necessity_and_sufficiency():
    with criterion(2, "hamming privacy condition is tight on the grid"):
        start = time.perf_counter()
        for m in GRID_M:
            space = make_space(m)
            for n in GRID_N:
                for k in GRID_K:
                    spec = ExponentialSpec(space, n, HammingUtility(k))
                    for eps in GRID_EPS:
                        for delta in GRID_DELTA:
                            params = PrivacyParams(eps, delta)
                            oracle = verify_bruteforce(spec, params).private
                            closed = exp_dp_condition(k, params, m).satisfied
                            assert oracle == closed, (m, n, k, eps, delta)
        # equality case e^k = (e^eps + m*delta)/(1 - delta), exact rationals
        for m in GRID_M:
            space = make_space(m)
            for n in GRID_N:
                for eps in GRID_EPS:
                    for delta in GRID_DELTA:
                        params = PrivacyParams(eps, delta)
                        e_eps, d_q = params.exact_pair()
                        e_k = (e_eps + m * d_q) / (1 - d_q)
                        spec = ExponentialSpec(
                            space, n, HammingUtility.from_e_k(e_k))
                        report = verify_reduced(spec, params, exact=True)
                        assert report.private, (m, n, eps, delta)
                        if (m + 1) ** n <= 9:
                            brute = verify_bruteforce(spec, params,
                                                      exact=True)
                            assert brute.private and brute.margin == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_tight_at_k_equals_eps():
    with criterion(3, "k = eps passes the brute-force check at delta = 0"):
        for m in GRID_M:
            space = make_space(m)
            for n in GRID_N:
                for eps in GRID_EPS:
                    spec = ExponentialSpec(space, n, HammingUtility(eps))
                    report = verify_bruteforce(spec, PrivacyParams(eps, 0.0))
                    assert report.private, (m, n, eps)


def test_criterion_4_mechanism_equivalence():
    with criterion(4, "hamming/product pmf equivalence at e^k = 1/p - m"):
        rng = np.random.default_rng(424242)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            p = float(rng.uniform(1e-6, 1.0)) / (m + 1)
            k = math.log(1.0 / p - m)
            space = make_space(m)
            espec = ExponentialSpec(space, n, HammingUtility(k))
            pspec = make_symmetric_product(space, n, p)
            worst = max(
                float(np.max(np.abs(espec.pmf_row(i) - pspec.pmf_row(i))))
                for i in range((m + 1) ** n))
            assert worst <= 1e-12, (m, n, p, worst)


def test_criterion_5_error_formulas():
    with criterion(5, "error closed forms and optimal-error tightness"):
        # closed forms against the exhaustive expectation
        for m, n, k in [(1, 2, 0.3), (2, 2, 1.0), (3, 2, 0.25), (2, 3, 2.0)]:
            space = make_space(m)
            spec = ExponentialSpec(space, n, HammingUtility(k))
            exhaustive = _exhaustive_expected_error(spec)
            assert abs(expected_error(spec).expected_error - exhaustive) \
                <= 1e-12
            assert abs(expected_error(spec).expected_error
                       - n / (1 + math.exp(k) / m)) <= 1e-12
        for m, n, p in [(1, 2, 0.4), (2, 2, 0.2), (3, 2, 0.1), (4, 1, 0.15)]:
            spec = make_symmetric_product(make_space(m), n, p)
            exhaustive = _exhaustive_expected_error(spec)
            assert abs(expected_error(spec).expected_error - exhaustive) \
                <= 1e-12
            assert abs(expected_error(spec).expected_error - n * p * m) \
                <= 1e-12
        # the optimal mechanism's error meets the lower bound
        for m in GRID_M:
            for n in GRID_N:
                for eps in GRID_EPS:
                    for delta in GRID_DELTA:
                        params = PrivacyParams(eps, delta)
                        err = matrix_expected_error(
                            optimal_mechanism(params, m), n)
                        lower, _ = error_bounds(params, m, n)
                        assert abs(err - lower) <= 1e-12, (m, n, eps, delta)


def test_criterion_6_optimality_search():
    with criterion(6, "no feasible matrix beats the optimal error"):
        start = time.perf_counter()
        points = [
            (math.log(2), 0.0, 1), (1.0, 0.0, 1), (1.0, 0.0, 2),
            (math.log(4), 0.0, 2), (1.0, 0.1, 2), (2.0, 0.0, 3),
            (math.log(4), 0.1, 3), (3.0, 0.0, 4),
        ]
        rng = np.random.default_rng(60606)
        for eps, delta, m in points:
            params = PrivacyParams(eps, delta)
            best = matrix_expected_error(optimal_mechanism(params, m), 1)
            mats = sample_feasible_matrices(m, params, 10_000, rng,
                                            batch=20_000, max_batches=200)
            errors = 1.0 - mats.diagonal(axis1=1, axis2=2).min(axis=1)
            assert float(errors.min()) >= best - 1e-12, (eps, delta, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _random_spec(rng, kind):
    sizes = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)]
    m, n = sizes[int(rng.integers(0, len(sizes)))]
    space = make_space(m)
    if kind == "table":
        size = (m + 1) ** n
        table = rng.uniform(-3.0, 0.0, (size, size))
        return ExponentialSpec(space, n, TableUtility(space, n, table))
    if kind == "symmetric":
        p = float(rng.uniform(0.0, 1.0)) / (m + 1)
        return make_symmetric_product(space, n, p)
    values = rng.dirichlet(np.ones(m + 1), size=m + 1)
    return ProductSpec(space, n, SolutionMatrix(values))


def test_criterion_7_oracle_equivalence_fuzz():
    with criterion(7, "reduced and brute-force verifiers agree on a fuzz corpus"):
        rng = np.random.default_rng(777)
        eps_grid = [0.0, 0.1, math.log(2), 1.0, math.log(4), 3.0]
        delta_grid = [0.0, 0.01, 0.1, 0.5]
        kinds = ["table"] * 200 + ["symmetric"] * 150 + ["asymmetric"] * 150
        for kind in kinds:
            spec = _random_spec(rng, kind)
            for eps in eps_grid:
                for delta in delta_grid:
                    params = PrivacyParams(eps, delta)
                    reduced = verify_reduced(spec, params)
                    brute = verify_bruteforce(spec, params)
                    assert reduced.verdict == brute.verdict, \
                        (kind, spec.space.m, spec.n, eps, delta)
                    if not brute.private or not reduced.private:
                        assert abs(reduced.margin - brute.margin) <= 1e-12
                    if brute.binding_set is not None:
                        at_binding = dp_holds_on_set(
                            spec, brute.binding_pair, brute.binding_set,
                            params)
                        assert abs(at_binding.margin - brute.margin) <= 1e-12


def test_criterion_8_sampling_statistics(tmp_path):
    with criterion(8, "seeded sanitisation: stats and byte determinism"):
        n = 100_000
        hobbies = ("Sports", "Cars", "Television", "Computer games",
                   "Reading")
        (tmp_path / "hobbies.txt").write_text(
            "".join(f"{h}\n" for h in hobbies))
        (tmp_path / "mech.spec").write_text(
            "type = product\np = 0.1\ncategories = hobbies.txt\nn = 1\n")
        rows = np.random.default_rng(8).choice(hobbies, size=n)
        (tmp_path / "data.csv").write_text("".join(f"{r}\n" for r in rows))
        argv = ["sanitize", "--spec", str(tmp_path / "mech.spec"),
                "--data", str(tmp_path / "data.csv"), "--seed", "314159"]
        assert cli_main(argv + ["--output", str(tmp_path / "out1.csv")]) == 0
        assert cli_main(argv + ["--output", str(tmp_path / "out2.csv")]) == 0
        out1 = (tmp_path / "out1.csv").read_bytes()
        assert out1 == (tmp_path / "out2.csv").read_bytes()
        sanitized = out1.decode().splitlines()
        assert len(sanitized) == n
        kept = sum(a == b for a, b in zip(rows, sanitized)) / n
        sigma = math.sqrt(0.6 * 0.4 / n)
        assert abs(kept - 0.6) <= 3 * sigma, (kept, sigma)


def _exhaustive_expected_error(spec):
    from dpcat import database_from_index, hamming_distance
    worst = 0.0
    size = spec.state_count
    dbs = [database_from_index(spec.space, spec.n, i) for i in range(size)]
    for i in range(size):
        row = spec.pmf_row(i)
        total = sum(hamming_distance(dbs[i], dbs[j]) * float(row[j])
                    for j in range(size))
        worst = max(worst, total)
    return worst
