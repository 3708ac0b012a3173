import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpcat.cli
from dpcat import (
    NegL1Utility,
    PrivacyParams,
    product_dp_condition,
    verify_matrix,
    verify_reduced,
)
from dpcat.analysis import (
    exponential_to_product,
    product_to_exponential,
)
from dpcat.cli import main
from dpcat.errors import DataFormatError
from dpcat.specfile import load_spec_file, save_spec_file

SRC = str(Path(dpcat.__file__).resolve().parent.parent)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "cats.txt").write_text("0\n1\n2\n")
    (tmp_path / "hobbies.txt").write_text(
        "Sports\nCars\nTelevision\nComputer games\nReading\n")
    (tmp_path / "l1.spec").write_text(
        "type = exponential\nutility = l1\ncategories = cats.txt\nn = 2\n")
    (tmp_path / "ham.spec").write_text(
        "type = exponential\nutility = hamming\nk = 0.5\n"
        "categories = cats.txt\nn = 2\n")
    (tmp_path / "identity.spec").write_text(
        "type = product\np = 0.0\ncategories = cats.txt\nn = 2\n")
    (tmp_path / "hobby.spec").write_text(
        "type = product\np = 0.1\ncategories = hobbies.txt\nn = 6\n")
    (tmp_path / "hobby_data.csv").write_text(
        "Sports\nComputer games\nTelevision\nSports\nReading\nTelevision\n")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(*args):
    """Run python with ``args`` in a new process that imports this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def evaluate_count(text):
    """The int an exact count text stands for: a decimal or a product form
    such as ``"10*(3*(2^9-1)+2*(2^18-1))"``."""
    assert re.fullmatch(r"[0-9*+()^-]+", text)
    return eval(text.replace("^", "**"), {"__builtins__": {}})


def expand_cylinder(cylinder, space, n):
    """Indices of {x : x_row in categories}, in enumeration order."""
    digits = np.indices((space.size,) * n).reshape(n, -1).T
    wanted = [space.labels.index(label) for label in cylinder["categories"]]
    return tuple(np.flatnonzero(np.isin(digits[:, cylinder["row"]],
                                        wanted)).tolist())


class TestVerify:
    def test_l1_report_fields(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--spec", workdir / "l1.spec",
                           "--epsilon", math.log(2), "--delta", "0",
                           "--method", "reduced")
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "not-private"
        assert report["method"] == "sufficient-set"
        assert report["checks_performed"] == "924"
        assert report["checks_naive"] == "18360"
        assert report["binding_pair"] is not None
        assert report["margin"] < 0

    def test_l1_auto_decides_through_the_parent(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--spec", workdir / "l1.spec",
                           "--epsilon", math.log(2), "--delta", "0")
        report = json.loads(out)
        assert code == 1
        assert report["verdict"] == "not-private"
        # the one-row parent route: every nonempty subset of each ordered
        # category pair's S1, four of one category and two of two
        assert report["method"] == "sufficient-set"
        assert report["checks_performed"] == "10"

    @pytest.mark.parametrize("eps,delta", [(0.5, 0.0), (2.5, 0.0),
                                           (1.0, 0.3)])
    def test_l1_auto_scales_past_the_subset_budget(self, workdir, capsys,
                                                   eps, delta):
        # m=2, n=4: sufficient sets of 27 outputs exceed brute force's
        # 24-state limit, but the verdict is the one-row parent's for every n
        spec = workdir / "l1_n4.spec"
        spec.write_text("type = exponential\nutility = l1\n"
                        "categories = cats.txt\nn = 4\n")
        code, out, _ = run(capsys, "verify", "--spec", spec,
                           "--epsilon", eps, "--delta", delta)
        parent = verify_matrix(NegL1Utility().parent_matrix(2),
                               PrivacyParams(eps, delta))
        assert code == (0 if parent.private else 1)
        assert json.loads(out)["verdict"] == parent.verdict

    def test_hamming_at_the_boundary_passes(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--spec", workdir / "ham.spec",
                           "--epsilon", "0.5", "--delta", "0")
        assert code == 0
        assert json.loads(out)["verdict"] == "private"

    def test_identity_matrix_not_private(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--spec",
                           workdir / "identity.spec",
                           "--epsilon", "1", "--delta", "0")
        assert code == 1
        report = json.loads(out)
        # the parent route decides symmetric parents too
        assert report["method"] == "sufficient-set"
        params = PrivacyParams(1.0, 0.0)
        assert (report["verdict"] == "private") \
            == product_dp_condition(0.0, params, 2).satisfied
        # min(delta, e^eps * p + delta - (1 - m * p)) at p = 0
        assert report["margin"] == pytest.approx(-1.0, abs=1e-15)

    def test_reduced_product_spec_takes_no_subset_budget(self, workdir,
                                                         capsys):
        # L1 m=2 n=12: its sufficient sets hold 3^11 and 2 * 3^11 databases,
        # past the 24-state limit, which caps brute force alone
        spec = workdir / "l1_n12.spec"
        spec.write_text("type = exponential\nutility = l1\n"
                        "categories = cats.txt\nn = 12\n")
        code, out, _ = run(capsys, "verify", "--spec", spec, "--epsilon", "1",
                           "--method", "reduced")
        assert code in (0, 1)
        report = json.loads(out)
        assert report["method"] == "sufficient-set"
        assert report["checks_performed"].startswith("12*(")

    def test_brute_method_agrees(self, workdir, capsys):
        code1, out1, _ = run(capsys, "verify", "--spec", workdir / "l1.spec",
                             "--epsilon", "1.2", "--delta", "0.01")
        code2, out2, _ = run(capsys, "verify", "--spec", workdir / "l1.spec",
                             "--epsilon", "1.2", "--delta", "0.01",
                             "--method", "brute")
        assert code1 == code2
        assert json.loads(out2)["method"] == "brute-force"
        assert json.loads(out2)["checks_performed"] == "18360"

    def test_exact_flag(self, workdir, capsys):
        code, out, _ = run(capsys, "verify", "--spec", workdir / "ham.spec",
                           "--epsilon", "0.5", "--delta", "0", "--exact")
        report = json.loads(out)
        assert code == 0
        assert report["exact"] is True
        assert report["tolerance"] == 0.0

    def test_parse_failure_exit_2(self, workdir, capsys):
        bad = workdir / "bad.spec"
        bad.write_text("type = exponential\nutility = waffles\n"
                       "categories = cats.txt\nn = 2\n")
        code, _, err = run(capsys, "verify", "--spec", bad,
                           "--epsilon", "1", "--delta", "0")
        assert code == 2
        assert "waffles" in err

    def test_budget_exceeded_exit_3(self, workdir, capsys):
        big = workdir / "big.spec"
        big.write_text("type = exponential\nutility = l1\n"
                       "categories = cats.txt\nn = 3\n")
        code, _, err = run(capsys, "verify", "--spec", big,
                           "--epsilon", "1", "--delta", "0",
                           "--method", "brute")
        assert code == 3
        assert "27" in err

    @pytest.mark.parametrize("method", ["brute"])
    def test_budget_error_past_the_int_text_limit(self, workdir, capsys,
                                                  method):
        # 2^100000 states: 30,103 digits, past Python's int-to-str limit,
        # so the message gives the count as a power
        (workdir / "two.txt").write_text("0\n1\n")
        spec = workdir / "ham_huge.spec"
        spec.write_text("type = exponential\nutility = hamming\nk = 0.5\n"
                        "categories = two.txt\nn = 100000\n")
        code, out, err = run(capsys, "verify", "--spec", spec,
                             "--epsilon", "0.5", "--method", method)
        assert (code, out) == (3, "")
        assert "holds 2^100000 states" in err and len(err) < 1024

    def test_reduced_answers_past_the_int_text_limit(self, workdir, capsys):
        # 2^100000 states: no state budget on a product spec, and every
        # count prints in the closed form it is defined by
        (workdir / "two.txt").write_text("0\n1\n")
        spec = workdir / "ham_huge.spec"
        spec.write_text("type = exponential\nutility = hamming\nk = 0.5\n"
                        "categories = two.txt\nn = 100000\n")
        code, out, _ = run(capsys, "verify", "--spec", spec,
                           "--epsilon", "0.4", "--method", "reduced")
        report = json.loads(out)
        assert code == 1 and report["verdict"] == "not-private"
        assert report["checks_naive"] == \
            "100000*2^100000*(2^(2^100000)-2)"
        assert report["checks_performed"] == "200000*2^99999"
        assert report["binding_set"] == {"row": 0, "categories": ["0"],
                                         "size": "2^99999"}
        assert report["binding_pair"]["d"] == ["0"] * 100000

    def test_brute_force_answers_at_24_states(self, workdir, capsys):
        # m = 23, n = 1: the largest space brute force scans, 552 ordered
        # pairs of 2^24 - 2 subsets each, with the reduced verdict
        (workdir / "24.txt").write_text("".join(f"c{i}\n" for i in range(24)))
        spec = workdir / "ham24.spec"
        spec.write_text("type = exponential\nutility = hamming\nk = 0.5\n"
                        "categories = 24.txt\nn = 1\n")
        argv = ("verify", "--spec", spec, "--epsilon", "0.4")
        code, out, _ = run(capsys, *argv, "--method", "brute")
        report = json.loads(out)
        assert code == 1 and report["method"] == "brute-force"
        assert report["checks_performed"] == str(24 * 23 * (2 ** 24 - 2))
        code_r, out_r, _ = run(capsys, *argv, "--method", "reduced")
        assert code_r == code
        assert report["margin"] == pytest.approx(json.loads(out_r)["margin"],
                                                 abs=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    def test_brute_force_refuses_25_states_first(self, workdir, capsys,
                                                 exact):
        # m = 4, n = 2: one state past the limit, refused before any row
        (workdir / "five.txt").write_text("0\n1\n2\n3\n4\n")
        spec = workdir / "l1_m4.spec"
        spec.write_text("type = exponential\nutility = l1\n"
                        "categories = five.txt\nn = 2\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--spec", spec, "--epsilon",
                             "1", "--method", "brute",
                             *(["--exact"] if exact else []))
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (3, "")
        assert err == ("error: database space holds 25 states; the "
                       "brute-force oracle enumerates 2^25 - 2 subsets per "
                       "pair, over the budget of 24\n")

    def test_exact_brute_force_over_sixteen_states(self, workdir, capsys):
        # L1 at m=3, n=2: 96 ordered pairs, each scanning 2^16 - 2 subsets
        # in rational arithmetic
        (workdir / "four.txt").write_text("0\n1\n2\n3\n")
        spec = workdir / "l1_m3.spec"
        spec.write_text("type = exponential\nutility = l1\n"
                        "categories = four.txt\nn = 2\n")
        argv = ("verify", "--spec", spec, "--epsilon", "1", "--method",
                "brute")
        code, out, _ = run(capsys, *argv)
        code_q, out_q, _ = run(capsys, *argv, "--exact")
        report, exact = json.loads(out), json.loads(out_q)
        assert code == code_q == 1
        assert exact["exact"] and exact["method"] == "brute-force"
        assert exact["checks_performed"] == report["checks_performed"] \
            == str(96 * (2 ** 16 - 2))
        assert exact["margin"] == pytest.approx(report["margin"], abs=1e-12)

    def test_table_utility_spec(self, workdir, capsys):
        # normalised rows (log-probabilities), so the normaliser is fixed
        (workdir / "util.csv").write_text(
            f"{math.log(0.7)!r},{math.log(0.3)!r}\n"
            f"{math.log(0.4)!r},{math.log(0.6)!r}\n")
        spec = workdir / "table.spec"
        spec.write_text("type = exponential\nutility = table\n"
                        "table = util.csv\nfixed_c = true\n"
                        "categories = two.txt\nn = 1\n")
        (workdir / "two.txt").write_text("0\n1\n")
        code, out, _ = run(capsys, "verify", "--spec", spec,
                           "--epsilon", "1", "--delta", "0")
        report = json.loads(out)
        assert report["method"] == "partition"
        # worst ratio  0.7/0.4  needs eps >= ln(1.75)
        assert (code == 0) == (math.e >= 0.7 / 0.4)
        code, _, _ = run(capsys, "verify", "--spec", spec,
                         "--epsilon", "0.1", "--delta", "0")
        assert code == 1

    def test_table_under_a_huge_row_count_refuses_fast(self, workdir, capsys):
        # 3^10^7 states: the table's side prints as a power, with no int
        # built for it
        (workdir / "util.csv").write_text("0,0,0\n0,0,0\n0,0,0\n")
        spec = workdir / "table.spec"
        spec.write_text("type = exponential\nutility = table\n"
                        "table = util.csv\ncategories = cats.txt\n"
                        "n = 10000000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--spec", spec,
                             "--epsilon", "1")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == (f"error: {workdir / 'util.csv'}: utility table must "
                       f"be (3^10000000)x(3^10000000), got (3, 3)\n")

    @pytest.mark.parametrize("kind", ["matrix", "table"])
    def test_ragged_csv_is_an_input_error(self, workdir, capsys, kind):
        (workdir / "two.txt").write_text("0\n1\n")
        if kind == "matrix":
            (workdir / "ragged.csv").write_text("0.5,0.5\n1\n")
            body = "type = product\nmatrix = ragged.csv\n"
        else:
            (workdir / "ragged.csv").write_text("0,1\n1\n0,1\n1,0\n")
            body = "type = exponential\nutility = table\ntable = ragged.csv\n"
        spec = workdir / "ragged.spec"
        spec.write_text(body + "categories = two.txt\nn = 1\n")
        code, out, err = run(capsys, "verify", "--spec", spec,
                             "--epsilon", "1")
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err == (f"error: {workdir / 'ragged.csv'}: record 2 has 1 "
                       f"fields, the first has 2\n")

    def test_a_million_rows_answer_as_json(self, workdir, capsys):
        (workdir / "two.txt").write_text("0\n1\n")
        spec = workdir / "ham_million.spec"
        spec.write_text("type = exponential\nutility = hamming\nk = 0.5\n"
                        "categories = two.txt\nn = 1000000\n")
        code, out, _ = run(capsys, "verify", "--spec", spec,
                           "--epsilon", "0.4", "--method", "reduced")
        report = json.loads(out)
        assert code == 1 and report["verdict"] == "not-private"
        assert len(report["binding_pair"]["d_prime"]) == 1000000
        assert report["checks_performed"] == "2000000*2^999999"

    def test_binding_pair_past_any_array_is_a_budget_error(self, workdir,
                                                          capsys):
        # 10^30 rows: a not-private spec refuses its binding pair's arrays
        # with one line naming n; a private one binds nothing and answers
        spec = workdir / "huge.spec"
        for p, want in (("0.01", 3), ("0.3", 0)):
            spec.write_text(f"type = product\np = {p}\n"
                            f"categories = cats.txt\nn = {10 ** 30}\n")
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "--spec", spec,
                                 "--epsilon", "0.5", "--method", "reduced")
            assert time.perf_counter() - start < 0.1
            assert code == want and "Traceback" not in err
            if code == 3:
                assert out == "" and err.count("\n") == 1
                assert f"n = {10 ** 30} rows" in err

    def test_table_under_a_huge_row_count_is_an_input_error(self, workdir,
                                                            capsys):
        # a 9x9 table against 3^200000 states: the size prints as a power
        (workdir / "util.csv").write_text("0,0,0,0,0,0,0,0,0\n" * 9)
        spec = workdir / "table.spec"
        spec.write_text("type = exponential\nutility = table\n"
                        "table = util.csv\ncategories = cats.txt\n"
                        "n = 200000\n")
        code, out, err = run(capsys, "verify", "--spec", spec,
                             "--epsilon", "1")
        assert (code, out) == (2, "")
        assert "(3^200000)x(3^200000)" in err
        assert len(err.encode()) < 1024

    def test_l1_three_rows_reduced_count(self, workdir, capsys):
        # sets of 9 and 18 databases: 3 * 9 * (4 * (2^9 - 1) + 2 * (2^18 - 1))
        spec = workdir / "l1_n3.spec"
        spec.write_text("type = exponential\nutility = l1\n"
                        "categories = cats.txt\nn = 3\n")
        code, out, _ = run(capsys, "verify", "--spec", spec, "--epsilon", "1",
                           "--delta", "0", "--method", "reduced")
        assert code == 1
        assert json.loads(out)["checks_performed"] == "14210910"

    def test_huge_naive_count_prints_in_product_form(self, workdir, capsys):
        # 3^9 states: the naive count has 5,926 digits, past Python's
        # int-to-str limit; it prints as pairs * (2^size - 2).  eps < k,
        # so a nonempty set binds.
        spec = workdir / "ham_n9.spec"
        spec.write_text("type = exponential\nutility = hamming\nk = 0.5\n"
                        "categories = cats.txt\nn = 9\n")
        code, out, _ = run(capsys, "verify", "--spec", spec,
                           "--epsilon", "0.4", "--method", "reduced")
        assert code in (0, 1)
        report = json.loads(out)
        assert report["checks_naive"] == "354294*(2^19683-2)"
        assert report["checks_performed"] == "354294"
        # the binding set, 3^8 * |S1| databases, prints as one cylinder
        assert set(report["binding_set"]) == {"row", "categories", "size"}
        assert len(out) < 2048

    def test_huge_reduced_count_prints_from_its_terms(self, workdir,
                                                      capsys):
        # L1 m=2 n=10: checks_performed has 11,856 digits and prints as
        # n*(c1*(2^e1-1)+...)
        spec = workdir / "l1_n10.spec"
        spec.write_text("type = exponential\nutility = l1\n"
                        "categories = cats.txt\nn = 10\n")
        report = verify_reduced(load_spec_file(spec), PrivacyParams(1.0, 0.0))
        code, out, _ = run(capsys, "verify", "--spec", spec, "--epsilon", "1",
                           "--method", "reduced")
        assert code in (0, 1)
        text = json.loads(out)["checks_performed"]
        assert text == "10*(78732*(2^19683-1)+39366*(2^39366-1))"
        assert evaluate_count(text) == report.checks_performed

    def test_cylinder_binding_set_expands_to_the_report_set(self, workdir,
                                                           capsys):
        spec = workdir / "ham_n5.spec"
        spec.write_text("type = exponential\nutility = hamming\nk = 0.5\n"
                        "categories = cats.txt\nn = 5\n")
        code, out, _ = run(capsys, "verify", "--spec", spec,
                           "--epsilon", "0.3", "--method", "reduced")
        assert code == 1
        cylinder = json.loads(out)["binding_set"]
        loaded = load_spec_file(spec)
        report = verify_reduced(loaded, PrivacyParams(0.3, 0.0))
        assert cylinder["size"] == len(report.binding_set) == 81
        assert (expand_cylinder(cylinder, loaded.space, 5)
                == report.binding_set.indices)

    #: sha256 of stdout, pinned before the binding set became a cylinder
    LARGE_N_DIGESTS = {
        ("ham20.spec", "0.3", False):
            "84ba0ce649d93a75686f7dd2f8bba45399ae9e022e9a061cf2f63cf778a972c5",
        ("ham20.spec", "0.3", True):
            "28e26eae386d677fb10bd0ddddb73309b016c03e95cafae7b4b96a20e2da5345",
        ("l1_12.spec", "0.5", False):
            "e97cba92d67fdd1994e440c9ad87417791f331db54bfe9281002dfe5fa704071",
        # L1's float parent taken as exact, each row divided by its exact
        # sum: the margin reads -0.5168056347754914
        ("l1_12.spec", "0.5", True):
            "6c105dbb4301469d7ae1790a349743d513ced772d774a3d510d4ea91aa3f77b3",
    }

    @pytest.mark.parametrize("name,epsilon,exact", list(LARGE_N_DIGESTS))
    def test_large_n_binding_set_is_never_expanded(self, workdir, capsys,
                                                   monkeypatch, name,
                                                   epsilon, exact):
        # hamming m=1 n=20 and L1 m=2 n=12: cylinders of 2^19 and 3^11
        # databases print from (row, categories) alone
        import dpcat.core
        import dpcat.verifier
        (workdir / "bits.txt").write_text("0\n1\n")
        (workdir / "ham20.spec").write_text(
            "type = exponential\nutility = hamming\nk = 0.5\n"
            "categories = bits.txt\nn = 20\n")
        (workdir / "l1_12.spec").write_text(
            "type = exponential\nutility = l1\ncategories = cats.txt\n"
            "n = 12\n")
        calls = []
        for module, attr in [(dpcat.core, "index_digits"),
                             (dpcat.verifier, "index_digits"),
                             (dpcat.core, "_box_indices")]:
            fn = getattr(module, attr)
            monkeypatch.setattr(module, attr, lambda *a, fn=fn, attr=attr:
                                calls.append(attr) or fn(*a))
        argv = ["verify", "--spec", workdir / name, "--epsilon", epsilon,
                "--method", "reduced"] + ["--exact"] * exact
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert calls == []
        assert (hashlib.sha256(out.encode()).hexdigest()
                == self.LARGE_N_DIGESTS[name, epsilon, exact])

    def test_internal_error_exits_4(self, workdir, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr("dpcat.cli.verify_reduced", broken)
        code, out, err = run(capsys, "verify", "--spec",
                             workdir / "l1.spec", "--epsilon", "1",
                             "--method", "reduced")
        assert code == 4
        assert out == ""
        assert "Traceback" in err
        assert "RuntimeError: injected failure" in err


class TestReleaseClassParent:
    """A parent whose rows release two and three categories: its check
    count is a closed form whose text grows only by n's digits, so no n
    turns a verdict into a refusal."""

    ROWS = "0.5,0.5,0\n0.25,0.5,0.25\n0.2,0.3,0.5\n"

    @pytest.fixture
    def spec_at(self, workdir):
        (workdir / "classes.csv").write_text(self.ROWS)
        path = workdir / "classes.spec"

        def at(n):
            path.write_text("type = product\nmatrix = classes.csv\n"
                            f"categories = cats.txt\nn = {n}\n")
            return path
        return at

    @staticmethod
    def count_text(n):
        return (f"{n}*sum({n - 1}!/(c1!*c2!)*2^c2*(4*(2^(2^c1*3^c2)-1)"
                f"+2*(2^(2*2^c1*3^c2)-1)) for c1+c2={n - 1})")

    @pytest.mark.parametrize("delta, code", [("0.3", 1), ("0.5", 0)])
    @pytest.mark.parametrize("n", [182, 1000])
    def test_reduced_decides_past_the_old_class_limit(self, spec_at, capsys,
                                                      n, delta, code):
        got, out, err = run(capsys, "verify", "--spec", spec_at(n),
                            "--epsilon", "2", "--delta", delta,
                            "--method", "reduced")
        report = json.loads(out)
        assert (got, err) == (code, "")
        assert report["margin"] == pytest.approx(float(delta) - 0.5,
                                                 abs=1e-12)
        assert report["checks_performed"] == self.count_text(n)

    def test_reduced_decides_a_million_rows(self, spec_at):
        spec = load_spec_file(spec_at(10 ** 6))
        for delta, verdict in ((0.3, "not-private"), (0.5, "private")):
            report = verify_reduced(spec, PrivacyParams(2.0, delta))
            assert report.verdict == verdict
            assert report.margin == pytest.approx(delta - 0.5, abs=1e-12)
            assert str(report.checks_performed) == self.count_text(10 ** 6)

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 30])
    def test_auto_answers_in_a_short_report(self, spec_at, capsys, n):
        code, out, err = run(capsys, "verify", "--spec", spec_at(n),
                             "--epsilon", "2", "--delta", "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out)["margin"] == 0.0
        assert len(out.encode()) < 4096

    @pytest.mark.parametrize("n", [181, 182, 1000, 10 ** 6, 10 ** 30])
    def test_count_text_stays_short(self, n):
        start = time.perf_counter()
        checks = dpcat.verifier._parent_checks(Counter({1: 4, 2: 2}),
                                               [2, 3, 3], 3, n, False)
        assert str(checks) == self.count_text(n)
        assert len(str(checks)) < 1024
        assert time.perf_counter() - start < 0.1


class TestLargeRowFuzz:
    """Parents with zero entries at row counts no enumeration reaches:
    every verify method, and analyze, answers or refuses within the exit
    code contract, with one short error line and no traceback, and a
    refusal comes at once.  ``reduced`` refuses only a binding pair too
    long for any array, naming n."""

    @staticmethod
    def parents():
        rng = np.random.default_rng(26)
        rows = [[[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5]]]
        while len(rows) < 3:
            mat = rng.dirichlet(np.ones(3), size=3)
            mat[rng.random((3, 3)) < 0.3] = 0.0
            if (mat.sum(axis=1) > 0).all():
                rows.append((mat / mat.sum(axis=1, keepdims=True)).tolist())
        return rows

    @pytest.mark.parametrize("argv", [
        ["verify", "--method", "auto"], ["verify", "--method", "reduced"],
        ["verify", "--method", "brute"], ["analyze"]])
    @pytest.mark.parametrize("n", [182, 10 ** 6, 10 ** 30])
    def test_exit_code_is_in_the_contract(self, workdir, n, argv):
        for i, rows in enumerate(self.parents()):
            (workdir / f"z{i}.csv").write_text("".join(
                ",".join(map(repr, row)) + "\n" for row in rows))
            spec = workdir / f"z{i}.spec"
            spec.write_text(f"type = product\nmatrix = z{i}.csv\n"
                            f"categories = cats.txt\nn = {n}\n")
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + ["--spec", str(spec), "--epsilon", "1",
                                    "--delta", "0.1"])
            elapsed = time.perf_counter() - start
            err = err.getvalue()
            assert code in (0, 1, 2, 3), err
            assert "Traceback" not in err and len(err.encode()) < 1024
            if code > 1:
                assert elapsed < 0.1
            if "reduced" in argv and code > 1:
                assert code == 3 and f"n = {n} rows" in err


class TestUnreadableInputs:
    """An input file that is missing, is not UTF-8 text, or has a directory
    in its place is an input error (exit 2) naming the path, not an
    internal error."""

    #: each kind of input file: the argv that reads it, and its name
    CASES = {
        "data": (("sanitize", "--spec", "hobby.spec", "--data", "bad.csv",
                  "--seed", "1"), "bad.csv"),
        "categories": (("analyze", "--spec", "cats.spec", "--epsilon", "1"),
                       "bad.txt"),
        "spec": (("verify", "--spec", "bad.spec", "--epsilon", "1"),
                 "bad.spec"),
        "matrix": (("verify", "--spec", "matrix.spec", "--epsilon", "1"),
                   "bad.csv"),
        "table": (("verify", "--spec", "table.spec", "--epsilon", "1"),
                  "bad.csv"),
        "header": (("sanitize", "--spec", "hobby.spec", "--data", "bad.csv",
                    "--seed", "1", "--column", "hobby"), "bad.csv"),
    }

    def run_case(self, capsys, workdir, kind, make_bad):
        (workdir / "cats.spec").write_text(
            "type = product\np = 0.1\ncategories = bad.txt\nn = 2\n")
        (workdir / "matrix.spec").write_text(
            "type = product\nmatrix = bad.csv\ncategories = cats.txt\n"
            "n = 1\n")
        (workdir / "table.spec").write_text(
            "type = exponential\nutility = table\ntable = bad.csv\n"
            "categories = cats.txt\nn = 1\n")
        argv, name = self.CASES[kind]
        make_bad(workdir / name)
        code, out, err = run(capsys, *(workdir / a if "." in a else a
                                       for a in argv))
        assert (code, out) == (2, "")
        return workdir / name, err

    @pytest.mark.parametrize("quote", ["", '"Sports"\n'])
    @pytest.mark.parametrize("kind", list(CASES))
    def test_invalid_utf8_exits_2(self, workdir, capsys, kind, quote):
        bad = f"Sports\n{quote}".encode()
        path, err = self.run_case(
            capsys, workdir, kind,
            lambda path: path.write_bytes(bad + b"\xff\xfe\n"))
        assert err == f"error: {path}: not valid UTF-8 at byte {len(bad)}\n"

    @pytest.mark.parametrize("kind", ["data", "categories", "spec"])
    def test_directory_exits_2(self, workdir, capsys, kind):
        path, err = self.run_case(capsys, workdir, kind,
                                  lambda path: path.mkdir())
        assert str(path) in err and "directory" in err
        assert "Traceback" not in err

    #: each way an input path reaches dpcat: the argv, and the spec file
    #: line that names the path, if it is named in a spec
    PATH_CASES = {
        "data": (("sanitize", "--spec", "hobby.spec", "--data", "{path}",
                  "--seed", "1"), None),
        "spec": (("verify", "--spec", "{path}", "--epsilon", "1"), None),
        "optimal": (("optimal", "--categories", "{path}", "--epsilon", "1"),
                    None),
        "categories": (("verify", "--spec", "path.spec", "--epsilon", "1"),
                       "type = product\np = 0.1\ncategories = {name}\n"
                       "n = 2\n"),
        "matrix": (("verify", "--spec", "path.spec", "--epsilon", "1"),
                   "type = product\nmatrix = {name}\ncategories = cats.txt\n"
                   "n = 1\n"),
        "table": (("verify", "--spec", "path.spec", "--epsilon", "1"),
                  "type = exponential\nutility = table\ntable = {name}\n"
                  "categories = cats.txt\nn = 1\n"),
    }

    @pytest.mark.parametrize("name, reason", [
        ("x" * 300, "File name too long"),
        ("ca\0ts.txt", "embedded null byte"),
        ("missing.txt", "No such file or directory"),
    ], ids=["long", "nul", "missing"])
    @pytest.mark.parametrize("kind", list(PATH_CASES))
    def test_path_the_os_will_not_open_exits_2(self, workdir, capsys, kind,
                                               name, reason):
        argv, spec = self.PATH_CASES[kind]
        path = os.path.join(workdir, name)
        if spec is not None:
            (workdir / "path.spec").write_text(spec.format(name=name))
        argv = [workdir / a if a.endswith((".spec", ".txt", ".csv"))
                else a.format(path=path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        shown = path.replace("\0", "\\x00")     # no raw NUL on stderr
        assert err == f"error: {shown}: cannot open: {reason}\n"

    @pytest.mark.parametrize("kind", ["data", "matrix", "table"])
    def test_field_over_the_csv_limit_exits_2(self, workdir, capsys, kind):
        # a quoted field longer than csv's field size limit, which dpcat
        # leaves as it is, in the second record of a file
        first = "Sports" if kind == "data" else "0.5"
        path, err = self.run_case(
            capsys, workdir, kind,
            lambda path: path.write_text(f'{first}\n"{"x" * 140_000}"\n'))
        assert err.startswith(f"error: {path}: record 2: field larger")
        assert len(err) < 1024

    #: each subcommand that writes --output, with the rest of its argv
    OUTPUT_CASES = {
        "sanitize": ("sanitize", "--spec", "hobby.spec",
                     "--data", "hobby_data.csv", "--seed", "1"),
        "optimal": ("optimal", "--categories", "cats.txt",
                    "--epsilon", "1"),
        "convert": ("convert", "--spec", "ham.spec"),
    }

    @pytest.mark.parametrize("command", list(OUTPUT_CASES))
    @pytest.mark.parametrize("target", ["directory", "missing/out"])
    def test_unwritable_output_exits_2(self, workdir, capsys, command,
                                       target):
        (workdir / "directory").mkdir()
        argv = [workdir / a if a.endswith((".spec", ".csv", ".txt")) else a
                for a in self.OUTPUT_CASES[command]]
        output = workdir / target
        code, out, err = run(capsys, *argv, "--output", output)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {output}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["matrix", "table", "header"])
    def test_long_bad_field_is_echoed_cut_short(self, workdir, capsys, kind):
        long = "x" * 100_000
        argv = {
            "matrix": ("verify", "--spec", "matrix.spec", "--epsilon", "1"),
            "table": ("verify", "--spec", "table.spec", "--epsilon", "1"),
            "header": ("sanitize", "--spec", "hobby.spec", "--data",
                       "bad.csv", "--seed", "1", "--column", "hobby"),
        }[kind]
        text = (f"id,{long}\n1,Sports\n" if kind == "header"
                else f"0.5,0.5\n0.5,{long}\n")
        path, err = self.run_case(capsys, workdir, kind,
                                  lambda path: path.write_text(text))
        assert str(path) in err and "(100000 characters)" in err
        assert len(err.encode()) < 1024


class TestEpsilonRange:
    """e^epsilon must be a finite float; larger values are input errors."""

    @staticmethod
    def argv(workdir, command):
        if command == "optimal":
            return ["optimal", "--categories", workdir / "cats.txt"]
        if command == "verify":
            return ["verify", "--spec", workdir / "ham.spec",
                    "--method", "reduced"]
        return [command, "--spec", workdir / "ham.spec"]

    @pytest.mark.parametrize("command", ["verify", "analyze", "optimal"])
    @pytest.mark.parametrize("eps", ["710", "800", "inf"])
    def test_overflowing_epsilon_exits_2(self, workdir, capsys, command, eps):
        code, out, err = run(capsys, *self.argv(workdir, command),
                             "--epsilon", eps)
        assert code == 2 and out == ""
        assert err.startswith("error: epsilon must be at most")

    @pytest.mark.parametrize("command", ["verify", "analyze", "optimal"])
    def test_largest_whole_epsilon_answers(self, workdir, capsys, command):
        code, out, _ = run(capsys, *self.argv(workdir, command),
                           "--epsilon", "709")
        assert code == 0
        assert json.loads(out)["epsilon"] == 709.0


class TestParameterRange:
    """A NaN matrix entry, a hamming k whose e^k overflows and a utility
    table spec's row count below 1 are input errors on every subcommand
    that loads the spec; k = 709 answers."""

    @staticmethod
    def argv(workdir, command, spec):
        return {
            "verify": ["verify", "--epsilon", "1"],
            "sanitize": ["sanitize", "--data", workdir / "data.csv",
                         "--seed", "1"],
            "analyze": ["analyze", "--epsilon", "1"],
            "convert": ["convert"],
        }[command] + ["--spec", workdir / spec]

    @pytest.fixture
    def specs(self, workdir):
        (workdir / "nan.csv").write_text(
            "0.5,0.5,0\n0.5,nan,0\n0.2,0.3,0.5\n")
        (workdir / "nan.spec").write_text(
            "type = product\nmatrix = nan.csv\ncategories = cats.txt\n"
            "n = 2\n")
        for k in ("709", "800", "1e308", "1e309", "inf"):
            (workdir / f"k{k}.spec").write_text(
                f"type = exponential\nutility = hamming\nk = {k}\n"
                f"categories = cats.txt\nn = 2\n")
        for name, p in (("p_third", "0.3333333333333333"),
                        ("p_ulp", "0.33333333333333337")):
            (workdir / f"{name}.spec").write_text(
                f"type = product\np = {p}\ncategories = cats.txt\nn = 2\n")
        (workdir / "t.csv").write_text("0\n")
        (workdir / "rows.spec").write_text(
            "type = exponential\nutility = table\ntable = t.csv\n"
            "categories = cats.txt\nn = -1\n")
        (workdir / "data.csv").write_text("0\n2\n")
        return workdir

    @pytest.mark.parametrize("spec, message", [
        ("nan.spec", "error: matrix holds non-finite entries\n"),
        ("k800.spec", "error: hamming utility needs k at most "),
        ("k1e308.spec", "error: hamming utility needs k at most "),
        ("rows.spec", "error: row count must be at least 1\n"),
    ])
    @pytest.mark.parametrize("command",
                             ["verify", "sanitize", "analyze", "convert"])
    def test_exits_2(self, specs, capsys, command, spec, message):
        code, out, err = run(capsys, *self.argv(specs, command, spec))
        assert (code, out) == (2, "")
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("command",
                             ["verify", "sanitize", "analyze", "convert"])
    def test_largest_whole_k_answers(self, specs, capsys, command):
        code, out, err = run(capsys, *self.argv(specs, command, "k709.spec"))
        assert code == (1 if command == "verify" else 0) and err == ""
        assert out

    @pytest.mark.parametrize("command",
                             ["verify", "sanitize", "analyze", "convert"])
    def test_finite_k_past_the_float_range_exits_2(self, specs, capsys,
                                                   command):
        # float() reads 1e309 as inf; only the literal inf is the no-noise
        # endpoint
        code, out, err = run(capsys,
                             *self.argv(specs, command, "k1e309.spec"))
        assert (code, out) == (2, "")
        assert err == (f"error: {specs / 'k1e309.spec'}: k = '1e309' is past "
                       f"the float range; write inf for infinity\n")

    def test_literal_inf_is_the_no_noise_endpoint(self, specs, capsys):
        code, out, err = run(capsys, *self.argv(specs, "convert", "kinf.spec"))
        assert (code, err) == (0, "")
        assert (json.loads(out)["k"], json.loads(out)["p"]) == ("inf", 0.0)
        code, _, err = run(capsys, *self.argv(specs, "verify", "kinf.spec"))
        assert (code, err) == (1, "")

    @pytest.mark.parametrize("command",
                             ["verify", "sanitize", "analyze", "convert"])
    def test_flip_probability_past_its_bound_exits_2(self, specs, capsys,
                                                     command):
        # one ulp above 1/(m+1) = 1/3; the float 1/3 itself answers
        code, out, err = run(capsys, *self.argv(specs, command, "p_ulp.spec"))
        assert (code, out) == (2, "")
        assert err == ("error: flip probability must lie in [0, 1/(m+1)] = "
                       "[0, 0.3333333333333333], got 0.33333333333333337\n")
        code, out, err = run(capsys,
                             *self.argv(specs, command, "p_third.spec"))
        assert code in (0, 1) and err == "" and out


class TestNegativeEntries:
    """A parent entry below 0 is an input error, however small, before any
    logarithm is taken; under --exact it is read from its rational."""

    def write(self, workdir, rows):
        (workdir / "neg.csv").write_text(rows)
        (workdir / "neg.spec").write_text(
            "type = product\nmatrix = neg.csv\ncategories = cats.txt\n"
            "n = 2\n")
        (workdir / "data.csv").write_text("0\n2\n")
        return workdir

    @pytest.mark.parametrize("command", ["verify", "sanitize", "analyze"])
    def test_a_dip_below_0_exits_2_with_no_warning(self, workdir, capsys,
                                                   command):
        # the row sums to 1 within the row-sum tolerance
        specs = self.write(workdir, "0.5,0.5000000001,-0.0000000001\n"
                                    "0.2,0.3,0.5\n0.1,0.1,0.8\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *TestParameterRange.argv(
                specs, command, "neg.spec"))
        assert (code, out) == (2, "")
        assert err == "error: matrix entries must lie in [0, 1]\n"

    @pytest.mark.parametrize("entry, refused", [("-1e-400", True),
                                                ("-0.0", False)])
    def test_exact_entries_are_checked_as_rationals(self, workdir, capsys,
                                                    entry, refused):
        # -1e-400 reads as the float -0.0, but its Fraction is below 0
        specs = self.write(workdir, f"0.5,0.5,{entry}\n0.2,0.3,0.5\n"
                                    f"0.1,0.1,0.8\n")
        code, out, err = run(capsys, "verify", "--spec", specs / "neg.spec",
                             "--epsilon", "1", "--exact")
        if refused:
            assert (code, out, err) == (
                2, "", "error: matrix entries must lie in [0, 1]\n")
        else:       # a zero entry: decided, not private at delta = 0
            assert (code, err) == (1, "")
            assert json.loads(out)["exact"] is True


class TestParserReuse:
    """main() builds its parser once per process; calls share nothing."""

    VERIFY = ("verify", "--spec", "ham.spec", "--epsilon", "0.3",
              "--method", "reduced")

    def argv(self, workdir, *extra):
        return [workdir / a if a.endswith(".spec") else a
                for a in self.VERIFY + extra]

    def fresh_output(self, workdir):
        done = run_fresh("-m", "dpcat.cli", *self.argv(workdir))
        assert done.returncode == 1, done.stderr
        return done.stdout

    def test_parse_failure_leaves_no_state(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in self.argv(workdir, "--exact", "--method",
                                            "yaml")])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *self.argv(workdir))
        assert code == 1
        assert out == self.fresh_output(workdir)

    def test_command_is_looked_up_at_call_time(self, workdir, capsys,
                                               monkeypatch):
        run(capsys, *self.argv(workdir))
        seen = []
        monkeypatch.setattr(dpcat.cli, "cmd_verify",
                            lambda args: seen.append(args.spec) or 0)
        code, out, _ = run(capsys, *self.argv(workdir))
        assert code == 0 and out == ""
        assert seen == [str(workdir / "ham.spec")]

    def test_parser_is_built_on_first_call_only(self, workdir):
        probe = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import dpcat.cli\n"
            "counts = [len(built)]\n"
            f"argv = {list(map(str, self.argv(workdir)))!r}\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert dpcat.cli.main(argv) == 1\n"
            "    counts.append(len(built))\n"
            "print(counts)\n")
        done = run_fresh("-c", probe)
        assert done.returncode == 0, done.stderr
        first, second, third = json.loads(done.stdout)
        assert first == 0          # importing the CLI builds nothing
        assert second > 0 and third == second

    @pytest.mark.parametrize("argv", [
        ("analyze", "--spec", "ham.spec", "--epsilon", "1", "--exact"),
        ("analyze", "--spec", "ham.spec", "--epsilon", "1",
         "--method", "brute"),
        ("sanitize", "--spec", "hobby.spec", "--data", "hobby_data.csv",
         "--seed", "1", "--exact"),
        ("sanitize", "--spec", "hobby.spec", "--data", "hobby_data.csv",
         "--seed", "1", "--method", "brute"),
        ("convert", "--spec", "ham.spec", "--method", "brute"),
        ("optimal", "--categories", "cats.txt", "--epsilon", "1",
         "--method", "brute"),
        # reports print one way: no subcommand takes --format
        ("verify", "--spec", "ham.spec", "--epsilon", "1",
         "--format", "json"),
        ("sanitize", "--spec", "hobby.spec", "--data", "hobby_data.csv",
         "--seed", "1", "--format", "json"),
        ("analyze", "--spec", "ham.spec", "--epsilon", "1",
         "--format", "json"),
        ("convert", "--spec", "ham.spec", "--format", "json"),
        ("optimal", "--categories", "cats.txt", "--epsilon", "1",
         "--format", "json"),
    ], ids=lambda argv: argv[0] + [   # the option under test comes last
        a for a in argv if a in ("--exact", "--method", "--format")][-1])
    def test_options_a_subcommand_does_not_read_are_rejected(
            self, workdir, capsys, argv):
        argv = [str(workdir / a) if a.endswith((".spec", ".csv", ".txt"))
                else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_option_table_matches_the_parser(self):
        readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
        table = {}
        for line in readme.splitlines():
            found = re.fullmatch(r"\| `(--[a-z-]+)[^`]*` \| ([a-z, ]+) \|",
                                 line)
            if found:
                table[found[1]] = set(found[2].split(", "))
        assert set(table) == {"--exact"}
        (commands,) = [action.choices for action
                       in dpcat.cli.build_parser()._subparsers._group_actions]
        for option, listed in table.items():
            assert listed == {name for name, sub in commands.items()
                              if option in sub._option_string_actions}, option


class TestSanitize:
    def test_byte_identical_reruns(self, workdir, capsys):
        args = ("sanitize", "--spec", workdir / "hobby.spec",
                "--data", workdir / "hobby_data.csv", "--seed", "1234")
        first = run(capsys, *args, "--output", workdir / "out1.csv")
        second = run(capsys, *args, "--output", workdir / "out2.csv")
        assert first[0] == second[0] == 0
        b1 = (workdir / "out1.csv").read_bytes()
        assert b1 == (workdir / "out2.csv").read_bytes()
        lines = b1.decode().splitlines()
        assert len(lines) == 6
        hobbies = set((workdir / "hobbies.txt").read_text().splitlines())
        assert set(lines) <= hobbies

    def test_identity_spec_roundtrips_data(self, workdir, capsys):
        spec = workdir / "copy.spec"
        spec.write_text("type = product\np = 0.0\n"
                        "categories = hobbies.txt\nn = 6\n")
        code, out, _ = run(capsys, "sanitize", "--spec", spec,
                           "--data", workdir / "hobby_data.csv",
                           "--seed", "5")
        assert code == 0
        assert out == (workdir / "hobby_data.csv").read_text()

    def test_negative_seed_is_an_input_error(self, workdir, capsys):
        code, out, err = run(capsys, "sanitize", "--spec",
                             workdir / "hobby.spec", "--data",
                             workdir / "hobby_data.csv", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed" in err and "-1" in err
        assert "Traceback" not in err

    def test_unknown_label_names_row(self, workdir, capsys):
        data = workdir / "bad_data.csv"
        data.write_text("Sports\nKnitting\n")
        code, _, err = run(capsys, "sanitize", "--spec",
                           workdir / "hobby.spec", "--data", data,
                           "--seed", "1")
        assert code == 2
        assert "row 2" in err and "Knitting" in err

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_long_unknown_label_is_echoed_cut_short(self, workdir, capsys,
                                                    quote):
        data = workdir / "long.csv"
        data.write_text(f"Sports\n{quote}{'x' * 100_000}{quote}\n")
        code, _, err = run(capsys, "sanitize", "--spec",
                           workdir / "hobby.spec", "--data", data,
                           "--seed", "1")
        assert code == 2
        assert "row 2" in err and "(100000 characters)" in err
        assert len(err.encode()) < 1024

    def test_named_column(self, workdir, capsys):
        data = workdir / "cols.csv"
        data.write_text("id,hobby\n1,Sports\n2,Reading\n")
        code, out, _ = run(capsys, "sanitize", "--spec",
                           workdir / "hobby.spec", "--data", data,
                           "--seed", "9", "--column", "hobby")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_short_row_is_an_input_error(self, workdir, capsys):
        data = workdir / "short.csv"
        data.write_text("id,hobby\n1,Sports\n2\n")
        code, out, err = run(capsys, "sanitize", "--spec",
                             workdir / "hobby.spec", "--data", data,
                             "--seed", "9", "--column", "hobby")
        assert code == 2
        assert out == ""
        assert "row 3" in err and "'hobby'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("labels", [
        ("a", "bb", "ccc"),
        ("Sports", "Computer games", "x", "y" * 300),
        ("grün", "日本語", "ÿ", "🙂", "z"),
        ("", "é"),
        ("c0", "c1", "c2"),     # lines of one width: nothing to strip
        ("é", "ü"),
    ])
    def test_label_lines_match_the_join(self, labels, monkeypatch):
        values = np.random.default_rng(len(labels)).integers(
            0, len(labels), 500)
        expected = "".join(labels[v] + "\n" for v in values.tolist())
        for block in (dpcat.cli._LINE_BLOCK, 1, 3):
            monkeypatch.setattr(dpcat.cli, "_LINE_BLOCK", block)
            chunks = list(dpcat.cli._label_lines(labels, values))
            assert len(chunks) == -(-500 // block)
            assert b"".join(chunks) == expected.encode("utf-8")

    @pytest.mark.parametrize("labels", [
        ("a", "bb", "ccc"), ("grün", "日本語", "ÿ", "🙂")])
    def test_output_and_stdout_hold_the_joined_labels(self, tmp_path, capsys,
                                                      labels):
        (tmp_path / "labels.txt").write_text("\n".join(labels) + "\n",
                                             encoding="utf-8")
        spec = tmp_path / "labels.spec"
        spec.write_text("type = product\np = 0.15\n"
                        "categories = labels.txt\nn = 1\n")
        rows = np.random.default_rng(3).integers(0, len(labels), 2_000)
        data = tmp_path / "data.csv"
        data.write_text("".join(labels[r] + "\n" for r in rows),
                        encoding="utf-8")
        args = ("sanitize", "--spec", spec, "--data", data, "--seed", "12")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert run(capsys, *args, "--output", tmp_path / "out.csv")[0] == 0

        loaded = load_spec_file(spec)
        d = dpcat.cli.load_database_csv(data, loaded.space)
        drawn = dpcat.cli.sample(loaded, d, np.random.default_rng(12))
        expected = "".join(labels[v] + "\n" for v in drawn.rows)
        assert out == expected
        assert (tmp_path / "out.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("output", [False, True])
    def test_table_refuses_another_row_count(self, workdir, capsys, output):
        # a utility table holds the mechanism at its own n alone
        (workdir / "util.csv").write_text("0,0,0\n0,0,0\n0,0,0\n")
        spec = workdir / "table.spec"
        spec.write_text("type = exponential\nutility = table\n"
                        "table = util.csv\ncategories = cats.txt\nn = 1\n")
        out_path = workdir / "out.csv"
        code, out, err = run(capsys, "sanitize", "--spec", spec, "--data",
                             workdir / "cats.txt", "--seed", "1",
                             *["--output", out_path] * output)
        assert (code, out) == (2, "")
        assert err == ("error: a utility table is fixed to its n=1 rows "
                       "and cannot be rescaled to 3\n")
        assert not out_path.exists()

    def test_l1_sanitizes_long_files(self, workdir, capsys, tmp_path):
        # 1,000 rows: 3^1000 states, sampled row by row through the parent
        data = tmp_path / "long.csv"
        rows = np.random.default_rng(5).integers(0, 3, 1000)
        data.write_text("".join(f"{r}\n" for r in rows))
        code, out, _ = run(capsys, "sanitize", "--spec", workdir / "l1.spec",
                           "--data", data, "--seed", "8")
        assert code == 0
        labels = out.splitlines()
        assert len(labels) == 1000 and set(labels) <= {"0", "1", "2"}

    def test_flip_rate_statistics(self, workdir, capsys, tmp_path):
        n = 100_000
        rng = np.random.default_rng(77)
        hobbies = ("Sports", "Cars", "Television", "Computer games",
                   "Reading")
        rows = rng.choice(hobbies, size=n)
        data = tmp_path / "big.csv"
        data.write_text("".join(f"{r}\n" for r in rows))
        out_path = tmp_path / "big_out.csv"
        code, _, _ = run(capsys, "sanitize", "--spec", workdir / "hobby.spec",
                         "--data", data, "--seed", "31",
                         "--output", out_path)
        assert code == 0
        sanitized = out_path.read_text().splitlines()
        kept = sum(a == b for a, b in zip(rows, sanitized)) / n
        sigma = math.sqrt(0.6 * 0.4 / n)
        assert abs(kept - 0.6) <= 3 * sigma


class TestAnalyze:
    def test_profile_payload(self, workdir, capsys):
        code, out, _ = run(capsys, "analyze", "--spec", workdir / "ham.spec",
                           "--epsilon", "1", "--delta", "0.05")
        payload = json.loads(out)
        assert code == 0
        assert payload["expected_error"] == pytest.approx(
            2 / (1 + math.exp(0.5) / 2))
        assert payload["lower_bound"] <= payload["expected_error"]
        assert payload["upper_bound"] == pytest.approx(2 * 2 / 3)

    def test_error_is_the_normalised_parent_s(self, workdir, capsys):
        # rows that sum to 1 + 5e-10: the mechanism verified and sampled is
        # each row over its sum, whose worst row releases another category
        # with probability (0.2 + 0.3)/(1 + 5e-10); the raw rows read 0.5
        (workdir / "off.csv").write_text("0.6000000005,0.3,0.1\n"
                                         "0.2,0.5000000005,0.3\n"
                                         "0.1,0.1,0.8000000005\n")
        (workdir / "off.spec").write_text(
            "type = product\nmatrix = off.csv\ncategories = cats.txt\n"
            "n = 1000000\n")
        code, out, _ = run(capsys, "analyze", "--spec", workdir / "off.spec",
                           "--epsilon", "1")
        assert code == 0
        error = json.loads(out)["expected_error"]
        # the float nearest the exact error of the float entries' parent
        row = [Fraction(x) for x in (0.2, 0.5000000005, 0.3)]
        assert error == float(10 ** 6 * (row[0] + row[2]) / sum(row)) \
            == 499999.99974999996


class TestConvert:
    def test_round_trip_through_files(self, workdir, capsys):
        prod_spec = workdir / "converted.spec"
        code, out, _ = run(capsys, "convert", "--spec", workdir / "ham.spec",
                           "--output", prod_spec)
        payload = json.loads(out)
        assert code == 0
        assert payload["p"] == pytest.approx(1 / (math.exp(0.5) + 2))
        text = prod_spec.read_text()
        assert "type = product" in text
        back_spec = workdir / "back.spec"
        code, out, _ = run(capsys, "convert", "--spec", prod_spec,
                           "--output", back_spec)
        payload = json.loads(out)
        assert code == 0
        assert payload["k"] == pytest.approx(0.5, abs=1e-12)
        assert "utility = hamming" in back_spec.read_text()

    @pytest.mark.parametrize("exact", [False, True])
    def test_hamming_product_hamming_is_pinned(self, workdir, capsys, exact):
        # the outputs of the seed tree, with the work directory elided; the
        # product spec holds p alone, so --exact reads no exact entries
        steps = [("ham.spec", "prod.spec", "hamming", "product", "0.5",
                  "type = product\np = 0.27406861906119695\n"),
                 ("prod.spec", "back.spec", "product", "hamming",
                  "0.5000000000000003",
                  "type = exponential\nutility = hamming\n"
                  "k = 0.5000000000000003\n")]
        for source, target, kind, other, k, text in steps:
            code, out, err = run(capsys, "convert", "--spec", workdir / source,
                                 "--output", workdir / target,
                                 *["--exact"] * exact)
            assert (code, err) == (0, "")
            assert out == (
                f'{{\n  "from": "{kind}",\n  "to": "{other}",\n  "m": 2,\n'
                f'  "n": 2,\n  "k": {k},\n  "p": 0.27406861906119695,\n'
                f'  "output": "{workdir / target}"\n}}\n')
            assert (workdir / target).read_text() == (
                f"{text}categories = {workdir / 'cats.txt'}\nn = 2\n")

    def test_exact_entries_ride_through_in_process(self, workdir):
        # the hamming parent's exact entries are built on demand, yet they
        # still decide the way back: e^k comes back exactly, not via p
        spec = load_spec_file(workdir / "ham.spec")
        product = exponential_to_product(spec)
        assert product.matrix.has_exact_entries()
        back = product_to_exponential(product)
        assert back.utility.k == 0.5
        assert back.utility.e_k == spec.utility.exact_e_k()
        # float entries taken as exact do not count, even once built
        floats = load_spec_file(workdir / "identity.spec").matrix
        floats.fractions()
        assert not floats.has_exact_entries()

    def test_no_noise_sentinel_round_trips(self, workdir, capsys):
        out_spec = workdir / "noise_free.spec"
        code, out, _ = run(capsys, "convert", "--spec",
                           workdir / "identity.spec", "--output", out_spec)
        payload = json.loads(out)
        assert code == 0
        assert payload["k"] == "inf"
        assert payload["p"] == 0.0
        assert "k = inf" in out_spec.read_text()
        # the written spec parses back to the identity mechanism
        code, out, _ = run(capsys, "convert", "--spec", out_spec)
        payload = json.loads(out)
        assert code == 0
        assert payload["p"] == 0.0

    def test_asymmetric_matrix_rejected(self, workdir, capsys):
        matrix = workdir / "skew.csv"
        matrix.write_text("0.6,0.2,0.2\n0.2,0.6,0.2\n0.2,0.3,0.5\n")
        spec = workdir / "skew.spec"
        spec.write_text("type = product\nmatrix = skew.csv\n"
                        "categories = cats.txt\nn = 2\n")
        code, _, err = run(capsys, "convert", "--spec", spec)
        assert code == 2
        assert "symmetric" in err


class TestSaveSpecFile:
    """save_spec_file writes the two forms convert makes, which load back
    as they were, and refuses every other spec by its kind."""

    @pytest.mark.parametrize("source, text", [
        ("ham.spec", None),
        ("inf.spec", "type = exponential\nutility = hamming\nk = inf\n"),
        ("hobby.spec", None),
    ])
    def test_written_specs_load_back(self, workdir, source, text):
        if text is not None:
            (workdir / source).write_text(
                f"{text}categories = cats.txt\nn = 3\n")
        spec = load_spec_file(workdir / source)
        (workdir / "out").mkdir()
        path = workdir / "out" / "saved.spec"
        save_spec_file(spec, path, spec.categories_path)
        back = load_spec_file(path)
        assert (back.kind, back.space, back.n) == (spec.kind, spec.space,
                                                    spec.n)
        if spec.kind == "hamming":
            assert back.utility.k == spec.utility.k
        else:
            assert back.matrix.symmetric_p() == spec.matrix.symmetric_p()

    @pytest.mark.parametrize("spec_text, kind", [
        ("type = exponential\nutility = l1\n", "l1"),
        ("type = exponential\nutility = table\ntable = t.csv\n", "table"),
        ("type = product\nmatrix = m.csv\n", "asymmetric product"),
    ])
    def test_other_specs_are_refused_by_kind(self, workdir, spec_text, kind):
        (workdir / "t.csv").write_text("0,1\n1,0\n")
        (workdir / "m.csv").write_text("0.6,0.4\n0.3,0.7\n")
        (workdir / "bits.txt").write_text("0\n1\n")
        (workdir / "other.spec").write_text(
            f"{spec_text}categories = bits.txt\nn = 1\n")
        spec = load_spec_file(workdir / "other.spec")
        path = workdir / "saved.spec"
        with pytest.raises(DataFormatError, match=f"not {kind} specs"):
            save_spec_file(spec, path, spec.categories_path)
        assert not path.exists()


class TestOptimal:
    def test_csv_and_json_outputs(self, workdir, capsys):
        out_csv = workdir / "opt.csv"
        code, out, _ = run(capsys, "optimal", "--categories",
                           workdir / "hobbies.txt",
                           "--epsilon", math.log(4), "--delta", "0",
                           "--output", out_csv)
        payload = json.loads(out)
        assert code == 0
        assert payload["p"] == pytest.approx(1 / 8)
        assert payload["diagonal"] == pytest.approx(1 / 2)
        assert payload["degenerate"] is False
        rows = out_csv.read_text().splitlines()
        assert len(rows) == 5
        assert float(rows[0].split(",")[0]) == pytest.approx(0.5)

    def test_needs_categories_or_spec(self, capsys):
        # --categories is the one way to name the space; argparse refuses
        with pytest.raises(SystemExit) as exc:
            main(["optimal", "--epsilon", "1", "--delta", "0"])
        assert exc.value.code == 2
        assert "--categories" in capsys.readouterr().err


class TestInputFuzz:
    """Every input file, mutated, gives an exit code of the contract, with
    one short error line and never a traceback."""

    FILES = {
        "cats.txt": b"0\n1\n2\n",
        "m.csv": b"0.7,0.2,0.1\n0.1,0.8,0.1\n0.2,0.2,0.6\n",
        "t.csv": b"0,-1,-2\n-1,0,-1\n-2,-1,0\n",
        "data.csv": b"0\n2\n1\n1\n",
        "ham.spec": b"type = exponential\nutility = hamming\nk = 0.5\n"
                    b"categories = cats.txt\nn = 2\n",
        "l1.spec": b"type = exponential\nutility = l1\n"
                   b"categories = cats.txt\nn = 2\n",
        "sym.spec": b"type = product\np = 0.1\ncategories = cats.txt\nn = 2\n",
        "mat.spec": b"type = product\nmatrix = m.csv\ncategories = cats.txt\n"
                    b"n = 2\n",
        "tab.spec": b"type = exponential\nutility = table\ntable = t.csv\n"
                    b"categories = cats.txt\nn = 1\n",
    }
    #: bytes that are not UTF-8 (a lone continuation byte, a truncated
    #: sequence, an encoded surrogate) and a NUL
    INSERTS = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]

    @staticmethod
    @st.composite
    def cases(draw):
        files = dict(TestInputFuzz.FILES)
        command = draw(st.sampled_from(
            ["verify", "analyze", "convert", "sanitize"]))
        spec = draw(st.sampled_from(
            sorted(name for name in files if name.endswith(".spec"))))
        paths = {"spec": spec, "data": "data.csv"}
        argv = {
            "verify": ["verify", "--spec", "{spec}", "--epsilon", "0.4",
                       "--method", draw(st.sampled_from(
                           ["auto", "reduced", "brute"]))]
                      + draw(st.sampled_from([[], ["--exact"]])),
            "analyze": ["analyze", "--spec", "{spec}", "--epsilon", "0.4"],
            "convert": ["convert", "--spec", "{spec}"],
            "sanitize": ["sanitize", "--spec", "{spec}", "--data", "{data}",
                         "--seed", "1"],
        }[command]
        reads = [spec, "cats.txt"] + [
            name for name in ("m.csv", "t.csv") if name.encode()
            in files[spec]] + (["data.csv"] if command == "sanitize" else [])
        target = draw(st.sampled_from(reads))
        kind = draw(st.sampled_from(
            ["flip", "truncate", "insert", "long path", "nul path"]))
        if kind.endswith("path"):
            name = ("x" * 300 if kind == "long path"
                    else f"{target[:2]}\0{target[2:]}")
            if target in (spec, "data.csv"):        # a command-line path
                paths["spec" if target == spec else "data"] = name
            else:                                   # a spec's path value
                files[spec] = files[spec].replace(target.encode(),
                                                  name.encode())
        else:
            data = files[target]
            at = draw(st.integers(0, len(data) - 1))
            if kind == "flip":
                flipped = data[at] ^ draw(st.integers(1, 255))
                data = data[:at] + bytes([flipped]) + data[at + 1:]
            elif kind == "truncate":
                data = data[:at]
            else:
                data = data[:at] + draw(st.sampled_from(
                    TestInputFuzz.INSERTS)) + data[at:]
            files[target] = data
        return files, argv, paths

    @given(cases())
    @settings(max_examples=250, deadline=None, derandomize=True,
              database=None)
    def test_exit_code_is_in_the_contract(self, case):
        files, argv, paths = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                Path(tmp, name).write_bytes(data)
            argv = [a.format(**{key: os.path.join(tmp, value)
                                for key, value in paths.items()})
                    for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        assert len(err.encode()) < 1024
