"""Outputs and call contracts pinned across rewrites of the sanitize and
matrix-screening paths.

The sha256 digests were computed with the row-tuple sanitize path and the
subset-lattice batch margins.  A rewrite of either must reproduce them
byte for byte: the same uniforms, the same inverse-CDF rule, the same
labels, and the same feasibility verdicts.
"""

import contextlib
import csv
import hashlib
import io
import math

import numpy as np
import pytest

import dpcat.analysis
import dpcat.cli
import dpcat.kernels
import dpcat.verifier
from dpcat import PrivacyParams, sample_feasible_matrices
from dpcat.cli import main
from dpcat.specfile import load_spec_file

import _oracles


def _write_csv(path, records):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(records)
    path.write_text(buf.getvalue(), encoding="utf-8")


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(2024)

    # hamming, 4 categories, 100k headerless rows
    pets = ("cat", "dog", "fish", "bird")
    (root / "pets.txt").write_text("\n".join(pets) + "\n")
    rows = rng.integers(0, 4, 100_000)
    (root / "pets.csv").write_text("".join(f"{pets[r]}\n" for r in rows))
    # the same rows with CRLF line ends and no final newline
    (root / "pets_crlf.csv").write_bytes(
        (root / "pets.csv").read_bytes().replace(b"\n", b"\r\n")[:-2])
    (root / "hamming.spec").write_text(
        "type = exponential\nutility = hamming\nk = 0.9\n"
        "categories = pets.txt\nn = 1\n")

    # product with an asymmetric parent, read from a header column whose
    # labels need csv quoting
    colours = ("red, dark", "green", "blue")
    (root / "colours.txt").write_text("\n".join(colours) + "\n")
    (root / "parent.csv").write_text(
        "0.7,0.2,0.1\n0.05,0.9,0.05\n0.3,0.3,0.4\n")
    rows = rng.integers(0, 3, 20_000)
    _write_csv(root / "colours.csv",
               [("id", "colour", "note")]
               + [(i, colours[r], "x") for i, r in enumerate(rows)])
    (root / "product.spec").write_text(
        "type = product\nmatrix = parent.csv\n"
        "categories = colours.txt\nn = 1\n")

    # L1 on numeric categories
    (root / "cats.txt").write_text("0\n1\n2\n")
    rows = rng.integers(0, 3, 5_000)
    (root / "numbers.csv").write_text("".join(f"{r}\n" for r in rows))
    (root / "l1.spec").write_text(
        "type = exponential\nutility = l1\ncategories = cats.txt\nn = 1\n")

    # an explicit utility table over 2 categories and 3 rows
    (root / "yesno.txt").write_text("no\nyes\n")
    table = rng.uniform(-3.0, 0.0, (8, 8))
    (root / "table.csv").write_text(
        "".join(",".join(repr(float(x)) for x in row) + "\n"
                for row in table))
    (root / "yesno.csv").write_text("yes\nno\nyes\n")
    (root / "table.spec").write_text(
        "type = exponential\nutility = table\ntable = table.csv\n"
        "categories = yesno.txt\nn = 3\n")

    # product over labels of one width, 100k headerless rows: the shape of
    # the benchmark's sanitize requests
    (root / "c4.txt").write_text("c0\nc1\nc2\nc3\n")
    rows = rng.integers(0, 4, 100_000)
    (root / "c4.csv").write_text("".join(f"c{r}\n" for r in rows))
    (root / "product_c4.spec").write_text(
        "type = product\np = 0.15\ncategories = c4.txt\nn = 1\n")
    return root


SANITIZE_DIGESTS = {
    ("hamming.spec", "pets.csv", None, 11):
        "f9512f1afc14ff66ccc9aa7899cc1373f96ae9a2802b5368a03a1c96cf3aa97b",
    ("hamming.spec", "pets.csv", None, 7411):
        "65e3bc12c27c992adf8e4be6c82dc76c7b2195f1365037788309d01db8c37f0f",
    ("hamming.spec", "pets_crlf.csv", None, 11):
        "f9512f1afc14ff66ccc9aa7899cc1373f96ae9a2802b5368a03a1c96cf3aa97b",
    ("hamming.spec", "pets_crlf.csv", None, 7411):
        "65e3bc12c27c992adf8e4be6c82dc76c7b2195f1365037788309d01db8c37f0f",
    ("product.spec", "colours.csv", "colour", 11):
        "eb8342b201a153772d7992873050a40a92c6d7f157e617d31b217c0f3abec77d",
    ("product.spec", "colours.csv", "colour", 7411):
        "8a98a6f694ee54f0d43abde4df753e6e1621f09772a98c72a1e5d950b5a2ddce",
    ("l1.spec", "numbers.csv", None, 11):
        "82247c13f389a6c648431d99c3336a3a2a82e206eff31ac925b2378e47b5f3c8",
    ("l1.spec", "numbers.csv", None, 7411):
        "26255fb30c0ce4414275b59b8d3165c1c35daa8a6c43ddeff3090a5ea8bab196",
    ("table.spec", "yesno.csv", None, 11):
        "b708f87fb857aeb2f3c0c5c69db2df34edea9d7b760ea97b199f714ab832edfe",
    ("table.spec", "yesno.csv", None, 7411):
        "110a14d9b46455d763c24cd704e231189e4f2906f507f50d32f4533c045297ed",
    ("product_c4.spec", "c4.csv", None, 11):
        "2a379552b28190b96557ac585be8bd4c5c5d6731354dd3ac74e1ce007f58342f",
    ("product_c4.spec", "c4.csv", None, 7411):
        "3ce3e5ef5e85325eafc97b78f0c9f82d7c287316285165892e93d3794ac60bba",
}


@pytest.mark.parametrize("key", list(SANITIZE_DIGESTS),
                         ids=lambda k: f"{k[0]}-seed{k[3]}"
                         + ("-crlf" if "crlf" in k[1] else ""))
def test_sanitize_output_is_pinned(golden_dir, tmp_path, key):
    spec, data, column, seed = key
    out = tmp_path / "out.csv"
    argv = ["sanitize", "--spec", str(golden_dir / spec),
            "--data", str(golden_dir / data), "--seed", str(seed),
            "--output", str(out)]
    if column is not None:
        argv += ["--column", column]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SANITIZE_DIGESTS[key]


#: The (epsilon, delta, m) points of acceptance criterion 6.
CRITERION6_POINTS = (
    (math.log(2), 0.0, 1), (1.0, 0.0, 1), (1.0, 0.0, 2),
    (math.log(4), 0.0, 2), (1.0, 0.1, 2), (2.0, 0.0, 3),
    (math.log(4), 0.1, 3), (3.0, 0.0, 4),
)


def test_feasible_matrices_are_pinned():
    rng = np.random.default_rng(60606)
    h = hashlib.sha256()
    for eps, delta, m in CRITERION6_POINTS:
        mats = sample_feasible_matrices(m, PrivacyParams(eps, delta), 1_000,
                                        rng, batch=5_000, max_batches=200)
        h.update(repr(mats.shape).encode())
        h.update(np.ascontiguousarray(mats, dtype="<f8").tobytes())
    assert h.hexdigest() == (
        "75eaacc377ff816142e3c47e969e9d7918c9cfcdf221e6f3a1f67b3dc990cf7f")


class _Counting:
    """Wraps a function, recording each call's arguments and result."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        result = self.fn(*args, **kwargs)
        self.calls.append((args, result))
        return result


class _CountingRng:
    """A generator whose standard exponential draws (one per batch) are
    counted."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.batches = 0

    def standard_exponential(self, *args, **kwargs):
        self.batches += 1
        return self.rng.standard_exponential(*args, **kwargs)


def test_batch_margins_match_the_full_square_on_the_criterion6_stream(
        monkeypatch):
    # every batch the pinned criterion-6 stream screens gets bit-identical
    # margins from the s(s - 1)-pair form and the masked s^2 form
    screen = dpcat.analysis.batch_matrix_margins
    screened = []

    def checked(mats, params):
        margins = screen(mats, params)
        assert np.array_equal(margins, _oracles.batch_margins_full_square(
            mats, math.exp(params.epsilon), params.delta))
        screened.append(mats.shape[0])
        return margins

    monkeypatch.setattr(dpcat.analysis, "batch_matrix_margins", checked)
    rng = np.random.default_rng(60606)
    for eps, delta, m in CRITERION6_POINTS:
        sample_feasible_matrices(m, PrivacyParams(eps, delta), 1_000, rng,
                                 batch=5_000, max_batches=200)
    assert len(screened) >= len(CRITERION6_POINTS)


def test_sanitize_never_builds_row_tuples(golden_dir, tmp_path,
                                          monkeypatch):
    draw = _Counting(dpcat.cli.sample)
    monkeypatch.setattr(dpcat.cli, "sample", draw)
    for spec, data in (("hamming.spec", "pets_crlf.csv"),
                       ("l1.spec", "numbers.csv")):
        assert main(["sanitize", "--spec", str(golden_dir / spec),
                     "--data", str(golden_dir / data), "--seed", "1",
                     "--output", str(tmp_path / "out.csv")]) == 0
    for (_, d, _), result in draw.calls:
        assert "rows" not in vars(d) and "rows" not in vars(result)


def test_traced_entry_points_are_called_through_their_modules(
        golden_dir, tmp_path, monkeypatch):
    # The benchmark's tracer wraps these module attributes; a refactor that
    # stops calling through them would silently drop its spans and counts.
    load = _Counting(dpcat.cli.load_database_csv)
    draw = _Counting(dpcat.cli.sample)
    margins = _Counting(dpcat.analysis.batch_matrix_margins)
    monkeypatch.setattr(dpcat.cli, "load_database_csv", load)
    monkeypatch.setattr(dpcat.cli, "sample", draw)
    monkeypatch.setattr(dpcat.analysis, "batch_matrix_margins", margins)

    assert main(["sanitize", "--spec", str(golden_dir / "l1.spec"),
                 "--data", str(golden_dir / "numbers.csv"), "--seed", "3",
                 "--output", str(tmp_path / "out.csv")]) == 0
    assert len(load.calls) == 1 and len(draw.calls) == 1
    assert draw.calls[0][0][1].n == 5_000

    # main() has now built its parser; wrappers installed after that must
    # still be the functions it calls
    spec_loads = _Counting(dpcat.cli.load_spec_file)
    monkeypatch.setattr(dpcat.cli, "load_spec_file", spec_loads)
    for method, name in (("reduced", "verify_reduced"),
                         ("brute", "verify_bruteforce"),
                         ("auto", "verify_matrix")):
        verify = _Counting(getattr(dpcat.cli, name))
        monkeypatch.setattr(dpcat.cli, name, verify)
        assert main(["verify", "--spec", str(golden_dir / "hamming.spec"),
                     "--epsilon", "1", "--method", method]) == 0
        assert len(verify.calls) == 1, name
    assert len(spec_loads.calls) == 3

    # brute force scans the ordered pairs through the kernel module in
    # chunks, one call each, with pair p's pmf rows in column p: the tracer
    # reads the scan width as len(args[0]).  A pair's half tables hold
    # 2^2 entries at 4 states, so 3 << 2 entries make chunks of 3 pairs.
    spec = load_spec_file(golden_dir / "hamming.spec")
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    for entries, n_calls in ((dpcat.verifier._SCAN_ENTRIES, 1), (3 << 2, 4)):
        monkeypatch.setattr(dpcat.verifier, "_SCAN_ENTRIES", entries)
        scans = _Counting(dpcat.kernels.subset_scan)
        monkeypatch.setattr(dpcat.kernels, "subset_scan", scans)
        assert main(["verify", "--spec", str(golden_dir / "hamming.spec"),
                     "--epsilon", "1", "--method", "brute"]) == 0
        assert len(scans.calls) == n_calls
        assert all(len(args[0]) == spec.state_count
                   for args, _ in scans.calls)
        for side in (0, 1):
            np.testing.assert_array_equal(
                np.hstack([args[side] for args, _ in scans.calls]),
                np.array([spec.pmf_row(pair[side]) for pair in pairs]).T)

    rng = _CountingRng(5)
    mats = sample_feasible_matrices(2, PrivacyParams(1.0, 0.0), 500, rng,
                                    batch=1_000)
    assert mats.shape == (500, 3, 3)
    # only singleton-screen survivors reach the exact screen, at most one
    # batch's worth per call
    assert rng.batches >= 2
    assert 1 <= len(margins.calls) <= rng.batches
    assert all(result.shape[0] <= 1_000 for _, result in margins.calls)


#: Spec kinds, methods and (epsilon, delta) points of the pinned verify
#: grid; the first point is generous and the second strict, so most specs
#: are private at one and not at the other.
VERIFY_KINDS = ("hamming", "l1", "symmetric", "dirichlet", "zeros", "table")
VERIFY_METHODS = ("reduced", "reduced-exact", "brute", "auto")
VERIFY_POINTS = (("3.0", "0.1"), ("0.1", "0"))


def _parent_with_zeros(rng, size: int) -> np.ndarray:
    """A Dirichlet parent whose even rows drop the column one past their
    own, so rows release different numbers of categories."""
    mat = rng.dirichlet(np.ones(size), size=size)
    for r in range(0, size, 2):
        mat[r, (r + 1) % size] = 0.0
    return mat / mat.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def verify_grid(tmp_path_factory):
    """Spec files for every kind at m = 1-3 and n = 1-4, keyed by
    (kind, m, n)."""
    root = tmp_path_factory.mktemp("verify-grid")
    specs = {}
    for m in (1, 2, 3):
        size = m + 1
        (root / f"cats{m}.txt").write_text(
            "".join(f"c{i}\n" for i in range(size)))
        rng = np.random.default_rng(500 + m)
        for name, mat in (("dirichlet", rng.dirichlet(np.ones(size),
                                                      size=size)),
                          ("zeros", _parent_with_zeros(rng, size))):
            _write_csv(root / f"{name}{m}.csv",
                       [[repr(float(x)) for x in row] for row in mat])
        for n in (1, 2, 3, 4):
            table = np.random.default_rng(100 * m + n).uniform(
                -3.0, 0.0, (size ** n, size ** n))
            _write_csv(root / f"table{m}_{n}.csv",
                       [[repr(float(x)) for x in row] for row in table])
            lines = {
                "hamming": "type = exponential\nutility = hamming\nk = 1.0",
                "l1": "type = exponential\nutility = l1",
                "symmetric": "type = product\np = 0.15",
                "dirichlet": f"type = product\nmatrix = dirichlet{m}.csv",
                "zeros": f"type = product\nmatrix = zeros{m}.csv",
                "table": ("type = exponential\nutility = table\n"
                          f"table = table{m}_{n}.csv"),
            }
            for kind, body in lines.items():
                path = root / f"{kind}{m}_{n}.spec"
                path.write_text(f"{body}\ncategories = cats{m}.txt\nn = {n}\n")
                specs[kind, m, n] = path
    return specs


def _verify_digest(specs, kind: str, method: str) -> str:
    """sha256 over the grid of each verify call's stdout and exit code."""
    h = hashlib.sha256()
    for (k, m, n), path in specs.items():
        if k != kind:
            continue
        for eps, delta in VERIFY_POINTS:
            argv = ["verify", "--spec", str(path), "--epsilon", eps,
                    "--delta", delta, "--method", method.split("-")[0]]
            if method.endswith("exact"):
                argv.append("--exact")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            h.update(f"{m} {n} {eps} {delta} {code}\n".encode())
            h.update(out.getvalue().encode())
    return h.hexdigest()


#: Digests of the verify grid, computed before the sufficient set, the
#: parent gap test and DatabaseSet were each reduced to one form.
VERIFY_DIGESTS = {
    ('hamming', 'reduced'):
        '7a30ceacf3a882be6cc9c012335861625fa2961033d7fd7c183cf59da766a17f',
    ('hamming', 'reduced-exact'):
        'b58d434c6bbea46f3c81b314198865dee487e339a7303785a29306a619a24a34',
    ('hamming', 'brute'):
        'b9e6327b107ee7d5d2c4ece500b1356a8ecf00f1eaa7eea784872be4fe58a953',
    ('hamming', 'auto'):
        'de88ec16e8d2beff013f0cfc31d0b62b47fe5003069144a1e736dc300a341e55',
    ('l1', 'reduced'):
        '608ff0431f738dabd28a4e0771746c691163cbd0b3c58b48782bf3b8721c6263',
    ('l1', 'reduced-exact'):
        '41429bd8d8438a8d75341b77afbeae7328e8eaa8dd60ab1898a87fea1d6550b6',
    ('l1', 'brute'):
        '8f94656b97d997da85aaab6f51c61fcb8cdef95f3387d3014fa78050a8054a73',
    ('l1', 'auto'):
        '0dfd08924a890d6ae46393990bdcae8d3d8f971fb8a300a04f05950668539940',
    ('symmetric', 'reduced'):
        '935a8a4a09d705a981ac4757efa5450132f6f42e921fb95094f185f6046eac50',
    ('symmetric', 'reduced-exact'):
        'ddf9efa490d1767a6ced75ebb2f57be5923f29b12e0cd08f97affc34aba9f40b',
    ('symmetric', 'brute'):
        'fff936cc55e44c69f9896a5b5a60f1eebd042acf958777a2a97d104d24ff32a2',
    ('symmetric', 'auto'):
        'ed8b1ceafeaee8d26ed664525eff1d582af9f2b8b8ae553b18bb693285c5e5fe',
    ('dirichlet', 'reduced'):
        '7c5c5738ae6a15d28495809fa8bc8ca78b0d06b9172ca1d855f0359ad4bc9bd0',
    ('dirichlet', 'reduced-exact'):
        'bc1382e688901f71bc76d924c81b3e3f64e8c5f4181f5eaaa8dd5fcde1f7f15d',
    ('dirichlet', 'brute'):
        '98bafa546db3dc8d21cd8d18bd229bd61afc06e17788329c5a6def4a3463519f',
    ('dirichlet', 'auto'):
        '139b62d5ec3f79ed31e63e3b5e4d0ff86fef42802ae2255fda95363930f05c13',
    ('zeros', 'reduced'):
        'f2ea230dcf4c203c76c8c3d874c60e0b0d04125b149417c81769831278979481',
    ('zeros', 'reduced-exact'):
        'c15a3beff7691827dbcf3c4d22d0be1b86eebe45a85cc0a3259adb46dcde1c8a',
    ('zeros', 'brute'):
        '495712ebb39bdb54bbf0b3d5bcd4734ca0773a8ae8fa95a80be2cecfab295872',
    ('zeros', 'auto'):
        '59e11cf76a029ebfeebc20fe529aafb28ffeded15058b52ea8916546f6dadd3c',
    ('table', 'reduced'):
        '38c353a46db89684571f1081958af528c092366a9a2e23f4f8f622437ccf54e8',
    ('table', 'brute'):
        '758b697ed9ab23157806e965bd8a804d6a0972eefc17e210eb0c2f56cb350a58',
    ('table', 'auto'):
        '38c353a46db89684571f1081958af528c092366a9a2e23f4f8f622437ccf54e8',
}


@pytest.mark.parametrize("kind,method", [
    (kind, method) for kind in VERIFY_KINDS for method in VERIFY_METHODS
    if not (kind == "table" and method == "reduced-exact")],
    ids=lambda x: x)
def test_verify_output_is_pinned(verify_grid, kind, method):
    assert _verify_digest(verify_grid, kind, method) \
        == VERIFY_DIGESTS[kind, method]
