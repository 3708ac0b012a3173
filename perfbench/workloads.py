"""Inputs and request lists for the benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the
same spec, table, matrix, category and data files and yields the same
request list.  Only parameter values and file contents vary with the seed;
the number of requests of each size class is fixed, so the cost of a pass
does not depend on the seed.

Each request carries ``call`` (what the worker runs, JSON-serialisable) and
``check`` (what the oracle needs, kept in the parent process).  The
generator uses NumPy only, never the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

#: A float request is generated only when its verdict is this far from the
#: boundary, in probability units (delta - hockey-stick divergence), so no
#: check has to call a knife-edge case through float rounding.
EDGE_DELTA = 1e-9

#: At delta = 0 a private verdict has zero divergence; there the distance
#: to the boundary is measured in epsilon instead.
EDGE_EPS = 1e-6


@dataclass
class Request:
    label: str          # size class, e.g. "hamming m=2 n=5"
    call: dict          # {"argv": [...]} or {"feasible": {...}}
    check: dict = field(default_factory=dict)


# -- mechanism algebra used to keep requests off the knife edge -------------

def symmetric(m: int, p: float) -> np.ndarray:
    """Parent matrix with diagonal 1 - m*p and off-diagonal p."""
    mat = np.full((m + 1, m + 1), p)
    np.fill_diagonal(mat, 1.0 - m * p)
    return mat


def l1_parent(m: int) -> np.ndarray:
    """One-row parent of the negative-L1 exponential mechanism:
    M[a, b] proportional to e^{-|a - b|}.  The n-row mechanism is the
    n-fold product of this matrix, since the utility is a sum over rows."""
    idx = np.arange(m + 1)
    w = np.exp(-np.abs(idx[:, None] - idx[None, :]).astype(float))
    return w / w.sum(axis=1, keepdims=True)


def parent_pairs(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (M[a], M[b]) for every ordered pair of distinct categories."""
    a, b = np.nonzero(~np.eye(mat.shape[0], dtype=bool))
    return mat[a], mat[b]


def table_pmf(table: np.ndarray) -> np.ndarray:
    """Row-wise softmax: P[i, j] = e^{u(i, j)} / sum_c e^{u(i, c)}."""
    z = table - table.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def neighbor_index_pairs(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical indices (a, b) of every ordered neighbor pair: databases
    in base-(m+1) order, row 0 most significant, differing in one row."""
    size = (m + 1) ** n
    ia, ib = [], []
    for a in range(size):
        for i in range(n):
            place = (m + 1) ** (n - 1 - i)
            digit = (a // place) % (m + 1)
            for v in range(m + 1):
                if v != digit:
                    ia.append(a)
                    ib.append(a + (v - digit) * place)
    return np.asarray(ia), np.asarray(ib)


def clear_of_edge(rows_a, rows_b, eps: float, delta: float) -> bool:
    """True when (eps, delta) is decisively on one side of the boundary.

    The mechanism is private iff delta >= max over pairs of the hockey-stick
    divergence H = sum_x max(0, p_a(x) - e^eps p_b(x)).
    """
    e_eps = math.exp(eps)
    worst = float(np.max(np.maximum(rows_a - e_eps * rows_b, 0.0).sum(axis=1)))
    if worst > delta + EDGE_DELTA:
        return True
    if delta > 0:
        return worst < delta - EDGE_DELTA
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rows_a > 0, np.log(rows_a) - np.log(rows_b), -np.inf)
    return eps > float(np.max(ratio)) + EDGE_EPS


# -- files -------------------------------------------------------------------

class Inputs:
    """Writes one workload's input files under ``root``."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self._count = 0
        (root / "out").mkdir(parents=True, exist_ok=True)

    def _name(self, stem: str, suffix: str) -> Path:
        self._count += 1
        return self.root / f"{stem}{self._count:04d}{suffix}"

    def categories(self, m: int) -> Path:
        path = self.root / f"categories{m}.txt"
        if not path.exists():
            path.write_text("".join(f"c{i}\n" for i in range(m + 1)),
                            encoding="utf-8")
        return path

    def spec(self, m: int, n: int, *lines: str) -> str:
        path = self._name("spec", ".spec")
        body = list(lines) + [f"categories = {self.categories(m).name}",
                              f"n = {n}"]
        path.write_text("\n".join(body) + "\n", encoding="utf-8")
        return str(path)

    def csv(self, stem: str, rows) -> Path:
        path = self._name(stem, ".csv")
        path.write_text("".join(",".join(row) + "\n" for row in rows),
                        encoding="utf-8")
        return path

    def float_csv(self, stem: str, values: np.ndarray) -> Path:
        return self.csv(stem, ([repr(float(x)) for x in row] for row in values))

    def data(self, rows: np.ndarray) -> Path:
        return self.csv("data", ([f"c{int(v)}"] for v in rows))

    def output(self) -> str:
        return str(self._name("out/sanitized", ".csv"))

    # -- random parameters --------------------------------------------------

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def privacy(self, rows_a, rows_b, *, zero_delta: bool | None = None):
        """Draw (eps, delta) clear of the privacy boundary for these pairs.
        Half the draws use delta = 0 unless ``zero_delta`` pins it."""
        while True:
            eps = self.uniform(0.05, 3.0)
            use_zero = (self.rng.random() < 0.5 if zero_delta is None
                        else zero_delta)
            delta = 0.0 if use_zero else self.uniform(0.001, 0.3)
            if clear_of_edge(rows_a, rows_b, eps, delta):
                return eps, delta


def _pairs(m: int, n: int) -> int:
    """Ordered neighbour pairs: n rows, each changed to one of m values."""
    return n * m * (m + 1) ** n


def _verify_argv(spec: str, eps: float, delta: float, method: str,
                 exact: bool = False) -> dict:
    argv = ["verify", "--spec", spec, "--epsilon", repr(eps),
            "--delta", repr(delta), "--method", method]
    if exact:
        argv.append("--exact")
    return {"argv": argv}


# -- request builders shared by the verify workloads -------------------------

def hamming_verify(inp: Inputs, m: int, n: int, method: str,
                   exact: bool = False) -> Request:
    k = inp.uniform(0.1, 3.0)
    eps, delta = inp.privacy(*parent_pairs(symmetric(m, 1 / (math.exp(k) + m))))
    spec = inp.spec(m, n, "type = exponential", "utility = hamming",
                    f"k = {k!r}")
    # The reduced verifier checks one set per pair for hamming specs.
    return Request(f"hamming m={m} n={n} {method}{' exact' if exact else ''}",
                   _verify_argv(spec, eps, delta, method, exact),
                   {"type": "hamming", "m": m, "k": k, "eps": eps,
                    "delta": delta, "exact": exact,
                    "checks": _pairs(m, n) if method == "reduced" else None})


def product_verify(inp: Inputs, m: int, n: int, method: str) -> Request:
    p = inp.uniform(0.01, 1 / (m + 1))
    eps, delta = inp.privacy(*parent_pairs(symmetric(m, p)))
    spec = inp.spec(m, n, "type = product", f"p = {p!r}")
    return Request(f"product m={m} n={n} {method}",
                   _verify_argv(spec, eps, delta, method),
                   {"type": "product", "m": m, "p": p, "p_exact": None,
                    "eps": eps, "delta": delta, "exact": False,
                    "checks": _pairs(m, n) if method == "reduced" else None})


def product_matrix_exact_verify(inp: Inputs, m: int, n: int) -> Request:
    """Symmetric product given as a matrix CSV of short decimals, so the
    rationals parsed in exact mode are exactly 1 - m*p and p."""
    top = int(Decimal(10000) / (m + 1))
    p = Decimal(int(inp.rng.integers(100, top))) / 10000
    diag = 1 - m * p
    rows = [[str(diag if i == j else p) for j in range(m + 1)]
            for i in range(m + 1)]
    eps, delta = inp.privacy(*parent_pairs(symmetric(m, float(p))))
    matrix = inp.csv("matrix", rows)
    spec = inp.spec(m, n, "type = product", f"matrix = {matrix.name}")
    return Request(f"product-matrix m={m} n={n} reduced exact",
                   _verify_argv(spec, eps, delta, "reduced", exact=True),
                   {"type": "product", "m": m, "p": float(p),
                    "p_exact": str(p), "eps": eps, "delta": delta,
                    "exact": True, "checks": _pairs(m, n)})


def asymmetric_verify(inp: Inputs, m: int, n: int, method: str) -> Request:
    mat = inp.rng.dirichlet(np.ones(m + 1), size=m + 1)
    eps, delta = inp.privacy(*parent_pairs(mat))
    matrix = inp.float_csv("matrix", mat)
    spec = inp.spec(m, n, "type = product", f"matrix = {matrix.name}")
    return Request(f"asymmetric m={m} n={n} {method}",
                   _verify_argv(spec, eps, delta, method),
                   {"type": "parent", "matrix": mat, "eps": eps,
                    "delta": delta})


def l1_verify(inp: Inputs, m: int, n: int, method: str,
              checks: int | None = None) -> Request:
    eps, delta = inp.privacy(*parent_pairs(l1_parent(m)))
    spec = inp.spec(m, n, "type = exponential", "utility = l1")
    return Request(f"l1 m={m} n={n} {method}",
                   _verify_argv(spec, eps, delta, method),
                   {"type": "parent", "matrix": l1_parent(m), "eps": eps,
                    "delta": delta, "checks": checks})


def table_verify(inp: Inputs, m: int, n: int, method: str,
                 circulant: bool = False) -> Request:
    """Random utility table; a circulant one (u(i, j) depends only on
    (j - i) mod size) has the same normaliser in every row, so it may
    assert fixed_c and, at delta = 0, takes the partition route."""
    size = (m + 1) ** n
    if circulant:
        c = inp.rng.uniform(-3.0, 0.0, size)
        idx = np.arange(size)
        table = c[(idx[None, :] - idx[:, None]) % size]
    else:
        table = inp.rng.uniform(-3.0, 0.0, (size, size))
    pmf = table_pmf(table)
    ia, ib = neighbor_index_pairs(m, n)
    eps, delta = inp.privacy(pmf[ia], pmf[ib],
                             zero_delta=True if circulant else None)
    path = inp.float_csv("table", table)
    lines = ["type = exponential", "utility = table", f"table = {path.name}"]
    if circulant:
        lines.append("fixed_c = true")
    spec = inp.spec(m, n, *lines)
    kind = "circulant" if circulant else "table"
    return Request(f"{kind} m={m} n={n} {method}",
                   _verify_argv(spec, eps, delta, method),
                   {"type": "table", "m": m, "n": n, "table": table,
                    "fixed_c": circulant, "eps": eps, "delta": delta,
                    "method": method})


# -- workloads ----------------------------------------------------------------

# Request mixes.  Each workload is a fixed number of requests per size
# class.  Classes of similar cost form blocks, and the counts put the median
# and the 90th percentile of request latency well inside one block each, so
# neither percentile sits on the edge between two classes of different cost.


def verify_enum(inp: Inputs) -> list[Request]:
    """The paper's one-check-per-pair reduction over the enumerated space.

    110 requests: 94 at about 55 ms (hamming n=5, exact product n=3) hold
    the median; 9 at about 95 ms (product n=5, exact hamming n=3) hold the
    90th percentile; 7 heavy ones (n=6, n=7, m=3 n=5, m=1 n=10, exact
    product n=4) are above it and take half the pass.
    """
    reqs = []
    for _ in range(47):
        reqs.append(hamming_verify(inp, 2, 5, "reduced"))
        reqs.append(product_matrix_exact_verify(inp, 2, 3))
    for _ in range(5):
        reqs.append(product_verify(inp, 2, 5, "reduced"))
    for _ in range(4):
        reqs.append(hamming_verify(inp, 2, 3, "reduced", exact=True))
    for n in (6, 7):
        reqs.append(hamming_verify(inp, 2, n, "reduced"))
        reqs.append(product_verify(inp, 2, n, "reduced"))
    reqs.append(hamming_verify(inp, 3, 5, "reduced"))
    reqs.append(product_verify(inp, 1, 10, "reduced"))
    reqs.append(product_matrix_exact_verify(inp, 2, 4))
    return reqs


def verify_scan(inp: Inputs) -> list[Request]:
    """Subset enumeration in the kernel: brute force and general sets.

    176 requests: 110 cheap ones (reduced on 8- and 9-state tables,
    circulant tables, auto on asymmetric products, the paper's example)
    hold the median; 18 brute-force runs over 16 states with m=3 hold the
    90th percentile; L1 at m=1 n=5 is above it.
    """
    reqs = []
    for m, n in ((1, 4), (3, 2)):            # 16 states each
        for _ in range(6):
            reqs.append(table_verify(inp, m, n, "brute"))
            reqs.append(hamming_verify(inp, m, n, "brute"))
            reqs.append(asymmetric_verify(inp, m, n, "brute"))
    for m, n in ((2, 3), (4, 2), (1, 5)):
        for _ in range(10):
            reqs.append(l1_verify(inp, m, n, "auto"))
    for m, n in ((1, 3), (2, 2)):            # 8 and 9 states
        for _ in range(25):
            reqs.append(table_verify(inp, m, n, "reduced"))
    for m, n in ((1, 3), (2, 2), (1, 4)):
        for _ in range(6):
            reqs.append(table_verify(inp, m, n, "reduced", circulant=True))
    for i in range(30):
        reqs.append(asymmetric_verify(inp, 1 + i % 4, 2 + i % 5, "auto"))
    for _ in range(12):
        # The paper's 3-category, 2-row L1 example.  Ties are ties, so the
        # verified workload is 924 checks (24 pairs x 7 + 12 pairs x 63).
        reqs.append(l1_verify(inp, 2, 2, "reduced", checks=924))
    return reqs


#: (epsilon, delta, m) at which acceptance criterion 6 searches for a
#: feasible matrix that beats the optimal one.
CRITERION6_POINTS = (
    (math.log(2), 0.0, 1), (1.0, 0.0, 1), (1.0, 0.0, 2),
    (math.log(4), 0.0, 2), (1.0, 0.1, 2), (2.0, 0.0, 3),
    (math.log(4), 0.1, 3), (3.0, 0.0, 4),
)


def sanitize_analyze(inp: Inputs) -> list[Request]:
    """Sampling, CSV I/O and error analysis; no verification at all.

    146 requests: 110 closed-form analyze and optimal requests hold the
    median; 16 sanitize runs over 100k-row files hold the 90th percentile;
    8 heavier ones (L1 sanitize at n=12, L1 analyze at n=7, the larger
    feasible-matrix searches) are above it.
    """
    reqs = []
    rng = inp.rng
    data = {}
    for m in (2, 3):
        weights = rng.dirichlet(np.ones(m + 1))
        rows = rng.choice(m + 1, size=100_000, p=weights)
        data[m] = (inp.data(rows), rows)
    for i in range(16):
        m = 2 + i % 2
        path, rows = data[m]
        if i % 4 < 2:
            k = inp.uniform(0.1, 3.0)
            p = 1 / (math.exp(k) + m)
            spec = inp.spec(m, 1, "type = exponential", "utility = hamming",
                            f"k = {k!r}")
            label = f"sanitize hamming m={m} rows=100000"
        else:
            p = inp.uniform(0.01, 1 / (m + 1))
            spec = inp.spec(m, 1, "type = product", f"p = {p!r}")
            label = f"sanitize product m={m} rows=100000"
        reqs.append(_sanitize(inp, label, spec, path, rows,
                              np.diag(symmetric(m, p))))
    for n in (10, 11, 12, 10, 11, 12):
        rows = rng.integers(0, 3, n)
        spec = inp.spec(2, 1, "type = exponential", "utility = l1")
        reqs.append(_sanitize(inp, f"sanitize l1 m=2 rows={n}", spec,
                              inp.data(rows), rows, np.diag(l1_parent(2))))
    for i in range(30):
        m, n = 1 + i % 4, int(rng.integers(5, 60))
        k = inp.uniform(0.1, 3.0)
        spec = inp.spec(m, n, "type = exponential", "utility = hamming",
                        f"k = {k!r}")
        reqs.append(_analyze(inp, f"analyze hamming m={m}", spec,
                             n / (1 + math.exp(k) / m)))
        p = inp.uniform(0.01, 1 / (m + 1))
        spec = inp.spec(m, n, "type = product", f"p = {p!r}")
        reqs.append(_analyze(inp, f"analyze product m={m}", spec, n * m * p))
    for n in (6, 6, 6, 6, 7, 7):
        spec = inp.spec(2, n, "type = exponential", "utility = l1")
        worst = n * float(np.max(1.0 - np.diag(l1_parent(2))))
        reqs.append(_analyze(inp, f"analyze l1 m=2 n={n}", spec, worst))
    for i in range(50):
        m = 1 + i % 4
        eps, delta = inp.uniform(0.05, 3.0), inp.uniform(0.0, 0.5)
        reqs.append(Request(
            f"optimal m={m}",
            {"argv": ["optimal", "--categories", str(inp.categories(m)),
                      "--epsilon", repr(eps), "--delta", repr(delta)]},
            {"type": "optimal", "m": m,
             "p": (1 - delta) / (math.exp(eps) + m)}))
    for eps, delta, m in CRITERION6_POINTS:
        reqs.append(Request(
            f"feasible m={m}",
            {"feasible": {"m": m, "epsilon": eps, "delta": delta,
                          "count": 10_000, "batch": 20_000,
                          "max_batches": 200,
                          "seed": int(rng.integers(2 ** 31))}},
            {"type": "feasible", "m": m, "eps": eps, "delta": delta,
             "count": 10_000}))
    return reqs


def _sanitize(inp: Inputs, label: str, spec: str, data: Path,
              rows: np.ndarray, keep: np.ndarray) -> Request:
    out = inp.output()
    seed = int(inp.rng.integers(2 ** 31))
    return Request(label,
                   {"argv": ["sanitize", "--spec", spec, "--data", str(data),
                             "--seed", str(seed), "--output", out]},
                   {"type": "sanitize", "output": out, "rows": rows,
                    "keep": keep})


def _analyze(inp: Inputs, label: str, spec: str, expected: float) -> Request:
    eps, delta = inp.uniform(0.05, 3.0), inp.uniform(0.0, 0.5)
    return Request(label,
                   {"argv": ["analyze", "--spec", spec, "--epsilon", repr(eps),
                             "--delta", repr(delta)]},
                   {"type": "analyze", "expected": expected})


_BUILDERS = {
    "verify-enum": verify_enum,
    "verify-scan": verify_scan,
    "sanitize-analyze": sanitize_analyze,
}


def build(workload: str, seed: int, root: Path) -> list[Request]:
    """Write the workload's input files under ``root`` and return its
    request list.  The classes are interleaved by one fixed permutation,
    the same for every seed, so the order of sizes never varies."""
    reqs = _BUILDERS[workload](Inputs(root, seed))
    order = np.random.default_rng(0).permutation(len(reqs))
    return [reqs[i] for i in order]
