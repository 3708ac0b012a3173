"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: plain Python loops, direct summation,
itertools over subsets.  None of it shares code with the package paths it
checks.
"""

import csv
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np


def all_dbs(size: int, n: int):
    """All row tuples in canonical order (row 0 most significant)."""
    return list(itertools.product(range(size), repeat=n))


def ordered_neighbor_pairs(size: int, n: int):
    pairs = []
    for d in all_dbs(size, n):
        for i in range(n):
            for v in range(size):
                if v != d[i]:
                    dp = list(d)
                    dp[i] = v
                    pairs.append((d, tuple(dp)))
    return pairs


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def pmf_table_from_utility(size: int, n: int, u):
    """{d: {d*: prob}} by direct normalisation of e^u, no log tricks."""
    dbs = all_dbs(size, n)
    table = {}
    for d in dbs:
        weights = {x: math.exp(u(d, x)) for x in dbs}
        total = sum(weights.values())
        table[d] = {x: w / total for x, w in weights.items()}
    return table


def product_pmf_table(matrix, n: int):
    size = len(matrix)
    dbs = all_dbs(size, n)
    table = {}
    for d in dbs:
        table[d] = {}
        for x in dbs:
            prob = 1.0
            for a, b in zip(d, x):
                prob *= matrix[a][b]
            table[d][x] = prob
    return table


def subset_scan_literal(p_a, p_b, e_eps, delta, include_full):
    """Margin minimum by materialising every subset with itertools."""
    k = len(p_a)
    best = math.inf
    checks = 0
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            if r == k and not include_full:
                continue
            checks += 1
            margin = (e_eps * sum(p_b[i] for i in combo) + delta
                      - sum(p_a[i] for i in combo))
            best = min(best, margin)
    return best, checks


def bruteforce_verdict(pmf_table, size, n, e_eps, delta, tol=1e-12):
    """Canonical margin by literal enumeration: delta (the empty set) or
    less, over every pair and every nonempty subset."""
    dbs = all_dbs(size, n)
    worst = delta
    for d, dp in ordered_neighbor_pairs(size, n):
        pa = [pmf_table[d][x] for x in dbs]
        pb = [pmf_table[dp][x] for x in dbs]
        margin, _ = subset_scan_literal(pa, pb, e_eps, delta,
                                        include_full=True)
        worst = min(worst, margin)
    return worst >= -tol, worst


def canonical_margin(pmf_table, size, n, e_eps, delta):
    """delta minus the largest hockey-stick divergence
    sum_x max(0, p_d(x) - e^eps * p_d'(x)) over ordered neighbour pairs:
    the minimum margin over every pair and every output set."""
    dbs = all_dbs(size, n)
    worst = 0.0
    for d, dp in ordered_neighbor_pairs(size, n):
        worst = max(worst, sum(max(0.0, pmf_table[d][x]
                                   - e_eps * pmf_table[dp][x]) for x in dbs))
    return delta - worst


def matrix_margin_literal(matrix, e_eps, delta):
    """Canonical margin of a parent matrix: delta (the empty set) or less,
    over every ordered pair of distinct rows and every nonempty subset of
    the categories, via itertools."""
    best = delta
    for i, j in itertools.permutations(range(len(matrix)), 2):
        margin, _ = subset_scan_literal(matrix[i], matrix[j], e_eps, delta,
                                        include_full=True)
        best = min(best, margin)
    return best


def batch_margins_full_square(mats, e_eps, delta):
    """Batch margins over all s^2 ordered category pairs, the diagonal
    masked to inf: the form batch_matrix_margins had before it formed only
    the s(s - 1) distinct pairs, kept to pin its arithmetic bit for bit."""
    mats = np.asarray(mats, dtype=np.float64)
    size = mats.shape[-1]
    cols = np.ascontiguousarray(mats.transpose(2, 1, 0))      # [x, i, b]
    margins = np.zeros((size, size, mats.shape[0]))           # [i, j, b]
    for col in cols:
        margins += np.minimum(e_eps * col[None, :, :] - col[:, None, :], 0.0)
    margins += delta
    margins[np.eye(size, dtype=bool)] = np.inf
    return margins.min(axis=(0, 1))


def _echo(field):
    """An error message's quote of a field: its first 80 characters, and
    its length when it is longer."""
    if len(field) <= 80:
        return repr(field)
    return f"{field[:80]!r}... ({len(field)} characters)"


def load_csv_labels_literal(path, labels, column=None):
    """Category indices of a data CSV by the row-by-row ``csv.reader``
    loop: (indices, None), or (None, the DataFormatError text)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lineno = 0
        if column is not None:
            header = next(reader, None)
            if header is None:
                return None, f"{path}: empty data file"
            if column not in header:
                names = ", ".join(map(_echo, header))
                return None, (f"{path}: no column named {column!r} "
                              f"in header [{names}]")
            col = header.index(column)
            lineno = 1
        else:
            col = 0
        out = []
        for record in reader:
            lineno += 1
            if not record:
                continue
            if col >= len(record):
                return None, (f"{path}: row {lineno}: no value in column "
                              f"{column!r}")
            value = record[col].strip()
            if value not in labels:
                return None, (f"{path}: row {lineno}: unknown category "
                              f"label {_echo(value)}")
            out.append(labels.index(value))
    if not out:
        return None, f"{path}: no data rows found"
    return out, None


def parent_route_fraction(weights, n, e_eps, delta):
    """The exact verdict of a product spec from its parent, by the
    ``Fraction`` loop the package's exact parent route once ran.

    weights holds the parent's rows as Fractions.  For neighbours differing
    in one row with values u and v, the worst set is the cylinder over
    A1 = {c : M[u, c] > e^eps * M[v, c]}, with margin
    e^eps * B * R + delta - A * R, R = r_max^(n-1).  Returns (margin, d,
    d_prime, row, members): the canonical margin, and for the first pair in
    (u, v) order strictly below delta the canonical binding pair (other
    rows at the lowest category of largest row sum) and the sorted indices
    of its cylinder; all four are None when nothing goes below delta.
    """
    k = len(weights)
    row_sums = [sum(row) for row in weights]
    r_max = max(row_sums)
    rest = r_max ** (n - 1)
    best, binding = delta, None
    for u in range(k):
        for v in range(k):
            cells = [c for c in range(k)
                     if weights[u][c] > e_eps * weights[v][c]]
            if not cells:
                continue
            a = sum(weights[u][c] for c in cells)
            b = sum(weights[v][c] for c in cells)
            margin = e_eps * (b * rest) + delta - a * rest
            if margin < best:
                best, binding = margin, (u, v, cells)
    if binding is None:
        return best, None, None, None, None
    u, v, cells = binding
    low = row_sums.index(r_max)
    row = 0 if u <= low else n - 1
    d = [low] * n
    d[row] = u
    d_prime = list(d)
    d_prime[row] = v
    members = [i for i, x in enumerate(all_dbs(k, n)) if x[row] in cells]
    return best, tuple(d), tuple(d_prime), row, members


def log_pmf_row_outer(log_weights, d):
    """Log pmf row of input d (a row tuple) of a product spec: the outer
    sum of its rows' log weights, one row at a time, row 0 first, as the
    package's row cache once built it."""
    row = np.zeros(1)
    for v in d:
        row = np.add.outer(row, log_weights[v]).ravel()
    return row


def exact_pmf_row_outer(fracs, d):
    """Exact pmf row of input d from the parent's Fraction rows, by the
    list loop the package once ran."""
    out = [Fraction(1)]
    for v in d:
        out = [x * y for x in out for y in fracs[v]]
    return out


def sufficient_set_from_rows(product, d, d_prime, fixed, exact,
                             tie_band):
    """S of a product spec's pair (d, d_prime) from two full pmf rows, as
    the package computed it before S came from the parent.

    Returns (members, alpha_levels, partition): sorted member indices, and
    for a fixed normaliser the ascending one-row utility gaps over S with
    one sorted index list per gap (both None otherwise).
    """
    if exact:
        fracs = product.matrix.fractions()
        pa = exact_pmf_row_outer(fracs, d)
        pb = exact_pmf_row_outer(fracs, d_prime)
        members = [x for x in range(len(pa)) if pa[x] > pb[x]]
    else:
        with np.errstate(invalid="ignore"):
            gap = (log_pmf_row_outer(product.log_weights, d)
                   - log_pmf_row_outer(product.log_weights, d_prime))
        members = np.flatnonzero(gap > tie_band).tolist()
    if not fixed:
        return members, None, None
    row = [i for i in range(len(d)) if d[i] != d_prime[i]][0]
    dbs = all_dbs(product.space.size, len(d))
    u1 = product.row_utility
    alphas = [float(u1[d[row], dbs[x][row]] - u1[d_prime[row], dbs[x][row]])
              for x in members]
    levels = sorted(set(alphas))
    partition = [[x for x, a in zip(members, alphas) if a == level]
                 for level in levels]
    return members, tuple(levels), partition


COUNT_DIGIT_CAP = 4000


def count_text(count: int, form):
    """A count as the package printed it before counts became expressions:
    the decimal up to ``COUNT_DIGIT_CAP`` digits or without a form, the
    form past that."""
    if form is None or count < 10 ** COUNT_DIGIT_CAP:
        return str(count)
    return form


def naive_check_count(size: int, n: int):
    """(int, text) of n * m * (m+1)^n * (2^((m+1)^n) - 2), the naive count
    over ``size`` = m + 1 categories, and its text as pairs*(2^states-2)."""
    states = size ** n
    pairs = n * (size - 1) * states
    count = pairs * ((1 << states) - 2)
    return count, count_text(count, f"{pairs}*(2^{states}-2)")


def subset_count(terms):
    """The nonempty subsets of ``count`` sets of ``e`` members each, summed
    over the items ``{e: count}`` of terms, and that sum as an expression."""
    items = sorted(terms.items())
    return (sum(count * (2 ** e - 1) for e, count in items),
            "+".join(f"{count}*(2^{e}-1)" for e, count in items))


def parent_check_count(s1_sizes, released, n: int, symmetric: bool):
    """(int, text) of a product spec's reduced check count, by the loops
    the package ran before: s1_sizes[u][v] = |S1(u, v)|, released[a] the
    number of categories parent row a releases.  ``spread`` maps each
    product of released counts over the n - 1 other rows to the number of
    assignments giving it.  Past the cap, rows releasing different numbers
    of categories print as the sum over class counts c1 + ... + cr =
    n - 1, with w^cj for the j-th class's w rows and z^cj for its z
    categories, each left out at 1."""
    k = len(released)
    spread = Counter({1: 1})
    for _ in range(n - 1):
        step = Counter()
        for product_z, count in spread.items():
            for z in released:
                step[product_z * z] += count
        spread = step
    checks = 0
    terms = Counter()
    for u in range(k):
        for v in range(k):
            s1 = s1_sizes[u][v]
            if not s1:
                continue
            if symmetric:
                checks += k ** (n - 1)
            else:
                for product_z, count in spread.items():
                    terms[s1 * product_z] += count
    subsets, sums = subset_count(terms)
    total = n * (checks + subsets)
    form = f"{n}*({sums})" if terms else None
    classes = sorted(Counter(released).items())
    if terms and len(classes) > 1:
        names = [f"c{j + 1}" for j in range(len(classes))]
        rows = "".join(f"*{w}^{c}" for (z, w), c in zip(classes, names)
                       if w != 1)
        size = "*".join(f"{z}^{c}" for (z, w), c in zip(classes, names)
                        if z != 1)
        by_s1 = Counter(s for row in s1_sizes for s in row if s)
        inner = "+".join(f"{count}*(2^({'' if s == 1 else f'{s}*'}{size})-1)"
                         for s, count in sorted(by_s1.items()))
        form = (f"{n}*sum({n - 1}!/({'*'.join(c + '!' for c in names)})"
                f"{rows}*({inner}) for {'+'.join(names)}={n - 1})")
    return total, count_text(total, form)


def class_sum_value(text: str) -> int:
    """The int a release-class sum's text stands for, read as Python: N!
    and cj! as factorials, ^ as a power, and sum(... for c1+...+cr=N) over
    every way of writing N as c1 + ... + cr."""
    n, body, names, rows = re.fullmatch(
        r"(\d+)\*sum\((.*) for ((?:c\d+\+)*c\d+)=(\d+)\)", text).groups()
    names, rows = names.split("+"), int(rows)
    body = re.sub(r"(\w+)!", r"factorial(\1)", body)
    body = body.replace("/", "//").replace("^", "**")
    total = 0
    for counts in itertools.product(range(rows + 1), repeat=len(names)):
        if sum(counts) == rows:
            total += eval(body, {"__builtins__": {},
                                 "factorial": math.factorial,
                                 **dict(zip(names, counts))})
    return int(n) * total


def box_probabilities_rows(product, box, d, d_prime, exact):
    """P(X_d in A) and P(X_d' in A) for a box A on a product spec, by the
    row loop the package ran before it grouped rows: one Python sum per
    row over the box's categories, multiplied in row order.  box holds
    each row's categories; d and d_prime are row tuples."""
    weights = (product.matrix.fractions() if exact
               else np.exp(product.log_weights).tolist())
    return tuple(math.prod(sum(weights[r][c] for c in values)
                           for r, values in zip(rows, box))
                 for rows in (d, d_prime))


def sample_feasible_dirichlet(m, e_eps, delta, count, rng, batch,
                              max_batches, tol):
    """Feasible parent matrices by the package's sampler before it drew in
    its screen's layout: whole batches from ``rng.dirichlet``, each matrix
    kept when its full-square batch margin clears -tol, the first count
    kept returned.  Raises RuntimeError when max_batches do not fill
    the request."""
    size = m + 1
    out = []
    have = 0
    for _ in range(max_batches):
        mats = rng.dirichlet(np.ones(size), size=(batch, size))
        keep = mats[batch_margins_full_square(mats, e_eps, delta) >= -tol]
        if keep.shape[0]:
            out.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(out)[:count]
    raise RuntimeError(f"only {have} of {count} feasible matrices found")


def knife_edge_grid():
    """The one corpus of boundary points: (m, eps, delta, k, p) with k and
    p on the privacy boundary, e^k = (e^eps + m*delta)/(1 - delta) and
    p = (1 - delta)/(e^eps + m), for m = 1-4, 40 values of eps in
    [0.05, 3] and delta in {0, 1e-6, 0.01, 0.1}: 640 points."""
    for m in range(1, 5):
        for eps in np.linspace(0.05, 3, 40).tolist():
            for delta in (0.0, 1e-6, 0.01, 0.1):
                e_eps = math.exp(eps)
                yield (m, eps, delta,
                       math.log((e_eps + m * delta) / (1 - delta)),
                       (1 - delta) / (e_eps + m))
