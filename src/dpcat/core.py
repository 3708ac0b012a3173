"""Finite categorical database spaces and their exhaustive enumeration.

A category space is an ordered alphabet of ``m + 1`` labels; a database is a
length-``n`` vector of category indices, i.e. a point of the product space
with ``(m + 1) ** n`` elements.  Everything downstream (probability tables,
subset bitmasks, golden files) relies on one canonical enumeration order:
base-``(m + 1)`` lexicographic with row 0 as the most significant digit.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataFormatError, EnumerationBudgetError, LengthMismatchError

#: Largest (m + 1) ** n for which full database streams are enumerated.
DEFAULT_ENUM_BUDGET = 1 << 20


@dataclass(frozen=True)
class CategorySpace:
    """The finite alphabet of ``m + 1`` distinct category labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise DataFormatError("a category space needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise DataFormatError("category labels must be pairwise distinct")

    @property
    def m(self) -> int:
        return len(self.labels) - 1

    @property
    def size(self) -> int:
        """Number of categories, m + 1."""
        return len(self.labels)


@dataclass(frozen=True)
class Database:
    """A point of the product space: one category index per row.

    ``rows`` is a tuple of ints.  A database built by ``from_array`` holds
    only its array and builds ``rows`` on first access, so one that is
    only sampled and written never holds a tuple.  Equality and hashing
    are those of the tuple either way.
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))
        if len(self.rows) < 1:
            raise DataFormatError("a database needs at least one row")

    def __getattr__(self, name):
        # reached only for attributes not set yet: rows of from_array
        array = self.__dict__.get("_array") if name == "rows" else None
        if array is None:
            raise AttributeError(name)
        rows = tuple(array.tolist())
        object.__setattr__(self, "rows", rows)
        return rows

    @classmethod
    def from_array(cls, values) -> "Database":
        """Database over a copy of a 1-D integer array, kept as ``array``."""
        return cls._over(np.array(values, dtype=np.int64))

    @classmethod
    def _over(cls, array: np.ndarray) -> "Database":
        """Database over ``array`` itself, not a copy: an int64 array made
        for it that no one else keeps."""
        if array.ndim != 1:
            raise DataFormatError("database rows must form a 1-D array")
        if array.size < 1:
            raise DataFormatError("a database needs at least one row")
        array.setflags(write=False)
        d = cls.__new__(cls)
        object.__setattr__(d, "_array", array)
        return d

    @property
    def n(self) -> int:
        rows = self.__dict__.get("rows")
        return len(rows) if rows is not None else self._array.size

    @property
    def array(self) -> np.ndarray:
        """The rows as a read-only integer array, built once and kept."""
        array = self.__dict__.get("_array")
        if array is None:
            array = np.asarray(self.rows)
            array.setflags(write=False)
            object.__setattr__(self, "_array", array)
        return array

    def labels(self, space: CategorySpace) -> tuple[str, ...]:
        return tuple(space.labels[r] for r in self.array.tolist())


@dataclass(frozen=True)
class NeighborPair:
    """An ordered pair of databases differing in exactly one row."""

    d: Database
    d_prime: Database
    differing_row: int

    def __post_init__(self):
        if self.d.n != self.d_prime.n:
            raise LengthMismatchError(
                f"neighbor pair mixes row counts {self.d.n} and {self.d_prime.n}")
        a, b = self.d.__dict__.get("rows"), self.d_prime.__dict__.get("rows")
        if a is not None and b is not None:   # neither builds an array
            diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        else:
            diffs = np.flatnonzero(self.d.array != self.d_prime.array).tolist()
        if diffs != [self.differing_row]:
            raise DataFormatError(
                f"databases must differ exactly at row {self.differing_row}, "
                f"but differ at rows {diffs}")


@dataclass(frozen=True)
class DatabaseSet:
    """A subset of the database space, held in one of two forms.

    A set built from enumeration indices holds them sorted.  A box
    {x : x_j in A_j for every row j}, built by ``from_mask``, holds only
    ``box_mask``, an (n, m + 1) bool array whose row j marks the
    categories of A_j, and builds ``indices`` on first read, as
    ``Database`` builds ``rows``; its size and membership come from the
    mask.  A one-row cylinder {x : x_row in categories}, built by
    ``from_cylinder``, is the box that restricts that row alone.
    Equality and hashing are those of the indices either way.
    """

    space: CategorySpace
    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        limit = space_size(self.space, self.n)
        if idx and not (0 <= idx[0] and idx[-1] < limit):
            raise DataFormatError(
                f"set contains indices outside the space of {limit} databases")
        object.__setattr__(self, "indices", idx)

    def __getattr__(self, name):
        # reached only for attributes not set yet: indices of a box
        mask = self.box_mask if name == "indices" else None
        if mask is None:
            raise AttributeError(name)
        indices = tuple(_box_indices(self.space, mask).tolist())
        object.__setattr__(self, "indices", indices)
        return indices

    @classmethod
    def from_mask(cls, space: CategorySpace, mask) -> "DatabaseSet":
        """The box whose row j holds the categories c with mask[j, c], for
        an (n, m + 1) bool array kept as it is."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[1] != space.size or not mask.size:
            raise DataFormatError(
                f"box mask must be (n, {space.size}), got {mask.shape}")
        mask.setflags(write=False)
        out = cls.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "n", mask.shape[0])
        object.__setattr__(out, "_mask", mask)
        return out

    @classmethod
    def from_cylinder(cls, space: CategorySpace, n: int, row: int,
                      categories) -> "DatabaseSet":
        """The databases whose row ``row`` holds one of ``categories``."""
        if not 0 <= row < n:
            raise DataFormatError(f"row {row} outside 0..{n - 1}")
        values = sorted({int(c) for c in categories})
        if values and not (0 <= values[0] and values[-1] <= space.m):
            raise DataFormatError(
                f"cylinder holds categories outside 0..{space.m}")
        mask = np.ones((n, space.size), dtype=bool)
        mask[row] = False
        mask[row, values] = True
        return cls.from_mask(space, mask)

    @property
    def box_mask(self) -> np.ndarray | None:
        """The (n, m + 1) mask of a set built as a box, else None."""
        return self.__dict__.get("_mask")

    @property
    def cylinder(self) -> tuple[int, tuple[int, ...]] | None:
        """(row, categories) of a box that restricts at most one row, row 0
        for the whole space; None for a set built from indices or a box
        that restricts more rows."""
        mask = self.box_mask
        if mask is None:
            return None
        restricted = np.flatnonzero(~mask.all(axis=1))
        if restricted.size > 1:
            return None
        row = int(restricted[0]) if restricted.size else 0
        return row, tuple(np.flatnonzero(mask[row]).tolist())

    @property
    def size(self) -> "Count":
        """The number of members, from the mask for a box: the product of
        its rows' category counts, as a power of each count."""
        mask = self.box_mask
        if mask is None:
            return Count(len(self.indices))
        per_row = np.bincount(mask.sum(axis=1), minlength=self.space.size + 1)
        if per_row[0]:
            return Count(0)
        return Count(("*", *(c if rows == 1 else ("^", c, rows)
                             for c, rows in enumerate(per_row.tolist())
                             if c > 1 and rows)))

    def __bool__(self) -> bool:
        mask = self.box_mask
        if mask is None:
            return bool(self.indices)
        empty_row = np.void(bytes(mask.shape[1]))
        return bool((mask_rows(mask) != empty_row).all())

    def __len__(self) -> int:
        """The number of members; a box past ``sys.maxsize`` members
        raises OverflowError, as ``len`` does, while ``size`` counts it."""
        return int(self.size)

    def __contains__(self, d: Database) -> bool:
        if d.n != self.n:
            return False
        mask = self.box_mask
        if mask is not None:
            validate_database(self.space, d)
            return bool(mask[np.arange(self.n), d.array].all())
        i = database_index(self.space, d)
        at = bisect.bisect_left(self.indices, i)
        return at < len(self.indices) and self.indices[at] == i


def mask_rows(mask: np.ndarray) -> np.ndarray:
    """The rows of a 2-D bool array as an (n,) array of opaque byte
    strings, equal where the rows are: one comparison per row, where an
    ``any(axis=1)`` over short rows costs about ten times as much."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    return mask.view(np.dtype((np.void, mask.shape[1]))).reshape(-1)


def _box_indices(space: CategorySpace, mask: np.ndarray) -> np.ndarray:
    """Sorted enumeration indices of the box with this mask: each index so
    far, times the base, plus each category of the next row.  They are
    int64 while every index of the space fits, and Python ints (an object
    array) once n * log2(m + 1) reaches 63, where an int64 would wrap."""
    wide = len(mask) * math.log2(space.size) >= 63
    out = np.zeros(1, dtype=object if wide else np.int64)
    for row in mask:
        out = (out[:, None] * space.size + np.flatnonzero(row)[None, :]
               ).ravel()
    return out


def validate_database(space: CategorySpace, d: Database) -> None:
    rows = d.array
    if rows.min() < 0 or rows.max() > space.m:
        i = int(np.flatnonzero((rows < 0) | (rows > space.m))[0])
        raise DataFormatError(
            f"row {i} holds index {rows[i]}, outside 0..{space.m}")


def hamming_distance(d: Database, d_prime: Database) -> int:
    """Number of rows on which two databases of equal length differ."""
    if d.n != d_prime.n:
        raise LengthMismatchError(
            f"cannot compare databases with {d.n} and {d_prime.n} rows")
    return sum(a != b for a, b in zip(d.rows, d_prime.rows))


def space_size(space: CategorySpace, n: int) -> int:
    if n < 1:
        raise DataFormatError("row count must be at least 1")
    return space.size ** n


def database_index(space: CategorySpace, d: Database) -> int:
    """Position of ``d`` in the canonical enumeration (row 0 most significant)."""
    validate_database(space, d)
    idx = 0
    for r in d.rows:
        idx = idx * space.size + r
    return idx


def database_from_index(space: CategorySpace, n: int, index: int) -> Database:
    size = space_size(space, n)
    if not 0 <= index < size:
        raise DataFormatError(f"index {index} outside space of {size} databases")
    rows = [0] * n
    for i in range(n - 1, -1, -1):
        index, rows[i] = divmod(index, space.size)
    return Database(tuple(rows))


def state_count(space: CategorySpace, n: int) -> "Count":
    """(m + 1) ** n as a Count: past ``COUNT_DIGIT_CAP`` digits the power,
    such as ``2^100000``, with no int built."""
    if n < 1:
        raise DataFormatError("row count must be at least 1")
    return Count(("^", space.size, n))


def check_enum_budget(space: CategorySpace, n: int,
                      budget: int = DEFAULT_ENUM_BUDGET) -> int:
    states = state_count(space, n)
    if states <= budget:
        return states.value
    text = str(states)
    if states.value is not None:
        text = f"{text} = {space.size}^{n}"
    raise EnumerationBudgetError(
        f"database space holds {text} states, over the enumeration "
        f"budget of {budget}", states.value)


def enumerate_databases(space: CategorySpace, n: int) -> Iterator[Database]:
    """Yield all databases in canonical order.  Restartable and stable."""
    size = check_enum_budget(space, n)
    for i in range(size):
        yield database_from_index(space, n, i)


def enumerate_neighbor_pairs(space: CategorySpace,
                             n: int) -> Iterator[NeighborPair]:
    """Yield all ordered pairs at hamming distance 1, n*m*(m+1)^n in total.

    Both orientations of each unordered pair are emitted, since the privacy
    inequality is checked asymmetrically.  Order: by first database, then by
    differing row, then by replacement value.
    """
    for d in enumerate_databases(space, n):
        for i in range(n):
            for v in range(space.size):
                if v == d.rows[i]:
                    continue
                rows = list(d.rows)
                rows[i] = v
                yield NeighborPair(d, Database(tuple(rows)), i)


def naive_check_count(space: CategorySpace, n: int) -> "Count":
    """Total inequality checks without any workload reduction.

    Every ordered neighbor pair is checked against every subset of the space
    except the empty set and the space itself:
    n * m * (m+1)^n * (2^((m+1)^n) - 2), which overflows 64 bits already for
    three categories and three rows.  Past ``COUNT_DIGIT_CAP`` digits it
    prints as that product, ``"354294*(2^19683-2)"`` for three categories
    and nine rows.
    """
    states = ("^", space.size, n)
    return Count(("*", ("*", n * space.m, states), ("2^-", states, 2)))


#: Counts with more decimal digits than this print as the expression that
#: defines them.  Python refuses ``str()`` on ints beyond 4,300 digits, and
#: it is slow well before.
COUNT_DIGIT_CAP = 4000


@functools.total_ordering
class Count:
    """A count of states, subsets or checks, exact at any size.

    It is made from the expression that defines it: an int, or a tuple
    ``("^", b, e)`` for b^e with ints b >= 1 and e, ``("*", ...)`` for a
    product, ``("+", ...)`` for a sum, ``("2^-", x, c)`` for 2^x - c, or
    ``("classes", n, classes, pairs)`` for the release-class sum of
    :func:`_class_sum`.  Up to ``COUNT_DIGIT_CAP`` digits ``value`` holds
    the int and the count prints as its decimal.  Past the cap ``value`` is
    None and the count prints as its expression, in which each part
    without a 2^x - c inside prints as its decimal while that stays under
    the cap, and a release-class sum as its closed form.  Which case
    applies is decided from the bit lengths of the parts, a base-2
    logarithm, so no int of much over the cap is built unless ``int()``
    asks for one.  A count adds as its int and compares as its int
    wherever one side fits under the cap, building a count past the cap
    only as far as the bit length of the other side; two counts past the
    cap do not compare (TypeError), and a count has no hash.
    """

    __slots__ = ("expr", "value")

    def __init__(self, expr):
        self.expr = expr
        self.value = _fits(expr)

    def __int__(self) -> int:
        return (_bounded(self.expr, math.inf) if self.value is None
                else self.value)

    def __str__(self) -> str:
        return _text(self.expr) if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"Count({self})"

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        sign = self._cmp(other)
        return NotImplemented if sign is None else sign == 0

    def __lt__(self, other):
        sign = self._cmp(other)
        return NotImplemented if sign is None else sign < 0

    def __add__(self, other):
        try:
            return int(self) + (int(other) if isinstance(other, Count)
                                else operator.index(other))
        except TypeError:
            return NotImplemented

    __radd__ = __add__

    def _cmp(self, other) -> int | None:
        """The sign of self - other, or None where other is no integer."""
        if isinstance(other, Count):
            if other.value is None:
                if self.value is None:
                    raise TypeError(f"counts past {COUNT_DIGIT_CAP} digits "
                                    f"do not compare with each other")
                return -other._sign(self.value)
            other = other.value
        try:
            other = operator.index(other)
        except TypeError:
            return None
        return self._sign(other)

    def _sign(self, other: int) -> int:
        """The sign of self - other; past the cap, self is built only while
        it stays under 2^(bit length of other)."""
        value = self.value
        if value is None:
            value = _bounded(self.expr, other.bit_length())
        return 1 if value is None else (value > other) - (value < other)


def _bounded(x, bits: float) -> int | None:
    """The value of a Count expression, or None where some part of it is
    seen, from bit lengths alone, to pass 2^bits."""
    if isinstance(x, int):
        return x
    op = x[0]
    if op == "^":
        _, base, power = x
        if power * (base.bit_length() - 1) > bits:
            return None
        return base ** power
    if op == "classes":
        return _class_sum(*x[1:], bits)
    values = [a if isinstance(a, int) else _bounded(a, bits) for a in x[1:]]
    if op == "2^-":
        power, c = values
        return None if power is None or power > bits else (1 << power) - c
    if op == "*" and 0 in values:
        return 0
    if None in values or op == "*" and sum(
            map(int.bit_length, values)) > bits + len(values):
        return None
    return math.prod(values) if op == "*" else sum(values)


def _class_sum(n: int, classes, pairs, bits: float) -> int | None:
    """The release-class sum, the check count of n rows over a parent
    whose rows release different numbers of categories:

        n * sum over c_1 + ... + c_r = n - 1 of multinomial(n - 1; c)
          * prod w_z^(c_z) * sum_s P_s * (2^(s * prod z^(c_z)) - 1),

    for ``classes`` the (z, w_z) ascending in z, w_z parent rows releasing
    z categories, and ``pairs`` the (s, P_s) ascending in s, P_s parent
    pairs with |S1| = s.  Its largest exponent, max s * max z^(n-1), is
    checked against ``bits`` before any split is built, so a sum under
    2^bits has at most bits splits (one per class when n = 2).
    """
    z_top, s_top = classes[-1][0], pairs[-1][0]
    if ((n - 1) * (z_top.bit_length() - 1) > bits
            or s_top * z_top ** (n - 1) > bits):
        return None
    width = n - 1 + len(classes) - 1    # bars between classes among rows
    orders, total = math.factorial(n - 1), 0
    for bars in itertools.combinations(range(width), len(classes) - 1):
        counts = [b - a - 1 for a, b in zip((-1, *bars), (*bars, width))]
        ways = orders // math.prod(map(math.factorial, counts))
        size = math.prod(z ** c for (z, _), c in zip(classes, counts))
        weight = math.prod(w ** c for (_, w), c in zip(classes, counts))
        total += ways * weight * sum(p * ((1 << s * size) - 1)
                                     for s, p in pairs)
    return n * total


def _class_text(n: int, classes, pairs) -> str:
    """The release-class sum as its closed form, of a length that grows
    with n only by n's digits."""
    c = [f"c{j}" for j in range(1, len(classes) + 1)]
    weight = "".join(f"*{w}^{cj}" for (_, w), cj in zip(classes, c) if w > 1)
    size = "*".join(f"{z}^{cj}" for (z, _), cj in zip(classes, c) if z > 1)
    terms = "+".join(f"{p}*(2^({f'{s}*' if s > 1 else ''}{size})-1)"
                     for s, p in pairs)
    return (f"{n}*sum({n - 1}!/({'*'.join(f'{cj}!' for cj in c)}){weight}"
            f"*({terms}) for {'+'.join(c)}={n - 1})")


#: Bits past which a count has more than ``COUNT_DIGIT_CAP`` digits.
_CAP_BITS = math.ceil(COUNT_DIGIT_CAP * math.log2(10))


def _fits(x) -> int | None:
    """The value while it has at most ``COUNT_DIGIT_CAP`` digits, else
    None; 8^cap < 10^cap, so most counts need no comparison."""
    value = _bounded(x, _CAP_BITS)
    if value is None or value.bit_length() > 3 * COUNT_DIGIT_CAP and (
            value >= 10 ** COUNT_DIGIT_CAP):
        return None
    return value


def _subsets_inside(x) -> bool:
    return isinstance(x, tuple) and (x[0] == "2^-"
                                     or any(map(_subsets_inside, x[1:])))


def _text(x) -> str:
    """A Count expression past the cap as text, each part without a 2^x - c
    inside as its decimal while that fits under the cap."""
    if isinstance(x, int):
        return str(x)
    if x[0] == "classes":
        return _class_text(*x[1:])
    value = None if _subsets_inside(x) else _fits(x)
    if value is not None:
        return str(value)
    op, *args = x
    if op == "^":
        return f"{args[0]}^{args[1]}"
    parts = [_text(a) for a in args]
    if op == "+":
        return "+".join(parts)
    if op == "*":
        return "*".join(f"({p})" if "+" in p or "-" in p else p
                        for p in parts)
    power, c = parts
    return f"2^{power if power.isdigit() else f'({power})'}-{c}"


def index_digits(space: CategorySpace, n: int, indices) -> np.ndarray:
    """(len(indices), n) array of the row values of the databases at
    these enumeration indices."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty((idx.shape[0], n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        idx, out[:, i] = np.divmod(idx, space.size)
    return out


def digit_matrix(space: CategorySpace, n: int) -> np.ndarray:
    """(size, n) array of row values for every database, in canonical
    order, under the default enumeration budget."""
    size = check_enum_budget(space, n)
    return index_digits(space, n, np.arange(size))


def _read_bytes(path) -> bytes:
    """The bytes of an input file.  A path the OS will not open, such as
    a missing file or a directory, is a DataFormatError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:   # ValueError: an embedded NUL
        reason = getattr(exc, "strerror", None) or exc
        raise DataFormatError(f"{path}: cannot open: {reason}") from None


def _utf8(data: bytes, path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not valid UTF-8 at byte {exc.start}") from None


def read_text(path) -> str:
    """The text of a UTF-8 input file, line ends untranslated.  Anything
    else is a DataFormatError naming the path and the first bad byte."""
    return _utf8(_read_bytes(path), path)


def _csv_records(text: str, path):
    """(number, record) for each CSV record of text, numbered from 1.  A
    record csv rejects, such as one with a field over csv's size limit, is
    a DataFormatError naming the path and the record."""
    number = 0
    try:
        for number, record in enumerate(
                csv.reader(io.StringIO(text, newline="")), start=1):
            yield number, record
    except csv.Error as exc:
        raise DataFormatError(
            f"{path}: record {number + 1}: {exc}") from None


def read_csv_records(path) -> list[list[str]]:
    """The nonblank records of a UTF-8 CSV input file, as lists of fields.
    A record whose length differs from the first's is a DataFormatError
    naming the path and that record."""
    out = []
    for number, record in _csv_records(read_text(path), path):
        if out and record and len(record) != len(out[0]):
            raise DataFormatError(
                f"{path}: record {number} has {len(record)} fields, the "
                f"first has {len(out[0])}")
        if record:
            out.append(record)
    return out


def load_category_space(path) -> CategorySpace:
    """Read a category space from a text file, one label per line."""
    labels = [line.strip() for line in io.StringIO(read_text(path),
                                                   newline=None)]
    labels = [lab for lab in labels if lab]
    if not labels:
        raise DataFormatError(f"{path}: no category labels found")
    return CategorySpace(tuple(labels))


def load_database_csv(path, space: CategorySpace,
                      column: str | None = None) -> Database:
    """Read a database from a CSV of category labels.

    Without ``column`` the file is headerless and the first column is used;
    with ``column`` the first record is a header and that column is
    selected.  Fields are stripped and blank lines skipped.  A file with no
    ``"`` byte has one record per line, so it is parsed as byte arrays, in
    blocks of whole lines: each selected field is compared, byte for byte,
    with every label, and only fields that match none are decoded, stripped
    and looked up.  A file that quotes goes through ``csv.reader``.  Either
    way the labels become one int64 array of category indices.
    """
    data = _read_bytes(path)
    if b'"' in data:
        rows = _csv_label_indices(_utf8(data, path), space, column, path)
    else:
        if not data.isascii():
            _utf8(data, path)   # reject a file that is not UTF-8
        rows = _array_label_indices(data, space, column, path)
    if not rows.size:
        raise DataFormatError(f"{path}: no data rows found")
    return Database._over(rows)


def _column_index(header: list[str], column: str, path) -> int:
    try:
        return header.index(column)
    except ValueError:
        shown = ", ".join(map(quote_field, header))
        raise DataFormatError(
            f"{path}: no column named {column!r} in header [{shown}]"
            ) from None


def _short_row(path, lineno: int, column) -> DataFormatError:
    return DataFormatError(
        f"{path}: row {lineno}: no value in column {column!r}")


#: Longest field an error message echoes in full.
LABEL_ECHO_LIMIT = 80


def quote_field(field: str) -> str:
    """``repr(field)`` for an error message, cut after ``LABEL_ECHO_LIMIT``
    characters with the full length noted."""
    shown = repr(field[:LABEL_ECHO_LIMIT])
    if len(field) > LABEL_ECHO_LIMIT:
        shown += f"... ({len(field)} characters)"
    return shown


def parse_record(record, parse, path, what: str) -> list:
    """``[parse(x) for x in record]``.  A field that ``parse`` rejects
    with ValueError or ZeroDivisionError is an input error quoting it."""
    out = []
    try:
        for field in record:
            out.append(parse(field))
    except (ValueError, ZeroDivisionError):
        raise DataFormatError(
            f"{path}: bad {what} entry {quote_field(field)}") from None
    return out


def _unknown_label(path, lineno: int, label: str) -> DataFormatError:
    return DataFormatError(
        f"{path}: row {lineno}: unknown category label {quote_field(label)}")


def _csv_label_indices(text: str, space: CategorySpace, column,
                       path) -> np.ndarray:
    records = _csv_records(text, path)
    col = 0
    if column is not None:
        try:
            _, header = next(records)
        except StopIteration:
            raise DataFormatError(f"{path}: empty data file") from None
        col = _column_index(header, column, path)
    lookup = {label: i for i, label in enumerate(space.labels)}
    return np.fromiter(_label_indices(records, lookup, col, path, column),
                       dtype=np.int64)


def _label_indices(records, lookup: dict, col: int, path, column):
    for lineno, record in records:
        if not record:
            continue
        try:
            yield lookup[record[col].strip()]
        except IndexError:
            raise _short_row(path, lineno, column) from None
        except KeyError:
            raise _unknown_label(path, lineno, record[col].strip()) from None


#: Bytes the quote-free loader parses at a time, extended to the next line
#: end: its int64 temporaries hold one entry per line or comma of a block,
#: so they stay bounded however long the file.
_LOAD_BLOCK = 1 << 16


def _line_blocks(data: bytes):
    """``data`` in blocks of at least ``_LOAD_BLOCK`` bytes that each end
    after a line feed (the last at the end of data), with CRLF and a lone CR
    read as LF.  A block never splits a CRLF, as it ends on the LF."""
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _LOAD_BLOCK - 1) + 1 or len(data)
        block = data[start:stop]
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield block
        start = stop


def _array_label_indices(data: bytes, space: CategorySpace, column,
                         path) -> np.ndarray:
    """Label indices of a quote-free CSV, in which each line is a record."""
    by_length: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, label in enumerate(space.labels):
        if label == label.strip():      # fields are stripped before lookup
            encoded = np.frombuffer(label.encode("utf-8"), dtype=np.uint8)
            by_length.setdefault(encoded.size, []).append((i, encoded))
    lookup = {label: i for i, label in enumerate(space.labels)}
    code = np.min_scalar_type(len(space.labels))    # 1 + label index
    # one entry per line at most (a lone CR ends one too), line feeds counted
    # a block at a time: untouched pages of the bound cost nothing
    raw = np.frombuffer(data, dtype=np.uint8)
    lines = sum(int(np.count_nonzero(raw[at:at + _LOAD_BLOCK] == ord("\n")))
                for at in range(0, raw.size, _LOAD_BLOCK))
    if b"\r" in data:
        lines += data.count(b"\r")
    rows = np.empty(lines + 1, dtype=np.int64)
    filled = 0
    lineno = 1                  # number of the block's first line
    col = 0 if column is None else None     # None: header not read yet
    for block in _line_blocks(data):
        u = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(u == ord("\n"))
        if u[-1] != ord("\n"):
            ends = np.append(ends, u.size)
        starts = np.concatenate(([0], ends[:-1] + 1))
        if col is None:
            first = block[:ends[0]].decode("utf-8")
            col = _column_index(first.split(",") if first else [], column,
                                path)
            starts, ends, lineno = starts[1:], ends[1:], lineno + 1

        nonblank = ends > starts
        lo, hi, has_field = starts, ends, nonblank  # first of one field
        commas = np.flatnonzero(u == ord(","))
        if commas.size or col:
            # field col of a line lies between its col-th and (col+1)-th
            # comma; the sentinel past the end closes lines with fewer
            commas = np.append(commas, u.size)
            first_comma = np.searchsorted(commas, starts)
            hi = np.minimum(commas.take(first_comma + col, mode="clip"), ends)
            if col:
                before = commas.take(first_comma + col - 1, mode="clip")
                has_field, lo = before < ends, before + 1
        lengths = hi - lo   # negative on a line without field col

        codes = np.zeros(ends.size, dtype=code)     # 1 + label index, 0: none
        for size, group in by_length.items():
            sel = np.flatnonzero(lengths == size)
            at = lo[sel]
            fields = np.empty((size, sel.size), dtype=np.uint8)  # byte j
            for j in range(size):   # indices in range: "clip" skips a copy
                u.take(at + j, out=fields[j], mode="clip")
            match = np.zeros(sel.size, dtype=code)
            for i, label in group:
                hit = (fields == label[:, None]).all(axis=0)
                match += hit * code.type(i + 1)
            codes[sel] = match
        found = rows[filled:filled + ends.size]     # a slot for each line
        np.subtract(codes, 1, out=found, dtype=np.int64)

        # padded fields, unknown labels and short rows: row by row, as csv
        for r in np.flatnonzero(nonblank & (found < 0)).tolist():
            if not has_field[r]:
                raise _short_row(path, lineno + r, column)
            field = block[lo[r]:hi[r]].decode("utf-8").strip()
            try:
                found[r] = lookup[field]
            except KeyError:
                raise _unknown_label(path, lineno + r, field) from None
        if not nonblank.all():      # blank lines hold no row
            found = found[nonblank]
            rows[filled:filled + found.size] = found
        filled += found.size
        lineno += ends.size
    if col is None:
        raise DataFormatError(f"{path}: empty data file")
    return rows[:filled]
