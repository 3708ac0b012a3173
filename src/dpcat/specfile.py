"""Mechanism spec files: a small hand-writable key-value format.

Example::

    # exponential mechanism with the hamming utility
    type = exponential
    utility = hamming
    k = 0.693
    categories = hobbies.txt
    n = 6

Product specs use ``p = <real>`` (symmetric) or ``matrix = <csv>``; table
utilities point at an NxN CSV over the canonical enumeration order and may
assert ``fixed_c = true``.  Relative paths resolve against the spec file's
directory.  ``k = inf`` is the no-noise endpoint.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import (
    load_category_space,
    parse_record,
    read_csv_records,
    read_text,
    state_count,
)
from .errors import DataFormatError
from .mechanisms import (
    ExponentialSpec,
    HammingUtility,
    NegL1Utility,
    ProductSpec,
    SolutionMatrix,
    TableUtility,
    symmetric_matrix,
)

_KNOWN_KEYS = {"type", "utility", "k", "p", "matrix", "table", "fixed_c",
               "categories", "n"}


def parse_kv(text: str, origin: str = "<spec>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{origin}: line {lineno}: expected "
                                  f"'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise DataFormatError(f"{origin}: line {lineno}: unknown key "
                                  f"{key!r}")
        if key in out:
            raise DataFormatError(f"{origin}: line {lineno}: duplicate key "
                                  f"{key!r}")
        out[key] = value
    return out


def _require(kv: dict, key: str, origin) -> str:
    if key not in kv:
        raise DataFormatError(f"{origin}: missing required key {key!r}")
    return kv[key]


def _parse_number(value: str, key: str, origin, kind=float):
    """``kind(value)``, float by default (which reads ``inf`` itself); a
    value it rejects, or a finite literal past the float range, is a
    DataFormatError naming the key."""
    try:
        number = kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DataFormatError(f"{origin}: {key} = {value!r} is not {what}"
                              ) from None
    if kind is float and math.isinf(number) and "inf" not in value.lower():
        raise DataFormatError(f"{origin}: {key} = {value!r} is past the "
                              f"float range; write inf for infinity")
    return number


def load_table_csv(path, space, n: int) -> np.ndarray:
    """The (m+1)^n x (m+1)^n utility table a CSV file holds."""
    table = np.asarray([parse_record(record, float, path, "table")
                        for record in read_csv_records(path)],
                       dtype=np.float64)
    states = state_count(space, n)
    if table.shape != (states.value, states.value):
        side = states if states.value is not None else f"({states})"
        raise DataFormatError(
            f"{path}: utility table must be {side}x{side}, "
            f"got {table.shape}")
    return table


def load_spec_file(path, *, exact: bool = False):
    """Parse a mechanism spec file into an ExponentialSpec or ProductSpec.

    The categories path used is attached to the returned spec as
    ``categories_path`` so converters can reference it.
    """
    path = Path(path)
    kv = parse_kv(read_text(path), origin=str(path))
    base = path.parent

    cat_path = base / _require(kv, "categories", path)
    space = load_category_space(cat_path)
    n = _parse_number(_require(kv, "n", path), "n", path, int)

    mech_type = _require(kv, "type", path)
    if mech_type == "exponential":
        utility_name = _require(kv, "utility", path)
        if utility_name == "hamming":
            utility = HammingUtility(_parse_number(_require(kv, "k", path),
                                                   "k", path))
        elif utility_name == "l1":
            utility = NegL1Utility()
        elif utility_name == "table":
            table_path = base / _require(kv, "table", path)
            table = load_table_csv(table_path, space, n)
            fixed = kv.get("fixed_c", "false").lower() in ("true", "1", "yes")
            utility = TableUtility(space, n, table, assert_fixed_c=fixed)
        else:
            raise DataFormatError(f"{path}: unknown utility {utility_name!r}")
        spec = ExponentialSpec(space, n, utility)
    elif mech_type == "product":
        if ("p" in kv) == ("matrix" in kv):
            raise DataFormatError(
                f"{path}: product specs need exactly one of 'p' or 'matrix'")
        if "p" in kv:
            matrix = symmetric_matrix(space.m, _parse_number(kv["p"], "p", path))
        else:
            matrix = SolutionMatrix.from_csv(base / kv["matrix"], exact=exact)
        spec = ProductSpec(space, n, matrix)
    else:
        raise DataFormatError(f"{path}: unknown mechanism type {mech_type!r}")

    spec.categories_path = str(cat_path)
    return spec


def save_spec_file(spec, path, categories_path) -> None:
    """Write the spec file of a hamming exponential spec or a symmetric
    product spec, the two forms ``dpcat convert`` makes, with the category
    list at ``categories_path``.  Any other spec is a DataFormatError
    naming its kind.
    """
    if spec.kind == "hamming":
        k = spec.utility.k
        lines = ["type = exponential", "utility = hamming",
                 f"k = {'inf' if math.isinf(k) else repr(k)}"]
    elif spec.kind == "product" and spec.matrix.is_symmetric:
        lines = ["type = product", f"p = {spec.matrix.symmetric_p()!r}"]
    else:
        kind = "asymmetric product" if spec.kind == "product" else spec.kind
        raise DataFormatError(f"save_spec_file writes hamming and symmetric "
                              f"product specs, not {kind} specs")
    # spec files resolve paths against their own directory, so pin the
    # category list with an absolute path when writing elsewhere
    lines += [f"categories = {Path(categories_path).resolve()}",
              f"n = {spec.n}"]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
