"""Command-line front end.

Subcommands: verify, sanitize, analyze, convert, optimal.  Every report
is printed one way, as indented JSON; sanitize writes labels, one per
line.  All output is deterministic given the inputs and the seed.  Exit
codes: 0 success / private, 1 not private, 2 input error, 3 enumeration
budget exceeded, 4 internal error (the traceback goes to stderr), so 0
and 1 always mean a decided verdict.
``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .analysis import (
    expected_error,
    exponential_to_product,
    matrix_expected_error,
    optimal_mechanism,
    product_to_exponential,
)
from .core import load_category_space, load_database_csv
from .errors import (
    DataFormatError,
    DpcatError,
    EnumerationBudgetError,
    ParameterRangeError,
)
from .mechanisms import sample
from .specfile import load_spec_file, save_spec_file
from .verifier import (
    PrivacyParams,
    verify_bruteforce,
    verify_matrix,
    verify_reduced,
)

EXIT_PRIVATE = 0
EXIT_NOT_PRIVATE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_ERROR = 3
EXIT_INTERNAL_ERROR = 4


#: The help line of ``--exact``, which verify, convert and optimal read.
_EXACT_HELP = "exact rational arithmetic (all but utility tables)"


def _privacy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--delta", type=float, default=0.0)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_verify(args) -> int:
    spec = load_spec_file(args.spec, exact=args.exact)
    params = PrivacyParams(args.epsilon, args.delta)
    if args.method == "brute":
        report = verify_bruteforce(spec, params, exact=args.exact)
    elif args.method == "auto" and spec.product is not None:
        report = verify_matrix(spec.product.matrix, params, space=spec.space,
                               exact=args.exact)
    else:
        report = verify_reduced(spec, params, exact=args.exact)
    _emit(report.to_json_dict())
    return EXIT_PRIVATE if report.private else EXIT_NOT_PRIVATE


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing the ``--output`` path, such as a directory
    or a missing parent, is an input error naming the path."""
    try:
        yield
    except OSError as exc:
        raise DataFormatError(
            f"cannot write {exc.filename or path}: {exc.strerror}") from None


#: Rows per buffer of _label_lines: the whole output is never held at once.
_LINE_BLOCK = 1 << 16


def _label_lines(labels, values: np.ndarray):
    """The UTF-8 lines ``labels[v]``, each ended by a line feed, for the
    values in order, as buffers of ``_LINE_BLOCK`` whole lines.  Each value
    takes one row of a byte table of the lines, padded to the longest with
    0xFF, a byte UTF-8 never uses, which is then dropped (when the lines
    differ in width)."""
    lines = [f"{label}\n".encode("utf-8") for label in labels]
    width = max(map(len, lines))
    padded = any(len(line) < width for line in lines)
    table = np.frombuffer(b"".join(line.ljust(width, b"\xff")
                                   for line in lines),
                          dtype=np.uint8).reshape(len(lines), width)
    for start in range(0, values.size, _LINE_BLOCK):
        block = values[start:start + _LINE_BLOCK]
        chunk = table.take(block, axis=0).tobytes()
        yield chunk.replace(b"\xff", b"") if padded else chunk


def cmd_sanitize(args) -> int:
    if args.seed < 0:
        raise ParameterRangeError(f"--seed must be >= 0, got {args.seed}")
    spec = load_spec_file(args.spec, exact=False)
    data = load_database_csv(args.data, spec.space, column=args.column)
    rng = np.random.default_rng(args.seed)
    sanitized = sample(spec, data, rng)
    lines = _label_lines(spec.space.labels, sanitized.array)
    if args.output:
        with _writing(args.output), open(args.output, "wb") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(str(chunk, "utf-8") for chunk in lines)
    return 0


def cmd_analyze(args) -> int:
    spec = load_spec_file(args.spec, exact=False)
    params = PrivacyParams(args.epsilon, args.delta)
    profile = expected_error(spec, params)
    payload = {
        "mechanism": spec.kind,
        "m": spec.space.m,
        "n": spec.n,
        "epsilon": params.epsilon,
        "delta": params.delta,
        **profile.to_json_dict(),
    }
    _emit(payload)
    return 0


def cmd_convert(args) -> int:
    spec = load_spec_file(args.spec, exact=args.exact)
    if spec.kind == "product":
        converted = product_to_exponential(spec)
        k = converted.utility.k
        p = spec.matrix.symmetric_p()
    else:
        converted = exponential_to_product(spec)
        k = spec.utility.k
        p = converted.matrix.symmetric_p()
    if args.output:
        with _writing(args.output):
            save_spec_file(converted, args.output, spec.categories_path)
    payload = {
        "from": spec.kind,
        "to": converted.kind,
        "m": spec.space.m,
        "n": spec.n,
        # the no-noise endpoint k = inf serialises as a string sentinel
        "k": "inf" if math.isinf(k) else k,
        "p": p,
        "output": args.output,
    }
    _emit(payload)
    return 0


def cmd_optimal(args) -> int:
    space = load_category_space(args.categories)
    params = PrivacyParams(args.epsilon, args.delta)
    matrix = optimal_mechanism(params, space.m, exact=args.exact)
    if args.output:
        with _writing(args.output), \
                open(args.output, "w", encoding="utf-8", newline="") as fh:
            matrix.to_csv(fh)
    payload = {
        "m": space.m,
        "epsilon": params.epsilon,
        "delta": params.delta,
        "p": float(matrix.values[0, 1]),
        "diagonal": float(matrix.values[0, 0]),
        "per_row_error": matrix_expected_error(matrix, 1),
        "degenerate": params.trivial,
        "matrix": matrix.to_json_dict(),
        "output": args.output,
    }
    _emit(payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dpcat argument parser, built on first use and reused after.

    Parsing keeps no state between calls, so one parser serves every
    ``main`` call in a process.  It names each subcommand's handler only
    through ``command``; ``main`` looks ``cmd_<command>`` up at call time.
    """
    parser = argparse.ArgumentParser(
        prog="dpcat",
        description="Differentially private sanitisation of categorical "
                    "data, with an exact privacy verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="decide (epsilon, delta) privacy")
    p.add_argument("--spec", required=True)
    _privacy_args(p)
    p.add_argument("--method", choices=("auto", "reduced", "brute"),
                   default="auto")
    p.add_argument("--exact", action="store_true", help=_EXACT_HELP)

    p = sub.add_parser("sanitize", help="sanitise a data file")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--column", default=None,
                   help="header column to read (implies a header row)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("analyze", help="expected error and bounds")
    p.add_argument("--spec", required=True)
    _privacy_args(p)

    p = sub.add_parser("convert", help="map between hamming and product form")
    p.add_argument("--spec", required=True)
    p.add_argument("--output", default=None, help="write the converted spec")
    p.add_argument("--exact", action="store_true", help=_EXACT_HELP)

    p = sub.add_parser("optimal", help="error-optimal solution matrix")
    _privacy_args(p)
    p.add_argument("--categories", required=True)
    p.add_argument("--output", default=None, help="write the matrix as CSV")
    p.add_argument("--exact", action="store_true", help=_EXACT_HELP)

    return parser


#: A NUL or other control character in an error message goes out as \xNN.
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(32), 127)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except DpcatError as exc:
        print(f"error: {str(exc).translate(_CONTROL_ESCAPES)}",
              file=sys.stderr)
        return (EXIT_BUDGET_ERROR if isinstance(exc, EnumerationBudgetError)
                else EXIT_INPUT_ERROR)
    except Exception:
        import traceback    # only on the failure path: no import-time cost
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
