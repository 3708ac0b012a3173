"""Command-line front end.

Subcommands: verify, sanitize, analyze, convert, optimal, bench.  All
output is deterministic given the inputs and the seed (bench wall-clock
fields excepted).  Exit codes: 0 success / private, 1 not private,
2 input error, 3 enumeration budget exceeded, 4 internal error (the
traceback goes to stderr), so 0 and 1 always mean a decided verdict.
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
import time

import numpy as np

from . import kernels
from .analysis import (
    expected_error,
    exponential_to_product,
    matrix_expected_error,
    optimal_mechanism,
    product_to_exponential,
)
from .core import (
    DEFAULT_SUBSET_BUDGET,
    CategorySpace,
    load_category_space,
    load_database_csv,
    naive_check_count,
)
from .errors import (
    DataFormatError,
    EnumerationBudgetError,
    ExactModeError,
    IncompleteUtilityError,
    LengthMismatchError,
    ParameterRangeError,
)
from .mechanisms import (
    ExponentialSpec,
    HammingUtility,
    NegL1Utility,
    sample,
)
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


def _add_options(parser: argparse.ArgumentParser, *,
                 exact: bool = False, budgets: bool = False) -> None:
    """``--format`` plus whichever shared options the subcommand reads."""
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default json)")
    if budgets:
        parser.add_argument("--budget-subsets", type=int,
                            default=DEFAULT_SUBSET_BUDGET, metavar="N",
                            help="max database-space size whose subsets "
                                 "brute force may scan")
    if exact:
        parser.add_argument("--exact", action="store_true",
                            help="exact rational arithmetic (all but utility "
                                 "tables)")


def _privacy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--delta", type=float, default=0.0)


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_verify(args) -> int:
    spec = load_spec_file(args.spec, exact=args.exact)
    params = PrivacyParams(args.epsilon, args.delta)
    method = args.method
    if method == "auto":
        method = "matrix" if spec.product is not None else "reduced"
    if method == "matrix":
        if spec.product is None:
            raise DataFormatError("--method matrix needs a product-kind spec, "
                                  "not a utility table")
        report = verify_matrix(spec.product.matrix, params, space=spec.space,
                               exact=args.exact)
    elif method == "reduced":
        report = verify_reduced(spec, params, exact=args.exact)
    else:
        report = verify_bruteforce(spec, params,
                                   budget_subsets=args.budget_subsets,
                                   exact=args.exact)
    payload = report.to_json_dict()
    if args.format == "table":
        payload["binding_pair"] = json.dumps(payload["binding_pair"])
        payload["binding_set"] = json.dumps(payload["binding_set"])
    _emit(args, payload)
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
    takes one fixed-width item of a table of the lines, padded to the
    longest with 0xFF, a byte UTF-8 never uses, which is then dropped."""
    lines = [f"{label}\n".encode("utf-8") for label in labels]
    width = max(map(len, lines))
    table = np.frombuffer(b"".join(line.ljust(width, b"\xff")
                                   for line in lines), dtype=f"V{width}")
    for start in range(0, values.size, _LINE_BLOCK):
        # np.take would copy read-only indices first
        taken = table[values[start:start + _LINE_BLOCK]]
        yield taken.tobytes().replace(b"\xff", b"")


def cmd_sanitize(args) -> int:
    if args.seed < 0:
        raise ParameterRangeError(f"--seed must be >= 0, got {args.seed}")
    spec = load_spec_file(args.spec, exact=False)
    data = load_database_csv(args.data, spec.space, column=args.column)
    if spec.n != data.n:
        spec = spec.with_n(data.n)
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
    _emit(args, payload)
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
            save_spec_file(converted, args.output, categories_path=getattr(
                spec, "categories_path", None))
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
    _emit(args, payload)
    return 0


def cmd_optimal(args) -> int:
    if args.categories:
        space = load_category_space(args.categories)
    elif args.spec:
        space = load_spec_file(args.spec).space
    else:
        raise DataFormatError("optimal needs --categories or --spec")
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
    if args.format == "table":
        payload["matrix"] = json.dumps(payload["matrix"])
    _emit(args, payload)
    return 0


def _bench_spec(space: CategorySpace, n: int, mechanism: str, k: float):
    if mechanism == "hamming":
        return ExponentialSpec(space, n, HammingUtility(k))
    if mechanism == "l1":
        return ExponentialSpec(space, n, NegL1Utility())
    raise DataFormatError(f"unknown bench mechanism {mechanism!r}")


def cmd_bench(args) -> int:
    params = PrivacyParams(args.epsilon, args.delta)
    rows = []
    for m in args.m_list:
        for n in args.n_list:
            space = CategorySpace(tuple(f"c{i}" for i in range(m + 1)))
            row = {
                "mechanism": args.mechanism,
                "m": m,
                "n": n,
                "epsilon": params.epsilon,
                "delta": params.delta,
                "kernel": kernels.BACKEND,
                "checks_naive": str(naive_check_count(space, n)),
            }
            spec = _bench_spec(space, n, args.mechanism, args.k)
            start = time.perf_counter()
            reduced = verify_reduced(spec, params)
            row["time_reduced_s"] = time.perf_counter() - start
            row["checks_reduced"] = str(reduced.checks_performed)
            row["verdict"] = reduced.verdict
            start = time.perf_counter()
            try:
                brute = verify_bruteforce(spec, params,
                                          budget_subsets=args.budget_subsets)
            except EnumerationBudgetError as exc:
                row.update(brute_reason=str(exc), time_bruteforce_s=None,
                           speedup=None, brute_skipped=True)
            else:
                row["time_bruteforce_s"] = time.perf_counter() - start
                row["agree"] = brute.verdict == reduced.verdict
                row["speedup"] = (row["time_bruteforce_s"]
                                  / max(row["time_reduced_s"], 1e-9))
            row["skipped"] = False
            rows.append(row)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(" ".join(f"{key}={value}" for key, value in row.items()))
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
    p.add_argument("--method", choices=("auto", "reduced", "brute", "matrix"),
                   default="auto")
    _add_options(p, exact=True, budgets=True)

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
    _add_options(p)

    p = sub.add_parser("convert", help="map between hamming and product form")
    p.add_argument("--spec", required=True)
    p.add_argument("--output", default=None, help="write the converted spec")
    _add_options(p, exact=True)

    p = sub.add_parser("optimal", help="error-optimal solution matrix")
    _privacy_args(p)
    p.add_argument("--categories", default=None)
    p.add_argument("--spec", default=None)
    p.add_argument("--output", default=None, help="write the matrix as CSV")
    _add_options(p, exact=True)

    p = sub.add_parser("bench", help="workload comparison across (m, n)")
    _privacy_args(p)
    p.add_argument("--mechanism", choices=("hamming", "l1"), default="hamming")
    p.add_argument("--k", type=float, default=1.0,
                   help="hamming privacy weight (default 1.0)")
    # tuple defaults: the parser, and with it each default, outlives a call
    p.add_argument("--m-list", type=lambda s: [int(x) for x in s.split(",")],
                   default=(1, 2), metavar="M1,M2,...")
    p.add_argument("--n-list", type=lambda s: [int(x) for x in s.split(",")],
                   default=(1, 2), metavar="N1,N2,...")
    _add_options(p, budgets=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        if getattr(args, "budget_subsets", 0) < 0:
            raise ParameterRangeError(
                f"--budget-subsets must be >= 0, got {args.budget_subsets}")
        return command(args)
    except (DataFormatError, ParameterRangeError, IncompleteUtilityError,
            LengthMismatchError, ExactModeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_ERROR
    except Exception:
        import traceback    # only on the failure path: no import-time cost
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
