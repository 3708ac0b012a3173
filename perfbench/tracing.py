"""Per-layer spans for a traced worker pass.

``Tracer.install`` replaces each layer's entry points where the calling
layer looks them up (module attributes such as ``dpcat.kernels.subset_scan``
and ``dpcat.cli.verify_reduced``, and spec methods such as
``ExponentialSpec.pmf_row``) with wrappers that record a span: kind, start,
end, parent span and request id.  Spans are kept in flat arrays in memory
and written out once, at the end of the pass.  Nothing under ``src/dpcat``
is modified on disk; an untraced worker never imports this module.

A layer's self time is the total duration of its spans minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import time
import weakref
from array import array

import numpy as np

#: Span kind -> the per-layer metric that sums its self time.
SPAN_METRICS = {
    "cli.request": "cli.self_s",
    "specfile.load": "specfile.load_s",
    "core.digit_matrix": "core.digit_matrix_s",
    "core.load_csv": "core.load_csv_s",
    "mechanisms.row": "mechanisms.row_s",
    "mechanisms.exact_row": "mechanisms.exact_row_s",
    "mechanisms.sample": "mechanisms.sample_s",
    "kernels.scan": "kernels.scan_s",
    "verifier.verify": "verifier.self_s",
    "analysis.expected_error": "analysis.expected_error_s",
    "analysis.margins": "analysis.margins_s",
}
KINDS = tuple(SPAN_METRICS)
_ROW = KINDS.index("mechanisms.row")
_VERIFY = KINDS.index("verifier.verify")

#: Counts that depend only on the request list; two passes over the same
#: list must report them identically.
COUNTERS = (
    "core.digit_matrix_calls",
    "mechanisms.row_calls",
    "mechanisms.rows_built",
    "mechanisms.exact_row_calls",
    "mechanisms.rows_sampled",
    "kernels.scan_calls",
    "kernels.subsets_checked",
    "kernels.scan_width_max",
    "kernels.bytes_computed",
    "verifier.pairs",
    "verifier.checks",
    "analysis.matrices_drawn",
    "analysis.matrices_kept",
)

#: Modelled bytes per subset a scan evaluates: the subset sums P_a(A) and
#: P_b(A), one float64 each.  Computed from the scan width, not measured.
BYTES_PER_SUBSET = 16


class Tracer:
    """Spans and counters of one worker pass; ``install`` starts recording."""

    def __init__(self):
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.kind = array("b")
        self.request = array("q")
        self.request_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._stack_kind: list[int] = []
        self._rows_seen = weakref.WeakKeyDictionary()
        self._tolerance = 0.0       # the verifier's, set by install()

    # -- spans --------------------------------------------------------------

    def _open(self, kind: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.kind.append(kind)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(sid)
        self._stack_kind.append(kind)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._stack_kind.pop()

    def call(self, kind: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``kind``."""
        sid = self._open(KINDS.index(kind))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, kind: str, fn, after=None):
        k = KINDS.index(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_row(self, fn):
        """Row methods call each other (pmf_row -> log_pmf_row ->
        utility_row); only the outermost call is a span and a row call."""
        @functools.wraps(fn)
        def wrapper(spec, index, *args, **kwargs):
            if self._stack_kind and self._stack_kind[-1] == _ROW:
                return fn(spec, index, *args, **kwargs)
            self.counts["mechanisms.row_calls"] += 1
            seen = self._rows_seen.setdefault(spec, set())
            if int(index) not in seen:
                seen.add(int(index))
                self.counts["mechanisms.rows_built"] += 1
            sid = self._open(_ROW)
            try:
                return fn(spec, index, *args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    # -- counters -------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def _after_scan(self, args, result) -> None:
        width = len(args[0])
        self.counts["kernels.scan_calls"] += 1
        self.counts["kernels.subsets_checked"] += int(result[2])
        self.counts["kernels.bytes_computed"] += BYTES_PER_SUBSET * (1 << width)
        if width > self.counts["kernels.scan_width_max"]:
            self.counts["kernels.scan_width_max"] = width

    def _after_pair_verify(self, args, report) -> None:
        # verify_reduced and verify_bruteforce visit every ordered
        # neighbour pair of the spec: n * m * (m + 1)^n of them.
        if not report.trivial:
            space, n = report.space, report.n
            self.counts["verifier.pairs"] += n * space.m * space.size ** n
        self._after_verify(args, report)

    def _after_verify(self, args, report) -> None:
        if _VERIFY not in self._stack_kind:     # outermost verifier call
            self.counts["verifier.checks"] += report.checks_performed

    def _after_margins(self, args, margins) -> None:
        self.counts["analysis.matrices_drawn"] += int(margins.shape[0])
        self.counts["analysis.matrices_kept"] += int(
            np.count_nonzero(margins >= -self._tolerance))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import dpcat.analysis as analysis
        import dpcat.cli as cli
        import dpcat.kernels as kernels
        import dpcat.mechanisms as mechanisms
        import dpcat.verifier as verifier

        self._tolerance = verifier.TOLERANCE
        cli.load_spec_file = self._wrap("specfile.load", cli.load_spec_file)
        cli.load_database_csv = self._wrap("core.load_csv",
                                           cli.load_database_csv)
        digit = self._wrap(
            "core.digit_matrix", mechanisms.digit_matrix,
            lambda a, r: self._count("core.digit_matrix_calls"))
        mechanisms.digit_matrix = digit
        analysis.digit_matrix = digit
        for cls in (mechanisms.ExponentialSpec, mechanisms.ProductSpec):
            for name in ("utility_row", "log_pmf_row", "pmf_row"):
                if name in vars(cls):
                    setattr(cls, name, self._wrap_row(vars(cls)[name]))
            cls.exact_pmf_row = self._wrap(
                "mechanisms.exact_row", vars(cls)["exact_pmf_row"],
                lambda a, r: self._count("mechanisms.exact_row_calls"))
        cli.sample = self._wrap(
            "mechanisms.sample", cli.sample,
            lambda a, r: self._count("mechanisms.rows_sampled", a[1].n))
        kernels.subset_scan = self._wrap("kernels.scan", kernels.subset_scan,
                                         self._after_scan)
        brute = self._wrap("verifier.verify", verifier.verify_bruteforce,
                           self._after_pair_verify)
        verifier.verify_bruteforce = brute
        cli.verify_bruteforce = brute
        cli.verify_reduced = self._wrap("verifier.verify", cli.verify_reduced,
                                        self._after_pair_verify)
        cli.verify_matrix = self._wrap("verifier.verify", cli.verify_matrix,
                                       self._after_verify)
        cli.expected_error = self._wrap("analysis.expected_error",
                                        cli.expected_error)
        analysis.batch_matrix_margins = self._wrap(
            "analysis.margins", analysis.batch_matrix_margins,
            self._after_margins)

    # -- results --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "kind": np.frombuffer(self.kind, dtype=np.int8).astype(np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, kinds=np.array(KINDS), **self.columns())

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass."""
        col = self.columns()
        dur = (col["end_ns"] - col["start_ns"]) / 1e9
        nested = col["parent"] >= 0
        covered = np.bincount(col["parent"][nested], weights=dur[nested],
                              minlength=dur.shape[0])
        self_time = np.bincount(col["kind"], weights=dur - covered,
                                minlength=len(KINDS))
        out = {SPAN_METRICS[k]: float(self_time[i])
               for i, k in enumerate(KINDS)}
        c = self.counts
        out.update({name: c[name] for name in COUNTERS})
        out["mechanisms.row_reuse_ratio"] = (
            1 - c["mechanisms.rows_built"] / c["mechanisms.row_calls"]
            if c["mechanisms.row_calls"] else 0.0)
        out["kernels.subsets_per_s"] = (
            c["kernels.subsets_checked"] / out["kernels.scan_s"]
            if c["kernels.scan_calls"] else 0.0)
        out["verifier.scan_pair_ratio"] = (
            c["kernels.scan_calls"] / c["verifier.pairs"]
            if c["verifier.pairs"] else 0.0)
        out["analysis.acceptance_ratio"] = (
            c["analysis.matrices_kept"] / c["analysis.matrices_drawn"]
            if c["analysis.matrices_drawn"] else 0.0)
        out["trace.coverage_frac"] = float(self_time.sum()) / wall_s
        out["trace.spans"] = int(dur.shape[0])
        return out
