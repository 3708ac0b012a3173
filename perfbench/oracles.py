"""Output checks for every request type, run after the timed loop.

Verdicts are checked against a decision the request did not make:

* hamming specs against the closed form ``exp_dp_condition``;
* symmetric product specs against ``product_dp_condition`` (in exact form
  for ``--exact`` requests);
* L1 and asymmetric product specs against ``verify_matrix`` on a one-row
  parent the benchmark builds itself.  Neighbours differ in one row of an
  otherwise identical product, so the n-row mechanism has the parent's
  hockey-stick divergence and the same verdict for every delta;
* utility tables against the other of the reduced and brute-force
  verifiers.

Sanitised files are checked for row count, labels and keep rate; error
profiles and optimal matrices against their closed forms; feasible-matrix
searches for stochasticity, privacy and criterion 6's optimality claim.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from dpcat import (
    CategorySpace,
    ExponentialSpec,
    PrivacyParams,
    SolutionMatrix,
    TableUtility,
    exp_dp_condition,
    product_dp_condition,
    verify_bruteforce,
    verify_matrix,
    verify_reduced,
)

#: Closed-form values are compared to this relative tolerance.
CLOSED_FORM_TOL = 1e-12

#: Sanitised keep counts must lie within this many standard deviations of
#: their mean.  At 4 sigma one honest request in about 16,000 would fail,
#: which over the many seeds a benchmark history uses is not rare; 5 sigma
#: makes that about one in 1.7 million while still catching any change to
#: the keep probability of more than a fraction of a percent at 100k rows.
KEEP_SIGMAS = 5.0


def _space(m: int) -> CategorySpace:
    return CategorySpace(tuple(f"c{i}" for i in range(m + 1)))


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= CLOSED_FORM_TOL * max(1.0, abs(expected))


class Checker:
    """Checks request outputs; expected verdicts are computed once per
    request and reused on later passes."""

    def __init__(self):
        self._verdicts: dict[int, bool] = {}

    def check(self, index: int, request, result: dict) -> str | None:
        """None if the request's output is correct, else the reason."""
        if result.get("error"):
            return result["error"].strip().splitlines()[-1]
        kind = request.check["type"]
        if kind == "feasible":
            return self._feasible(request.check, np.load(result["array"]))
        if kind in ("sanitize", "analyze", "optimal"):
            if result["code"] != 0:
                return f"exit code {result['code']}"
            if kind == "sanitize":
                return self._sanitize(request.check)
            payload = json.loads(result["stdout"])
            if kind == "analyze":
                if not _close(payload["expected_error"],
                              request.check["expected"]):
                    return (f"expected_error {payload['expected_error']!r} "
                            f"!= {request.check['expected']!r}")
                return None
            return self._optimal(request.check, payload)
        if index not in self._verdicts:
            self._verdicts[index] = _expected_private(request.check)
        private = self._verdicts[index]
        payload = json.loads(result["stdout"])
        verdict = "private" if private else "not-private"
        if payload["verdict"] != verdict:
            return f"verdict {payload['verdict']}, oracle says {verdict}"
        if result["code"] != (0 if private else 1):
            return f"exit code {result['code']} for a {verdict} verdict"
        checks = request.check.get("checks")
        if checks is not None and payload["checks_performed"] != str(checks):
            return (f"checks_performed {payload['checks_performed']}, "
                    f"expected {checks}")
        return None

    @staticmethod
    def _sanitize(check: dict) -> str | None:
        with open(check["output"], encoding="utf-8") as fh:
            labels = fh.read().split("\n")
        if labels[-1] == "":
            labels.pop()
        rows = check["rows"]
        keep = check["keep"]
        if len(labels) != len(rows):
            return f"{len(labels)} rows written for {len(rows)} read"
        lookup = {f"c{i}": i for i in range(len(keep))}
        try:
            out = np.fromiter((lookup[x] for x in labels), dtype=np.int64,
                              count=len(labels))
        except KeyError as exc:
            return f"invalid label {exc.args[0]!r}"
        kept = int(np.count_nonzero(out == rows))
        q = keep[rows]
        mean, sd = float(q.sum()), math.sqrt(float((q * (1 - q)).sum()))
        if abs(kept - mean) > KEEP_SIGMAS * sd:
            return (f"kept {kept} of {len(rows)} rows, expected "
                    f"{mean:.1f} +- {KEEP_SIGMAS} x {sd:.1f}")
        return None

    @staticmethod
    def _optimal(check: dict, payload: dict) -> str | None:
        p = check["p"]
        if not _close(payload["p"], p):
            return f"p {payload['p']!r} != {p!r}"
        if not _close(payload["diagonal"], 1 - check["m"] * p):
            return f"diagonal {payload['diagonal']!r} != {1 - check['m'] * p!r}"
        return None

    @staticmethod
    def _feasible(check: dict, mats: np.ndarray) -> str | None:
        m, count = check["m"], check["count"]
        if mats.shape != (count, m + 1, m + 1):
            return f"shape {mats.shape}"
        if np.any(mats < 0) or np.any(np.abs(mats.sum(axis=2) - 1) > 1e-9):
            return "a returned matrix is not row-stochastic"
        e_eps = math.exp(check["eps"])
        hockey = np.maximum(mats[:, :, None, :] - e_eps * mats[:, None, :, :],
                            0.0).sum(axis=3).max(axis=(1, 2))
        if float(hockey.max()) > check["delta"] + 1e-9:
            return "a returned matrix is not private"
        best = m * (1 - check["delta"]) / (e_eps + m)
        errors = 1.0 - mats.diagonal(axis1=1, axis2=2).min(axis=1)
        if float(errors.min()) < best - 1e-12:
            return "a feasible matrix beats the optimal error"
        return None


def _expected_private(check: dict) -> bool:
    params = PrivacyParams(check["eps"], check["delta"])
    kind = check["type"]
    if kind == "hamming":
        return exp_dp_condition(check["k"], params, check["m"],
                                exact=check["exact"]).satisfied
    if kind == "product":
        p_exact = check["p_exact"]
        return product_dp_condition(
            check["p"], params, check["m"],
            p_exact=None if p_exact is None else Fraction(p_exact),
            exact=check["exact"]).satisfied
    if kind == "parent":
        return verify_matrix(SolutionMatrix(check["matrix"]), params).private
    if kind == "table":
        space, n = _space(check["m"]), check["n"]
        spec = ExponentialSpec(space, n, TableUtility(
            space, n, check["table"], assert_fixed_c=check["fixed_c"]))
        other = verify_reduced if check["method"] == "brute" else verify_bruteforce
        return other(spec, params).private
    raise ValueError(f"no oracle for request type {kind!r}")
