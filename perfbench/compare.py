#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (copies of
``.perfbench/results`` from two checkouts).  For every workload and metric
the script prints each side's median over its runs, the spread of each
side (interquartile range / median) and the change of the medians.  An
end-to-end metric whose new median is worse than the base by more than the
bound in BENCHMARK.json is marked REGRESSED; one whose base spread exceeds
the bound is marked unresolved.  Results measured with different kernel
backends are reported as not comparable, and nothing else is printed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(directory: str) -> dict:
    """{(workload, trace): [report, ...]} for every result file."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault((report["workload"], report["trace"]), []).append(report)
    return out


def backends(results: dict) -> set:
    return {(r["environment"]["kernel_backend"], r["environment"]["DPCAT_KERNEL"])
            for reports in results.values() for r in reports}


def summary(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if backends(base) != backends(new) or len(backends(base)) > 1:
        print(f"not comparable: kernel backends {sorted(backends(base))} "
              f"vs {sorted(backends(new))}")
        return 1
    rules = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(base[key])} base runs, {len(new[key])} new runs)")
        for name, rule in rules.items():
            if name not in base[key][0]["metrics"]:
                continue
            b_med, b_spread = summary([r["metrics"][name] for r in base[key]])
            n_med, n_spread = summary([r["metrics"][name] for r in new[key]])
            change = (n_med - b_med) / b_med if b_med else 0.0
            note = ""
            bound = rule.get("bound")
            if bound is not None:
                worse = change if rule["better"] == "lower" else -change
                if b_spread > bound:
                    note = "unresolved"
                elif worse > bound:
                    note, regressed = "REGRESSED", True
            print(f"  {name:28s} {b_med:12.6g} -> {n_med:12.6g} {rule['unit']:6s}"
                  f" {change:+8.2%}  spread {b_spread:.3f}/{n_spread:.3f} {note}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
