#!/usr/bin/env python3
"""The dpcat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs building.  From the seed the benchmark writes
spec, table, matrix, category and data files under ``.perfbench/`` and a
fixed request list for the workload (see ``workloads.py``).  It then runs
passes over that list, each in a fresh worker process (``worker.py``): one
client, closed loop, no think time, no threads.  Passes repeat until
``--seconds`` have elapsed (at least one).  After each pass every output is
checked against an independent oracle (``oracles.py``); checking is not
timed.

``--trace 0`` installs nothing in the workers and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced passes with traced ones, whose
workers wrap each layer's entry points (``tracing.py``), and reports the
per-layer metrics; the deterministic counters of every traced pass must
match exactly.

Human-readable lines, the environment block included, come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record is written to
``.perfbench/results/``.  ``compare.py`` compares two such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREREGISTRATION = json.loads((HERE / "preregistration.json").read_text(
    encoding="utf-8"))

#: Set-up is sampled at least this many times per untraced run (every pass
#: is one sample; extra workers that only import make up the rest).
SETUP_SAMPLES = 7

#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class Runner:
    """Spawns worker passes for one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int):
        import oracles      # imports dpcat, so only once src is on the path
        import workloads

        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.requests = workloads.build(workload, seed, self.dir / "inputs")
        self.calls = self.dir / "requests.json"
        self.calls.write_text(json.dumps([r.call for r in self.requests]),
                              encoding="utf-8")
        self.checker = oracles.Checker()
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, mode: str) -> dict:
        """One worker: mode is "probe" (set-up only), "plain" or "traced"."""
        job = {"src": str(SRC), "result": str(self.dir / f"{mode}.json")}
        if mode != "probe":
            job["requests"] = str(self.calls)
        if mode == "traced":
            job["spans"] = str(self.dir / "spans.npz")
        job_path = self.dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        spawned = time.monotonic()
        with subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                               repr(spawned), str(job_path)],
                              cwd=ROOT) as proc:
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{mode} worker exceeded "
                                   f"{WORKER_TIMEOUT_S} s") from None
        if code != 0:
            raise RuntimeError(f"{mode} worker exited with code {code}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        if mode != "probe":
            self._check(result)
        return result

    def _check(self, result: dict) -> None:
        for i, (request, out) in enumerate(zip(self.requests,
                                               result["requests"])):
            reason = self.checker.check(i, request, out)
            if reason is not None:
                self.failures.append(f"request {i} ({request.label}): {reason}")
            if "array" in out:
                os.remove(out["array"])
        self.attempted += len(self.requests)


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    latencies = [r["latency_s"] for p in plain for r in p["requests"]]
    return {
        "setup_s": _median(setups),
        "wall_s": _median(p["wall_s"] for p in plain),
        "request_p50_ms": _percentile(latencies, 50) * 1000,
        "request_p90_ms": _percentile(latencies, 90) * 1000,
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Median of each layer metric over the traced passes, the tracing
    overhead against the untraced passes, and any counter that differed
    between traced passes."""
    from tracing import COUNTERS

    summaries = [p["trace"] for p in traced]
    out = {key: _median(s[key] for s in summaries) for key in summaries[0]}
    out["trace.overhead_frac"] = (_median(p["wall_s"] for p in traced)
                                  / _median(p["wall_s"] for p in plain) - 1)
    unsteady = [k for k in COUNTERS
                if len({s[k] for s in summaries}) != 1]
    return out, unsteady


def environment(seed: int, load: float, backend: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": backend,
        "DPCAT_KERNEL": os.environ.get("DPCAT_KERNEL", ""),
        "loadavg_1min_at_start": load,
        "seed": seed,
    }


def main(argv=None) -> int:
    load = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description="dpcat benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int,
                        default=PREREGISTRATION["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpcat" / "cli.py").is_file():
        print(f"error: no dpcat source tree at {SRC}; run from the root of "
              f"a dpcat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner = Runner(args.workload, args.seed)
    start = time.monotonic()
    plain, traced = [], []
    schedule = ["plain", "traced", "traced"] if args.trace else ["plain"]
    last = 0.0
    while True:
        if schedule:
            mode = schedule.pop(0)
        elif time.monotonic() - start + last > args.seconds:
            break           # another pass would not end in time
        else:
            mode = ("plain" if not args.trace or len(plain) <= len(traced)
                    else "traced")
        begun = time.monotonic()
        (traced if mode == "traced" else plain).append(runner.spawn(mode))
        last = time.monotonic() - begun
    passes = plain + traced
    setups = [p["setup_s"] for p in passes]
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("probe")["setup_s"])

    env = environment(args.seed, load, passes[0]["backend"])
    e2e = end_to_end(plain, setups)
    if args.trace:
        metrics, unsteady = per_layer(plain, traced)
        units = PER_LAYER_UNITS
    else:
        metrics, unsteady = e2e, []
        units = END_TO_END_UNITS
    failed = len(runner.failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "passes": {"requests": len(runner.requests),
                   "plain_wall_s": [p["wall_s"] for p in plain],
                   "traced_wall_s": [p["wall_s"] for p in traced],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                   "setup_s": setups},
        "end_to_end": e2e,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        "unsteady_counters": unsteady,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1), encoding="utf-8")

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: {len(plain)} untraced and {len(traced)} "
          f"traced passes of {len(runner.requests)} requests")
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}")
    for name in unsteady:
        print(f"UNSTEADY counter {name} differs between traced passes")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"failed_frac = {report['failed_frac']:.6g} ratio")
    if args.trace:
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
