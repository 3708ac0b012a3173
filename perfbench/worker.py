"""One pass of a workload's request list, in a fresh process.

    python3 perfbench/worker.py SPAWN_TIME JOB_JSON

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so set-up time
covers interpreter start-up and every import up to ``dpcat.cli``.  The job
names the source tree, the request file, the result file and, for a traced
pass, the span file.  A job without a request file only measures set-up.

Requests run back to back through ``dpcat.cli.main(argv)``, one client and
no think time.  Outputs are kept for the parent's oracles; peak RSS is this
process's own high-water mark, read before anything else is allocated.
"""

import json
import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import dpcat.cli
    setup_s = time.monotonic() - spawned

    import contextlib
    import io
    import resource
    import traceback

    import numpy as np

    result = {"setup_s": setup_s, "backend": dpcat.KERNEL_BACKEND}
    if "requests" in job:
        with open(job["requests"], encoding="utf-8") as fh:
            calls = json.load(fh)
        tracer = None
        if job.get("spans"):
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        outputs = []
        start = time.perf_counter()
        for i, call in enumerate(calls):
            out, err = io.StringIO(), io.StringIO()
            code, array, error = None, None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    if tracer is not None:
                        tracer.request_id = i
                        code, array = tracer.call("cli.request", _run, call)
                    else:
                        code, array = _run(call)
            except SystemExit as exc:       # argparse rejected the argv
                code = exc.code
                error = f"SystemExit({exc.code}): {err.getvalue()}"
            except Exception:               # keep going; the oracle fails it
                error = traceback.format_exc()
            outputs.append((time.perf_counter() - t0, code, out.getvalue(),
                            err.getvalue(), array, error))
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.save(job["spans"])
            result["trace"] = tracer.summary(result["wall_s"])
        result["requests"] = []
        for i, (latency, code, stdout, stderr, array, error) in \
                enumerate(outputs):
            entry = {"latency_s": latency, "code": code, "stdout": stdout,
                     "stderr": stderr, "error": error}
            if array is not None:
                entry["array"] = f"{job['result']}.{i}.npy"
                np.save(entry["array"], array)
            result["requests"].append(entry)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(call: dict):
    """Run one request; returns (exit code, array result or None)."""
    import dpcat.analysis
    import dpcat.cli
    if "argv" in call:
        return dpcat.cli.main(call["argv"]), None
    import numpy as np
    from dpcat.verifier import PrivacyParams
    arg = call["feasible"]
    mats = dpcat.analysis.sample_feasible_matrices(
        arg["m"], PrivacyParams(arg["epsilon"], arg["delta"]), arg["count"],
        np.random.default_rng(arg["seed"]), batch=arg["batch"],
        max_batches=arg["max_batches"])
    return 0, mats


if __name__ == "__main__":
    sys.exit(main())
