"""One pass of a workload in a fresh interpreter: set up, send, check, report.

Usage: python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--setup-only]

One client sends the requests in a closed loop: each starts after the
previous one and its check have finished.  Only the requests are timed
(``wall_s`` is their sum); checks run untimed, with tracing paused.  The last stdout line is a JSON
object with the pass's timings, failures, suite digests and, when
traced, the per-span totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports juryconv; set-up time includes it)
from tracer import Tracer  # noqa: E402


def run_pass(name: str, seed: int, trace: bool) -> dict:
    requests = workloads.build(name, seed)
    ready = time.monotonic()
    tracer = Tracer()
    if trace:
        tracer.install()
    op_ms, failures, digests = [], [], {}
    wall_s = suite_s = 0.0
    for req in requests:
        tracer.active = trace
        start = time.perf_counter()
        try:
            out = tracer.span("cli.suite", req.run) if req.suite else req.run()
            reason = None
        except Exception as exc:  # a raising request is a failed request, not a crash
            reason = f"raised {exc!r}"[:200]
        elapsed = time.perf_counter() - start
        tracer.active = False
        wall_s += elapsed
        if reason is None:
            if req.suite:
                suite_s += elapsed
                digests[req.label] = workloads.report_digest(out)
            else:
                op_ms.append(elapsed * 1e3)
            try:
                reason = req.check(out)
            except Exception as exc:
                reason = f"check raised {exc!r}"[:200]
        if reason is not None:
            failures.append({"label": req.label, "reason": reason})
    return {
        "ready": ready,
        "attempted": len(requests),
        "wall_s": wall_s,
        "suite_s": suite_s,
        "op_ms": op_ms,
        "failures": failures,
        "digests": digests,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.summary() if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are built; report only that time")
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        result = {"ready": time.monotonic()}
    else:
        result = run_pass(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
