"""Benchmark driver for juryconv: end-to-end and per-layer numbers from one tool.

Usage, from the repository root:

    python3 bench/run.py --workload calculus|ring-float|ring-exact \\
        --seed N --seconds S --trace 0|1

A run repeats passes of the workload for about ``--seconds`` seconds.
Each pass is a fresh single-threaded interpreter (``bench/worker.py``)
that imports juryconv, builds the seeded inputs and sends the requests
with one client in a closed loop, so every pass pays the cold costs a
user of a fresh process pays.  The end-to-end times are those of the
run's fastest pass (see :func:`end_to_end`); ``setup_s`` is the median
over the passes and over extra processes that stop after set-up.

Requests whose check fails are counted in ``failed``, except those that
``bench/layers.json`` lists as expected seed failures of the workload;
those are reported apart, so a fix shows as their count falling.

With ``--trace 1`` the run alternates traced and untraced passes and
reports the per-layer metrics (medians of traced passes) and the tracing
overhead (traced minus untraced ``wall_s``).  Counts must repeat exactly
across traced passes, and suite report digests across all passes.

The metric names and units come from BENCHMARK.json.  The last stdout
line is the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170  # a run, with its slowest pass, must end well within 180 s
SETUP_PROBES = 8  # extra set-up-only processes per run, for a steadier setup_s median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COUNT_FIELDS = ("calls", "cold_calls", "emitted", "madds", "terms")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("JURYCONV_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_sha() -> str:
    """HEAD's sha when the tree is a git checkout, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "thread_vars": {var: "1" for var in THREAD_VARS},
        "JURYCONV_THREADS": "unset",
    }


def run_worker(timeout: float, *args: str) -> dict:
    """One fresh worker process; returns its result plus its set-up time."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: bool):
    """Set-up probes, then passes until the next would overrun ``seconds``.

    Returns the passes (at least two of each kind), the set-up times of
    probes and passes, and the errors that ended the run early.
    """
    passes, setups, errors = [], [], []
    durations = {False: [], True: []}
    start = time.monotonic()
    base = ("--workload", workload, "--seed", str(seed))
    try:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(RUN_LIMIT_S, *base, "--setup-only")["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return passes, setups, [str(exc)]
    kinds = [True, False] if trace else [False]
    while True:
        traced = kinds[len(passes) % len(kinds)]
        elapsed = time.monotonic() - start
        need_more = sum(p["traced"] == traced for p in passes) < 2
        if not need_more and elapsed + max(durations[traced]) > seconds:
            break
        t0 = time.monotonic()
        try:
            result = run_worker(max(5.0, RUN_LIMIT_S - elapsed), *base, "--trace", str(int(traced)))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            errors.append(str(exc))
            break
        result["traced"] = traced
        passes.append(result)
        setups.append(result["setup_s"])
        durations[traced].append(time.monotonic() - t0)
    return passes, setups, errors


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of values, by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setups) -> dict:
    """Each time is the best pass's; set-up time and memory are medians.

    Interference from other work on the host only ever adds time, and it
    comes in bursts lasting seconds, so the fastest pass is the steadiest
    estimate of the program's own cost: on a shared 2-CPU host the median
    pass drifted by about 10% between runs where the fastest held to 4%.
    """
    return {
        "setup_s": statistics.median(setups),
        "wall_s": min(p["wall_s"] for p in passes),
        "suite_s": min(p["suite_s"] for p in passes),
        "op_ms.p50": min(statistics.median(p["op_ms"]) for p in passes),
        "op_ms.p90": min(percentile(p["op_ms"], 90) for p in passes),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
    }


def layer_rows(spans: dict) -> dict:
    """Span totals with the cold and warm enumeration spans merged into one row."""
    rows = {name: dict(row) for name, row in spans.items()}
    cold = rows.get("partitions.enumerate.cold", {})
    warm = rows.get("partitions.enumerate.warm", {})
    rows["partitions.enumerate"] = {
        "calls": cold.get("calls", 0) + warm.get("calls", 0),
        "cold_calls": cold.get("calls", 0),
        "cold_s": cold.get("self_s", 0.0),
        "warm_s": warm.get("self_s", 0.0),
        "emitted": cold.get("emitted", 0) + warm.get("emitted", 0),
    }
    for row in rows.values():
        if "madds" in row:
            row["madds_per_s"] = row["madds"] / row["self_s"] if row["self_s"] > 0 else 0.0
    return rows


def per_layer(names, traced, untraced, expected_failures: int):
    """Per-layer values (medians over traced passes) and any count that did not repeat."""
    tables = [layer_rows(p["spans"]) for p in traced]
    values, mismatches = {}, []
    for name in names:
        span, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = (min(p["wall_s"] for p in traced)
                            - min(p["wall_s"] for p in untraced))
            continue
        if name == "checks.expected_failures":
            values[name] = expected_failures
            continue
        seen = [table.get(span, {}).get(field, 0) for table in tables]
        if field in COUNT_FIELDS:
            if len(set(seen)) != 1:
                mismatches.append(f"{name}: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    return values, mismatches


def dominant_layer(traced) -> str:
    totals = {}
    for p in traced:
        for name, row in p["spans"].items():
            totals[name] = totals.get(name, 0.0) + row["self_s"]
    return max(totals, key=totals.get) if totals else "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "juryconv", "__init__.py")):
        print("error: src/juryconv is missing; run from a juryconv checkout", file=sys.stderr)
        return 2
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = _load(os.path.join(HERE, "layers.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(), sort_keys=True))
    passes, setups, errors = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in errors:
        print(f"# pass failed: {err}", file=sys.stderr)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        return 1

    expected = set(layers["expected_seed_failures"].get(args.workload, {}).get("labels", []))
    failed = len(errors)
    known = []
    for p in passes:
        known_here = [f for f in p["failures"] if f["label"] in expected]
        known.append(len(known_here))
        for f in p["failures"]:
            if f["label"] not in expected:
                failed += 1
                print(f"# FAILED {f['label']}: {f['reason']}", file=sys.stderr)
    for p in passes[1:]:
        for label, digest in p["digests"].items():
            if passes[0]["digests"].get(label) != digest:
                failed += 1
                print(f"# FAILED {label}: report digest differs between passes", file=sys.stderr)
    if expected:
        print(f"# expected seed failures per pass: {known[0]} ({', '.join(sorted(expected))})")

    correct = failed == 0
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, mismatches = per_layer(names, traced, untraced, known[0])
        for line in mismatches:
            print(f"# count differs between traced passes: {line}", file=sys.stderr)
        correct = correct and not mismatches
        top = dominant_layer(traced)
        want = layers["dominant_self_time"].get(args.workload)
        print(f"# largest self time: {top} (mapping expects {want})")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(untraced, setups)
    print(f"# {args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{sum(len(p['op_ms']) for p in passes)} library requests")
    print("# wall_s per pass: " + " ".join(
        f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}" for p in passes))
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")

    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
