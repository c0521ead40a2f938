"""Benchmark of the nsgames package: one workload, one seed, one process.

    python3 perfbench/run.py --workload ns_values --seed 1 --seconds 25 --trace 0

A closed loop with one caller runs the workload's fixed op list (a "pass"),
each op starting when the last returns: one pass, then more while another
still fits in --seconds. The answers of a pass are checked after it, outside
the measured time. With --trace 1 the run makes one untraced pass and one
traced pass instead, and reports per-layer self times and counts from the
traced one.

A fixed reference loop is timed before the first op and after every op. Op
latencies are reported in reference seconds (ref_s): seconds scaled by
REFERENCE_S over the reference loop's duration around the op, which cancels
the drift of a shared machine's speed. Plain seconds are in the summary line.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (each {"value", "unit"}). The line before it gives the environment,
the sample counts, the error rate and the plain-second timings. Exits 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 9

# The reference loop's duration, in seconds, on the machine the benchmark was
# written on; times scaled to it are in reference seconds (ref_s).
REFERENCE_S = 0.005

END_TO_END_UNITS = {
    "wall_ref_s": "ref_s",
    "op_p50_ref_s": "ref_s",
    "op_p90_ref_s": "ref_s",
    "ops_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment() -> dict:
    root = workloads.ROOT
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nsgames").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "backend": "gmpy2" if importlib.util.find_spec("gmpy2") else "fractions.Fraction",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_head(root / ".git"),
        "source_sha256": digest.hexdigest()[:16],
    }


def _git_head(git: Path) -> str | None:
    """HEAD's commit, read from the files (checkouts without .git give None)."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_loop() -> Fraction:
    """Fixed pure-Python rational arithmetic, like the package's inner loops.

    It takes about REFERENCE_S on the machine the benchmark was written on.
    Timed around every op, it measures how fast the machine is at that
    moment; on a shared host that drifts by tens of percent within minutes.
    """
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 97 + 1) * Fraction(3, 5)
    return total


def _reference_time() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def run_pass(ops, tracer=None):
    """Run the op list once, timing the reference loop before the first op
    and after every op.

    Returns (latencies, scales, outcomes): latency i times scale i is op i's
    latency in reference seconds, and each outcome is the op's result or the
    exception it raised.
    """
    latencies, scales, outcomes = [], [], []
    before = _reference_time()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
            with tracer.span(tracing.OP):
                t0 = time.perf_counter()
                outcome = _call(op)
                t1 = time.perf_counter()
            if op.counts is not None and not isinstance(outcome, Exception):
                tracer.add_counts(op.counts(outcome))
        else:
            t0 = time.perf_counter()
            outcome = _call(op)
            t1 = time.perf_counter()
        after = _reference_time()
        latencies.append(t1 - t0)
        scales.append(2 * REFERENCE_S / (before + after))
        outcomes.append(outcome)
        before = after
    return latencies, scales, outcomes


def _call(op):
    try:
        return op.call()
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return exc


def check(ops, outcomes, failures: list[str]) -> int:
    """Check each outcome against its op; returns the number that failed."""
    failed = 0
    for op, outcome in zip(ops, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise workloads.Mismatch(f"{op.kind}: raised {outcome!r}")
            op.check(outcome)
        except Exception as exc:  # a wrong or malformed answer fails its op, not the run
            failed += 1
            failures.append(str(exc) if isinstance(exc, workloads.Mismatch) else f"{op.kind}: {exc!r}")
    return failed


def setup(workload: str, seed: int, expected: dict):
    """Import the package, build the program's inputs and write the game
    files; repeated, so that set-up time is a median. The last set-up is
    used. The benchmark's own choices and derivations are made once, before."""
    specs = workloads.op_specs(workload, seed, expected)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ns = workloads.import_package()
        ops = workloads.build_ops(ns, specs)
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(workloads.ROOT)
    env = environment()
    expected = json.loads(Path(__file__).with_name("expected.json").read_text())
    ops, setup_s = setup(args.workload, args.seed, expected)

    failures: list[str] = []
    latencies: list[float] = []  # seconds
    normalized: list[float] = []  # reference seconds
    walls: list[tuple[float, float]] = []  # per pass: (seconds, reference seconds)
    attempted = failed = 0
    # whole passes only, so every run samples the same mix: the first pass
    # always, then another while it still fits in --seconds
    while not walls or (not args.trace and sum(w for w, _ in walls) + walls[-1][0] <= args.seconds):
        lat, scales, outcomes = run_pass(ops)
        ref = [t * k for t, k in zip(lat, scales)]
        latencies += lat
        normalized += ref
        walls.append((sum(lat), sum(ref)))
        attempted += len(outcomes)
        failed += check(ops, outcomes, failures)
        del outcomes

    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    seconds = {
        "wall_s": statistics.median(w for w, _ in walls),
        "op_p50_s": deciles[4],
        "op_p90_s": deciles[8],
        "ops_per_s": len(latencies) / sum(latencies),
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        lat, _, outcomes = run_pass(ops, tracer)
        attempted += len(outcomes)
        failed += check(ops, outcomes, failures)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = sum(lat) - walls[0][0]
        metrics["trace.overhead_share"] = (sum(lat) - walls[0][0]) / walls[0][0]
        units = {name: _per_layer_unit(name) for name in metrics}
        _write(f"trace-{args.workload}-{args.seed}.json", {"env": env, "spans": tracer.spans})
    else:
        deciles = statistics.quantiles(normalized, n=10, method="inclusive")
        metrics = {
            "wall_ref_s": statistics.median(r for _, r in walls),
            "op_p50_ref_s": deciles[4],
            "op_p90_ref_s": deciles[8],
            "ops_per_ref_s": len(normalized) / sum(normalized),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "ops_per_pass": len(ops),
        "passes": len(walls) + args.trace,
        "latency_samples": len(latencies),
        "error_rate": failed / attempted,
        "reference_loop_s": statistics.median(_reference_time() for _ in range(9)),
        "seconds": seconds,
    }
    _write(f"result-{args.workload}-{args.seed}-trace{args.trace}.json", {**summary, "metrics": metrics})
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits"):
        return "bits"
    return "count"


def _write(name: str, payload: dict) -> None:
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    with open(f"{workloads.WORK_DIR}/{name}", "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
