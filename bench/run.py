"""Benchmark for splittings: three closed-loop workloads, one client, one process.

    python3 bench/run.py --workload {wide-graph,deep-words,cli-batch} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/``; every
input is generated from ``--seed``. With ``--trace 0`` the workload's op
cycle runs back to back for ``--seconds`` (at least one whole cycle), and
the end-to-end metrics are printed, scaled to a nominal host speed by
``hostspeed``; with ``--trace 1`` a fixed number of cycles runs once
untraced and once with every layer's public functions wrapped in spans, and
the per-layer metrics are printed. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A wrong or
failed op makes the exit code 1. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
TRACE_CYCLES = {"wide-graph": 1, "deep-words": 2, "cli-batch": 3}


def run_record(args, sizes: dict) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "git_commit": commit,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def setup_seconds(args, scratch: Path) -> tuple[float, float]:
    """Median over fresh interpreters of import + input generation and
    validation, scaled to the nominal host speed, and the unscaled median.
    One discarded probe first warms the bytecode cache."""
    times, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), args.workload,
             str(args.seed), str(scratch / f"probe{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            elapsed, loop_s = map(float, proc.stdout.split()[-2:])
            times.append(elapsed)
            scaled.append(elapsed * hostspeed.CAL_NOMINAL_S / loop_s)
    return statistics.median(scaled), statistics.median(times)


class Runner:
    def __init__(self, workload, checker):
        self.cycle = workload.cycle
        self.checker = checker
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, i: int, op_id: int) -> float:
        """Run op ``i`` of the cycle, check its answer, return its wall time."""
        op = self.cycle[i]
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op_id, op.kind)
        t0 = time.perf_counter()
        try:
            answer = op.run()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(dt)
        if error is None:
            error = self.checker.check(i, op, answer)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"op {i} ({op.kind}): {error}")
        return dt

    def run_cycle(self, op_base: int = 0) -> None:
        for i in range(len(self.cycle)):
            self.run_op(i, op_base + i)


def timed(args, workload, checker, scratch: Path):
    # No warm-up cycle: the package keeps no caches, and the first run of
    # each seeded op fixes its reference answer.
    runner = Runner(workload, checker)
    n = len(workload.cycle)
    per_op: list[list[float]] = [[] for _ in range(n)]
    speed = hostspeed.HostSpeed()
    t0 = time.perf_counter()
    k = 0
    while True:
        dt = runner.run_op(k % n, k)
        per_op[k % n].append(dt)
        speed.sample(hostspeed.CAL_SHARE * dt)
        k += 1
        wall = time.perf_counter() - t0
        if k >= n and wall >= args.seconds:
            break
    # Each op of the cycle counts once, by its median over its repeats, so
    # the tail percentile lands on the same ops however many cycles ran.
    op_s = [statistics.median(v) for v in per_op]
    unscaled = {
        "ops_per_s": n / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p99_ms": statistics.quantiles(op_s, n=100)[98] * 1e3,
    }
    factor = speed.factor()
    setup_s, setup_unscaled = setup_seconds(args, scratch)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (unscaled["ops_per_s"] / factor, "ops/s"),
        "op_p50_ms": (unscaled["op_p50_ms"] * factor, "ms"),
        "op_p99_ms": (unscaled["op_p99_ms"] * factor, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    unscaled["setup_s"] = setup_unscaled
    extra = {
        "timed_ops": k,
        "cycles": k / n,
        "min_repeats": min(map(len, per_op)),
        "wall_s": wall,
        "host_loop_median_s": statistics.median(speed.loop_s),
        "host_loops": len(speed.loop_s),
        "host_factor": factor,
        "unscaled": unscaled,
    }
    return runner, metrics, extra


def traced(args, workload, checker):
    import tracing

    cycles = TRACE_CYCLES[args.workload]
    runner = Runner(workload, checker)
    runner.run_cycle()  # warm-up
    t0 = time.perf_counter()
    for _ in range(cycles):
        runner.run_cycle()
    untraced_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        t0 = time.perf_counter()
        for c in range(cycles):
            runner.run_cycle(c * len(workload.cycle))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    metrics = tracer.metrics(untraced_s, traced_s)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json"
    tracer.dump(spans_path)
    extra = {
        "trace_cycles": cycles,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return runner, metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(TRACE_CYCLES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "splittings" / "__init__.py").is_file():
        print(f"error: no splittings package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, scratch / "inputs")
        checker = workloads.AnswerChecker(workloads.load_reference())
        if args.trace:
            runner, metrics, extra = traced(args, workload, checker)
        else:
            runner, metrics, extra = timed(args, workload, checker, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = run_record(args, workload.sizes)
    record.update(extra)
    record["error_rate"] = failed / runner.attempted
    record["failures"] = runner.failures[:50]
    for k, (v, u) in metrics.items():
        print(f"{args.workload:<11} {k:<52} {v:>16.6g} {u}")
    print(f"{args.workload:<11} {'error_rate':<52} {record['error_rate']:>16.6g} ratio"
          f" ({failed} of {runner.attempted} ops)")
    if not args.trace:
        print(f"{args.workload:<11} times scaled by {extra['host_factor']:.4f} to the nominal"
              f" host speed; op latencies are the medians of {extra['min_repeats']} or more"
              f" repeats of each of the cycle's {len(workload.cycle)} ops")
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print("run: " + json.dumps(record, sort_keys=True))
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"record": record, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
