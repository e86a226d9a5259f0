"""Benchmark of the xiaofib verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from any directory of a source checkout; the program is imported
from ``src/``.  One client drives a closed loop: the next op starts
when the previous one has finished, and at most one child process runs
at a time.  A run measures whole rounds of inputs (see ``workloads``)
until ``--seconds`` have passed.  ``verify`` and ``cli_inputs`` ops are fresh
``python -m xiaofib.cli`` processes under a per-call deadline and an
address-space cap; ``quartic_certs`` and ``monodromy_towers`` ops are
calls into the library in this process.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics of a separate traced run: the same ops run in fresh
worker processes, once traced and once not, and the ratio of the two
wall times is the tracing overhead.  ``--smoke`` runs one op of each
workload.  Report lines come first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import procs
import tracing
import workloads
from worker import OpLog, run_ops

SETUP_IMPORTS = 8  # before the window, and as many after it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_median_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def tail_latency(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum and percentile 100.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(imports: int) -> list[float]:
    """Wall times of ``imports`` fresh interpreters importing ``xiaofib.cli``."""
    times = []
    for _ in range(imports):
        result = procs.run_python(["-c", "import xiaofib.cli"], 60.0)
        if result.code != 0:
            raise RuntimeError(f"importing xiaofib.cli failed: {result.err.strip()[-500:]}")
        times.append(result.seconds)
    return times


def run_process_ops(workload: str, seed: int, seconds: float, count: int = 0) -> OpLog:
    """Each op a fresh ``python -m xiaofib.cli`` process, timed from spawn to exit.

    Stops after ``count`` ops, or at the first round boundary once
    ``seconds`` have passed.
    """
    log = OpLog()
    stop = perf_counter() + seconds
    for item in workloads.items(workload, seed):
        if count and len(log.items) >= count:
            break
        if perf_counter() >= stop and log.items and item.round != log.items[-1].round:
            break
        procs.write_files(item.files)
        result = procs.run_python(
            ["-m", "xiaofib.cli", *item.args], workloads.DEADLINE_S[workload])
        problem = workloads.check_output(item, result.code, result.out, result.err)
        log.add(item, result.seconds, problem)
    return log


def hostile_probe() -> list[str]:
    """The ROADMAP's hostile inputs, each under the cli_inputs deadline and cap."""
    lines = []
    failed = 0
    for argv in workloads.HOSTILE_ARGV:
        item = workloads.Item("hostile", " ".join(argv), argv, workloads.ERROR)
        result = procs.run_python(
            ["-m", "xiaofib.cli", *argv], workloads.DEADLINE_S["cli_inputs"])
        problem = workloads.check_output(item, result.code, result.out, result.err)
        failed += problem is not None
        lines.append(f"hostile {' '.join(argv)!r}: {problem or 'refused cleanly'}"
                     f" after {result.seconds:.2f} s")
    lines.append(f"hostile inputs failed {failed}/{len(workloads.HOSTILE_ARGV)}"
                 " (not ops of the workload)")
    return lines


def worker_args(workload: str, seed: int, trace: int, start: int = 0, count: int = 0,
                seconds: float = 0.0) -> list[str]:
    return [str(procs.ROOT / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--start", str(start), "--count", str(count),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_worker(args: list[str], deadline: float) -> tuple[dict | None, float, str | None]:
    """(summary, spawn-to-exit seconds, problem) of one worker process."""
    result = procs.run_python(args, deadline)
    if result.code != 0:
        return None, result.seconds, f"worker exit {result.code}: {result.err.strip()[-300:]}"
    return json.loads(result.out.splitlines()[-1]), result.seconds, None


def traced_run(workload: str, seed: int, seconds: float):
    """Per-layer sums, attempted, failed, problems and the tracing overhead ratio."""
    layers = tracing.LayerSums()
    attempted = failed = 0
    problems: list[str] = []
    traced_s = untraced_s = 0.0

    def take(summary, problem) -> bool:
        nonlocal attempted, failed
        if summary is None:
            attempted += 1
            failed += 1
            problems.append(problem)
            return False
        attempted += summary["attempted"]
        failed += summary["failed"]
        problems.extend(summary["problems"])
        return summary["attempted"] > 0

    limit = workloads.DEADLINE_S[workload]
    if workload in workloads.PROCESS_WORKLOADS:
        # one fresh worker per op, traced then untraced, both timed spawn to exit
        stop = perf_counter() + seconds
        index = 0
        while perf_counter() < stop:
            summary, wall, problem = run_worker(
                worker_args(workload, seed, 1, index, 1), limit)
            if not take(summary, problem):
                break
            layers.merge(tracing.LayerSums(summary["layers"]))
            traced_s += wall
            summary, wall, problem = run_worker(
                worker_args(workload, seed, 0, index, 1), limit)
            take(summary, problem)
            untraced_s += wall
            index += 1
    else:
        # one worker runs half the window traced, a second the same ops untraced
        summary, _, problem = run_worker(
            worker_args(workload, seed, 1, seconds=seconds / 2), seconds + limit + 60)
        if take(summary, problem):
            layers.merge(tracing.LayerSums(summary["layers"]))
            traced_s = sum(summary["seconds"])
            summary, _, problem = run_worker(
                worker_args(workload, seed, 0, count=summary["attempted"]), seconds + limit + 60)
            if take(summary, problem):
                untraced_s = sum(summary["seconds"])
    overhead = traced_s / untraced_s if untraced_s else 0.0
    return layers, attempted, failed, problems, overhead


def metadata() -> str:
    git_head = procs.ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if git_head.is_file():
        head = git_head.read_text().strip()
        ref = procs.ROOT / ".git" / head.removeprefix("ref: ")
        commit = ref.read_text().strip() if head.startswith("ref: ") and ref.is_file() else head
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(procs.SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(procs.SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"meta: python {platform.python_version()}, nproc {nproc}, commit {commit}, "
            f"src lines {lines}, src sha256 {digest.hexdigest()[:16]}")


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def print_problems(problems) -> None:
    shown = [p for p in problems if p is not None]
    for problem in shown[:10]:
        print(f"failed op: {problem}")
    if len(shown) > 10:
        print(f"... and {len(shown) - 10} more failed ops")


def end_to_end(workload: str, seed: int, seconds: float) -> int:
    # setup_s is the median of imports before and after the window, so it
    # samples the machine at two times; the first import writes the
    # bytecode cache, as an installed copy has it, and is not counted
    setup = measure_setup(SETUP_IMPORTS + 1)[1:]
    if workload in workloads.PROCESS_WORKLOADS:
        log = run_process_ops(workload, seed, seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        log = run_ops(workload, seed, seconds=seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += measure_setup(SETUP_IMPORTS)
    attempted, failed = len(log.items), log.failed
    passed = attempted - failed
    tail_s, tail_pct = tail_latency(log.seconds)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": passed / sum(log.seconds),
        "latency_median_s": statistics.median(log.seconds),
        "latency_tail_s": tail_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"ops attempted {attempted}, passed {passed}, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f}, timed {sum(log.seconds):.3f} s")
    print(f"latency_tail_s is p{tail_pct:.1f} of {attempted} samples")
    for line in workloads.describe(workload, log.items):
        print(f"input: {line}")
    print_problems(log.problems)
    if workload == "cli_inputs":
        for line in hostile_probe():
            print(line)
    report(failed == 0, attempted, failed, metrics, END_TO_END_UNITS)
    return 0


def per_layer(workload: str, seed: int, seconds: float) -> int:
    layers, attempted, failed, problems, overhead = traced_run(workload, seed, seconds)
    print(f"traced run: {layers.ops} traced ops, {attempted} ops in all, {failed} failed, "
          f"tracing overhead {overhead:.3f}x")
    print_problems(problems)
    report(failed == 0 and attempted > 0, max(attempted, 1), failed,
           layers.metrics(overhead), tracing.metric_units())
    return 0


def smoke() -> int:
    """One op of each workload through the untraced path."""
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        if workload in workloads.PROCESS_WORKLOADS:
            log = run_process_ops(workload, 1, float("inf"), count=1)
        else:
            log = run_ops(workload, 1, count=1)
        attempted += len(log.items)
        failed += log.failed
        print(f"smoke {workload}: {log.items[0].kind} in {log.seconds[0]:.3f} s, "
              f"{log.problems[0] or 'passed'}")
    report(failed == 0, attempted, failed, {}, {})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run one op of each workload")
    args = parser.parse_args(argv)
    if not (procs.SRC / "xiaofib" / "cli.py").is_file():
        print(f"error: no program source at {procs.SRC / 'xiaofib'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    sys.path.insert(0, str(procs.SRC))
    print(metadata())
    try:
        if args.smoke:
            return smoke()
        print(f"workload {args.workload}, seed {args.seed}, window {args.seconds:g} s, "
              f"trace {args.trace}")
        if args.trace:
            return per_layer(args.workload, args.seed, args.seconds)
        return end_to_end(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(procs.ROOT / "perfbench" / ".work", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
