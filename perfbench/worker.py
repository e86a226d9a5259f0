"""Run a slice of a workload's ops in this process, traced or not.

    python3 perfbench/worker.py --workload W --seed S --start I --count N
                                [--seconds T] [--trace 0|1]

Commands of ``verify`` and ``cli_inputs`` run through ``cli.main(argv)``
with their output captured, so a traced op sees the same code a fresh
``python -m xiaofib.cli`` process runs.  The last line of standard
output is a JSON summary: op times, failures and, when traced, the
per-layer sums.  The benchmark also imports ``run_ops`` from here for
its untraced in-process runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import signal
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import procs
import workloads
from tracing import LayerSums, Tracer


class OpDeadline(BaseException):
    """Raised by the alarm in an op that outlives its deadline.

    A BaseException, so that the program's own ``except Exception``
    blocks cannot swallow it.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(_signum, _frame):
        raise OpDeadline

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` with its output captured, as a process would report it."""
    from xiaofib import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@dataclass
class OpLog:
    """What a run attempted: items, per-op seconds and failure reasons."""

    items: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # None for a passed op

    def add(self, item, seconds: float, problem: str | None) -> None:
        self.items.append(item)
        self.seconds.append(seconds)
        self.problems.append(problem)

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems)


def run_ops(workload: str, seed: int, start: int = 0, count: int = 0,
            seconds: float = 0.0, tracer: Tracer | None = None,
            layers: LayerSums | None = None) -> OpLog:
    """Run ops in this process from item ``start`` on.

    Stops after ``count`` ops, or at the first round boundary once
    ``seconds`` have passed.
    """
    stream = itertools.islice(workloads.items(workload, seed), start, start + count if count else None)
    limit = workloads.DEADLINE_S[workload]
    process_workload = workload in workloads.PROCESS_WORKLOADS
    log = OpLog()
    if not process_workload:
        # import before timing, as a fresh process does before its first op
        from xiaofib import monodromy, quartic  # noqa: F401
    stop = perf_counter() + seconds if seconds else float("inf")
    for item in stream:
        if perf_counter() >= stop and log.items and item.round != log.items[-1].round:
            break
        procs.write_files(item.files)
        if not process_workload:
            gc.collect()  # every op starts with the collector in the same state
        answer = None
        begin = perf_counter()
        try:
            with deadline(limit):
                if process_workload:
                    answer = run_cli(item.args)
                else:
                    answer = workloads.run_inprocess(workload, item)
            problem = None
        except OpDeadline:
            problem = "missed the deadline"
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - begin
        if problem is None:
            if process_workload:
                problem = workloads.check_output(item, *answer)
            else:
                problem = workloads.check_answer(item, answer)
        if tracer is not None:
            layers.add_op(*tracer.take_op())
        log.add(item, elapsed, problem)
    return log


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(procs.SRC))
    tracer, layers = None, LayerSums()
    if args.trace:
        tracer = Tracer()
        tracer.install()
    log = run_ops(args.workload, args.seed, args.start, args.count, args.seconds, tracer, layers)
    print(json.dumps({
        "attempted": len(log.items),
        "failed": log.failed,
        "problems": [p for p in log.problems if p is not None],
        "seconds": log.seconds,
        "layers": layers.to_json(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
