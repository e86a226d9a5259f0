"""In-process timings of the engine layers and counts of the tower compositions, written to a bench file.

    python tools/bench_layers.py [--src DIR ...] [-n CALLS] --out BENCH_<n>.json

Each ``--src`` is a ``src/`` directory (default: this checkout's), for
example that of a ``git clone`` of a parent commit.  Each is measured in
a fresh interpreter that imports ``xiaofib`` from it, in the order given.
For each tree the file records:

- its commit (``git rev-parse HEAD`` in the directory, or null), and its
  lines and tokens: ``tokenize`` tokens without COMMENT, NL, NEWLINE,
  INDENT, DEDENT and ENDMARKER;
- ``allowed``: the number of unrun statements that ``ALLOWED`` lists in
  ``tests/test_reachability.py`` next to the directory, or null when
  there is none;
- ``compile_s``: the sum over its modules of the least of 5
  ``compile()`` calls on the module's source, the cost a process pays
  for every module it finds no bytecode for;
- ``processes``: the median and quartiles of CALLS wall times each of
  fresh ``python -c pass``, ``python -S -c pass`` and ``python -m
  xiaofib.cli verify`` processes, taken in turn, so that machine drift
  can be told from a change;
- the minimum and median of CALLS timed calls of
  ``build_dihedral_cover(10, 151)``, ``parse_cover`` of the S_6 chain,
  the tower ops of D_151, of the S_6 chain and of the S_5 cover from a
  5-cycle and a transposition, whose group the closure enumerates (the
  cover, then ``rh_genus``, ``generated_group``, the rotation or even
  cut, ``galois_closure_genus`` and ``quotient_genus``),
  ``verify_paper()``, the flex certificates of the Klein and Fermat
  quartics and of ``WITNESS`` at seed 1, ``is_smooth`` on the corpus's
  smooth ``dense_sextic(5)`` and singular ``singular_sextic(1, 3)``
  (all of forms parsed beforehand) and ``parse_ternary_form`` of the
  Klein quartic.  One untimed call warms each up, and ``gc.collect()``
  runs before each timed call;
- per tower op, the ``Permutation.then`` calls, the applications of the
  maps ``_right`` makes and the ``_cycle_lengths`` walks.

The sextics come from ``tests/corpus.py`` of this checkout, so every
tree gets the same input.  Every child process, the measuring
interpreter and the fresh processes alike, runs with
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPATH`` set to the tree, so no
tree gains a ``__pycache__`` and each fresh ``verify`` compiles the tree
again.  Listing a ``--src`` more than once measures it in that many
processes, alternating with the others as listed; ``spread`` then
holds, for each such tree, the least and the greatest ``min_s`` of each
timing over its processes, and from three processes on their median, so
a difference between trees can be read against a tree's own spread
without hinging on one outlier process.  When exactly two trees are
listed three or more times, the first being the parent and the second
the change, ``compare`` holds per timing the ratio of the change's
median ``min_s`` to the parent's and a verdict: ``faster`` when the
change's greatest ``min_s`` is below the parent's least, ``slower`` when
its least is above the parent's greatest, ``unresolved`` otherwise;
else ``compare`` is null.  The file also records
the Python version, the CPU count and ``/proc/loadavg`` before and
after the run, which is read only.  Times are wall seconds from
``time.perf_counter``.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
S6_CHAIN = "degree 6; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(5))
S5_CYCLE_AND_SWAP = "degree 5; base_genus 0\n(0 1 2 3 4)\n(0 1)\n(1 4 3 2)\n"
# a smooth quartic whose flexes are all simple: the witness curve of ROADMAP item 6
WITNESS = "x^3*y + y^3*z + z^3*x + y^4 + x^2*z^2"
FRESH = {
    "python -c pass": ["-c", "pass"],
    "python -S -c pass": ["-S", "-c", "pass"],
    "python -m xiaofib.cli verify": ["-m", "xiaofib.cli", "verify"],
}
COMPILES = 5
UNCOUNTED_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENDMARKER}


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def source_size(src: Path) -> dict:
    """Lines (newline characters) and tokens of every ``.py`` file under ``src``."""
    lines = tokens = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += text.count("\n")
        with path.open("rb") as handle:
            tokens += sum(t.type not in UNCOUNTED_TOKENS for t in tokenize.tokenize(handle.readline)
                          if t.type != tokenize.ENCODING)
    return {"lines": lines, "tokens": tokens}


def allowed_size(src: Path) -> int | None:
    """The statements listed in ``ALLOWED`` of the reachability test beside ``src``, read without importing it."""
    path = src.parent / "tests" / "test_reachability.py"
    if not path.is_file():
        return None
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ALLOWED"]:
            return sum(map(len, ast.literal_eval(node.value).values()))
    return None


def compile_seconds(src: Path) -> float:
    """The sum over the ``.py`` files under ``src`` of the least of ``COMPILES`` ``compile()`` calls on each."""
    sources = {str(path): path.read_bytes() for path in sorted(src.rglob("*.py"))}
    return sum(timed(lambda: compile(source, name, "exec"), COMPILES)["min_s"] for name, source in sources.items())


def child_env(src: Path) -> dict:
    """This environment, with ``src`` as the whole ``PYTHONPATH`` and no bytecode written."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def fresh_processes(src: Path, runs: int) -> dict:
    """Median and quartiles of ``runs`` wall times of each ``FRESH`` process, the three kinds taken in turn.

    The processes start in ``src``, so ``-m`` finds the tree's own package first.
    """
    seconds: dict[str, list[float]] = {name: [] for name in FRESH}
    for _ in range(runs):
        for name, args in FRESH.items():
            start = perf_counter()
            subprocess.run([sys.executable, *args], cwd=src, env=child_env(src), stdout=subprocess.DEVNULL,
                           check=True)
            seconds[name].append(perf_counter() - start)
    quartiles = {}
    for name, times in seconds.items():
        q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        quartiles[name] = {"median_s": median, "q1_s": q1, "q3_s": q3}
    return quartiles


def commit_of(directory: Path) -> str | None:
    result = subprocess.run(["git", "-C", str(directory), "rev-parse", "HEAD"], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def tower(monodromy, make):
    """The calls of one tower op: the cover, its genus, group, cut, closure genus and quotient genus."""
    cover = make()
    genus = monodromy.rh_genus(cover)
    group = monodromy.generated_group(cover)
    cut = monodromy.cyclic_rotation_subgroup if group.classification == monodromy.DIHEDRAL else monodromy.even_subgroup
    subgroup = cut(group)
    return genus, monodromy.galois_closure_genus(cover), monodromy.quotient_genus(cover, subgroup), group.order


def timed(call, calls: int) -> dict:
    """Minimum and median seconds of ``calls`` calls, after one untimed call and each after ``gc.collect()``."""
    call()
    seconds = []
    for _ in range(calls):
        gc.collect()
        start = perf_counter()
        call()
        seconds.append(perf_counter() - start)
    return {"min_s": min(seconds), "median_s": statistics.median(seconds)}


def counted(monodromy, call) -> dict:
    """``then`` calls, applications of ``_right``'s maps and cycle walks made by one ``call()``."""
    counts = {"then": 0, "right_applications": 0, "cycle_walks": 0}
    then, right, walk = vars(monodromy.Permutation)["then"], monodromy._right, monodromy._cycle_lengths

    def counting_then(first, second):
        counts["then"] += 1
        return then(first, second)

    def counting_right(s):
        compose = right(s)

        def composition(h):
            counts["right_applications"] += 1
            return compose(h)

        return composition

    def counting_walk(images):
        counts["cycle_walks"] += 1
        return walk(images)

    monodromy.Permutation.then, monodromy._right, monodromy._cycle_lengths = counting_then, counting_right, counting_walk
    try:
        call()
    finally:
        monodromy.Permutation.then, monodromy._right, monodromy._cycle_lengths = then, right, walk
    return counts


def measure(src: Path, calls: int) -> dict:
    """The record of one source tree, measured in this interpreter."""
    processes = fresh_processes(src, calls)
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    from corpus import dense_sextic, singular_sextic
    from xiaofib import ledger, monodromy, quartic

    def dihedral():
        return monodromy.build_dihedral_cover(10, 151)

    def symmetric():
        return monodromy.parse_cover(S6_CHAIN)

    klein, fermat, witness, dense, singular = (
        quartic.parse_ternary_form(text)
        for text in (quartic.KLEIN_QUARTIC, quartic.FERMAT_QUARTIC, WITNESS, dense_sextic(5), singular_sextic(1, 3))
    )
    towers = {
        "tower D_151 g=10": lambda: tower(monodromy, dihedral),
        "tower S_6 chain": lambda: tower(monodromy, symmetric),
        "tower S_5 cycle and swap": lambda: tower(monodromy, lambda: monodromy.parse_cover(S5_CYCLE_AND_SWAP)),
    }
    timings = {
        "build_dihedral_cover(10, 151)": dihedral,
        "parse_cover(S6_CHAIN)": symmetric,
        **towers,
        "verify_paper()": ledger.verify_paper,
        "flexes_all_simple(Klein, seed 1)": lambda: quartic.flexes_all_simple(klein, 1),
        "flexes_all_simple(Fermat, seed 1)": lambda: quartic.flexes_all_simple(fermat, 1),
        "flexes_all_simple(witness, seed 1)": lambda: quartic.flexes_all_simple(witness, 1),
        "is_smooth(dense_sextic(5))": lambda: quartic.is_smooth(dense),
        "is_smooth(singular_sextic(1, 3))": lambda: quartic.is_smooth(singular),
        "parse_ternary_form(KLEIN_QUARTIC)": lambda: quartic.parse_ternary_form(quartic.KLEIN_QUARTIC),
    }
    return {
        "src": str(src),
        "commit": commit_of(src),
        "size": source_size(src),
        "allowed": allowed_size(src),
        "compile_s": compile_seconds(src),
        "processes": processes,
        "timings": {name: timed(call, calls) for name, call in timings.items()},
        "counts": {name: counted(monodromy, call) for name, call in towers.items()},
    }


def spread(trees: list[dict]) -> list[dict]:
    """For each tree measured in more than one process, the least, greatest and, from three on, median ``min_s``."""
    processes: dict[str, list[dict]] = {}
    for tree in trees:
        processes.setdefault(tree["src"], []).append(tree["timings"])
    spreads = []
    for src, runs in processes.items():
        if len(runs) > 1:
            rows = {}
            for name in runs[0]:
                minima = [run[name]["min_s"] for run in runs]
                rows[name] = {"low": min(minima), "high": max(minima)}
                if len(runs) > 2:
                    rows[name]["median"] = statistics.median(minima)
            spreads.append({"src": src, "processes": len(runs), "min_s": rows})
    return spreads


def compare(spreads: list[dict]) -> dict | None:
    """Per timing, the ratio and verdict of the change against the parent; None unless exactly two trees have
    three or more processes, the first of them being the parent."""
    pair = [tree for tree in spreads if tree["processes"] >= 3]
    if len(pair) != 2:
        return None
    parent, change = (tree["min_s"] for tree in pair)
    rows = {}
    for name, old in parent.items():
        new = change[name]
        verdict = "faster" if new["high"] < old["low"] else "slower" if new["low"] > old["high"] else "unresolved"
        rows[name] = {"ratio": new["median"] / old["median"], "verdict": verdict}
    return {"parent": pair[0]["src"], "change": pair[1]["src"], "min_s": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", action="append", type=Path, help="a src/ directory (repeatable)")
    parser.add_argument("-n", "--calls", type=int, default=15, help="timed calls per measurement")
    parser.add_argument("--out", type=Path, help="the bench file to write")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)  # the child: measure one tree, print JSON
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    if args.record:
        print(json.dumps(measure(args.record.resolve(), args.calls)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    before = loadavg()
    trees = []
    for src in args.src or [ROOT / "src"]:
        child = subprocess.run([sys.executable, __file__, "--record", str(src), "-n", str(args.calls)],
                               env=child_env(src.resolve()), capture_output=True, text=True, check=True)
        trees.append(json.loads(child.stdout))
    spreads = spread(trees)
    bench = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "calls": args.calls,
        "loadavg_before": before,
        "loadavg_after": loadavg(),
        "trees": trees,
        "spread": spreads,
        "compare": compare(spreads),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
