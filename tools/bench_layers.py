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
tree gets the same input.  Listing a ``--src`` more than once measures
it in that many processes, alternating with the others as listed;
``spread`` then holds, for each such tree, the least and the greatest
``min_s`` of each timing over its processes, so a difference between
trees can be read against a tree's own spread.  The file also records
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
        "timings": {name: timed(call, calls) for name, call in timings.items()},
        "counts": {name: counted(monodromy, call) for name, call in towers.items()},
    }


def spread(trees: list[dict]) -> list[dict]:
    """For each tree measured in more than one process, the least and greatest ``min_s`` of each timing."""
    processes: dict[str, list[dict]] = {}
    for tree in trees:
        processes.setdefault(tree["src"], []).append(tree["timings"])
    return [
        {"src": src, "processes": len(runs),
         "min_s": {name: {"low": min(run[name]["min_s"] for run in runs),
                          "high": max(run[name]["min_s"] for run in runs)} for name in runs[0]}}
        for src, runs in processes.items() if len(runs) > 1
    ]


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
                               capture_output=True, text=True, check=True)
        trees.append(json.loads(child.stdout))
    bench = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "calls": args.calls,
        "loadavg_before": before,
        "loadavg_after": loadavg(),
        "trees": trees,
        "spread": spread(trees),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
