"""The layer bench script writes a file of the documented schema, and compares two trees by their spreads."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOWERS = {"tower D_151 g=10", "tower S_6 chain", "tower S_5 cycle and swap"}
TIMED = TOWERS | {
    "build_dihedral_cover(10, 151)", "parse_cover(S6_CHAIN)", "verify_paper()",
    "flexes_all_simple(Klein, seed 1)", "flexes_all_simple(Fermat, seed 1)", "parse_ternary_form(KLEIN_QUARTIC)",
    "flexes_all_simple(witness, seed 1)", "is_smooth(dense_sextic(5))", "is_smooth(singular_sextic(1, 3))",
}
FRESH = {"python -c pass", "python -S -c pass", "python -m xiaofib.cli verify"}


def test_one_call_per_measurement_writes_the_schema(tmp_path):
    """This checkout's tree three times, alternating with a copy that has no git history and no reachability test."""
    copy = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "bench.json"
    listed = [ROOT / "src", copy, ROOT / "src", copy, ROOT / "src"]
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_layers.py"), "-n", "1", "--out", str(out),
                    *(arg for src in listed for arg in ("--src", str(src)))], check=True, timeout=180)
    # no child wrote bytecode into the copy
    assert not list(copy.parent.rglob("__pycache__"))
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert set(bench) == {"schema", "python", "cpu_count", "calls", "loadavg_before", "loadavg_after", "trees",
                          "spread", "compare"}
    assert bench["compare"] is None  # the copy has two processes only
    assert (bench["schema"], bench["calls"]) == (1, 1)
    trees = bench["trees"]
    assert [Path(tree["src"]) for tree in trees] == listed
    here, there = trees[:2]
    # a tree's spread is the least and greatest of its processes' minima, and from three processes on their median
    assert [(Path(spread["src"]), spread["processes"]) for spread in bench["spread"]] == [(ROOT / "src", 3), (copy, 2)]
    for spread in bench["spread"]:
        assert set(spread["min_s"]) == TIMED
        runs = [tree for tree in trees if tree["src"] == spread["src"]]
        for name, row in spread["min_s"].items():
            minima = sorted(tree["timings"][name]["min_s"] for tree in runs)
            assert [row["low"], row["high"]] == [minima[0], minima[-1]]
            assert row.get("median") == (minima[1] if len(minima) == 3 else None)
    assert there["commit"] is None and there["allowed"] is None
    assert here["allowed"] > 0
    for tree in trees:
        assert set(tree) == {"src", "commit", "size", "allowed", "compile_s", "processes", "timings", "counts"}
        assert tree["size"] == here["size"]
        assert tree["size"]["lines"] > 0 and tree["size"]["tokens"] > tree["size"]["lines"]
        assert 0 < tree["compile_s"] < 5
        # one process of each kind: its median and both quartiles are its one time
        assert set(tree["processes"]) == FRESH
        for quartiles in tree["processes"].values():
            assert set(quartiles) == {"median_s", "q1_s", "q3_s"}
            assert 0 < quartiles["q1_s"] == quartiles["median_s"] == quartiles["q3_s"]
        assert set(tree["timings"]) == TIMED
        for timing in tree["timings"].values():
            assert set(timing) == {"min_s", "median_s"} and 0 < timing["min_s"] <= timing["median_s"]
        # r is the one composition the named towers make; the S_6 chain walks five transpositions and r.
        # The S_5 cover composes r, and its product check folds on from r with one more then call; its
        # closure makes each of the 118 elements other than the identity and r by one composition, plus
        # the coset probes, and walks nothing: r and the three generators are walked once each.
        assert set(tree["counts"]) == TOWERS
        assert tree["counts"]["tower D_151 g=10"] == {"then": 1, "right_applications": 0, "cycle_walks": 1}
        assert tree["counts"]["tower S_6 chain"] == {"then": 1, "right_applications": 0, "cycle_walks": 6}
        s5 = tree["counts"]["tower S_5 cycle and swap"]
        assert (s5["then"], s5["cycle_walks"]) == (2, 4) and 118 <= s5["right_applications"] < 2 * 120


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "tools" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic(src: str, minima: dict[str, float]) -> dict:
    return {"src": src, "timings": {name: {"min_s": value, "median_s": value} for name, value in minima.items()}}


def test_compare_gives_each_row_the_ratio_of_medians_and_a_verdict_from_the_spreads():
    """Synthetic trees, listed alternating: faster, slower and overlapping rows, and too few processes."""
    tool = load_tool()
    parent = [{"a": 10, "b": 10, "c": 10, "d": 10}, {"a": 12, "b": 11, "c": 12, "d": 12},
              {"a": 11, "b": 12, "c": 11, "d": 11}]
    change = [{"a": 8, "b": 13, "c": 9, "d": 8}, {"a": 9, "b": 14, "c": 13, "d": 10},
              {"a": 9.5, "b": 12.5, "c": 11, "d": 9}]
    trees = [synthetic(src, minima) for pair in zip(parent, change) for src, minima in zip("pc", pair)]
    result = tool.compare(tool.spread(trees))
    assert (result["parent"], result["change"]) == ("p", "c")
    assert result["min_s"] == {
        "a": {"ratio": 9 / 11, "verdict": "faster"},  # 9.5 < 10
        "b": {"ratio": 13 / 11, "verdict": "slower"},  # 12.5 > 12
        "c": {"ratio": 1.0, "verdict": "unresolved"},  # 9 < 10 but 13 > 12
        "d": {"ratio": 9 / 11, "verdict": "unresolved"},  # 10 is not below the parent's least, 10
    }
    assert tool.compare(tool.spread(trees[:5])) is None  # the change has two processes
    third = [synthetic("x", minima) for minima in parent]
    assert tool.compare(tool.spread(trees + third)) is None  # three trees have three processes
    assert tool.compare(tool.spread(trees + third[:1])) == result  # a tree listed once is no party
