"""The layer bench script writes a file of the documented schema."""

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


def test_one_call_per_measurement_writes_the_schema(tmp_path):
    """This checkout's tree, a copy with no git history and no reachability test beside it, then this tree again."""
    copy = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_layers.py"), "-n", "1", "--out", str(out),
                    "--src", str(ROOT / "src"), "--src", str(copy), "--src", str(ROOT / "src")],
                   check=True, timeout=120)
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert set(bench) == {"schema", "python", "cpu_count", "calls", "loadavg_before", "loadavg_after", "trees",
                          "spread"}
    assert (bench["schema"], bench["calls"]) == (1, 1)
    here, there, again = bench["trees"]
    assert (Path(here["src"]), Path(there["src"]), Path(again["src"])) == (ROOT / "src", copy, ROOT / "src")
    # only this tree ran in two processes: its spread is the least and greatest of their two minima
    [spread] = bench["spread"]
    assert (Path(spread["src"]), spread["processes"]) == (ROOT / "src", 2)
    assert set(spread["min_s"]) == TIMED
    for name, bounds in spread["min_s"].items():
        pair = sorted(tree["timings"][name]["min_s"] for tree in (here, again))
        assert [bounds["low"], bounds["high"]] == pair
    assert there["commit"] is None and there["allowed"] is None
    assert here["allowed"] > 0
    for tree in (here, there, again):
        assert set(tree) == {"src", "commit", "size", "allowed", "timings", "counts"}
        assert tree["size"] == here["size"]
        assert tree["size"]["lines"] > 0 and tree["size"]["tokens"] > tree["size"]["lines"]
        assert set(tree["timings"]) == TIMED
        for timing in tree["timings"].values():
            assert set(timing) == {"min_s", "median_s"} and 0 < timing["min_s"] <= timing["median_s"]
        # r is the one composition the named towers make; the S_6 chain walks five transpositions and r.
        # The S_5 cover's product check makes two then calls and r one; its closure makes each of the
        # 118 elements other than the identity and r by one composition, plus the coset probes, and
        # walks nothing: r and the three generators are walked once each.
        assert set(tree["counts"]) == TOWERS
        assert tree["counts"]["tower D_151 g=10"] == {"then": 1, "right_applications": 0, "cycle_walks": 1}
        assert tree["counts"]["tower S_6 chain"] == {"then": 1, "right_applications": 0, "cycle_walks": 6}
        s5 = tree["counts"]["tower S_5 cycle and swap"]
        assert (s5["then"], s5["cycle_walks"]) == (3, 4) and 118 <= s5["right_applications"] < 2 * 120
