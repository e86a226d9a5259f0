"""The layer bench script writes a file of the documented schema."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED = {"build_dihedral_cover(10, 151)", "parse_cover(S6_CHAIN)", "tower D_151 g=10", "tower S_6 chain"}


def test_one_call_per_measurement_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_layers.py"), "-n", "1", "--out", str(out)],
                   check=True, timeout=120)
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert set(bench) == {"schema", "python", "cpu_count", "calls", "loadavg_before", "loadavg_after", "trees"}
    assert (bench["schema"], bench["calls"]) == (1, 1)
    [tree] = bench["trees"]
    assert set(tree) == {"src", "commit", "size", "timings", "counts"}
    assert Path(tree["src"]) == ROOT / "src"
    assert tree["size"]["lines"] > 0 and tree["size"]["tokens"] > tree["size"]["lines"]
    assert set(tree["timings"]) == TIMED
    for timing in tree["timings"].values():
        assert set(timing) == {"min_s", "median_s"} and 0 < timing["min_s"] <= timing["median_s"]
    # r is the one composition either tower makes; the S_6 chain walks five transpositions and r
    assert tree["counts"] == {
        "tower D_151 g=10": {"then": 1, "right_applications": 0, "cycle_walks": 1},
        "tower S_6 chain": {"then": 1, "right_applications": 0, "cycle_walks": 6},
    }
