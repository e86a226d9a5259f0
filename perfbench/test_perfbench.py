"""Tests of the benchmark itself: inputs, answer checks, tracing and smoke mode."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import procs
import run
import tracing
import workloads
from workloads import Item

sys.path.insert(0, str(procs.SRC))


def _keys(workload: str, seed: int, n: int = 40) -> list[str]:
    return [item.key for item in itertools.islice(workloads.items(workload, seed), n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_and_seeded(workload):
    assert _keys(workload, 5) == _keys(workload, 5)
    assert _keys(workload, 5) != _keys(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_keys_never_repeat_within_a_stream(workload):
    keys = _keys(workload, 3, 400)
    assert len(keys) == len(set(keys))


def test_tower_stream_is_finite_and_balanced():
    ran = list(workloads.items("monodromy_towers", 7))
    first_round = [item.kind for item in ran if item.round == 0]
    dihedral = sum(kind == "dihedral" for kind, _ in workloads.TOWER_STRATA)
    assert first_round.count("dihedral") == dihedral * workloads.PER_ROUND["monodromy_towers"]
    assert len(ran) == workloads.TOWER_COVERS * len(workloads.TOWER_STRATA)
    mixes = {tuple(sorted(item.kind for item in ran if item.round == n))
             for n in range(workloads.TOWER_COVERS)}
    assert len(mixes) == 1


def test_verify_run_may_end_after_any_op():
    ran = list(itertools.islice(workloads.items("verify", 4), 15))
    assert [item.round for item in ran] == list(range(15))


def test_substitution_agrees_with_compose():
    """The benchmark's own form arithmetic builds the same images as the program."""
    from xiaofib import quartic

    klein = quartic.parse_ternary_form(quartic.KLEIN_QUARTIC)
    matrix = [[1, 2, 0], [0, 1, 0], [0, -1, 1]]
    ours = quartic.parse_ternary_form(workloads.render(workloads.substitute(workloads.KLEIN, matrix)))
    assert ours == klein.compose(matrix)


def test_closed_forms_match_known_towers():
    assert workloads.dihedral_answer(2, 5) == (2, 6, 2, "dihedral", 10)
    assert workloads.symmetric_answer(3) == (0, 1, 1, "symmetric", 6)
    assert workloads.symmetric_answer(6) == (0, 1081, 4, "symmetric", 720)


def test_check_answer_flags_a_wrong_answer():
    item = Item("fermat", "f", ("x", 1), workloads.QUARTIC_ANSWERS["fermat"])
    assert workloads.check_answer(item, (True, False)) is None
    assert workloads.check_answer(item, (True, True)) is not None
    tower = Item("dihedral", "d", (2, 5), workloads.dihedral_answer(2, 5))
    assert workloads.check_answer(tower, (2, 6, 3, "dihedral", 10)) is not None


def _ledger_json(statuses: list[str]) -> str:
    return json.dumps([{"claim_id": str(i), "status": s} for i, s in enumerate(statuses)])


def test_check_output_flags_a_wrong_ledger():
    item = Item("verify-json", "v", (), ("ledger", "json"))
    good = ["pass"] * 43 + ["assumed"] * 4
    assert workloads.check_output(item, 0, _ledger_json(good), "") is None
    assert workloads.check_output(item, 0, _ledger_json(["fail"] + good[1:]), "") is not None
    assert workloads.check_output(item, 0, _ledger_json(good[:-1]), "") is not None
    assert workloads.check_output(item, 1, _ledger_json(good), "") is not None
    assert workloads.check_output(item, None, "", "") is not None


def test_check_output_flags_a_wrong_markdown_summary():
    item = Item("verify-markdown", "v", (), ("ledger", "markdown"))
    rows = [f"| c{i} | a | e | e | {s} |" for i, s in enumerate(["pass"] * 43 + ["assumed"] * 4)]
    table = ["| claim | anchor | expected | computed | status |", "| --- | --- | --- | --- | --- |"]
    good = "\n".join(table + rows + ["", "47 claims: 4 assumed, 43 pass"])
    assert workloads.check_output(item, 0, good, "") is None
    assert workloads.check_output(item, 0, good.replace("| pass |", "| fail |", 1), "") is not None
    assert workloads.check_output(item, 0, good.replace("43 pass", "42 pass"), "") is not None


def test_check_output_flags_wrong_lines_codes_and_tracebacks():
    item = Item("numerology", "n", (), workloads.numerology_lines(3, 5))
    good = "g_C = 11\ng_D = 4\ngamma^2 = -4\n"
    assert workloads.check_output(item, 0, good, "") is None
    assert workloads.check_output(item, 0, good.replace("g_D = 4", "g_D = 5"), "") is not None
    assert workloads.check_output(item, 0, good, "Traceback (most recent call last):\n") is not None
    refusal = Item("malformed", "m", (), workloads.ERROR)
    assert workloads.check_output(refusal, 2, "", "error: bad degree\n") is None
    assert workloads.check_output(refusal, 1, "", "error: bad degree\n") is not None
    assert workloads.check_output(refusal, 2, "", "usage: x\nxiaofib: error: y\n") is not None
    assert workloads.check_output(refusal, None, "", "") is not None


def test_tail_latency_leaves_ten_samples_beyond():
    value, percentile = run.tail_latency([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    assert run.tail_latency([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_direct_children():
    sums = tracing.LayerSums()
    spans = [
        (0, None, 0, "a", 0.0, 10.0, True),
        (1, 0, 0, "b", 1.0, 4.0, True),
        (2, 1, 0, "b", 2.0, 3.0, True),
        (3, 0, 0, "c", 5.0, 6.0, False),
    ]
    sums.add_op(spans, Counter({"monodromy.Permutation.then": 5}))
    assert sums.self_s["a"] == 6.0 and sums.self_s["b"] == 3.0
    assert sums.total_s["b"] == 3.0  # the nested call is not counted twice
    assert sums.calls["b"] == 2 and sums.counts["monodromy.Permutation.then"] == 5


def test_tracer_wraps_imported_names_and_uninstalls():
    from xiaofib import monodromy, polynomials, quartic

    original = polynomials.poly_gcd
    original_then = vars(monodromy.Permutation)["then"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quartic.poly_gcd is polynomials.poly_gcd is not original
        assert workloads.tower_answer(2, 5) == workloads.dihedral_answer(2, 5)
        spans, counts = tracer.take_op()
    finally:
        tracer.uninstall()
    assert quartic.poly_gcd is original and polynomials.poly_gcd is original
    assert vars(monodromy.Permutation)["then"] is original_then
    sums = tracing.LayerSums()
    sums.add_op(spans, counts)
    metrics = sums.metrics(1.0)
    assert metrics["monodromy.generated_group.calls"] == 3
    assert metrics["monodromy.group_builds_per_tower"] == 3
    assert metrics["monodromy.compositions_per_tower"] > 0
    assert set(metrics) == set(tracing.metric_units())


def test_smoke_runs_one_op_of_each_workload():
    result = subprocess.run([sys.executable, str(procs.ROOT / "perfbench" / "run.py"), "--smoke"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] and summary["attempted"] == len(workloads.WORKLOADS)
    assert summary["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(procs.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert "correct" not in result.stdout
