import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import parse_reports
from xiaofib import errors, lattice, ledger, monodromy, numerology, quartic
from xiaofib.cli import main
from xiaofib.ledger import (
    ASSUMED,
    PASS,
    ClaimReport,
    build_claims,
    exit_code,
    render_json,
    render_markdown,
    run_claims,
    verify_paper,
)


def test_default_run_passes():
    code, reports = verify_paper()
    assert code == 0
    assert reports
    statuses = {r.status for r in reports}
    assert statuses <= {PASS, ASSUMED}
    assert ASSUMED in statuses  # recorded q_rel inputs
    # ordering is fixed by claim id
    assert [r.claim_id for r in reports] == sorted(r.claim_id for r in reports)


def test_status_matches_value_comparison():
    _, reports = verify_paper(only="g2p5")
    for report in reports:
        if report.status == PASS:
            assert report.expected == report.computed
        if report.status == "fail":
            assert report.expected != report.computed


def test_only_filter():
    _, reports = verify_paper(only="g4p3")
    assert reports
    assert all(r.claim_id.startswith("g4p3/") for r in reports)
    _, nothing = verify_paper(only="missing-case")
    assert nothing == []


def _failing(reports) -> dict[str, str]:
    return {r.claim_id: r.computed for r in reports if r.status == "fail"}


def _assert_blocked_below(failing: dict[str, str], roots: set[str]):
    """Each failing claim is a root, or is blocked by one of its declared inputs that failed."""
    inputs = {c.claim_id: c.inputs for c in build_claims(1, errors.DEFAULT_MAX_GROUP_ORDER)}
    for claim_id, computed in failing.items():
        if claim_id in roots:
            assert not computed.startswith("blocked by"), claim_id
            continue
        blocker = computed.removeprefix("blocked by ")
        assert computed.startswith("blocked by "), (claim_id, computed)
        assert blocker in inputs[claim_id] and blocker in failing, (claim_id, computed)


def test_corrupted_gram_fails_loudly(monkeypatch):
    """One poisoned entry of the genus-3 product Gram matrix fails every claim that reads it."""
    build = lattice.product_with_diagonal_lattice

    def poisoned(g):
        built = build(g)
        if g != 3:
            return built
        gram = [list(row) for row in built.gram]
        gram[2][2] += 1
        return lattice.IntersectionLattice(built.basis_labels, tuple(map(tuple, gram)), built.canonical)

    monkeypatch.setattr(lattice, "product_with_diagonal_lattice", poisoned)
    code, reports = verify_paper()
    assert code == 1
    failing = _failing(reports)
    # two roots: the fiber class solved in the poisoned lattice, and the branch-class chain
    assert set(failing) == {
        "g4p3/fiber-class", "g4p3/fiber-self-intersection", "g4p3/fiber-genus",
        "g4p3/hodge-determination", "g4p3/branch-class", "g4p3/involution-on-dp",
        "g4p3/involution-on-delta", "g4p3/involution-on-diagonal", "g4p3/branch-half",
        "g4p3/branch-genus-adjunction", "g4p3/double-cover-inputs", "g4p3/K2",
        "g4p3/chi-noether", "g4p3/chi-double-cover", "g4p3/profile",
    }
    assert failing["g4p3/fiber-class"].startswith("error: pairings (2, 2, 10) solve to non-integral")
    assert failing["g4p3/branch-class"].startswith("error: projection formula fails")
    assert failing["g4p3/K2"] == "blocked by g4p3/double-cover-inputs"
    assert failing["g4p3/profile"] == "blocked by g4p3/K2"
    _assert_blocked_below(failing, {"g4p3/fiber-class", "g4p3/branch-class"})


def _poison_genera(case):
    def poison(monkeypatch):
        genera = numerology.cover_genera

        def poisoned(params):
            g_c, g_d = genera(params)
            return (g_c, g_d + 1) if (params.g, params.p) == case else (g_c, g_d)

        monkeypatch.setattr(numerology, "cover_genera", poisoned)

    return poison


def _poison_plucker_counts(monkeypatch):
    counts = quartic.plucker_counts
    monkeypatch.setattr(
        quartic, "plucker_counts", lambda d: quartic.PluckerCounts(counts(d).flexes + 1, counts(d).bitangents)
    )


# A root calls the poisoned function itself: ``adjunction_inverse`` (under
# ``gamma-square`` and the gamma grid) and ``moduli_dims`` read ``cover_genera``
# inside the engine, not through a claim.
@pytest.mark.parametrize("poison, roots, blocked", [
    pytest.param(
        _poison_genera((2, 5)),
        {"g2p5/genera": "(6, 3)", "g2p5/gamma-square": "-6", "g2p5/moduli-dimensions": "(3, 6)",
         "general/gamma-grid": "14/15 agree"},
        {"g2p5/q-rel", "g2p5/xiao", "g2p5/brill-noether"},
        id="genera-g2p5"),
    pytest.param(
        _poison_genera((3, 3)),
        {"g3p3/genera": "(7, 3)", "general/gamma-grid": "14/15 agree"},
        {"g3p3/nodal-class", "g3p3/nodal-genus", "g3p3/geometric-genus", "g3p3/q-rel",
         "g3p3/xiao-generic", "g3p3/xiao-smooth-model"},
        id="genera-g3p3"),
    pytest.param(
        _poison_genera((4, 3)),
        {"g4p3/genera": "(10, 4)", "general/gamma-grid": "14/15 agree"},
        {"g4p3/fiber-class", "g4p3/fiber-self-intersection", "g4p3/fiber-genus",
         "g4p3/hodge-determination", "g4p3/branch-class", "g4p3/involution-on-dp",
         "g4p3/involution-on-delta", "g4p3/involution-on-diagonal", "g4p3/branch-half",
         "g4p3/branch-genus-adjunction", "g4p3/branch-genus-riemann-hurwitz",
         "g4p3/double-cover-inputs", "g4p3/K2", "g4p3/c2", "g4p3/chi-noether",
         "g4p3/chi-double-cover", "g4p3/q-rel", "g4p3/profile", "g4p3/xiao", "g4p3/brill-noether"},
        id="genera-g4p3"),
    pytest.param(
        _poison_plucker_counts,
        {"g4p3/plucker-counts": "(25, 28)"},
        {"g4p3/branch-genus-riemann-hurwitz", "g4p3/c2", "g4p3/chi-noether", "g4p3/profile",
         "g4p3/base-point-position"},
        id="plucker-counts"),
])
def test_a_poisoned_root_fails_exactly_its_readers(monkeypatch, poison, roots, blocked):
    poison(monkeypatch)
    code, reports = verify_paper()
    assert code == 1
    failing = _failing(reports)
    assert set(failing) == set(roots) | blocked
    assert {claim_id: failing[claim_id] for claim_id in roots} == roots
    _assert_blocked_below(failing, set(roots))
    # one case alone evaluates the claims it reads and fails the same way
    case = next(iter(blocked)).partition("/")[0]
    assert _failing(verify_paper(only=case)[1]) == {
        claim_id: computed for claim_id, computed in failing.items() if claim_id.startswith(case + "/")
    }


def test_branch_class_is_built_once_per_run(monkeypatch):
    build = lattice.branch_class
    calls = []

    def counted(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(lattice, "branch_class", counted)
    assert verify_paper()[0] == 0
    assert calls == [3]
    assert verify_paper(only="g4p3")[0] == 0
    assert calls == [3, 3]


def test_json_roundtrip():
    _, reports = verify_paper(only="g3p3")
    text = render_json(reports)
    assert parse_reports(text) == reports
    data = json.loads(text)
    assert set(data[0]) == {"claim_id", "paper_anchor", "expected", "computed", "status"}


def test_exit_code_logic():
    ok = ClaimReport("a", "x", "1", "1", "pass")
    recorded = ClaimReport("b", "x", "1", "1", "assumed")
    bad = ClaimReport("c", "x", "1", "2", "fail")
    assert exit_code([ok, recorded]) == 0
    assert exit_code([ok, bad]) == 1


def test_markdown_table():
    _, reports = verify_paper(only="g2p5")
    table = render_markdown(reports)
    assert table.splitlines()[0].startswith("| claim |")
    assert "g2p5/genera" in table
    assert "pass" in table


def test_claim_errors_are_reported_not_raised():
    claims = [
        ledger.Claim("boom/claim", "anchor", "1", (), lambda: 1 / 0),
        ledger.Claim("boom/reader", "anchor", "2", ("boom/claim",), lambda one: one + 1),
        ledger.Claim("boom/recorded", "anchor", "4", (), lambda: 3, assumed=True),
    ]
    reports = {r.claim_id: r for r in run_claims(claims)}
    assert reports["boom/claim"].status == "fail"
    assert reports["boom/claim"].computed.startswith("error:")
    assert (reports["boom/reader"].status, reports["boom/reader"].computed) == ("fail", "blocked by boom/claim")
    # a recorded hypothesis whose computed value differs fails like any other claim
    assert (reports["boom/recorded"].status, reports["boom/recorded"].computed) == ("fail", "3")


def test_one_case_evaluates_the_claims_it_reads_once_each():
    calls = []

    def row(claim_id, inputs, value):
        def compute(*args):
            calls.append((claim_id, args))
            return value

        return ledger.Claim(claim_id, "anchor", str(value), inputs, compute)

    claims = [
        row("a/base", (), 1),
        row("b/unread", (), 2),
        row("c/reader", ("a/base",), 3),
        row("c/second", ("a/base", "c/reader"), 4),
    ]
    reports = run_claims(claims, only="c")
    assert [(r.claim_id, r.status) for r in reports] == [("c/reader", "pass"), ("c/second", "pass")]
    assert calls == [("a/base", ()), ("c/reader", (1,)), ("c/second", (1, 3))]


def test_the_table_refuses_an_input_that_is_unknown_or_declared_later():
    reader = ledger.Claim("a/reader", "anchor", "1", ("a/base",), lambda base: base)
    root = ledger.Claim("a/base", "anchor", "1", (), lambda: 1)
    assert ledger._checked([root, reader]) == [root, reader]
    with pytest.raises(ValueError, match="a/reader reads a/base"):
        ledger._checked([reader, root])
    with pytest.raises(ValueError, match="a/reader reads a/base"):
        ledger._checked([reader])


# ---- command line ----


def test_cli_verify_json(capsys):
    assert main(["verify", "--only", "g3p3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert all(entry["status"] in ("pass", "assumed") for entry in data)


def test_cli_verify_unknown_case(capsys):
    assert main(["verify", "--only", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "'nope'" in lines[0]


def test_cli_numerology(capsys):
    assert main(["numerology", "--genus", "2", "--degree", "5"]) == 0
    out = capsys.readouterr().out
    assert "g_C = 6" in out
    assert "g_D = 2" in out
    assert "gamma^2 = 2" in out
    assert "dimension 1" in out
    assert "fiber class: positive-dimensional of dimension 1" in out.splitlines()
    assert "xiao bound: 7/2" in out
    assert main(["numerology", "--genus", "3", "--degree", "5"]) == 0
    assert "fiber class: finite" in capsys.readouterr().out.splitlines()


def test_cli_numerology_bad_params(capsys):
    assert main(["numerology", "--genus", "1", "--degree", "4"]) == 2


def test_cli_monodromy_dihedral(capsys):
    assert main(["monodromy", "--dihedral", "4", "3"]) == 0
    out = capsys.readouterr().out
    assert "genus = 3" in out
    assert "galois closure genus = 10" in out
    assert "dihedral of order 6" in out


def test_cli_monodromy_file(tmp_path, capsys):
    path = tmp_path / "cover.txt"
    path.write_text("degree 3; base_genus 0\n(0 1)\n(0 1)\n(1 2)\n(1 2)\n")
    assert main(["monodromy", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "genus = 0" in out


def test_cli_monodromy_bad_file(tmp_path, capsys):
    path = tmp_path / "cover.txt"
    path.write_text("degree 3; base_genus 0\n(0 1)\n")
    assert main(["monodromy", "--file", str(path)]) == 2


def test_cli_monodromy_refuses_a_cover_file_that_is_not_utf8(tmp_path):
    """A byte that is not UTF-8 is an input error, exit 2 with one line: not a traceback and exit 1."""
    path = tmp_path / "cover.txt"
    path.write_bytes(b"degree 3; base_genus 0\n(0 1)\xff\n")
    result, _ = run_fresh_cli("monodromy", "--file", str(path))
    assert_refused(result, "cover file is not UTF-8 text")
    # past the first 8 KB read the offset is still the byte's offset in the file
    prefix = b"degree 3; base_genus 0\n" + b"(0 1)\n" * 2000
    path.write_bytes(prefix + b"(1 2)\xff\n")
    result, _ = run_fresh_cli("monodromy", "--file", str(path))
    assert_refused(result, f"byte 0xff in position {len(prefix) + 5}:")


def fresh_env(*paths: str, **variables: str) -> dict:
    """The environment of a new interpreter that imports ``src/`` first, then ``paths``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, *paths, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **variables)


def run_fresh_cli(*args: str, preexec_fn=None) -> tuple[subprocess.CompletedProcess, float]:
    """Run the command line in a new interpreter; returns the result and its wall time."""
    env = fresh_env()
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "xiaofib.cli", *args],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec_fn,
    )
    return result, time.perf_counter() - start


def assert_refused(result: subprocess.CompletedProcess, detail: str) -> None:
    """Exit 2, nothing on stdout and exactly one ``error:`` line naming ``detail``."""
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert detail in lines[0]


def test_cli_monodromy_refuses_a_huge_cover_quickly():
    """A degree above --max-group-order is refused before any enumeration."""
    result, elapsed = run_fresh_cli("monodromy", "--dihedral", "2", "100003")
    assert_refused(result, "100003")
    assert elapsed < 4.0


def test_cli_monodromy_refuses_a_huge_dihedral_cover_before_building_it():
    """Many branch points of huge degree: refused before any permutation exists."""
    result, elapsed = run_fresh_cli("monodromy", "--dihedral", "200", "100003")
    assert_refused(result, "100003")
    assert elapsed < 1.0


def cap_memory():
    """Limit the child's address space to 600 MB, so a huge allocation raises MemoryError."""
    import resource

    limit = 600 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cli_monodromy_refuses_a_huge_cover_file_before_parsing_cycles(tmp_path):
    """A header degree of two billion under a 600 MB address-space cap: no MemoryError."""
    path = tmp_path / "huge.txt"
    path.write_text("degree 2000000000; base_genus 0\n(0 1)\n(0 1)\n")

    result, elapsed = run_fresh_cli("monodromy", "--file", str(path), preexec_fn=cap_memory)
    assert_refused(result, "2000000000")
    assert elapsed < 1.0


def cap_memory_at_1_gb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_cli_monodromy_refuses_a_group_past_the_cell_budget_before_building_it():
    """D_9973 under a bound of a million elements: 2 x 10^8 cells, refused from the rotation's order."""
    result, elapsed = run_fresh_cli(
        "monodromy", "--dihedral", "2", "9973", "--max-group-order", "1000000", preexec_fn=cap_memory_at_1_gb
    )
    assert_refused(result, f"{errors.MAX_GROUP_CELLS} cells")
    assert elapsed < 2.0


def test_cli_monodromy_budget_charges_each_elements_overhead(tmp_path):
    """S_10 on ten sheets: 3.6 million small elements, refused at about 230,000 by their overhead."""
    path = tmp_path / "s10.txt"
    path.write_text("degree 10; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(9)))
    result, elapsed = run_fresh_cli(
        "monodromy", "--file", str(path), "--max-group-order", "100000000", preexec_fn=cap_memory_at_1_gb
    )
    assert_refused(result, f"degree 10 exceeds {errors.MAX_GROUP_CELLS} cells")
    assert elapsed < 1.0


def test_cli_monodromy_answers_the_largest_dihedral_group_the_default_bound_admits():
    """D_2477 has 4954 elements of 2477 sheets: inside the cell budget, overhead included."""
    assert 2 * 2477 <= errors.DEFAULT_MAX_GROUP_ORDER < 2 * 2503
    result, _ = run_fresh_cli("monodromy", "--dihedral", "2", "2477", preexec_fn=cap_memory_at_1_gb)
    assert result.returncode == 0 and result.stderr == ""
    assert "monodromy group: dihedral of order 4954" in result.stdout.splitlines()


def test_cli_numerology_answers_a_19_digit_prime_degree_at_once():
    """Miller-Rabin decides the degree; trial division took over a minute."""
    result, elapsed = run_fresh_cli("numerology", "--genus", "2", "--degree", "1000000000000000003")
    assert result.returncode == 0
    assert result.stderr == ""
    assert "g_C = 1000000000000000004" in result.stdout
    assert elapsed < 2.0


def test_cli_numerology_refuses_a_degree_at_the_primality_limit():
    """A strong pseudoprime to all thirteen bases: refused, not answered."""
    result, _ = run_fresh_cli("numerology", "--genus", "2", "--degree", "3317044064679887385961981")
    assert_refused(result, "cannot decide whether 3317044064679887385961981 is prime")


def test_cli_numerology_answers_a_huge_degree_at_once():
    """A degree of a billion under a 600 MB address-space cap: run-length dimensions, exit 0."""
    result, elapsed = run_fresh_cli(
        "numerology", "--genus", "100000000000", "--degree", "1000000007", preexec_fn=cap_memory
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert "chevalley-weil dims: [100000000000] + [99999999999]*1000000006 (" in result.stdout
    assert elapsed < 1.0


@pytest.mark.parametrize("poly", ["x^200*y^200-z^400", "x^40*y^40-z^80"])
def test_cli_quartic_refuses_a_form_above_the_degree_limit_at_once(poly):
    """The parser refuses these before smoothness elimination, which would run for seconds."""
    result, elapsed = run_fresh_cli("quartic", "--poly", poly, "--check", "smooth")
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")
    assert "exceeds the limit" in lines[0]
    assert elapsed < 1.0


@pytest.mark.parametrize("buffering", ["default", "unbuffered"])
@pytest.mark.parametrize("args", [
    ("lattice", "--case", "g3-product"),
    ("numerology", "--genus", "2", "--degree", "5"),
    ("verify", "--only", "g2p5"),
], ids=lambda args: args[0])
def test_cli_exits_141_in_silence_when_stdout_is_a_closed_pipe(args, buffering):
    """Like a writer ended by SIGPIPE: exit 128 + 13, no error line, no traceback."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "xiaofib.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.stderr == ""
    assert result.returncode == 141


def test_cli_input_errors_exit_2_but_bugs_propagate(monkeypatch, capsys):
    assert main(["quartic", "--poly", "x^3 + y^3 + z^3", "--check", "flexes"]) == 2
    assert capsys.readouterr().err.startswith("error: the flex certificate is for quartics")

    def broken(params):
        raise MemoryError

    monkeypatch.setattr(numerology, "cover_genera", broken)
    with pytest.raises(MemoryError):
        main(["numerology", "--genus", "2", "--degree", "5"])


def test_verify_passes_the_group_order_bound_to_every_tower(monkeypatch):
    bounds = []
    quotient_genus = monodromy.quotient_genus

    def recording(cover, subgroup, max_order=monodromy.DEFAULT_MAX_GROUP_ORDER):
        bounds.append(max_order)
        return quotient_genus(cover, subgroup, max_order)

    monkeypatch.setattr(monodromy, "quotient_genus", recording)
    code, _ = verify_paper(max_group_order=4321)
    assert code == 0
    assert len(bounds) > 2  # the g2p5 and trigonal towers and the monodromy grid
    assert set(bounds) == {4321}


def test_cli_verify_fails_the_towers_above_the_group_order_bound(capsys):
    """verify does not refuse the run: each tower claim fails with the refusal as its value."""
    assert main(["verify", "--max-group-order", "3", "--format", "json"]) == 1
    failing = {r["claim_id"]: r["computed"] for r in json.loads(capsys.readouterr().out)
               if r["status"] == "fail"}
    assert sorted(failing) == ["g2p5/monodromy-tower", "g4p3/monodromy-tower", "general/monodromy-grid"]
    assert all(value.startswith("error: ") and value.endswith("bound 3") for value in failing.values())


@pytest.mark.parametrize("command", [["verify"], ["monodromy", "--dihedral", "2", "5"]])
@pytest.mark.parametrize("bound", ["-5", "0"])
def test_cli_refuses_a_group_order_bound_below_one(command, bound, capsys):
    with pytest.raises(SystemExit) as stop:
        main([*command, "--max-group-order", bound])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    errors_printed = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors_printed == [
        f"xiaofib {command[0]}: error: argument --max-group-order: must be at least 1, got {bound}"
    ]
    assert captured.out == ""


def test_cli_lattice(capsys):
    assert main(["lattice", "--case", "g3-product"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["basis"] == ["D1", "D2", "Delta"]
    assert data["classes"]["X_P"] == [3, 3, -1]
    assert data["classes"]["B"] == [16, 16, -6]

    assert main(["lattice", "--case", "g3-sym2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classes"]["tau_delta"] == [8, -3]

    assert main(["lattice", "--case", "g2-product"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classes"]["C_P"] == [3, 3, -1]


def test_cli_quartic_checks(capsys):
    assert main(["quartic", "--poly", "x^3*y + y^3*z + z^3*x", "--check", "flexes"]) == 0
    out = capsys.readouterr().out
    assert "all flexes simple: true" in out

    assert main(["quartic", "--poly", "x^4 + y^4 - x^2*z^2", "--check", "smooth"]) == 0
    out = capsys.readouterr().out
    assert "smooth: false" in out


@pytest.mark.parametrize("argv", [
    ["quartic", "--poly", "-x^4+y^4+z^4", "--check", "smooth"],
    ["quartic", "--check", "smooth", "--poly", "-x^4 + y^4 + z^4"],
    ["quartic", "--poly=-x^4+y^4+z^4", "--check", "smooth"],
])
def test_cli_quartic_takes_a_form_that_starts_with_a_minus(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["form: - x^4 + y^4 + z^4", "smooth: true"]


@pytest.mark.parametrize("argv", [
    ["quartic", "--check", "smooth", "--poly"],
    ["quartic", "--poly"],
])
def test_cli_quartic_without_a_form_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    errors_printed = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors_printed == ["xiaofib quartic: error: argument --poly: expected one argument"]


def test_cli_quartic_parse_error(capsys):
    assert main(["quartic", "--poly", "x^4 + q", "--check", "smooth"]) == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_build_claims_stable_ids():
    ids = [c.claim_id for c in build_claims(1, errors.DEFAULT_MAX_GROUP_ORDER)]
    assert len(ids) == len(set(ids))


# ---- which engine modules a subcommand executes ----

# Installed as ``sitecustomize`` in a fresh interpreter: at exit it writes the
# names of the executed ``xiaofib.*`` modules on one line and, on a second, those
# of ``NOT_IMPORTED`` that were imported.  A module bound lazily but never used
# is in ``sys.modules`` with a subclass of ``types.ModuleType``.  Code generation
# and the rational-number stack cost start-up time that integer input never needs.
NOT_IMPORTED = ("dataclasses", "inspect", "fractions", "decimal", "numbers")
RECORD_EXECUTED = f"""
import atexit, os, sys, types

def _record():
    with open(os.environ["XIAOFIB_EXECUTED"], "w") as out:
        out.write(" ".join(name for name, module in sys.modules.items()
                           if name.startswith("xiaofib.") and type(module) is types.ModuleType))
        out.write("\\n" + " ".join(name for name in {NOT_IMPORTED!r} if name in sys.modules))

atexit.register(_record)
"""

LAUNCHERS = {
    "python -m": ["-m", "xiaofib.cli"],
    "console script": ["-c", "import sys; from xiaofib.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("args, code, executed", [
    pytest.param(("numerology", "--genus", "2", "--degree", "5"), 0, {"numerology", "record"},
                 id="numerology"),
    pytest.param(("numerology", "--genus", "1", "--degree", "5"), 2, {"numerology", "record"},
                 id="numerology-refused"),
    pytest.param(("monodromy", "--dihedral", "4", "3"), 0, {"monodromy", "numerology", "record"},
                 id="monodromy"),
    pytest.param(("monodromy", "--dihedral", "4", "9"), 2, {"monodromy", "numerology", "record"},
                 id="monodromy-refused"),
    pytest.param(("lattice", "--case", "g3-product"), 0, {"lattice", "record"}, id="lattice"),
    pytest.param(("lattice", "--case", "g5-product"), 2, set(), id="lattice-refused"),
    pytest.param(("quartic", "--poly", "x^4 + y^4 + z^4", "--check", "smooth"), 0,
                 {"quartic", "polynomials", "record"}, id="quartic"),
    pytest.param(("quartic", "--poly", "x^3*y + y^3*z + z^3*x", "--check", "flexes"), 0,
                 {"quartic", "polynomials", "record"}, id="quartic-flexes"),
    pytest.param(("quartic", "--poly", "x^4 + q", "--check", "smooth"), 2,
                 {"quartic", "polynomials", "record"}, id="quartic-refused"),
    pytest.param(("verify",), 0,
                 {"invariants", "lattice", "ledger", "monodromy", "numerology", "polynomials",
                  "quartic", "record"}, id="verify"),
])
def test_a_subcommand_executes_only_the_engines_it_uses(tmp_path, launcher, args, code, executed):
    """Only the engines a subcommand uses execute, and none imports ``NOT_IMPORTED``."""
    (tmp_path / "sitecustomize.py").write_text(RECORD_EXECUTED)
    record = tmp_path / "executed.txt"
    result = subprocess.run(
        [sys.executable, *LAUNCHERS[launcher], *args], capture_output=True, text=True,
        env=fresh_env(str(tmp_path), XIAOFIB_EXECUTED=str(record)), timeout=60,
    )
    assert result.returncode == code, result.stderr
    executed_line, generation_line = record.read_text().split("\n")
    names = set(executed_line.split()) - {"xiaofib.cli"}
    assert names == {f"xiaofib.{name}" for name in executed | {"errors"}}
    assert generation_line.split() == []


# Under ``python -S`` the interpreter imports only what the program asks for; an
# environment's ``site`` (through a .pth file) may import ``typing`` itself and hide a regression.
@pytest.mark.parametrize("args", [
    ("verify",),
    ("verify", "--format", "json"),
    ("numerology", "--genus", "2", "--degree", "5"),
    ("monodromy", "--dihedral", "4", "3"),
    ("lattice", "--case", "g3-product"),
    ("quartic", "--poly", "x^4 + y^4 + z^4", "--check", "smooth"),
    ("quartic", "--poly", "x^3*y + y^3*z + z^3*x", "--check", "flexes"),
], ids=" ".join)
def test_no_subcommand_imports_typing_or_the_rational_stack(args):
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "xiaofib.cli", *args],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "xiaofib.errors" in imported  # the report was read
    assert imported & {"typing", "fractions", "decimal"} == set()


def test_importing_the_cli_binds_every_engine_without_executing_it():
    """The benchmark tracer reads every layer from ``sys.modules`` after ``import xiaofib.cli``."""
    script = """
import sys, types
import xiaofib.numerology as eager
import xiaofib, xiaofib.cli
assert xiaofib.cli.numerology is eager
for name in ("lattice", "ledger", "monodromy", "quartic"):
    module = sys.modules["xiaofib." + name]
    assert getattr(xiaofib, name) is module and getattr(xiaofib.cli, name) is module, name
    assert type(module) is not types.ModuleType, name
from xiaofib import ledger
print(ledger.verify_paper.__name__, type(ledger) is types.ModuleType)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=fresh_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "verify_paper True\n"


@pytest.mark.parametrize("error, base", [
    (numerology.NumerologyError, ValueError),
    (monodromy.MonodromyDataError, ValueError),
    (monodromy.EnumerationLimitError, RuntimeError),
    (quartic.FormParseError, ValueError),
    (quartic.DegenerateFormError, ValueError),
    (quartic.RetryBudgetError, RuntimeError),
])
def test_input_errors_keep_their_old_base(error, base):
    assert issubclass(error, errors.InputError)
    assert issubclass(error, base)
    assert error.prefix == ("parse error" if error is quartic.FormParseError else "error")
