import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xiaofib import errors, lattice, ledger, monodromy, numerology, quartic
from xiaofib.cli import main
from xiaofib.ledger import (
    ASSUMED,
    PASS,
    ClaimReport,
    build_claims,
    exit_code,
    parse_reports,
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


def test_corrupted_gram_fails_loudly(monkeypatch):
    """One poisoned entry of the genus-3 product Gram matrix must fail the run."""
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
    failing = [r for r in reports if r.status == "fail"]
    assert failing
    assert any(r.claim_id == "g4p3/fiber-class" for r in failing)
    # the branch-class chain reads the poisoned lattice: its five claims fail with the rest
    assert len(failing) == 13
    assert {"g4p3/branch-class", "g4p3/branch-half"} <= {r.claim_id for r in failing}


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
        ledger.Claim("boom/claim", "boom", "anchor", "1", lambda: 1 / 0, False),
    ]
    reports = run_claims(claims)
    assert reports[0].status == "fail"
    assert reports[0].computed.startswith("error:")


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
    assert "xiao bound: 7/2" in out


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


def test_cli_quartic_parse_error(capsys):
    assert main(["quartic", "--poly", "x^4 + q", "--check", "smooth"]) == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_build_claims_stable_ids():
    ids = [c.claim_id for c in build_claims()]
    assert len(ids) == len(set(ids))


# ---- which engine modules a subcommand executes ----

# Installed as ``sitecustomize`` in a fresh interpreter: at exit it writes the
# names of the executed ``xiaofib.*`` modules.  A module bound lazily but never
# used is in ``sys.modules`` with a subclass of ``types.ModuleType``.
RECORD_EXECUTED = """
import atexit, os, sys, types

def _record():
    with open(os.environ["XIAOFIB_EXECUTED"], "w") as out:
        out.write(" ".join(name for name, module in sys.modules.items()
                           if name.startswith("xiaofib.") and type(module) is types.ModuleType))

atexit.register(_record)
"""

LAUNCHERS = {
    "python -m": ["-m", "xiaofib.cli"],
    "console script": ["-c", "import sys; from xiaofib.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("args, code, executed", [
    pytest.param(("numerology", "--genus", "2", "--degree", "5"), 0, {"numerology"},
                 id="numerology"),
    pytest.param(("numerology", "--genus", "1", "--degree", "5"), 2, {"numerology"},
                 id="numerology-refused"),
    pytest.param(("monodromy", "--dihedral", "4", "3"), 0, {"monodromy", "numerology"},
                 id="monodromy"),
    pytest.param(("monodromy", "--dihedral", "4", "9"), 2, {"monodromy", "numerology"},
                 id="monodromy-refused"),
    pytest.param(("lattice", "--case", "g3-product"), 0, {"lattice"}, id="lattice"),
    pytest.param(("lattice", "--case", "g5-product"), 2, set(), id="lattice-refused"),
    pytest.param(("quartic", "--poly", "x^4 + y^4 + z^4", "--check", "smooth"), 0,
                 {"quartic", "polynomials"}, id="quartic"),
    pytest.param(("quartic", "--poly", "x^4 + q", "--check", "smooth"), 2,
                 {"quartic", "polynomials"}, id="quartic-refused"),
])
def test_a_subcommand_executes_only_the_engines_it_uses(tmp_path, launcher, args, code, executed):
    (tmp_path / "sitecustomize.py").write_text(RECORD_EXECUTED)
    record = tmp_path / "executed.txt"
    result = subprocess.run(
        [sys.executable, *LAUNCHERS[launcher], *args], capture_output=True, text=True,
        env=fresh_env(str(tmp_path), XIAOFIB_EXECUTED=str(record)), timeout=60,
    )
    assert result.returncode == code, result.stderr
    names = set(record.read_text().split()) - {"xiaofib.cli"}
    assert names == {f"xiaofib.{name}" for name in executed | {"errors"}}


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
