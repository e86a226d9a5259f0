"""Property test: the command line answers or refuses every input, within two seconds.

``cli.main`` runs in this process on numerals around the interpreter's
4300-digit conversion limit, on forms of degree 5 to 8 around the form
degree limit, and on the hostile inputs of the benchmark's probe; forms
come as ``--poly TEXT`` and as ``--poly=TEXT``.  Each run returns 0, 1
or 2, or ends in argparse's ``SystemExit(2)``, which no quartic form
reaches; a refusal (return code 2) prints exactly one stderr line.
"""

import contextlib
import io
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from xiaofib.cli import main  # noqa: E402

HOSTILE_ARGV = (
    ["numerology", "--genus", "100000000000", "--degree", "1000000007"],
    ["quartic", "--poly", "x^40*y^40-z^80", "--check", "smooth"],
    ["monodromy", "--dihedral", "2", "100003"],
)

DENSE_SEXTIC = " + ".join(
    f"{(7 * i + 3 * j) % 9 + 1}*x^{i}*y^{j}*z^{6 - i - j}" for i in range(7) for j in range(7 - i)
)
huge_numerals = st.builds(
    lambda lead, fill, digits: lead + fill * (digits - 1),
    st.sampled_from("19"),
    st.sampled_from("09"),
    st.integers(4290, 4310),
)
numerals = st.one_of(huge_numerals, st.integers(0, 12).map(str))


@st.composite
def form_texts(draw):
    """A form of degree 5 to 8 with coefficients in -9..9, on every monomial or on a few."""
    degree = draw(st.integers(5, 8))
    monomials = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    if draw(st.booleans()):
        chosen = monomials
    else:
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    text = ""
    for i, j, k in chosen:
        c = draw(st.integers(-9, 9))
        text += f" {'-' if c < 0 else '+'} {abs(c)}*x^{i}*y^{j}*z^{k}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


argvs = st.one_of(
    st.builds(lambda g, p: ["numerology", "--genus", g, "--degree", p], numerals, numerals),
    st.builds(lambda g, p: ["monodromy", "--dihedral", g, p], numerals, numerals),
    st.builds(lambda seed: ["verify", "--format", "json", "--seed", seed], huge_numerals),
    st.builds(
        lambda form, check, joined: (
            ["quartic", f"--poly={form}", "--check", check] if joined
            else ["quartic", "--poly", form, "--check", check]
        ),
        form_texts(),
        st.sampled_from(["smooth", "flexes"]),
        st.booleans(),
    ),
    st.sampled_from(HOSTILE_ARGV),
)


def run_main(argv: list[str]) -> tuple[int, str]:
    """Return code (argparse's exit status when it stops the run) and stderr of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse refuses the command line
            assert stop.code == 2
            return -2, err.getvalue()
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argvs)
@example(HOSTILE_ARGV[0])
@example(HOSTILE_ARGV[1])
@example(HOSTILE_ARGV[2])
@example(["numerology", "--genus", "9" * 4300, "--degree", "5"])
@example(["monodromy", "--dihedral", "9" * 4300, "3"])
@example(["quartic", "--poly", DENSE_SEXTIC, "--check", "smooth"])
@example(["quartic", "--poly", "x^3*y + y^3*z + z^3*x", "--check", "flexes", "--seed", "9" * 4300])
def test_cli_answers_or_refuses_within_two_seconds(argv):
    start = time.perf_counter()
    code, err = run_main(argv)
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2, -2)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error:", "parse error:"))
    if argv[0] == "quartic":
        assert code != -2  # argparse takes every form, also one that starts with "-"
    if argv == HOSTILE_ARGV[0]:
        assert code == 0  # a huge degree is answered at once
