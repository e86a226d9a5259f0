"""Valid, malformed and hostile command lines for each subcommand, and one way to run them.

``tests/test_reachability.py`` runs the corpus to prove that every
``def`` in ``src/`` is reached; ``tests/test_golden.py`` compares each
command's exit code, stdout and first stderr line with the checked-in
transcript ``tests/golden_transcript.json``.
"""

import contextlib
import io
from pathlib import Path

KLEIN = "x^3*y + y^3*z + z^3*x"
NODAL = "x^4 + y^4 - x^2*z^2"
S5_CHAIN = "degree 5; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(4))
# The same chain over a base whose genus has 4,299 digits, one below the interpreter's limit
# for converting an int to text: the cover refuses it before any genus is printed.
HUGE_BASE_GENUS = S5_CHAIN.replace("base_genus 0", "base_genus " + "9" * 4299)
# Groups the generators do not name, so the closure enumerates and labels them: a 5-cycle and its
# inverse (cyclic), two commuting double transpositions (the Klein four group, labelled "other"),
# three transpositions of 3 sheets (S_3, which is D_3), and S_5 from a 5-cycle and a transposition.
CYCLIC5 = "degree 5; base_genus 0\n(0 1 2 3 4)\n(0 4 3 2 1)\n"
S5_CYCLE_AND_SWAP = "degree 5; base_genus 0\n(0 1 2 3 4)\n(0 1)\n(1 4 3 2)\n"
KLEIN_FOUR = "degree 4; base_genus 0\n" + "(0 1)(2 3)\n" * 2 + "(0 2)(1 3)\n" * 2
S3_TRIANGLE = "degree 3; base_genus 0\n" + "".join(f"({a} {b})\n" * 2 for a, b in ((0, 1), (1, 2), (0, 2)))
S4_CHAIN = "degree 4; base_genus 0\n(0 1)\n(1 2)\n(2 3)\n(2 3)\n(1 2)\n(0 1)\n"
S6_CHAIN = "degree 6; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(5))


def command_lines(workdir: str) -> list[list[str]]:
    """Valid, malformed and hostile argument lists for each subcommand; cover files go to ``workdir``."""
    files = {
        "s5.txt": S5_CHAIN.encode(),
        "odd.txt": b"degree 3; base_genus 0\n(0 1)\n",  # one transposition: the product is not 1
        "latin1.txt": b"degree 3; base_genus 0\n(0 1)\xff\n",
        "huge-base-genus.txt": HUGE_BASE_GENUS.encode(),
        "cyclic5.txt": CYCLIC5.encode(),
        "klein-four.txt": KLEIN_FOUR.encode(),
        "s3-triangle.txt": S3_TRIANGLE.encode(),
        "s5-cycle-and-swap.txt": S5_CYCLE_AND_SWAP.encode(),
        "s4.txt": S4_CHAIN.encode(),
        "s6.txt": S6_CHAIN.encode(),
    }
    for name, data in files.items():
        Path(workdir, name).write_bytes(data)
    path = {name: str(Path(workdir, name)) for name in files}
    return [
        ["verify"],
        ["verify", "--format", "json", "--seed", "7"],
        ["verify", "--only", "g4p3"],
        ["verify", "--only", "no-such-case"],
        ["verify", "--max-group-order", "3"],
        ["verify", "--max-group-order", "0"],
        ["numerology", "--genus", "4", "--degree", "3"],
        ["numerology", "--genus", "1", "--degree", "5"],
        ["numerology", "--genus", "2", "--degree", "9"],
        ["numerology", "--genus", "100000000000", "--degree", "1000000007"],
        ["monodromy", "--dihedral", "2", "5"],
        ["monodromy", "--dihedral", "2", "257"],
        ["monodromy", "--dihedral", "2", "9"],
        ["monodromy", "--dihedral", "1", "5"],
        ["monodromy", "--dihedral", "2", "100003"],
        ["monodromy", "--dihedral", "2", "101", "--max-group-order", "100"],
        ["monodromy", "--dihedral", "3", "31"],
        ["monodromy", "--dihedral", "2", "251"],
        ["monodromy", "--file", path["s5.txt"]],
        ["monodromy", "--file", path["s5.txt"], "--max-group-order", "100"],
        ["monodromy", "--file", path["odd.txt"]],
        ["monodromy", "--file", path["latin1.txt"]],
        ["monodromy", "--file", str(Path(workdir, "missing.txt"))],
        ["monodromy", "--file", path["huge-base-genus.txt"]],
        ["monodromy", "--file", path["cyclic5.txt"]],
        ["monodromy", "--file", path["klein-four.txt"]],
        ["monodromy", "--file", path["s3-triangle.txt"]],
        ["monodromy", "--file", path["s5-cycle-and-swap.txt"]],
        ["monodromy", "--file", path["s4.txt"]],
        ["monodromy", "--file", path["s6.txt"]],
        ["lattice", "--case", "g3-product"],
        ["lattice", "--case", "g3-sym2"],
        ["lattice", "--case", "g2-product"],
        ["lattice", "--case", "g9"],
        ["quartic", "--poly", KLEIN, "--check", "smooth"],
        ["quartic", "--poly", KLEIN, "--check", "flexes", "--seed", "3"],
        ["quartic", "--poly", "-x^4 + y^4 + z^4", "--check", "flexes"],
        ["quartic", "--poly", "1/2*x^4 + y^4 + z^4", "--check", "smooth"],
        ["quartic", "--poly", NODAL, "--check", "smooth"],
        ["quartic", "--poly", NODAL, "--check", "flexes"],
        ["quartic", "--poly", "x^3 + y^3 + z^3", "--check", "flexes"],
        ["quartic", "--poly", "x^4 + y^^4", "--check", "smooth"],
        ["quartic", "--poly", "x^40*y^40-z^80", "--check", "smooth"],
    ]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process; argparse's usage errors exit 2."""
    from xiaofib import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()
