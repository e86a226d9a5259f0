"""Valid, malformed and hostile command lines for each subcommand, and one way to run them.

``tests/test_reachability.py`` runs the corpus to prove that every
statement in ``src/`` runs or is allowed; ``tests/test_golden.py`` compares each
command's exit code, stdout and first stderr line with the checked-in
transcript ``tests/golden_transcript.json``.
"""

import contextlib
import io
import random
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
# D_4, which the closure labels: r^2 = (0 2)(1 3), an involution and a rotation, is a branch element
D4_ROTATION_INVOLUTION = "degree 4; base_genus 0\n(0 2)(1 3)\n(1 3)\n(0 1)(2 3)\n(0 1 2 3)\n"
S4_CHAIN = "degree 4; base_genus 0\n(0 1)\n(1 2)\n(2 3)\n(2 3)\n(1 2)\n(0 1)\n"
S6_CHAIN = "degree 6; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(5))
# S_7, of order 5040, past the default group-order bound: built under --max-group-order 5040, then read
S7_CHAIN = "degree 7; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(6))
# S4_CHAIN with its lines spelled in other ways: each distinct line is parsed once
S4_VARIANTS = "degree 4; base_genus 0\n( 0 , 1 )\n(1 2)\n(2,3)\n(2 3)\n( 1 2 )\n(0 1)\n"
# Arabic-Indic digits three and zero in the header: cover input takes ASCII digits only
NON_ASCII_HEADER = "degree \u0663; base_genus \u0660\n(0 1 2)\n(0 2 1)\n"
# 4,301 digits, one more than the interpreter converts from text to an int
TOO_MANY_DIGITS = "1" * 4301


def dense_sextic(seed: int) -> str:
    """All 28 monomials of degree 6, each with a signed random 12-digit coefficient."""
    rng = random.Random(seed)
    return " ".join(
        f"{rng.choice('+-')}{rng.randrange(10**11, 10**12)}*x^{i}*y^{j}*z^{6 - i - j}"
        for i in range(7) for j in range(7 - i)
    )


def singular_sextic(seed: int, digits: int) -> str:
    """The product of two dense cubics, each of whose 10 monomials has a signed random ``digits``-digit coefficient.

    The sextic is singular where the two cubics meet.
    """
    rng = random.Random(seed)
    cubics = [
        {(i, j, 3 - i - j): rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)
         for i in range(4) for j in range(4 - i)}
        for _ in range(2)
    ]
    product: dict[tuple[int, int, int], int] = {}
    for (a, b, c), u in cubics[0].items():
        for (d, e, f), v in cubics[1].items():
            key = (a + d, b + e, c + f)
            product[key] = product.get(key, 0) + u * v
    return " ".join(f"{c:+d}*x^{i}*y^{j}*z^{k}" for (i, j, k), c in product.items() if c)


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
        "d4-rotation-involution.txt": D4_ROTATION_INVOLUTION.encode(),
        "s5-cycle-and-swap.txt": S5_CYCLE_AND_SWAP.encode(),
        "s4.txt": S4_CHAIN.encode(),
        "s6.txt": S6_CHAIN.encode(),
        "s7.txt": S7_CHAIN.encode(),
        "s4-variants.txt": S4_VARIANTS.encode(),
        "empty.txt": b"",
        "bad-header.txt": b"deg 3\n(0 1)\n",
        "non-ascii-header.txt": NON_ASCII_HEADER.encode(),
        "open-cycle.txt": b"degree 3; base_genus 0\n(0 1\n",
        "sheet-out-of-range.txt": b"degree 3; base_genus 0\n(0 5)\n",
        "repeated-sheet.txt": b"degree 3; base_genus 0\n(0 1)(1 2)\n",
        "identity.txt": b"degree 3; base_genus 0\n()\n",
        "disconnected.txt": b"degree 4; base_genus 0\n(0 1)\n(0 1)\n",
        "degree-zero.txt": b"degree 0; base_genus 0\n",
        "huge-sheet.txt": f"degree 3; base_genus 0\n(0 {TOO_MANY_DIGITS})\n".encode(),
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
        ["verify", "--max-group-order", "abc"],
        ["verify", "--only", ""],
        ["numerology", "--genus", "4", "--degree", "3"],
        ["numerology", "--genus", "1", "--degree", "5"],
        ["numerology", "--genus", "2", "--degree", "9"],
        ["numerology", "--genus", "100000000000", "--degree", "1000000007"],
        ["numerology", "--genus", "2", "--degree", "4"],
        ["numerology", "--genus", "2", "--degree", "45"],  # odd and composite: Miller-Rabin finds a witness
        ["numerology", "--genus", "2", "--degree", "3317044064679887385961983"],  # past PRIMALITY_LIMIT
        ["numerology", "--genus", str(10**2000), "--degree", "3"],  # at GENUS_LIMIT
        ["monodromy", "--dihedral", "2", "5"],
        ["monodromy", "--dihedral", "2", "257"],
        ["monodromy", "--dihedral", "2", "9"],
        ["monodromy", "--dihedral", "1", "5"],
        ["monodromy", "--dihedral", "2", "100003"],
        ["monodromy", "--dihedral", "2", "101", "--max-group-order", "100"],
        ["monodromy", "--dihedral", "3", "31"],
        ["monodromy", "--dihedral", "2", "251"],
        ["monodromy", "--dihedral", "4", "3"],
        ["monodromy", "--dihedral", "50000", "3"],  # more than MAX_BRANCH_POINTS
        # D_9973 has 2 x 10^8 cells, past MAX_GROUP_CELLS: refused before the closure starts
        ["monodromy", "--dihedral", "2", "9973", "--max-group-order", "1000000"],
        ["monodromy", "--file", path["s5.txt"]],
        ["monodromy", "--file", path["s5.txt"], "--max-group-order", "100"],
        ["monodromy", "--file", path["odd.txt"]],
        ["monodromy", "--file", path["latin1.txt"]],
        ["monodromy", "--file", str(Path(workdir, "missing.txt"))],
        ["monodromy", "--file", path["huge-base-genus.txt"]],
        ["monodromy", "--file", path["cyclic5.txt"]],
        ["monodromy", "--file", path["klein-four.txt"]],
        ["monodromy", "--file", path["s3-triangle.txt"]],
        ["monodromy", "--file", path["d4-rotation-involution.txt"]],
        ["monodromy", "--file", path["s5-cycle-and-swap.txt"]],
        ["monodromy", "--file", path["s4.txt"]],
        ["monodromy", "--file", path["s6.txt"]],
        ["monodromy", "--file", path["s7.txt"], "--max-group-order", "5040"],
        ["monodromy", "--file", path["s4-variants.txt"]],
        ["monodromy", "--file", path["empty.txt"]],
        ["monodromy", "--file", path["bad-header.txt"]],
        ["monodromy", "--file", path["non-ascii-header.txt"]],
        ["monodromy", "--file", path["open-cycle.txt"]],
        ["monodromy", "--file", path["sheet-out-of-range.txt"]],
        ["monodromy", "--file", path["repeated-sheet.txt"]],
        ["monodromy", "--file", path["identity.txt"]],
        ["monodromy", "--file", path["disconnected.txt"]],
        ["monodromy", "--file", path["degree-zero.txt"]],
        ["monodromy", "--file", path["huge-sheet.txt"]],
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
        *(["quartic", "--poly", KLEIN, "--check", "flexes", "--seed", str(seed)] for seed in (1, 2, 4, 5)),
        ["quartic", "--poly", "-x^4+y^4+z^4", "--check", "smooth"],
        ["quartic", "--poly", "1/2*x^4 + y^4 + z^4", "--check", "flexes"],
        ["quartic", "--poly", "3/2*x^3*y + 3/2*y^3*z + 3/2*z^3*x", "--check", "flexes"],
        ["quartic", "--poly", dense_sextic(5), "--check", "smooth"],
        *(["quartic", "--poly", text, "--check", "smooth"] for text in (
            "4/2*x^4 + y^4 + z^4",
            "1/0*x^4 + y^4 + z^4",
            TOO_MANY_DIGITS + "*x^4 + y^4 + z^4",
            "x^4 + y^4 + $",
            "",
            "x^4 + - y^4 + z^4",
            "x^4 + y^4 +",
            "*x^4 + y^4",
            "x^4 * + y^4",
            "x^4 + ^2",
            "x^4 - x^4",
            "3",
            "x + y + z",
            "x^4 + y^4",  # a binary form: z does not occur, so two partials are nonzero
            "x^2*y*z + y^4 + z^4",  # singular at (1 : 0 : 0)
            "x^2*y^2 + y^2*z^2 + x^4 + z^4",  # singular at (0 : 1 : 0)
            "y^3*z + x^4 + z^4",
            "x^3*z + y^4 + z^4",
            # a principal subresultant coefficient of two partials vanishes: one gcd degree never occurs
            "x^3*y + x*y^3 - x^2*z^2 + x*z^3 + y*z^3",
        )),
        # the first coordinate change moves the curve's point (-1 : -1 : 1) to the projection
        # centre: the moved form has no z^4 term, and the change is skipped
        ["quartic", "--poly", "x^4 + y^4 - 2*z^4", "--check", "flexes", "--seed", "13"],
        # smooth, with a non-simple flex: the tangent z = 0 at (0 : 1 : 0) meets the curve in x^4 = 0
        ["quartic", "--poly", "y^3*z + x^4 + z^4", "--check", "flexes"],
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
