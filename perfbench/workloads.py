"""Workload inputs, the op each input drives, and the answer checks.

Every input is generated here, and every answer is checked against
values this file derives itself: the catalogue answers
of three quartics, closed forms for the genus towers, the ledger's
status counts, and the exit codes and key output lines of the command
line.  Nothing here is read back from the program to decide what is
correct.

Inputs are drawn stratum by stratum in rounds (the same number of
items from every stratum), so every round has nearly the same cost mix,
and a faster program covers more rounds with the same mix.  No key repeats within a
stream, so a cache across calls cannot fake a gain.

Op cost varies a lot from input to input (on a 2-core Linux machine a
verify op takes 0.3 to 2 s depending on its ledger seed, a Klein
certificate 0.3 to 2 s depending on its flex seed), and a run holds only
30 to 200 ops.  So every stratum is one fixed sequence, the workload
seed shuffles the order within each round, and a run ends on a round
boundary (for the single stratum of verify, after any op).  Runs on
different seeds then measure the same inputs in different orders, and
their spread is the machine's, not the sample's.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from math import factorial
from typing import Iterator

PROCESS_WORKLOADS = ("verify", "cli_inputs")
INPROCESS_WORKLOADS = ("quartic_certs", "monodromy_towers")
WORKLOADS = PROCESS_WORKLOADS + INPROCESS_WORKLOADS

# Per-call deadline in seconds; subprocess ops also run under procs.ADDRESS_SPACE_CAP.
DEADLINE_S = {"verify": 30.0, "cli_inputs": 4.0, "quartic_certs": 60.0, "monodromy_towers": 60.0}

LEDGER_CLAIMS = 47
LEDGER_STATUS = {"pass": 43, "assumed": 4}


@dataclass(frozen=True)
class Item:
    """One op's input: ``args`` go to the op, ``expected`` is the answer it must give."""

    kind: str
    key: str
    args: tuple
    expected: object
    files: tuple = field(default=())  # (relative path, text) pairs written before the op
    round: int = 0  # runs end on a round boundary


# ---------------------------------------------------------------- quartics

Form = dict  # exponent triple (i, j, k) -> integer coefficient

KLEIN = {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1}
FERMAT = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
SINGULAR = {(4, 0, 0): 1, (0, 4, 0): 1, (2, 0, 2): -1}
FERMAT_CUBIC = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
CATALOGUE = {"klein": KLEIN, "fermat": FERMAT, "singular": SINGULAR}

# (is_smooth, flexes_all_simple) per catalogue form; None means DegenerateFormError.
QUARTIC_ANSWERS = {"klein": (True, True), "fermat": (True, False), "singular": (False, None)}
PARSE_ERROR = "FormParseError"

STEP_BANDS = ((2, 3), (4, 5), (6, 8), (2, 8))


def _mul(a: Form, b: Form) -> Form:
    out: Form = {}
    for (i, j, k), u in a.items():
        for (l, m, n), v in b.items():
            key = (i + l, j + m, k + n)
            out[key] = out.get(key, 0) + u * v
    return {key: c for key, c in out.items() if c}


def substitute(form: Form, matrix) -> Form:
    """The form F(M v) for an integer 3x3 matrix M."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    linear = [{axis: c for axis, c in zip(axes, row) if c} for row in matrix]
    out: Form = {}
    for (i, j, k), c in form.items():
        term: Form = {(0, 0, 0): c}
        for lin, e in zip(linear, (i, j, k)):
            for _ in range(e):
                term = _mul(term, lin)
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return {key: c for key, c in out.items() if c}


def render(form: Form) -> str:
    """Text in the program's input grammar, terms in decreasing exponent order."""
    parts = []
    for key in sorted(form, reverse=True):
        c = form[key]
        mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip("xyz", key) if e)
        body = mono if abs(c) == 1 and mono else f"{abs(c)}*{mono}" if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ " if parts else "") + body)
    return " ".join(parts)


def unimodular(rng: random.Random, steps: int) -> list[list[int]]:
    """Integer matrix of determinant +-1 from ``steps`` seeded shears and row swaps."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        if rng.randrange(4) == 0:
            m[i], m[j] = m[j], m[i]
        else:
            s = rng.choice((1, -1, 2, -2))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def coefficient_bits(text: str) -> int:
    """Bit size of the largest integer in an input string (0 for none)."""
    digits = "".join(ch if ch.isdigit() else " " for ch in text).split()
    return max((int(d).bit_length() for d in digits), default=0)


def _image(rng: random.Random, form: Form, band: tuple[int, int]) -> str:
    return render(substitute(form, unimodular(rng, rng.randint(*band))))


def _corrupt(rng: random.Random, text: str, kind: int) -> str:
    """A string the grammar must reject, made from a valid one."""
    if kind == 0:
        return text + " + x"  # non-homogeneous
    if kind == 1:
        cut = rng.randrange(1, len(text))
        return text[:cut] + "#" + text[cut:]  # unexpected character
    if kind == 2:
        return text + " -"  # dangling sign
    if kind == 3:
        return text + "*x^"  # caret without exponent
    return text.replace(" + ", " + - ", 1) if " + " in text else "+ - " + text  # repeated sign


def _quartic_slot(rng: random.Random, name: str, band: tuple[int, int]) -> Iterator[Item]:
    while True:
        text = _image(rng, CATALOGUE[name], band)
        yield Item(name, text, (text, rng.randrange(1, 2**31)), QUARTIC_ANSWERS[name])


def _malformed_slot(rng: random.Random) -> Iterator[Item]:
    for n in itertools.count():
        base = _image(rng, CATALOGUE[rng.choice(sorted(CATALOGUE))], STEP_BANDS[0])
        text = _corrupt(rng, base, n % 5)
        yield Item("malformed", text, (text, 1), PARSE_ERROR)


def quartic_answer(text: str, flex_seed: int):
    """The op: parse, smoothness, then the flex certificate."""
    from xiaofib import quartic

    try:
        form = quartic.parse_ternary_form(text)
    except quartic.FormParseError:
        return PARSE_ERROR
    smooth = quartic.is_smooth(form)
    try:
        simple = quartic.flexes_all_simple(form, flex_seed).all_simple
    except quartic.DegenerateFormError:
        simple = None
    return (smooth, simple)


# ---------------------------------------------------------------- towers

def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 3), hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


# Dihedral prime bands and symmetric degrees, listed in increasing op cost.
# Op cost grows about as p^2, so the costly bands span primes within about
# 15% of each other and a round (one cover per stratum) costs nearly the
# same as the next.  All S_n covers of one degree cost the same, so S5 sits in the middle,
# twice, with a gap in cost on either side: the median latency lands on it.
TOWER_STRATA = (
    ("symmetric", 4), ("dihedral", (3, 7)), ("dihedral", (11, 13)), ("dihedral", (17, 23)),
    ("symmetric", 5), ("symmetric", 5), ("dihedral", (37, 47)), ("dihedral", (59, 71)),
    ("dihedral", (83, 97)), ("symmetric", 6), ("dihedral", (131, 151)),
)
# Every stratum holds the same number of distinct covers, so the stream is
# TOWER_COVERS rounds of one mix; the (11, 13) band fixes it at 2 x 9.
# Base genus moves op cost far less than p does.
TOWER_GENERA = range(2, 11)
TOWER_COVERS = 18


def dihedral_answer(g: int, p: int) -> tuple:
    return ((p - 1) * (g - 1) // 2, p * (g - 1) + 1, g, "dihedral", 2 * p)


def symmetric_answer(n: int) -> tuple:
    return (0, factorial(n) * (n - 3) // 2 + 1, n - 2, "symmetric", factorial(n))


def symmetric_cover_text(rng: random.Random, n: int) -> str:
    """Cover file with 2(n-1) transpositions whose product is 1 and which generate S_n.

    The transpositions are the edges of a random labelled tree, each used
    twice: in adjacent pairs or as a palindrome.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [tuple(sorted((labels[i], labels[rng.randrange(i)]))) for i in range(1, n)]
    if rng.randrange(2):
        rng.shuffle(edges)
        sequence = [e for e in edges for _ in range(2)]
    else:
        sequence = edges + edges[::-1]
    return f"degree {n}; base_genus 0\n" + "\n".join(f"({a} {b})" for a, b in sequence) + "\n"


def _tower_slot(rng: random.Random, stratum) -> Iterator[Item]:
    kind, spec = stratum
    if kind == "dihedral":
        pool = [(g, p) for p in _primes(*spec) for g in TOWER_GENERA]
        rng.shuffle(pool)
        for g, p in pool[:TOWER_COVERS]:
            yield Item("dihedral", f"dihedral {g} {p}", (g, p), dihedral_answer(g, p))
        return
    for _ in range(TOWER_COVERS):
        text = symmetric_cover_text(rng, spec)
        yield Item(f"symmetric{spec}", text, (text,), symmetric_answer(spec))


def tower_answer(*args) -> tuple:
    """The op: genus, group, rotation or even subgroup, closure and quotient genus."""
    from xiaofib import monodromy

    dihedral = len(args) == 2
    cover = monodromy.build_dihedral_cover(*args) if dihedral else monodromy.parse_cover(args[0])
    genus = monodromy.rh_genus(cover)
    group = monodromy.generated_group(cover)
    if dihedral:
        subgroup = monodromy.cyclic_rotation_subgroup(group)
    else:
        subgroup = monodromy.even_subgroup(group)
    return (
        genus,
        monodromy.galois_closure_genus(cover),
        monodromy.quotient_genus(cover, subgroup),
        group.classification,
        group.order,
    )


# ---------------------------------------------------------------- command line

def _ledger_seeds(rng: random.Random) -> Iterator[Item]:
    while True:
        seed = rng.randrange(1, 10**9)
        yield Item("verify", f"verify {seed}", ("verify", "--seed", str(seed)), ("ledger",))


def _with_format(item: Item, position: int) -> Item:
    fmt = ("json", "markdown")[position % 2]
    return replace(item, kind=f"verify-{fmt}", args=item.args + ("--format", fmt),
                   expected=("ledger", fmt))


def _lines(*lines: str) -> tuple:
    return ("lines",) + lines


ERROR = ("error",)

LATTICE_CLASSES = {
    "g3-product": {"K": [4, 4, 0], "X_P": [3, 3, -1], "B": [16, 16, -6], "L": [8, 8, -3]},
    "g2-product": {"K": [2, 2, 0], "C_P": [3, 3, -1]},
    "g3-sym2": {"tau_delta": [8, -3], "tau_Delta": [16, -6]},
}


def numerology_lines(g: int, p: int) -> tuple:
    return _lines(
        f"g_C = {p * (g - 1) + 1}",
        f"g_D = {(p - 1) * (g - 1) // 2}",
        f"gamma^2 = {8 - 2 * (g - 1) * (p - 2)}",
    )


def dihedral_lines(g: int, p: int) -> tuple:
    genus, closure, quotient, _, order = dihedral_answer(g, p)
    return _lines(
        f"genus = {genus}",
        f"monodromy group: dihedral of order {order}",
        f"galois closure genus = {closure}",
        f"quotient by the rotation subgroup: genus = {quotient}",
    )


def _pool_slot(rng: random.Random, pool: list, make) -> Iterator[Item]:
    rng.shuffle(pool)
    for entry in pool:
        yield make(entry)


def _numerology_slot(rng):
    pool = [(g, p) for g in range(2, 100) for p in _primes(3, 97)]
    return _pool_slot(rng, pool, lambda gp: Item(
        "numerology", f"numerology {gp}",
        ("numerology", "--genus", str(gp[0]), "--degree", str(gp[1])), numerology_lines(*gp)))


def _dihedral_cli_slot(rng):
    pool = [(g, p) for g in range(2, 41) for p in _primes(3, 23)]
    return _pool_slot(rng, pool, lambda gp: Item(
        "monodromy-dihedral", f"dihedral {gp}",
        ("monodromy", "--dihedral", str(gp[0]), str(gp[1])), dihedral_lines(*gp)))


def _lattice_slot(rng):
    return _pool_slot(rng, sorted(LATTICE_CLASSES), lambda case: Item(
        "lattice", f"lattice {case}", ("lattice", "--case", case), ("json", case)))


def _work_file(text: str) -> str:
    """Path, relative to the checkout root, of the input file holding ``text``."""
    return f"perfbench/.work/{hashlib.sha256(text.encode()).hexdigest()[:16]}.txt"


def _cover_file_slot(rng: random.Random) -> Iterator[Item]:
    for n in itertools.count():
        degree = 4 + n % 2
        text = symmetric_cover_text(rng, degree)
        path = _work_file(text)
        _, closure, _, _, order = symmetric_answer(degree)
        yield Item("monodromy-file", text, ("monodromy", "--file", path), _lines(
            "genus = 0",
            f"monodromy group: symmetric of order {order}",
            f"galois closure genus = {closure}",
        ), files=((path, text),))


def _quartic_cli_slot(rng: random.Random, check: str) -> Iterator[Item]:
    names = ("fermat",) if check == "flexes" else ("klein", "fermat", "singular")
    for n in itertools.count():
        name = names[n % len(names)]
        text = _image(rng, CATALOGUE[name], STEP_BANDS[0])
        smooth, simple = QUARTIC_ANSWERS[name]
        if check == "smooth":
            expected = _lines(f"smooth: {str(smooth).lower()}")
        else:
            expected = _lines("flex polynomial degree: 24", f"all flexes simple: {str(simple).lower()}")
        yield Item(f"quartic-{check}", f"{check} {text}",
                   ("quartic", "--poly", text, "--check", check), expected)


def _cli_malformed_slot(rng: random.Random) -> Iterator[Item]:
    """Inputs the program must refuse with exit 2 and a one-line message."""
    for n in itertools.count():
        kind = n % 5
        if kind == 0:
            argv = ("numerology", "--genus", str(rng.randrange(-5, 2)),
                    "--degree", str(rng.choice(_primes(3, 97))))
        elif kind == 1:
            composite = rng.choice([c for c in range(9, 200, 2) if not _primes(c, c)])
            argv = ("monodromy", "--dihedral", str(rng.randrange(2, 40)), str(composite))
        elif kind == 2:
            base = _image(rng, CATALOGUE[rng.choice(sorted(CATALOGUE))], STEP_BANDS[0])
            argv = ("quartic", "--poly", _corrupt(rng, base, rng.randrange(5)), "--check", "smooth")
        elif kind == 3:
            argv = ("quartic", "--poly", _image(rng, FERMAT_CUBIC, STEP_BANDS[0]), "--check", "flexes")
        else:
            # an odd number of transpositions cannot multiply to the identity
            text = symmetric_cover_text(rng, 5).rstrip("\n").rsplit("\n", 1)[0] + "\n"
            path = _work_file(text)
            yield Item("malformed", text, ("monodromy", "--file", path), ERROR, files=((path, text),))
            continue
        yield Item("malformed", " ".join(argv), argv, ERROR)


# The ROADMAP's hostile inputs.  They run after the timed window and are not
# ops of any workload, because at this commit every one of them fails.
HOSTILE_ARGV = (
    ("numerology", "--genus", "100000000000", "--degree", "1000000007"),
    ("quartic", "--poly", "x^40*y^40-z^80", "--check", "smooth"),
    ("monodromy", "--dihedral", "2", "100003"),
)


# ---------------------------------------------------------------- streams

def _fixed_slots(workload: str) -> list[Iterator]:
    """Each stratum's items in an order that does not depend on the workload seed."""

    def rng(index: int) -> random.Random:
        return random.Random(f"{workload}:{index}")

    if workload == "verify":
        return [_ledger_seeds(rng(0))]
    if workload == "quartic_certs":
        # Klein certificates cost 0.3 to 2 s, fermat ones 0.1 to 0.5 s and the
        # rest almost nothing.  With one Klein, one singular and one malformed
        # item per eight fermat ones, the median and the tail latency (the
        # eleventh largest) both fall inside the dense fermat cluster.
        layout = [("klein", 3), ("singular", 0), ("malformed", None)] + [
            ("fermat", band) for band in (0, 0, 0, 1, 1, 1, 2, 2)]
        return [
            _malformed_slot(rng(i)) if name == "malformed"
            else _quartic_slot(rng(i), name, STEP_BANDS[band])
            for i, (name, band) in enumerate(layout)
        ]
    if workload == "monodromy_towers":
        return [_tower_slot(rng(i), stratum) for i, stratum in enumerate(TOWER_STRATA)]
    if workload == "cli_inputs":
        return [
            _numerology_slot(rng(0)), _cli_malformed_slot(rng(1)), _dihedral_cli_slot(rng(2)),
            _quartic_cli_slot(rng(3), "smooth"), _quartic_cli_slot(rng(4), "flexes"),
            _lattice_slot(rng(5)), _cover_file_slot(rng(6)), _cli_malformed_slot(rng(7)),
            _quartic_cli_slot(rng(8), "flexes"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Items each stratum adds to one round.  A run ends at the first round
# boundary after its window, so it measures whole rounds, and every round
# has the same mix.  Rounds are short beside the window (3 to 5 s on a
# shared 2-core Linux machine), so one round more or less, as the
# machine's speed drifts, moves the figures little.  verify's seven are
# shuffled together but each is a round of its own (see ``items``).
PER_ROUND = {"verify": 7, "quartic_certs": 1, "monodromy_towers": 1, "cli_inputs": 2}


def items(workload: str, seed: int) -> Iterator[Item]:
    """The workload's input stream for ``seed``, in rounds.

    A round takes the next items of every stratum; the workload seed
    only shuffles the order within each round.  A stratum that runs out
    is skipped, and the stream ends when all have.  Keys are unique
    within the stream.
    """
    slots = _fixed_slots(workload)
    rng = random.Random(f"{workload}:{seed}")
    seen: set[str] = set()
    for number in itertools.count():
        block = []
        for slot in list(slots):
            for _ in range(PER_ROUND[workload]):
                item = next((i for i in slot if i.key not in seen), None)
                if item is None:
                    slots.remove(slot)
                    break
                seen.add(item.key)
                block.append(item)
        if not block:
            return
        rng.shuffle(block)
        if workload == "verify":
            # one stratum, so every op is a round of its own and a run may
            # end after any of them; the block is only the unit of shuffling
            first = len(seen) - len(block)  # ops yielded before this block
            for position, item in enumerate(block):
                yield replace(_with_format(item, position), round=first + position)
            continue
        for item in block:
            yield replace(item, round=number)


def run_inprocess(workload: str, item: Item):
    if workload == "quartic_certs":
        return quartic_answer(*item.args)
    return tower_answer(*item.args)


# ---------------------------------------------------------------- checks

def check_answer(item: Item, answer) -> str | None:
    """None when an in-process answer matches, else the reason it does not."""
    if answer != item.expected:
        return f"{item.kind}: expected {item.expected!r}, got {answer!r}"
    return None


def _ledger_problem(fmt: str, out: str) -> str | None:
    if fmt == "json":
        try:
            statuses = [entry["status"] for entry in json.loads(out)]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable json report: {exc}"
    else:
        rows = [line for line in out.splitlines() if line.startswith("| ")][2:]  # after the header
        statuses = [row.rstrip(" |").rsplit("| ", 1)[-1].strip() for row in rows]
        summary = ", ".join(f"{v} {k}" for k, v in sorted(LEDGER_STATUS.items()))
        if f"{LEDGER_CLAIMS} claims: {summary}" not in out.splitlines():
            return "markdown summary line missing or wrong"
    if len(statuses) != LEDGER_CLAIMS or Counter(statuses) != Counter(LEDGER_STATUS):
        return f"ledger statuses {dict(Counter(statuses))} over {len(statuses)} claims"
    return None


def check_output(item: Item, code, out: str, err: str) -> str | None:
    """None when a command's exit code and output match ``item.expected``."""
    if code is None:
        return "missed the deadline"
    if "Traceback" in err or "MemoryError" in err:
        return f"exit {code} with a traceback"
    kind = item.expected[0]
    if kind == "error":
        lines = [line for line in err.splitlines() if line.strip()]
        if code != 2 or out.strip() or len(lines) != 1:
            return f"expected exit 2 and one message line, got exit {code} and {len(lines)} lines"
        if not lines[0].startswith(("error: ", "parse error: ")):
            return f"unexpected message {lines[0]!r}"
        return None
    if code != 0 or err.strip():
        return f"exit {code}, stderr {err.strip()[:200]!r}"
    if kind == "ledger":
        return _ledger_problem(item.expected[1], out)
    if kind == "json":
        try:
            classes = json.loads(out)["classes"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable lattice json: {exc}"
        want = LATTICE_CLASSES[item.expected[1]]
        if any(classes.get(name) != value for name, value in want.items()):
            return f"lattice classes {classes} differ from {want}"
        return None
    missing = [line for line in item.expected[1:] if line not in out.splitlines()]
    return f"missing output lines {missing}" if missing else None


def describe(workload: str, ran: list[Item]) -> list[str]:
    """Input properties of the items a run attempted."""
    kinds = Counter(item.kind for item in ran)
    total = max(len(ran), 1)
    lines = ["kinds " + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in sorted(kinds.items()))]
    repeated = 1 - len({item.key for item in ran}) / total
    lines.append(f"repeated input share {repeated:.3f}")
    if workload == "quartic_certs":
        answers = Counter(str(item.expected) for item in ran)
        lines.append("answers " + ", ".join(
            f"{k} {100 * v / total:.1f}%" for k, v in sorted(answers.items())))
        bits = sorted(coefficient_bits(item.args[0]) for item in ran)
        if bits:
            lines.append("coefficient bits min/q1/q2/q3/max " + "/".join(
                str(bits[round(q * (len(bits) - 1))]) for q in (0, 0.25, 0.5, 0.75, 1)))
    elif workload == "monodromy_towers":
        orders = Counter(item.expected[4] for item in ran)
        lines.append("group orders " + " ".join(f"{o}x{c}" for o, c in sorted(orders.items())))
    elif workload == "verify":
        lines.append("ledger seeds " + " ".join(item.args[2] for item in ran))
    return lines
