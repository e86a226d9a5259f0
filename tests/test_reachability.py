"""Every ``def`` in ``src/`` runs on the supported surface, or is allowed here with its reason.

The supported surface is the one README names: the five subcommands
through ``cli.main``, ``xiaofib.ledger.verify_paper``, and the
``monodromy`` and ``quartic`` calls the benchmark makes
(``tower_answer`` and ``quartic_answer`` in ``perfbench/workloads.py``).
The fixed corpus of valid, malformed and hostile inputs in
``tests/corpus.py`` runs through that surface in one fresh interpreter,
under ``sys.setprofile`` from before ``xiaofib`` is imported: so the
functions that run at import time count, and nothing that other tests
imported, memoised or patched changes the outcome.  A code object that ran is matched to its ``def`` by file,
first line (a decorated function starts at its first decorator) and
name.

A static companion requires ``typing.get_type_hints`` to resolve on
every function and method in ``src/``.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

from corpus import KLEIN, NODAL, S5_CHAIN, command_lines, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# reason -> the defs that stay although the corpus never runs them, as module.Qualified.name
ALLOWED = {
    "value-class protocol: Record gives each value class equality, hashing, repr, immutability and "
    "copy and pickle by value, and TernaryForm compares and hashes by its terms; no "
    "supported input hashes, prints, assigns to, pickles or compares two such values, and the "
    "tests do": (
        "record.Record.__hash__",
        "record.Record.__repr__",
        "record.Record.__setattr__",
        "record.Record.__delattr__",
        "record.Record.__reduce__",
        "quartic.TernaryForm.__eq__",
        "quartic.TernaryForm.__hash__",
    ),
    "hooked by name: perfbench/tracing.py spans subresultant_y": (
        "polynomials.subresultant_y",
    ),
    "input checks the surface never trips: the program builds permutations unchecked; the checked "
    "constructor is the public one, and copy and pickle rebuild a permutation through it": (
        "monodromy.Permutation.__init__",
    ),
    "exact-procedure branches no probe reached: a shared factor of two partials in "
    "common_affine_zero (a curve singular at infinity is refused before it)": (
        "polynomials.bipoly_gcd",
        "polynomials.BiPoly.exact_div",
    ),
}


def run_corpus() -> None:
    """Run the corpus through the supported surface."""
    from xiaofib.ledger import verify_paper

    with tempfile.TemporaryDirectory() as workdir:
        for argv in command_lines(workdir):
            run_cli(argv)
    verify_paper(only="g2p5", seed=2)
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for args in ((2, 5), (10, 151), (S5_CHAIN,)):
        workloads.tower_answer(*args)
    for text in (KLEIN, "x^4 + y^4 + z^4", NODAL, "x^4 + y"):
        workloads.quartic_answer(text, 5)


def ran_under_profile() -> list[tuple[str, int, str]]:
    """(file, first line, name) of every Python code object that ran during the corpus and its imports."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_corpus()
    finally:
        sys.setprofile(None)
    return [(code.co_filename, code.co_firstlineno, code.co_name) for code in ran]


def defs_in(package: Path) -> dict[tuple[str, int, str], str]:
    """Every def in the package's modules, keyed by (file, first line, name), to its qualified name."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.resolve(), f"{path.stem}.")
    return found


def test_every_def_in_src_runs_on_the_supported_surface_or_is_allowed():
    import xiaofib

    package = Path(xiaofib.__file__).resolve().parent
    path = os.pathsep.join([str(package.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    ran = {(str(Path(file).resolve()), line, name) for file, line, name in json.loads(child.stdout)}
    missed = {name: f"{Path(key[0]).name}:{key[1]}" for key, name in defs_in(package).items() if key not in ran}
    allowed = {name for names in ALLOWED.values() for name in names}
    unlisted = [f"{name} ({at})" for name, at in sorted(missed.items()) if name not in allowed]
    assert not unlisted, "never run by the supported surface: " + ", ".join(unlisted)
    stale = sorted(allowed - missed.keys())
    assert not stale, "allowed but run, or no longer a def in src/: " + ", ".join(stale)


def functions_in(module, stem: str) -> dict[str, object]:
    """Every function and method a module defines, unwrapped from classmethod, staticmethod and property.

    Keyed by qualified name as ``defs_in`` keys them, ``stem`` being the module's file name.
    """
    found = {}

    def add(value):
        for fn in (value, getattr(value, "__func__", None), *(getattr(value, f, None) for f in ("fget", "fset"))):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{stem}.{fn.__qualname__}"] = fn

    for value in vars(module).values():
        add(value)
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for member in vars(value).values():
                add(member)
    return found


def test_every_annotation_in_src_resolves():
    """``typing.get_type_hints`` resolves on every function and method in ``src/``.

    Every def outside another function's body is walked; a def nested
    in a function is reached only through its enclosing call.
    """
    import xiaofib

    package = Path(xiaofib.__file__).resolve().parent
    functions = {}
    for path in sorted(package.glob("*.py")):
        name = "xiaofib" if path.stem == "__init__" else f"xiaofib.{path.stem}"
        functions.update(functions_in(importlib.import_module(name), path.stem))
    unwalked = [name for name in defs_in(package).values()
                if name not in functions and not any(name.startswith(f"{walked}.") for walked in functions)]
    assert not unwalked, "defs the walk missed: " + ", ".join(unwalked)
    unresolved = []
    for name, fn in sorted(functions.items()):
        try:
            typing.get_type_hints(fn)
        except (NameError, AttributeError, TypeError, SyntaxError) as error:  # what evaluating a hint raises
            unresolved.append(f"{name} ({type(error).__name__}: {error})")
    assert not unresolved, "annotations that do not resolve: " + "; ".join(unresolved)


if __name__ == "__main__":  # the child process: run the corpus and report what ran
    print(json.dumps(ran_under_profile()))
