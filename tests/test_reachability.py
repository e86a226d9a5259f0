"""Every statement in ``src/`` runs on the supported surface, or is allowed here with its reason.

The supported surface is the one README names: the five subcommands
through ``cli.main``, ``xiaofib.ledger.verify_paper``, and the
``monodromy`` and ``quartic`` calls the benchmark makes
(``tower_answer`` and ``quartic_answer`` in ``perfbench/workloads.py``).
The fixed corpus of valid, malformed and hostile inputs in
``tests/corpus.py`` runs through that surface in one fresh interpreter,
under ``sys.settrace`` from before ``xiaofib`` is imported: so the lines
that run at import time count, and nothing that other tests imported,
memoised or patched changes the outcome.  The command lines run first,
as in a ``xiaofib`` process, so ``cli`` loads each engine itself.

The executable lines of a module are those its code objects' ``co_lines()``
name.  Each belongs to the innermost statement that spans it, and a
statement is unrun when one of its executable lines never ran.  A def
whose body never runs thus shows up as its unrun statements.  An unrun
statement is keyed by its module, the qualified name of the def or
class around it, and the stripped text of its first line, so an edit
elsewhere in a module moves no key.  Each is either allowed in
``ALLOWED``, under the reason it is kept, or a failure; an allowed key
that no longer names an unrun statement is a failure too.

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
from collections import Counter
from pathlib import Path

from corpus import KLEIN, NODAL, S5_CHAIN, command_lines, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# reason -> the statements that stay although the corpus never runs them, each as
# "module.Enclosing.qualname: stripped first line"; a key two unrun statements share is listed twice
ALLOWED = {
    "an engine imported before cli, as a library caller or the test suite does: cli finds it loaded": (
        "cli._lazy: return sys.modules[full]",
    ),
    "needs its own process: a reader that closes standard output early, and the script entry point": (
        "cli.main: devnull = os.open(os.devnull, os.O_WRONLY)",
        "cli.main: os.dup2(devnull, sys.stdout.fileno())",
        "cli.main: os.close(devnull)",
        "cli.main: return 141",
        "cli: sys.exit(main())",
    ),
    "internal invariants that no input can violate: the callers build only well-formed values, a "
    "connected cover's Riemann-Hurwitz total is even and its genus non-negative": (
        "invariants.SurfaceProfile.__init__: raise InvariantError(",
        "invariants.SurfaceProfile.__init__: raise InvariantError(",
        'ledger.fmt: raise TypeError(f"no exact rendering for {value!r}")',
        'ledger._checked: raise ValueError(f"claim {claim.claim_id} reads {name}, which is unknown or declared later")',
        'monodromy.Permutation.then: raise MonodromyDataError("composing permutations of different degrees")',
        'monodromy._rh_solve: raise MonodromyDataError(f"Riemann-Hurwitz total {rhs} is odd: malformed monodromy data")',
        'monodromy._rh_solve: raise MonodromyDataError(f"negative genus {genus}: malformed monodromy data")',
        'polynomials._exact_div: raise PolynomialError("polynomial division by zero")',
        'polynomials._exact_div: raise PolynomialError("division expected to be exact left a fraction")',
        'polynomials._exact_div: raise PolynomialError("division expected to be exact left a remainder")',
        'polynomials._pseudo_rem_y: raise PolynomialError("pseudo-division by zero")',
        'polynomials.subresultant_chain_y: raise PolynomialError("subresultants need deg_y(p) >= deg_y(q) >= 1")',
        'polynomials.common_affine_zero: raise PolynomialError("the first two polynomials of a common-zero decision share a factor")',
        'quartic.TernaryForm.__add__: raise DegenerateFormError("adding forms of different degrees")',
        'quartic.hessian: raise DegenerateFormError("identically zero hessian: degenerate form")',
    ),
    "input guards of library calls that the surface makes only with well-formed values; the tests, "
    "and the ledger's poisoned-input tests, trip them": (
        'invariants.double_cover_chi: raise InvariantError(f"L(L + K) = {L2 + L_dot_K} is odd: no such double cover")',
        'invariants.noether_chi: raise InvariantError(f"K^2 + c2 = {K2 + c2} is not divisible by 12")',
        'invariants.fibration_euler: raise InvariantError("genera must be non-negative")',
        'invariants.fibration_euler: raise InvariantError("fiber defects must be non-negative")',
        'invariants.double_cover_curve_genus: raise InvariantError(f"branch count must be even and non-negative, got {branch_points}")',
        "lattice.DivisorClass._combine: raise LatticeError(",
        'lattice.DivisorClass.halved: raise LatticeError(f"class {self.coeffs} is not divisible by 2")',
        'lattice.IntersectionLattice.__init__: raise LatticeError("gram matrix shape does not match the basis")',
        'lattice.IntersectionLattice.__init__: raise LatticeError("canonical vector length does not match the basis")',
        'lattice.IntersectionLattice.__init__: raise LatticeError("gram matrix must be symmetric")',
        "lattice.IntersectionLattice._check_rank: raise LatticeError(",
        'lattice.IntersectionLattice.adjunction_genus: raise LatticeError(f"c^2 + c.K = {total} is odd: genus is not an integer")',
        'lattice.IntersectionLattice.class_from_intersections: raise LatticeError("pairing vector length does not match the lattice rank")',
        'lattice.IntersectionLattice.class_from_intersections: raise LatticeError(f"pairings {target} solve to non-integral coefficients {numerators}/{c_0}")',
        'lattice.product_with_diagonal_lattice: raise LatticeError("curve genus must be non-negative")',
        'lattice.symmetric_square_lattice: raise LatticeError("symmetric-square lattice needs genus at least 2")',
        "lattice.hodge_index_forced_zero: raise LatticeError(",
        'lattice.hodge_index_forced_zero: raise LatticeError("the ample witness must have positive self-intersection")',
        'lattice.apply_matrix: raise LatticeError(f"matrix columns do not match a class of rank {rank}")',
        'lattice.symmetric_square_quotient: raise LatticeError(f"projection formula fails on basis pair ({i}, {j}): {a} != {b}")',
        'lattice.branch_class: raise LatticeError("the branch-class chain is specific to the genus-3 case")',
        'lattice.branch_class: raise LatticeError("completed action does not square to the identity")',
        'lattice.branch_class: raise LatticeError("completed action does not preserve the intersection form")',
        'ledger.Claim.run: computed = f"blocked by {blocked[0]}"',
        'ledger._case_tower: raise ValueError(f"tower genera {tower[:3]} differ from the case\'s (g_D, g_C, g) = {(g_d, g_c, g)}")',
        'monodromy.BranchedCover.__init__: raise MonodromyDataError("base genus must be non-negative")',
        'monodromy.BranchedCover.__init__: raise MonodromyDataError("permutation degree does not match cover degree")',
        'monodromy.cyclic_rotation_subgroup: raise MonodromyDataError("rotation subgroup is defined for dihedral groups only")',
        'monodromy.even_subgroup: raise MonodromyDataError("even subgroup needs the generators generated_group records")',
        "monodromy.quotient_genus: raise MonodromyDataError(",
        'numerology.bgn_bound: raise NumerologyError("fiber genus must be at least 2")',
        'numerology.xiao_report: raise NumerologyError("fiber genus must be at least 2")',
        'numerology.brill_noether_range: raise NumerologyError("irregularity and arithmetic genus must be non-negative")',
        'numerology.geometric_genus: raise NumerologyError("node count must be non-negative")',
        'numerology.geometric_genus: raise NumerologyError(f"invalid curve: {nodes} nodes exceed arithmetic genus {p_a}")',
        'polynomials._ints: raise PolynomialError(f"polynomial coefficients must be int, got {c!r}")',
        "polynomials.squarefree_part: return f",
        'polynomials.res_y_prs: raise PolynomialError("resultant needs two nonzero polynomials")',
        'polynomials.common_affine_zero: raise PolynomialError("common-zero decision implemented for at most three polynomials")',
        "polynomials.common_affine_zero: return True",  # no nonzero polynomial at all
        "polynomials.common_affine_zero: return True",  # a single nonconstant polynomial
        "quartic.TernaryForm.__init__: raise DegenerateFormError(",
        'quartic.TernaryForm.__init__: raise PolynomialError(f"form coefficients must be int or Fraction, got {value!r}")',
        'quartic.hessian: raise DegenerateFormError("hessian certificate needs degree at least 3")',
        "quartic.is_smooth: raise DegenerateFormError(",
        'quartic.plucker_counts: raise ValueError("counts are for curves of degree at least 3")',
    ),
    "degenerate lattices: every lattice the surface builds is nondegenerate, and the tests build "
    "singular ones": (
        'lattice.IntersectionLattice.class_from_intersections: raise LatticeError("gram matrix is degenerate: pairings do not determine a class")',
        "lattice.IntersectionLattice.signature: coeffs.pop()",
        "lattice.IntersectionLattice.signature: zero += 1",
    ),
    "value-class protocol: equality, hashing, repr, immutability, copy and pickle by value, and the "
    "checked Permutation constructor; no supported input uses them, and the tests do": (
        "monodromy.Permutation.__init__: images = tuple(images)",
        "monodromy.Permutation.__init__: self._set(images=images, _cycle_type=None, _order=None)",
        "monodromy.Permutation.__init__: if not all(type(i) is int for i in images):",
        'monodromy.Permutation.__init__: raise MonodromyDataError(f"permutation images must be integers: {images!r}")',
        "monodromy.Permutation.__init__: if sorted(images) != list(range(len(images))):",
        'monodromy.Permutation.__init__: raise MonodromyDataError(f"not a bijection of 0..{len(images) - 1}: {images!r}")',
        "quartic.TernaryForm.__eq__: return (",
        "record.Record.__init__: raise TypeError(",
        "record.Record.__eq__: return NotImplemented",
        "record.Record.__hash__: return hash(self._values())",
        'record.Record.__repr__: fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)',
        'record.Record.__repr__: return f"{self.__class__.__qualname__}({fields})"',
        'record.Record.__setattr__: raise AttributeError(f"cannot assign to field {name!r}")',
        'record.Record.__delattr__: raise AttributeError(f"cannot delete field {name!r}")',
        "record.Record.__reduce__: return self.__class__, self._values()",
    ),
    "res_y_prs of a polynomial constant in y: the surface's resultants pair entries S_j of y-degree j "
    ">= 1, and the tests and oracles pass constants": (
        "polynomials.res_y_prs: result = _pow(q.y_coeffs[0], p.deg_y())",
    ),
    "hooked by name: perfbench/tracing.py spans subresultant_y and bipoly_gcd, which no caller in src/ "
    "uses, and _content_y serves bipoly_gcd only (ROADMAP items 1 and 18)": (
        "polynomials.bipoly_gcd: if p.is_zero() or q.is_zero():",
        "polynomials.bipoly_gcd: coeffs = (q if p.is_zero() else p).y_coeffs",
        "polynomials.bipoly_gcd: content = poly_gcd(_content_y(p.y_coeffs), _content_y(q.y_coeffs)).coeffs",
        "polynomials.bipoly_gcd: if p.deg_y() < q.deg_y():",
        "polynomials.bipoly_gcd: p, q = q, p",
        "polynomials.bipoly_gcd: chain = subresultant_chain_y(p, q) if q.deg_y() >= 1 else []",
        "polynomials.bipoly_gcd: coeffs = next((s for s in chain if not s.is_zero()), q).y_coeffs",
        "polynomials.bipoly_gcd: cont_g = _content_y(coeffs).coeffs",
        "polynomials.bipoly_gcd: coeffs = [_mul(_exact_div(c, cont_g), content) for c in coeffs]",
        "polynomials.bipoly_gcd: if coeffs and coeffs[-1][-1] < 0:",
        "polynomials.bipoly_gcd: coeffs = [_sub((), c) for c in coeffs]",
        "polynomials.bipoly_gcd: return BiPoly(coeffs)",
        "polynomials._content_y: content = UnivariatePoly.zero()",
        "polynomials._content_y: for c in coeffs:",
        "polynomials._content_y: content = poly_gcd(content, UnivariatePoly(c))",
        "polynomials._content_y: if content.degree == 0:",
        "polynomials._content_y: break",
        "polynomials._content_y: return UnivariatePoly(_mul(content.coeffs, (gcd(*(v for c in coeffs for v in c)),)))",
        "polynomials.subresultant_y: chain = subresultant_chain_y(p, q)",
        "polynomials.subresultant_y: if not 0 <= k < len(chain):",
        'polynomials.subresultant_y: raise PolynomialError(f"subresultant index {k} out of range 0..{len(chain) - 1}")',
        "polynomials.subresultant_y: return chain[k]",
    ),
    "flexes_all_simple's retry budget: no probe exhausts it": (
        "quartic.flexes_all_simple: raise RetryBudgetError(",
    ),
}


def run_corpus() -> None:
    """Run the corpus through the supported surface: the command lines first, then the library calls."""
    with tempfile.TemporaryDirectory() as workdir:
        for argv in command_lines(workdir):
            run_cli(argv)
    from xiaofib.ledger import verify_paper

    verify_paper(only="g2p5", seed=2)
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for args in ((2, 5), (10, 151), (S5_CHAIN,)):
        workloads.tower_answer(*args)
    for text in (KLEIN, "x^4 + y^4 + z^4", NODAL, "x^4 + y"):
        workloads.quartic_answer(text, 5)


def ran_under_trace(package: str) -> list[tuple[str, int]]:
    """(file, line) of every line of the package's modules that ran during the corpus and its imports."""
    ran = set()
    inside = {}  # file name -> whether it is a module of the package

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.dirname(os.path.realpath(name)) == package
        return trace_lines if inside[name] else None

    sys.settrace(trace_calls)
    try:
        run_corpus()
    finally:
        sys.settrace(None)
    return sorted(ran)


def statements_in(path: Path) -> dict[int, tuple[str, int]]:
    """Each executable line of a module -> (key, first line) of the innermost statement spanning it.

    The key is "module.Enclosing.qualname: stripped first line"; the
    first line of a decorated def is its first decorator's.
    """
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    owner = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                for line in range(first, child.end_lineno + 1):  # a nested statement claims its lines later
                    owner[line] = (f"{scope}: {text[first - 1].strip()}", first)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:  # an except clause is no statement, but the statements in its body are
                visit(child, scope)

    visit(ast.parse(source, str(path)), path.stem)
    executable = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        executable.update(line for _, _, line in code.co_lines() if line)  # 3.11 numbers a module's first op 0
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return {line: owner[line] for line in executable}


def unrun_statements(package: Path, ran: set[tuple[str, int]]) -> dict[str, list[str]]:
    """Key of each statement with an executable line that never ran -> where each such statement starts."""
    unrun = {}
    for path in sorted(package.glob("*.py")):
        starts = {}
        for line, (key, first) in statements_in(path).items():
            if (str(path), line) not in ran:
                starts[first] = key
        for first, key in sorted(starts.items()):
            unrun.setdefault(key, []).append(f"{path.name}:{first}")
    return unrun


def test_every_statement_in_src_runs_on_the_supported_surface_or_is_allowed():
    import xiaofib

    package = Path(xiaofib.__file__).resolve().parent
    path = os.pathsep.join([str(package.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, __file__, str(package)], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    ran = {(str(Path(file).resolve()), line) for file, line in json.loads(child.stdout)}
    unrun = unrun_statements(package, ran)
    found = Counter({key: len(starts) for key, starts in unrun.items()})
    allowed = Counter(key for keys in ALLOWED.values() for key in keys)
    unlisted = [f"{key} ({', '.join(unrun[key])})" for key in sorted(found - allowed)]
    assert not unlisted, "never run by the supported surface:\n" + "\n".join(unlisted)
    stale = sorted((allowed - found).elements())
    assert not stale, "allowed but run, or no longer a statement in src/:\n" + "\n".join(stale)


def defs_in(package: Path) -> list[str]:
    """The qualified name, as module.Qualified.name, of every def in the package's modules."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), f"{path.stem}.")
    return found


def functions_in(module, stem: str) -> dict[str, object]:
    """Every function and method a module defines, unwrapped from classmethod, staticmethod and property.

    Keyed by qualified name as ``defs_in`` names them, ``stem`` being the module's file name.
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
    unwalked = [name for name in defs_in(package)
                if name not in functions and not any(name.startswith(f"{walked}.") for walked in functions)]
    assert not unwalked, "defs the walk missed: " + ", ".join(unwalked)
    unresolved = []
    for name, fn in sorted(functions.items()):
        try:
            typing.get_type_hints(fn)
        except (NameError, AttributeError, TypeError, SyntaxError) as error:  # what evaluating a hint raises
            unresolved.append(f"{name} ({type(error).__name__}: {error})")
    assert not unresolved, "annotations that do not resolve: " + "; ".join(unresolved)


if __name__ == "__main__":  # the child process: run the corpus and report the lines that ran
    print(json.dumps(ran_under_trace(sys.argv[1])))
