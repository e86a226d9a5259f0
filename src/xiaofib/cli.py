"""Command-line front end.

Subcommands: ``verify`` runs the full claim ledger, ``numerology``,
``monodromy``, ``lattice`` and ``quartic`` expose the individual
engines.  All values are printed exactly (integers and rationals).
Exit codes: 0 success, 1 claim failure, 2 usage or input error, 141
when the reader of standard output has gone (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from . import errors


def _lazy(name: str):
    """The engine module ``xiaofib.<name>``, executed on first attribute access.

    A subcommand then executes only the engines it uses.  The module is
    registered in ``sys.modules`` and on the package at once, so every
    import of it gets this object.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


lattice = _lazy("lattice")
ledger = _lazy("ledger")
monodromy = _lazy("monodromy")
numerology = _lazy("numerology")
quartic = _lazy("quartic")


def _group_order_bound(text: str) -> int:
    """A ``--max-group-order`` value: no group has fewer than one element."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bound < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {bound}")
    return bound


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xiaofib",
        description="Exact verification of dihedral-cover fibration numerology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the full claim ledger")
    verify.add_argument("--format", choices=("json", "markdown"), default="markdown")
    verify.add_argument("--only", metavar="CASE", help="restrict to one case id (e.g. g4p3)")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--max-group-order", type=_group_order_bound, default=errors.DEFAULT_MAX_GROUP_ORDER)

    num = sub.add_parser("numerology", help="closed-form arithmetic for one (g, p)")
    num.add_argument("--genus", type=int, required=True, metavar="G")
    num.add_argument("--degree", type=int, required=True, metavar="P")

    mon = sub.add_parser("monodromy", help="genus computations from permutation monodromy")
    source = mon.add_mutually_exclusive_group(required=True)
    source.add_argument("--dihedral", nargs=2, type=int, metavar=("G", "P"))
    source.add_argument("--file", metavar="PATH", help="cover description file")
    mon.add_argument("--max-group-order", type=_group_order_bound, default=errors.DEFAULT_MAX_GROUP_ORDER)

    lat = sub.add_parser("lattice", help="print an intersection lattice and its named classes")
    lat.add_argument("--case", choices=("g3-product", "g3-sym2", "g2-product"), required=True)

    qua = sub.add_parser("quartic", help="exact certificates for a plane quartic")
    qua.add_argument("--poly", required=True, metavar="STR")
    qua.add_argument("--check", choices=("smooth", "flexes"), required=True)
    qua.add_argument("--seed", type=int, default=1)

    return parser


def _cmd_verify(args) -> int:
    code, reports = ledger.verify_paper(
        only=args.only,
        seed=args.seed,
        max_group_order=args.max_group_order,
    )
    if args.only and not reports:
        raise errors.InputError(f"no claims for case {args.only!r}")
    if args.format == "json":
        print(ledger.render_json(reports))
    else:
        print(ledger.render_markdown(reports))
    return code


def _cmd_numerology(args) -> int:
    params = numerology.CoverParams(args.genus, args.degree)
    g_c, g_d = numerology.cover_genera(params)
    gamma = numerology.gamma_self_intersection(params)
    fiber = numerology.psi_fiber_class(params)
    dim_h, dim_m = numerology.moduli_dims(params)
    cw = numerology.chevalley_weil(params)
    q_rel = cw.prym_dim  # relative irregularity of the associated fibration
    report = numerology.xiao_report(g_c, q_rel)
    print(f"g_C = {g_c}")
    print(f"g_D = {g_d}")
    print(f"gamma^2 = {gamma}")
    print(f"fiber class: {fiber}")
    print(f"moduli dimensions: source {dim_h}, target {dim_m}")
    print(f"chevalley-weil dims: {cw.dims} (prym {cw.prym_dim}, sym2-invariants {cw.sym2_invariant_dim})")
    print(f"xiao bound: {report.bound}")
    print(f"q_rel = {q_rel}: xiao {str(report.is_xiao).lower()}, "
          f"meets ceiling {str(report.meets_ceiling).lower()}, "
          f"bgn bound {report.bgn_bound_at_generic_clifford}")
    return 0


def _monodromy_summary(cover: monodromy.BranchedCover, max_group_order: int) -> int:
    group = monodromy.generated_group(cover, max_group_order)
    genus = monodromy.rh_genus(cover)
    closure = monodromy.galois_closure_genus(cover, max_group_order)
    print(f"degree {cover.degree} cover of a genus-{cover.base_genus} base, "
          f"{len(cover.branch_monodromy)} branch points")
    print(f"genus = {genus}")
    print(f"monodromy group: {group.classification} of order {group.order}")
    print(f"galois closure genus = {closure}")
    profiles = monodromy.ramification_profile(cover)
    distinct = sorted(set(profiles))
    rendered = ", ".join("{" + ", ".join(map(str, p)) + "}" for p in distinct)
    print(f"ramification profiles: {rendered}")
    if group.classification == monodromy.DIHEDRAL:
        rotations = monodromy.cyclic_rotation_subgroup(group)
        print(f"quotient by the rotation subgroup: genus = "
              f"{monodromy.quotient_genus(cover, rotations, max_group_order)}")
    return 0


def _cmd_monodromy(args) -> int:
    if args.dihedral:
        g, p = args.dihedral
        cover = monodromy.build_dihedral_cover(g, p, args.max_group_order)
    else:
        cover = monodromy.load_cover(args.file, args.max_group_order)
    return _monodromy_summary(cover, args.max_group_order)


def _cmd_lattice(args) -> int:
    import json

    if args.case == "g3-product":
        lat = lattice.product_with_diagonal_lattice(3)
        chain = lattice.branch_class(3)
        xp = lat.class_from_intersections((2, 2, 10))
        classes = {
            "K": lat.canonical_class(),
            "X_P": xp,
            "B": chain.branch,
            "L": chain.half,
        }
    elif args.case == "g2-product":
        lat = lattice.product_with_diagonal_lattice(2)
        classes = {
            "K": lat.canonical_class(),
            "C_P": lat.class_from_intersections((2, 2, 8)),
        }
    else:
        lat = lattice.symmetric_square_lattice(3)
        chain = lattice.branch_class(3)
        classes = {
            "K": lat.canonical_class(),
            "tau_D_P": lattice.apply_matrix(chain.involution, lat.basis_class("D_P")),
            "tau_delta": lattice.apply_matrix(chain.involution, lat.basis_class("delta")),
            "tau_Delta": lattice.apply_matrix(chain.involution, lattice.DivisorClass((0, 2))),
        }
    print(json.dumps(lat.to_json_dict(classes), indent=2))
    return 0


def _cmd_quartic(args) -> int:
    form = quartic.parse_ternary_form(args.poly)
    if args.check == "smooth":
        smooth = quartic.is_smooth(form)
        print(f"form: {form}")
        print(f"smooth: {str(smooth).lower()}")
        return 0
    certificate = quartic.flexes_all_simple(form, args.seed)
    print(f"form: {form}")
    print(f"flex polynomial degree: {certificate.flex_degree}")
    print(f"all flexes simple: {str(certificate.all_simple).lower()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--poly" in argv[:-1]:  # argparse reads text starting with "-", as in -x^4 + y^4, as an option
        at = argv.index("--poly")
        argv[at : at + 2] = [f"--poly={argv[at + 1]}"]
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "numerology": _cmd_numerology,
        "monodromy": _cmd_monodromy,
        "lattice": _cmd_lattice,
        "quartic": _cmd_quartic,
    }
    # a subcommand raises InputError or OSError for input it refuses; anything else is a bug
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe then raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Send what is still buffered to the null device, so the flush at exit stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (errors.InputError, OSError) as exc:
        prefix = getattr(exc, "prefix", "error")
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
