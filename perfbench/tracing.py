"""Per-layer tracing installed from outside the program.

Wrappers are set on module and class attributes of the ``xiaofib``
package, so the program itself carries no tracing code.  A function
that one module imported from another (``quartic`` takes ``poly_gcd``
and four more from ``polynomials``) is bound under several names; every
name bound to the same function object gets the same wrapper.

Each wrapped call records a span ``(span_id, parent_id, op_id, name,
start, end, ok)``.  Spans stay in memory until the op ends and are then
folded into per-function sums: calls, total time (outermost calls of
that function only, so recursion is not counted twice) and self time
(the span minus its direct child spans).  ``Permutation.then`` and
``Permutation.order`` are hot, so they get count-only hooks.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# layer -> functions that get a span; "Class.method" names a method.
SPANNED = {
    "cli": ("main",),
    "ledger": ("verify_paper", "Claim.run", "render_json", "render_markdown"),
    "quartic": (
        "parse_ternary_form", "is_smooth", "hessian", "flexes_all_simple", "TernaryForm.compose",
    ),
    "polynomials": (
        "res_y_prs", "poly_gcd", "squarefree_part", "subresultant_y",
        "common_affine_zero", "bipoly_gcd",
    ),
    "monodromy": (
        "generated_group", "galois_closure_genus", "quotient_genus",
        "cyclic_rotation_subgroup", "even_subgroup", "rh_genus", "parse_cover",
    ),
    "lattice": (
        "product_with_diagonal_lattice", "symmetric_square_lattice", "branch_class",
        "IntersectionLattice.signature",
    ),
    "numerology": ("chevalley_weil", "cover_genera"),
    "invariants": ("assemble_profile", "noether_chi"),
}
COUNTED = {"monodromy": ("Permutation.then", "Permutation.order")}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns)

RATIO_NAMES = (
    "quartic.flex_attempts_per_cert",
    "polynomials.gcd_share_of_flex",
    "monodromy.group_builds_per_tower",
    "monodromy.compositions_per_tower",
    "monodromy.order_calls_per_tower",
)
OVERHEAD_NAME = "trace.overhead_ratio"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in RATIO_NAMES:
        units[name] = "%" if name == "polynomials.gcd_share_of_flex" else "ratio"
    units[OVERHEAD_NAME] = "ratio"
    return units


class LayerSums:
    """Per-function sums over ops; merges across worker processes as plain JSON."""

    def __init__(self, data: dict | None = None):
        data = data or {}
        self.ops = data.get("ops", 0)
        self.calls = Counter(data.get("calls", {}))
        self.total_s = Counter(data.get("total_s", {}))
        self.self_s = Counter(data.get("self_s", {}))
        self.counts = Counter(data.get("counts", {}))
        # flexes_all_simple calls that returned; poly_gcd time spent inside them
        self.flex_certs = data.get("flex_certs", 0)
        self.gcd_in_flex_s = data.get("gcd_in_flex_s", 0.0)

    def to_json(self) -> dict:
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "flex_certs": self.flex_certs,
            "gcd_in_flex_s": self.gcd_in_flex_s,
        }

    def merge(self, other: "LayerSums") -> None:
        self.ops += other.ops
        self.calls.update(other.calls)
        self.total_s.update(other.total_s)
        self.self_s.update(other.self_s)
        self.counts.update(other.counts)
        self.flex_certs += other.flex_certs
        self.gcd_in_flex_s += other.gcd_in_flex_s

    def add_op(self, spans: list[tuple], counts: Counter) -> None:
        """Fold one op's spans (in start order) and hook counts into the sums."""
        self.ops += 1
        self.counts.update(counts)
        child_s: Counter = Counter()
        for _sid, parent, _op, _name, start, end, _ok in spans:
            if parent is not None:
                child_s[parent] += end - start
        above: dict[int, frozenset] = {}
        for sid, parent, _op, name, start, end, ok in sorted(spans):
            ancestors = frozenset() if parent is None else above[parent]
            above[sid] = ancestors | {name}
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - child_s[sid]
            if name not in ancestors:
                self.total_s[name] += duration
                if name == "polynomials.poly_gcd" and "quartic.flexes_all_simple" in ancestors:
                    self.gcd_in_flex_s += duration
            if name == "quartic.flexes_all_simple" and ok:
                self.flex_certs += 1

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metric values keyed as in ``metric_units``, each per traced op.

        A run's op count depends on the program's speed, so sums are
        divided by it to stay comparable between commits.
        """
        out: dict[str, float] = {}
        ops = max(self.ops, 1)
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.total_s"] = self.total_s[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
        flex_total = self.total_s["quartic.flexes_all_simple"]
        out["quartic.flex_attempts_per_cert"] = (
            self.calls["polynomials.res_y_prs"] / self.flex_certs if self.flex_certs else 0.0
        )
        out["polynomials.gcd_share_of_flex"] = (
            100.0 * self.gcd_in_flex_s / flex_total if flex_total else 0.0
        )
        out["monodromy.group_builds_per_tower"] = self.calls["monodromy.generated_group"] / ops
        out["monodromy.compositions_per_tower"] = self.counts["monodromy.Permutation.then"] / ops
        out["monodromy.order_calls_per_tower"] = self.counts["monodromy.Permutation.order"] / ops
        out[OVERHEAD_NAME] = overhead_ratio
        return out


class Tracer:
    """Installs span and count hooks on the loaded ``xiaofib`` modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, start, end, ok))

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, layer: str, fn_name: str, make) -> None:
        module = sys.modules[f"xiaofib.{layer}"]
        name = f"{layer}.{fn_name}"
        if "." in fn_name:
            cls_name, meth = fn_name.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, meth, make(name, cls.__dict__[meth]))
            return
        original = getattr(module, fn_name)
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "xiaofib" or mod_name.startswith("xiaofib."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def install(self) -> None:
        import xiaofib.cli  # noqa: F401  loads every layer module

        for layer, fns in SPANNED.items():
            for fn_name in fns:
                self._install(layer, fn_name, self._span)
        for layer, fns in COUNTED.items():
            for fn_name in fns:
                self._install(layer, fn_name, self._count)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take_op(self) -> tuple[list[tuple], Counter]:
        """Hand over the finished op's spans and counts and start the next op."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        self.op_id += 1
        return spans, counts
