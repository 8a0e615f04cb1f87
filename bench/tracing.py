"""Layer tracing from outside the kernel: wrappers, spans, counters.

`Tracer.install()` replaces the public functions and methods named in
SPANS and COUNTS with wrappers.  A module-level function is replaced in
every coalgkit module namespace that holds it (`structure.minimal_polynomial`
as well as `linalg.minimal_polynomial`); a method is replaced on its class.
`Tracer.uninstall()` puts every original object back, and `pristine()`
checks that no wrapper is left anywhere in coalgkit.

Wrappers record only while the tracer is active (around the timed
operation), so checks and parsing leave no trace.  Span wrappers keep one
record per call (name, parent, start, end) in memory; `summary()` turns the
records into calls and self time per name, self time being a span's
duration minus the time covered by its child spans.  Count wrappers only
count: a span per scalar field operation would cost more than the operation.
"""

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

MARK = "__coalgbench_original__"

def _factor_kind(f, *args, **kwargs):
    return "factor.q" if f.field.kind == "Q" else "factor.finite"


# (module, owner, attribute, span name).  The owner is a class name or None
# for a module-level function.  A callable span name picks the name per call.
SPANS = [
    ("coalgkit.factor", None, "factor_polynomial", _factor_kind),
    ("coalgkit.linalg", "Matrix", "rref", "linalg.rref"),
    ("coalgkit.linalg", "Matrix", "kernel", "linalg.kernel"),
    ("coalgkit.linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("coalgkit.linalg", None, "minimal_polynomial", "linalg.minimal_polynomial"),
    ("coalgkit.coalgebra", None, "validate", "coalgebra.validate"),
    ("coalgkit.structure", None, "local_decomposition", "structure.local_decomposition"),
    ("coalgkit.structure", None, "radical", "structure.radical"),
    ("coalgkit.structure", None, "split_semisimple", "structure.split_semisimple"),
    ("coalgkit.structure", None, "lift_idempotent", "structure.lift_idempotent"),
    ("coalgkit.structure", None, "wedderburn_splitting", "structure.wedderburn_splitting"),
    ("coalgkit.structure", None, "etale_part", "structure.etale_part"),
    ("coalgkit.structure", None, "irreducible_components", "structure.irreducible_components"),
    ("coalgkit.galois", None, "right_adjoint", "galois.right_adjoint"),
    ("coalgkit.galois", None, "kbar_functor", "galois.kbar_functor"),
    ("coalgkit.galois", None, "adjunction_checks", "galois.adjunction_checks"),
    ("coalgkit.day", None, "day_convolve", "day.day_convolve"),
    ("coalgkit.day", None, "internal_hom", "day.internal_hom"),
    ("coalgkit.day", None, "nat_space", "day.nat_space"),
    ("coalgkit.dayclosure", None, "generated_day_subcoalgebra", "dayclosure.generated_day_subcoalgebra"),
    ("coalgkit.dayclosure", None, "invariant_closure", "dayclosure.invariant_closure"),
    ("coalgkit.cli", None, "_dispatch", "cli.dispatch"),
    ("coalgkit.cli", None, "_emit", "jsonio.emit"),
    ("coalgkit.jsonio", None, "canonical_json", "jsonio.emit"),
    ("coalgkit.jsonio", None, "load_document", "jsonio.parse"),
    ("coalgkit.jsonio", None, "parse_entity", "jsonio.parse"),
]
for _name in ("matrix", "vector", "coalgebra", "morphism", "galois", "gset", "day_category",
              "day_presheaf", "day_coalgebra", "day_subpresheaf", "subspace", "algebra"):
    SPANS.append(("coalgkit.jsonio", None, f"{_name}_from_json", "jsonio.parse"))
    SPANS.append(("coalgkit.jsonio", None, f"{_name}_to_json", "jsonio.emit"))

_FIELD_OPS = ("add", "sub", "neg", "mul", "div", "inv")
_POLY_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "scale", "__pow__", "divmod",
             "__floordiv__", "__mod__", "monic", "gcd", "derivative", "pow_mod")
_GFPOLY_OPS = ("trim", "add", "sub", "mul", "scale", "divmod_", "mod", "monic", "gcd",
               "ext_gcd", "pow_mod", "is_irreducible")

COUNTS = (
    [("coalgkit.fields", cls, op, f"fields.ops.{kind}")
     for cls, kind in (("RationalField", "q"), ("PrimeField", "fp"), ("ExtensionField", "fq"))
     for op in _FIELD_OPS]
    + [("coalgkit.polys", "Polynomial", op, "polys.ops") for op in _POLY_OPS]
    + [("coalgkit.gfpoly", None, op, "gfpoly.ops") for op in _GFPOLY_OPS]
    + [
        ("coalgkit.coalgebra", "ArtinAlgebra", "mul", "coalgebra.algebra_mul.calls"),
        ("coalgkit.coalgebra", None, "dual_algebra", "coalgebra.dual_algebra.calls"),
        ("coalgkit.structure", None, "element_min_poly", "structure.element_min_poly.calls"),
    ]
)


def _day_tensor_counts(tracer, tensor):
    """Relation columns built by one convolution, and the rank they span."""
    cols = sum(rel.cols for rel in tensor.relations)
    rank = sum(d - q for d, q in zip(tensor.d_dims, tensor.presheaf.dims))
    tracer.counts["day.relation_cols"] += cols
    tracer.counts["day.relation_rank"] += rank


def _rref_entries(tracer, matrix, *args, **kwargs):
    tracer.counts["linalg.rref.entries"] += matrix.rows * matrix.cols


# (module, owner, attribute, hook): hooks run before (pre) or after (post)
PRE_HOOKS = {("coalgkit.linalg", "Matrix", "rref"): _rref_entries}
POST_HOOKS = [("coalgkit.day", "DayTensor", "__init__", _day_tensor_counts)]


def _resolve(module, owner, attr):
    mod = importlib.import_module(module)
    holder = getattr(mod, owner) if owner else mod
    return holder, getattr(holder, attr)


def _coalgkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "coalgkit" or name.startswith("coalgkit."))]


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = Counter()
        self._installed = []  # (holder, attribute, original, had_own_attribute)

    # -- recording --------------------------------------------------------
    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _span(self, name, fn, pre):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(self, *args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(self.span_name)
            self.span_name.append(self._name_id(label))
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                self._stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _post(self, hook, fn):
        def wrapper(obj, *args, **kwargs):
            result = fn(obj, *args, **kwargs)
            if self.active:
                hook(self, obj)
            return result
        return wrapper

    # -- installation -----------------------------------------------------
    def _replace(self, module, owner, attr, make):
        try:
            holder, original = _resolve(module, owner, attr)
        except (ImportError, AttributeError):
            return  # a layer this kernel version does not have
        wrapper = functools.wraps(original)(make(original))
        setattr(wrapper, MARK, original)
        if owner:
            self._installed.append((holder, attr, original, attr in vars(holder)))
            setattr(holder, attr, wrapper)
            return
        for mod in _coalgkit_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def install(self):
        for module, owner, attr, name in SPANS:
            pre = PRE_HOOKS.get((module, owner, attr))
            self._replace(module, owner, attr, lambda fn, n=name, p=pre: self._span(n, fn, p))
        for module, owner, attr, name in COUNTS:
            self._replace(module, owner, attr, lambda fn, n=name: self._count(n, fn))
        for module, owner, attr, hook in POST_HOOKS:
            self._replace(module, owner, attr, lambda fn, h=hook: self._post(h, fn))

    def uninstall(self):
        for holder, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._installed = []

    # -- results ----------------------------------------------------------
    def spans(self):
        return {
            "names": self.names,
            "spans": [list(t) for t in zip(self.span_name, self.span_parent,
                                           self.span_start, self.span_end)],
            "counts": dict(self.counts),
        }

    def write(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(self.spans(), **extra), fh)


def summary(records):
    """Per span name: [calls, self seconds]; plus the merged counters.

    `records` is a list of `Tracer.spans()` results (one per process)."""
    per_name = {}
    counts = Counter()
    for rec in records:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, parent, start, end), child in zip(spans, covered):
            entry = per_name.setdefault(rec["names"][name], [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child
        counts.update(rec["counts"])
    return per_name, counts


def pristine():
    """Every wrapped coalgkit attribute is its original object again."""
    for mod in _coalgkit_modules():
        for value in vars(mod).values():
            if hasattr(value, MARK):
                return False
            if isinstance(value, type) and any(hasattr(v, MARK) for v in vars(value).values()):
                return False
    return True
