"""Traced runs: wrap qlab's public functions from outside, keep spans in memory.

Functions called thousands of times get a timing wrapper that records one span
(name, start, end, parent) per call.  Functions called millions of times (the
scalar field operations and the quantale lattice calls) get a counting wrapper
only, since a timer there would swamp what it measures.  Every module-level
alias of a wrapped function is replaced too, so `matr.subspace_product` is
traced as well as `exact.subspace_product`.

`Tracer.install()` patches, `Tracer.uninstall()` restores the originals, and
`derive()` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import time

# Timed functions: metric prefix -> (module, attribute path, stats reported).
# A `self_s` is the span's duration minus that of its traced children; a
# `total_s` counts only outermost spans, so recursion is not counted twice.
SPANNED = {
    "exact.rref": ("exact", "rref", ("calls", "self_s", "cells_in", "rank_ratio")),
    "exact.canonical_basis": ("exact", "canonical_basis", ("calls", "total_s", "rank_ratio")),
    "exact.subspace_product": ("exact", "subspace_product", ("calls", "self_s", "total_s")),
    "exact.subspace_join": ("exact", "subspace_join", ("calls", "total_s")),
    "exact.subspace_meet": ("exact", "subspace_meet", ("calls", "total_s")),
    "exact.subspace_leq": ("exact", "subspace_leq", ("calls", "total_s")),
    "exact.subspace_adjoint": ("exact", "subspace_adjoint", ("calls", "total_s")),
    "exact.hs_orthocomplement": ("exact", "hs_orthocomplement", ("calls", "total_s")),
    "exact.kronecker": ("exact", "kronecker", ("calls", "self_s", "total_s")),
    "matr.compose": ("matr", "MatrInstance.compose", ("calls", "self_s", "total_s")),
    "matr.tensor_mor": ("matr", "MatrInstance.tensor_mor", ("calls", "self_s", "total_s")),
    "matr.sup": ("matr", "MatrInstance.sup", ("calls", "self_s", "total_s")),
    "matr.leq": ("matr", "MatrInstance.leq", ("calls", "self_s", "total_s")),
    "matr.meet2": ("matr", "MatrInstance.meet2", ("calls", "self_s", "total_s")),
    "matr.dagger": ("matr", "MatrInstance.dagger", ("calls", "self_s", "total_s")),
    "matr.mor": ("matr", "MatrInstance.mor", ("calls", "self_s")),
    "matr.enum_hom": ("matr", "MatrInstance.enum_hom", ("calls", "total_s", "homs_out")),
    "core.trace_of": ("core", "trace_of", ("calls", "total_s")),
    "core.name_of": ("core", "name_of", ("calls", "total_s")),
    "core.star_of": ("core", "star_of", ("calls", "total_s")),
    "core.is_map": ("core", "is_map", ("calls", "total_s")),
    "core.endorelation_class": ("core", "endorelation_class", ("calls", "total_s")),
    "qrel.dagger_kernel": ("qrel", "dagger_kernel", ("calls", "total_s")),
    "qrel.orthocomplement": ("qrel", "orthocomplement", ("calls", "total_s")),
    "qrel.is_zero_mono": ("qrel", "is_zero_mono", ("calls", "total_s")),
    "lawcheck.homs": ("lawcheck", "Context.homs", ("calls", "total_s", "kept_ratio")),
    "serialize.morphism_from_json": ("serialize", "morphism_from_json", ("total_s",)),
    "serialize.morphism_to_json": ("serialize", "morphism_to_json", ("total_s",)),
    "serialize.dumps": ("serialize", "dumps", ("total_s",)),
    "cli.cmd_check": ("cli", "cmd_check", ("total_s",)),
    "cli.cmd_compute": ("cli", "cmd_compute", ("total_s",)),
    "cli.cmd_kernel": ("cli", "cmd_kernel", ("total_s",)),
    "cli.cmd_neg": ("cli", "cmd_neg", ("total_s",)),
}

# Counted functions: metric prefix -> (module, attribute path).
COUNTED = {
    "exact.GaussianRational.add": ("exact", "GaussianRational.__add__"),
    "exact.GaussianRational.sub": ("exact", "GaussianRational.__sub__"),
    "exact.GaussianRational.mul": ("exact", "GaussianRational.__mul__"),
    "exact.GaussianRational.truediv": ("exact", "GaussianRational.__truediv__"),
    "quantale.FiniteQuantale.join": ("quantale", "FiniteQuantale.join"),
    "quantale.FiniteQuantale.leq": ("quantale", "FiniteQuantale.leq"),
    "quantale.FiniteQuantale.sup": ("quantale", "FiniteQuantale.sup"),
    "quantale.FiniteQuantale.bottom": ("quantale", "FiniteQuantale.bottom"),
}

# The law suites of lawcheck.SUITES are timed too, as `lawcheck.suite.<name>`.


def _rows_in(args, out):
    rows = args[0]
    return (len(rows), len(rows[0]) if rows else 0, len(out))


def _basis_in(args, out):
    return (len(args[0]), out.dim)


def _len_out(args, out):
    return len(out) if out is not None else -1


# Extra numbers kept on a span, for the ratios and sizes.
_EXTRAS = {
    "exact.rref": _rows_in,
    "exact.canonical_basis": _basis_in,
    "matr.enum_hom": _len_out,
    "lawcheck.homs": _len_out,
}


class Tracer:
    """Spans are lists [name, start, end, parent index, nested, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNTED}
        self._stack: list[int] = []
        self._active: dict[str, int] = collections.defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def _timed(self, name, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter
        extra = _EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, active[name] > 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                rec[2] = clock()
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, name, module, path, make) -> None:
        mod = importlib.import_module(f"qlab.{module}")
        *owners, attr = path.split(".")
        owner = mod
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if isinstance(original, property):
            self._set(owner, attr, property(make(name, original.fget)))
            return
        wrapped = make(name, original)
        self._set(owner, attr, wrapped)
        if owner is mod:
            # Module-level aliases: `from .exact import rref` elsewhere.
            for other_name, other in list(sys.modules.items()):
                if other is mod or not other_name.startswith("qlab"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapped)

    def install(self) -> None:
        importlib.import_module("qlab.cli")
        for name, (module, path, _) in SPANNED.items():
            self._patch(name, module, path, self._timed)
        for name, (module, path) in COUNTED.items():
            self._patch(name, module, path, self._counted)
        lawcheck = sys.modules["qlab.lawcheck"]
        for suite, (fn, kinds) in list(lawcheck.SUITES.items()):
            self._patch_item(lawcheck.SUITES, suite,
                             (self._timed(f"lawcheck.suite.{suite}", fn), kinds))

    def _patch_item(self, table, key, value) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def derive(spans: list[list], counts: dict[str, list[int]]) -> dict[str, float]:
    """Per-layer metrics of one pass (trace_overhead excepted)."""
    child_time = [0.0] * len(spans)
    enumerated = {}  # lawcheck.homs span index -> size its enum_hom child returned
    for name, start, end, parent, _, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "matr.enum_hom" and spans[parent][0] == "lawcheck.homs":
                enumerated[parent] = extra
    acc: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, nested, extra) in enumerate(spans):
        a = acc.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "num": 0, "den": 0, "cells_in": 0, "homs_out": 0})
        dur = end - start
        a["calls"] += 1
        a["self_s"] += dur - child_time[i]
        if not nested:
            a["total_s"] += dur
        if name == "exact.rref":
            rows, cols, rows_out = extra
            a["cells_in"] += rows * cols
            a["num"] += rows_out
            a["den"] += rows
        elif name == "exact.canonical_basis":
            a["num"] += extra[1]
            a["den"] += extra[0]
        elif name == "matr.enum_hom":
            a["homs_out"] += max(extra, 0)
        elif name == "lawcheck.homs":
            got = enumerated.get(i, -1)
            a["num"] += extra
            a["den"] += got if got >= 0 else extra
    out = {}
    for prefix, (_, _, stats) in SPANNED.items():
        a = acc.get(prefix, {})
        for s in stats:
            if s in ("rank_ratio", "kept_ratio"):
                out[f"{prefix}.{s}"] = a["num"] / a["den"] if a.get("den") else 0.0
            else:
                out[f"{prefix}.{s}"] = a.get(s, 0)
    for prefix, cell in counts.items():
        out[f"{prefix}.calls"] = cell[0]
    for suite in sys.modules["qlab.lawcheck"].SUITES:
        out[f"lawcheck.suite.{suite}.total_s"] = acc.get(f"lawcheck.suite.{suite}", {}).get("total_s", 0.0)
    return out
