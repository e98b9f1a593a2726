"""Span recorder for the traced run, installed from outside the package.

``install()`` wraps the public entry of each layer.  A function is
replaced at every ``spaceform`` module that holds it, because modules
import each other by value (``degree`` imports ``composition_table``,
``cli`` imports the group constructors).  Spans (name, start, end,
parent) stay in memory.  Hot per-element functions (``multiply``,
``multiply_even``, ``compose``) are not wrapped: the workloads time
them by batch.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from spaceform import degree as sf_degree
from spaceform import endomorphisms as sf_endo

# Wrapped entry points, as (module, attribute).  A class attribute is
# "Class.method".
ENTRIES = (
    ("groups", "make_cyclic"),
    ("groups", "make_generalized_quaternion"),
    ("groups", "make_from_table"),
    ("groups", "direct_product"),
    ("groups", "load_group"),
    ("endomorphisms", "enumerate_endomorphisms"),
    ("endomorphisms", "enumerate_automorphisms"),
    ("endomorphisms", "composition_table"),
    ("degree", "build_degree_hom"),
    ("degree", "validate_degree_hom"),
    ("monoid_odd", "monoid_context"),
    ("monoid_odd", "MonoidContext.equivalence_group"),
    ("selfmap_oracle", "cross_check"),
    ("cli", "cmd_monoid"),
    ("cli", "cmd_equiv"),
    ("cli", "cmd_even"),
    ("cli", "cmd_degrees"),
    ("cli", "cmd_check"),
    ("cli", "cmd_census"),
    ("cli", "emit"),
)

# Per-layer time metrics: the self time of these entries, summed.
LAYER_TIMES = {
    "groups.build_s": ("groups.make_cyclic", "groups.make_generalized_quaternion",
                       "groups.make_from_table", "groups.direct_product",
                       "groups.load_group"),
    "endomorphisms.enumerate_s": ("endomorphisms.enumerate_endomorphisms",
                                  "endomorphisms.enumerate_automorphisms"),
    "endomorphisms.composition_table_s": ("endomorphisms.composition_table",),
    "degree.build_s": ("degree.build_degree_hom",),
    "degree.validate_s": ("degree.validate_degree_hom",),
    "monoid_odd.context_s": ("monoid_odd.monoid_context",),
    "monoid_odd.equivalence_group_s": ("monoid_odd.MonoidContext.equivalence_group",),
    "selfmap_oracle.cross_check_s": ("selfmap_oracle.cross_check",),
}
CLI_SUBCOMMANDS = ("monoid", "equiv", "even", "degrees", "check", "census")


class Recorder:
    """Collects spans and per-layer counts while installed and active."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, time covered by child spans]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        # id of the first endomorphism of each enumeration seen -> that object,
        # kept alive so that its id is not reused
        self._seen_enumerations: dict[int, Any] = {}

    # -- installation --

    def install(self) -> "Recorder":
        for mod_name, _ in ENTRIES:
            importlib.import_module(f"spaceform.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spaceform" or name.startswith("spaceform."))]
        for mod_name, attr in ENTRIES:
            name = f"{mod_name}.{attr}"
            after = AFTER.get(name)
            owner = sys.modules[f"spaceform.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], after))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span = [name, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(sid)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = end = clock()
                stack.pop()
                if after is not None:
                    after(self, args, kwargs, result, exc)
                if parent >= 0:
                    spans[parent][4] += clock() - span[1]

        return wrapper

    # -- summaries --

    def entry_table(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per wrapped entry, zero-call entries included."""
        table = {f"{m}.{a}": {"calls": 0, "total_s": 0.0, "self_s": 0.0} for m, a in ENTRIES}
        for name, start, end, _parent, child in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return table

    def layer_metrics(self) -> dict[str, float]:
        table = self.entry_table()
        out = {metric: sum(table[e]["self_s"] for e in entries)
               for metric, entries in LAYER_TIMES.items()}
        out["endomorphisms.composition_table_calls"] = table[
            "endomorphisms.composition_table"]["calls"]
        for sub in CLI_SUBCOMMANDS:
            row = table[f"cli.cmd_{sub}"]
            out[f"cli.{sub}_ms"] = 1000 * row["total_s"] / row["calls"] if row["calls"] else 0.0
        emit = table["cli.emit"]
        out["cli.emit_ms"] = 1000 * emit["total_s"] / emit["calls"] if emit["calls"] else 0.0
        for key in ("endomorphisms.end_count", "endomorphisms.aut_count",
                    "degree.law_pairs", "selfmap_oracle.products"):
            out[key] = self.counts[key]
        return out


# --- counts taken after a call returns; their time is kept out of every span's self time ---


def _unwrapped(fn: Callable) -> Callable:
    return getattr(fn, "__wrapped__", fn)


def _after_enumerate(rec: Recorder, args, kwargs, result, exc) -> None:
    """|End| and |Aut| of each enumeration that returned new endomorphism objects."""
    if exc is not None or not result or id(result[0]) in rec._seen_enumerations:
        return
    rec._seen_enumerations[id(result[0])] = result[0]
    rec.counts["endomorphisms.end_count"] += len(result)
    rec.counts["endomorphisms.aut_count"] += sum(1 for e in result if e.is_automorphism)


def _after_build_hom(rec: Recorder, args, kwargs, result, exc) -> None:
    """A user table is law-checked over every pair of End(G): |End|^2 pairs, computed."""
    user_table = args[2] if len(args) > 2 else kwargs.get("user_table")
    if user_table is None:
        return
    if exc is None:
        size = len(result.values)
    elif isinstance(exc, (sf_degree.NotAHomomorphismError, sf_degree.InvalidTableError)):
        g = args[0] if args else kwargs["g"]
        size = len(_unwrapped(sf_endo.enumerate_endomorphisms)(g))
    else:
        return
    rec.counts["degree.law_pairs"] += size * size


def _after_validate(rec: Recorder, args, kwargs, result, exc) -> None:
    if exc is None:
        d = args[0] if args else kwargs["d"]
        rec.counts["degree.law_pairs"] += len(d.values) ** 2


def _after_cross_check(rec: Recorder, args, kwargs, result, exc) -> None:
    if exc is None:
        rec.counts["selfmap_oracle.products"] += result.product_count


AFTER = {
    "endomorphisms.enumerate_endomorphisms": _after_enumerate,
    "degree.build_degree_hom": _after_build_hom,
    "degree.validate_degree_hom": _after_validate,
    "selfmap_oracle.cross_check": _after_cross_check,
}
