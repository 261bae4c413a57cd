"""Spans around calls into zetasum's public functions, recorded from the
benchmark's side.

Tracer.install() replaces every public module-level function of the
package's modules, in every package namespace that refers to it, with a
wrapper that records a span; uninstall() puts the originals back.  Nothing
under src/ is changed.  Spans stay in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

MODULES = ("numerics", "digit_series", "special_series", "zeta_zeros",
           "criteria", "cli")

# results worth keeping on a span, by span name
_NOTES = {
    "zeta_zeros.find_zeros": lambda r: {"zeros": len(r)},
    "digit_series.main_series": lambda r: {
        "terms": r.terms_used,
        "den_bits": r.partial_sum.denominator.bit_length() if r.is_exact_rational() else 0},
    "criteria.verify_identity": lambda r: {"tolerance": float(r.tolerance.value)},
}


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                span.note.update(note(result))
            return result

        return traced

    def _count(self, key: str, fn):
        """Count calls per operation (the outermost open span) without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                note = self._stack[0].note
                note[key] = note.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        mods = {m: importlib.import_module(f"zetasum.{m}") for m in MODULES}
        namespaces = [importlib.import_module("zetasum"), *mods.values()]
        replace = {}
        for m, mod in mods.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    replace[fn] = self._wrap(f"{m}.{attr}", fn)
        zz = mods["zeta_zeros"]
        replace[zz._hardy_z_raw] = self._count("z_evals", zz._hardy_z_raw)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in replace:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, replace[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def dump(self) -> list:
        return [{"id": s.id, "name": s.name, "parent": s.parent, "run": s.run,
                 "start": s.start, "end": s.end, **({"note": s.note} if s.note else {})}
                for s in self.spans]


class Trace:
    """Queries over recorded spans.  Operation spans are named op.<name>."""

    def __init__(self, spans: list):
        self.spans = spans
        self.children: dict = {}
        self.ops: dict = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
            if s.name.startswith("op."):
                self.ops[s.name[3:]] = s

    def subtree(self, op: str) -> list:
        out, todo = [], [self.ops[op]]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s.id, ()))
        return out

    def within(self, op: str, name: str) -> list:
        return [s for s in self.subtree(op) if s.name == name]

    def seconds(self, op: str, name: str) -> float:
        """Total time in spans called name within op (they do not nest)."""
        return sum(s.seconds for s in self.within(op, name))

    def median_call(self, op: str, name: str) -> float:
        return median(s.seconds for s in self.within(op, name))

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(c.seconds for c in self.children.get(span.id, ()))

    def busy(self, module: str, ops) -> float:
        """Self time of the module's spans within the given operations."""
        prefix = module + "."
        return sum(self.self_seconds(s) for op in ops for s in self.subtree(op)
                   if s.name.startswith(prefix))
