"""Spans recorded from outside the program, around calls into its layers.

A layer is one module of the ``connrules`` package. The benchmark never edits
the package: it replaces the names that a calling module looks up at call
time (``connrules.crossval.fit_tree``, ``connrules.cli.load_cohort``,
``connrules.learner.enumerate_candidates``) with wrappers that record a span
and then call the original. Spans are kept in memory and summarised or
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = ("cohort", "tree", "forest", "selection", "taskgen", "learner",
          "inference", "crossval", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call and lets observers see results.

    ``op`` is the id of the workload operation the spans belong to; the
    workload code advances it. ``observers[name]`` is called as
    ``observer(args, kwargs, result)`` after each call of the wrapped name.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.observers: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result
        return wrapper

    def patch(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` with a wrapper recording spans ``name``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def patch_imported(self, module) -> None:
        """Wrap every function that ``module`` imported from another
        ``connrules`` module, naming each span ``<layer>.<function>``."""
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if home.startswith("connrules.") and home != module.__name__:
                self.patch(module, attr, f"{home.rsplit('.', 1)[1]}.{attr}")

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Calls are nested and single-threaded, so children never overlap."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def busy(self, name: str) -> float:
        """Total duration of the outermost spans named ``name``."""
        total = 0.0
        for s in self.spans:
            if s.name == name and (s.parent < 0 or self.spans[s.parent].name != name):
                total += s.duration
        return total

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def child_busy(self, parent_name: str, child_name: str) -> float:
        return sum(s.duration for s in self.spans
                   if s.name == child_name and s.parent >= 0
                   and self.spans[s.parent].name == parent_name)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self.self_times()):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": s.name, "parent": s.parent, "op": s.op,
                    "start_s": round(s.start - t0, 9), "end_s": round(s.end - t0, 9),
                }) + "\n")
