"""Outside-in layer trace: timing wrappers on the package's entry points.

The wrappers are installed on module and class attributes of ``bellsim``
from the benchmark's own files, in the traced run only; the package
itself is not edited. Each wrapped call becomes a span: layer, phase
(the worker count of the operation in flight), parent span on the same
thread, start and end, the time its child spans cover, and an element
count. Spans stay in memory and are written out when the run ends.
A target that no longer exists is reported as absent, not an error.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

# Span fields.
LAYER, PHASE, PARENT, START, END, CHILD, ELEMS, THREAD = range(8)


def _intensity_elements(args: tuple, kwargs: dict) -> int:
    # click_probability(model, intensity): how many intensities were evaluated.
    intensity = args[1] if len(args) > 1 else kwargs.get("intensity")
    return int(np.size(intensity))


#: (layer, module, attribute). ``*.name`` is that method on every class
#: defined in the module. Imported names are wrapped wherever the package
#: binds them, so a call through any module is seen.
TARGETS = (
    ("cli.main", "bellsim.cli", "main"),
    ("engine.run", "bellsim.engine", "run"),
    ("engine.batch", "bellsim.engine", "_run_batch"),
    ("engine.rng_setup", "bellsim.engine", "_batch_rng"),
    ("engine.summarize", "bellsim.engine", "_summarize"),
    ("strategies.build", "bellsim.strategies", "build_strategy"),
    ("strategies.emit", "bellsim.strategies", "*.emit_batch"),
    ("strategies.resolve", "bellsim.strategies", "*.resolve_batch"),
    ("optics.analyze", "bellsim.optics", "analyze_batch"),
    ("detector.click", "bellsim.detector", "click_probability"),
    ("analytic.predict", "bellsim.analytic", "ab_from_eta"),
    ("analytic.predict", "bellsim.analytic", "perfect_predict"),
    ("analytic.predict", "bellsim.analytic", "improved_predict"),
    ("analytic.predict", "bellsim.analytic", "existing_predict"),
)


def rebind(original: object, replacement: object) -> Callable[[], None]:
    """Point every ``bellsim`` module global bound to ``original`` at ``replacement``.

    Returns the function that restores the original bindings.
    """
    bound = [
        (module, key)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "bellsim" or name.startswith("bellsim."))
        for key, value in list(vars(module).items())
        if value is original
    ]
    for module, key in bound:
        setattr(module, key, replacement)

    def undo() -> None:
        for module, key in bound:
            setattr(module, key, original)

    return undo


def _find(module_name: str, attr: str) -> list[tuple[object, str, Callable]]:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if attr.startswith("*."):
        name = attr[2:]
        return [
            (cls, name, cls.__dict__[name])
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__ == module_name
            and callable(cls.__dict__.get(name))
        ]
    fn = getattr(module, attr, None)
    return [(module, attr, fn)] if callable(fn) else []


class Tracer:
    """Collects spans from wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = 0
        self.absent: list[str] = []
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def install(self) -> None:
        self.absent = []
        for layer, module_name, attr in TARGETS:
            found = _find(module_name, attr)
            if not found:
                self.absent.append(f"{module_name}.{attr}")
            for owner, key, fn in found:
                wrapped = self._wrap(layer, fn)
                if isinstance(owner, type):
                    setattr(owner, key, wrapped)
                    self._undo.append(functools.partial(setattr, owner, key, fn))
                else:
                    self._undo.append(rebind(fn, wrapped))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        count = _intensity_elements if layer == "detector.click" else None
        local, spans, tracer = self._local, self.spans, self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            elems = count(args, kwargs) if count else 0
            span = [layer, tracer.phase, parent, clock(), 0, 0, elems, threading.get_ident()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]
                spans.append(span)  # a single append is atomic under the GIL

        return traced

    def totals(self) -> dict[tuple[str, int], dict[str, int]]:
        """Per (layer, phase): calls, inclusive and self nanoseconds, elements.

        ``outer_ns`` counts only spans not nested in a span of the same
        layer, so a strategy that delegates to another is not counted twice.
        """
        out: dict[tuple[str, int], dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "outer_ns": 0, "elems": 0}
        )
        for span in self.spans:
            entry = out[(span[LAYER], span[PHASE])]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["incl_ns"] += duration
            entry["self_ns"] += duration - span[CHILD]
            entry["elems"] += span[ELEMS]
            parent = span[PARENT]
            if parent is None or parent[LAYER] != span[LAYER]:
                entry["outer_ns"] += duration
        return out

    def write(self, path: Path) -> None:
        """Write every span, parents as indices into the span list."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[LAYER], s[PHASE], -1 if s[PARENT] is None else index[id(s[PARENT])],
             s[START], s[END], s[CHILD], s[ELEMS], s[THREAD]]
            for s in self.spans
        ]
        fields = ["layer", "phase", "parent", "start_ns", "end_ns", "child_ns", "elements", "thread"]
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "absent": self.absent, "spans": rows}, fh, separators=(",", ":"))
