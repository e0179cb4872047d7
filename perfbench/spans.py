"""Spans recorded from outside the program, and the arithmetic on them.

A span is one call into a layer: name, start, end, the span that was
open when it began (its parent) and the id of the run it belongs to.
The recorder keeps spans in memory; :meth:`Recorder.dump` writes them
out once, at the end.  Times come from ``time.perf_counter``, which on
Linux is the system-wide monotonic clock, so spans written by worker
processes line up with the parent's.

Layers are traced by rebinding the program's public functions to
wrappers (:class:`Patcher`); nothing inside the program changes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Union


@dataclasses.dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: Optional[str]
    run: str
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(**data)


class Recorder:
    """In-memory span stack of one process."""

    def __init__(self, run: str = "run", clock: Callable[[], float] = time.perf_counter):
        self.run = run
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock
        self._prefix = f"{os.getpid()}:"

    def begin(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            id=f"{self._prefix}{len(self.spans)}",
            name=name,
            start=self._clock(),
            end=float("nan"),
            parent=parent,
            run=self.run,
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        # Pop down to (and including) this span, so an exception that
        # skipped an inner end() cannot leave a stale parent behind.
        while self._stack:
            if self._stack.pop() is span:
                break

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def load_spans(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span.from_dict(json.loads(line)) for line in handle if line.strip()]


Name = Union[str, Callable[[tuple], str]]


def traced(
    fn: Callable,
    name: Name,
    recorder: Recorder,
    annotate: Optional[Callable[[Span, tuple, Any], None]] = None,
) -> Callable:
    """``fn`` wrapped in a span.  ``name`` may be a function of the call
    arguments (e.g. the engine name of a bound method's ``self``);
    ``annotate(span, args, result)`` may add attributes afterwards."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        span = recorder.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if annotate is not None:
            annotate(span, args, result)
        return result

    return wrapper


class Patcher:
    """Rebinds program attributes to wrappers and undoes it."""

    def __init__(self, package: str = "repro"):
        self.package = package
        self._undo: List[tuple] = []

    def function(self, original: Callable, wrapper: Callable) -> int:
        """Rebind every module-level reference to ``original`` inside the
        package (the defining module and every ``from x import f``
        copy); returns how many were rebound."""
        count = 0
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(("attr", module, attr, original))
                    count += 1
        if not count:
            raise LookupError(f"no module of {self.package!r} binds {original!r}")
        return count

    def attribute(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Rebind one attribute (a class method, say)."""
        self._undo.append(("attr", owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def item(self, mapping: Dict, key: Any, wrapper: Callable) -> None:
        """Rebind one entry of a dispatch table."""
        self._undo.append(("item", mapping, key, mapping[key]))
        mapping[key] = wrapper

    def restore(self) -> None:
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original


# ---------------------------------------------------------------------------
# Arithmetic


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        ]
        clipped = [(start, end) for start, end in clipped if end > start]
        result[span.id] = span.duration - _covered(clipped)
    return result


@dataclasses.dataclass
class Rollup:
    calls: int = 0
    busy: float = 0.0  # outermost spans only (recursion counted once)
    self_time: float = 0.0


def rollup(spans: Iterable[Span]) -> Dict[str, Rollup]:
    """Per span name: call count, busy time and self time."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    table: Dict[str, Rollup] = defaultdict(Rollup)
    for span in spans:
        entry = table[span.name]
        entry.calls += 1
        entry.self_time += selfs[span.id]
        ancestor = by_id.get(span.parent) if span.parent else None
        nested = False
        while ancestor is not None:
            if ancestor.name == span.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent else None
        if not nested:
            entry.busy += span.duration
    return dict(table)
