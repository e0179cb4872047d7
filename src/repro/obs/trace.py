"""Hierarchical trace spans on deterministic virtual time.

A :class:`Tracer` records a tree of spans per experiment cell::

    with tracer.span("atpg.fault", fault="n12/sa1"):
        with tracer.span("atpg.justify"):
            ...

Span timestamps come from the engine's
:class:`~repro.atpg.result.WorkClock` (attached via
:meth:`Tracer.use_clock`), so the recorded ``t0``/``t1`` virtual
seconds are a pure function of the search trajectory — byte-identical
between ``--jobs 1`` and ``--jobs 8`` runs of the same config.  Spans
opened while no clock is attached (lint gates, task setup) carry
``null`` timestamps, which is equally deterministic.  Wall-clock
duration is attached as ``wall_ms`` metadata only; every exporter and
equivalence check strips ``wall*`` fields before comparing.

The disabled path is a single attribute test: a tracer built without
``record=True`` hands back one shared no-op context manager from
``span()`` and allocates nothing (the <3% overhead budget of the
harness's default, non-``--profile`` mode).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

_JSON_SCALARS = (str, int, float, bool, type(None))


class _NullSpan:
    """The shared no-op context manager ``span()`` returns when the
    tracer records nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One active span; recorded by its tracer on exit."""

    __slots__ = (
        "_tracer", "name", "attrs", "seq", "parent", "path",
        "_clock", "_t0", "_wall0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.seq = -1
        self.parent: Optional[int] = None
        self.path = name
        self._clock = None
        self._t0: Optional[float] = None
        self._wall0 = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to this open span.

        Lets instrumented code enrich ``with tracer.span(...) as span:``
        blocks (e.g. the per-fault valid/invalid search tallies) without
        guarding every call site on ``tracer.enabled``: the null span's
        ``annotate`` does nothing."""
        self.attrs.update(_sanitize(attrs))


class Tracer:
    """Span recorder for one experiment cell (or one engine run).

    ``Tracer()`` (the engines' default) records nothing; ``--profile``
    runs build ``Tracer(record=True)``, which keeps every finished span
    record in memory for :meth:`export`.

    Not thread-safe by design: a cell is single-threaded, and parallel
    harness runs give every worker its own tracer whose records the
    parent merges in canonical task order.  Give every engine, gate or
    task its own tracer, too: ``use_clock`` mutates it.
    """

    def __init__(self, record: bool = False, clock=None):
        self._records: Optional[List[Dict[str, Any]]] = [] if record else None
        self._clock = clock
        self._stack: List[_Span] = []
        self._seq = 0

    @property
    def enabled(self) -> bool:
        return self._records is not None

    def use_clock(self, clock) -> None:
        """Attach (or detach, with ``None``) the virtual clock spans
        read their timestamps from.  Engines call this at the top of
        ``run()`` with their per-run :class:`WorkClock`."""
        self._clock = clock

    def span(self, name: str, **attrs: Any):
        """A context manager recording one span; no-op when disabled."""
        if self._records is None:
            return _NULL_SPAN
        return _Span(self, name, _sanitize(attrs))

    def export(self) -> List[Dict[str, Any]]:
        """Finished span records in start (``seq``) order."""
        if self._records is None:
            return []
        return sorted(self._records, key=lambda r: r["seq"])

    # -- span lifecycle (called by _Span) ----------------------------------

    def _open(self, span: _Span) -> None:
        span.seq = self._seq
        self._seq += 1
        if self._stack:
            parent = self._stack[-1]
            span.parent = parent.seq
            span.path = f"{parent.path}/{span.name}"
        span._clock = self._clock
        span._t0 = self._clock.seconds() if self._clock else None
        span._wall0 = time.perf_counter()
        self._stack.append(span)

    def _close(self, span: _Span) -> None:
        while self._stack and self._stack[-1] is not span:
            # Tolerate a span leaked by an exception path: close it too.
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        t1 = span._clock.seconds() if span._clock else None
        self._records.append(
            make_span_record(
                seq=span.seq,
                parent=span.parent,
                name=span.name,
                path=span.path,
                attrs=span.attrs,
                t0=span._t0,
                t1=t1,
                wall_ms=(time.perf_counter() - span._wall0) * 1000.0,
            )
        )


def make_span_record(
    seq: Optional[int],
    parent: Optional[int],
    name: str,
    path: str,
    attrs: Dict[str, Any],
    t0: Optional[float],
    t1: Optional[float],
    wall_ms: Optional[float],
) -> Dict[str, Any]:
    """The one span-record shape every producer emits.

    Exporters and equivalence checks rely on this single schema:
    fingerprinted fields (``seq``/``parent``/``name``/``path``/
    ``attrs``/``t0``/``t1``) plus ``wall``-prefixed machine-dependent
    metadata.
    """
    return {
        "seq": seq,
        "parent": parent,
        "name": name,
        "path": path,
        "attrs": attrs,
        "t0": t0,
        "t1": t1,
        "wall_ms": wall_ms,
    }


def _sanitize(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Span attributes must be JSON scalars (they land in trace.jsonl
    and in the determinism fingerprint); stringify anything else."""
    return {
        key: value if isinstance(value, _JSON_SCALARS) else str(value)
        for key, value in attrs.items()
    }
