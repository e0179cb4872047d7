"""Metrics primitives: named counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` lives per experiment cell (or per engine,
when engines are constructed outside the harness).  Instruments are
keyed by a dotted lowercase name plus an optional label set, rendered
Prometheus-style::

    atpg.backtracks{circuit=dk16.ji.sd,engine=hitec}

Reserved namespaces: ``atpg.*`` (engine effort/outcome), ``sim.*``
(fault-simulation events), ``lint.*`` (DRC gate) and ``search.*`` (the
search-state observatory, :mod:`repro.obs.search` — valid/invalid
classification of every state the ATPG search examines).

Determinism contract: instruments only ever hold values derived from
the computation itself (search counts, virtual-clock seconds), never
wall-clock time or memory readings — a registry dump from a ``jobs=1``
run must equal the dump from a ``jobs=8`` run of the same config.
Wall-clock belongs in trace-span metadata (:mod:`repro.obs.trace`),
which the exporters keep out of the fingerprinted fields.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError

#: Dotted lowercase metric names: ``atpg.backtracks``, ``sim.events``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(ReproError):
    """Bad metric name, label, or instrument-type collision."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Characters with structural meaning inside a rendered key's label
#: block; values containing them are backslash-escaped so every key
#: round-trips through :func:`parse_key` (circuit names are arbitrary
#: strings and benchmark ids routinely contain ``[``/``,``).
_LABEL_SPECIALS = "\\,=}"  # backslash first: it escapes the others


def _escape_label(value: str) -> str:
    for char in _LABEL_SPECIALS:
        value = value.replace(char, "\\" + char)
    return value


def _unescape_label(value: str) -> str:
    out: List[str] = []
    escaped = False
    for char in value:
        if escaped:
            out.append(char)
            escaped = False
        elif char == "\\":
            escaped = True
        else:
            out.append(char)
    if escaped:  # trailing lone backslash: keep it literal
        out.append("\\")
    return "".join(out)


def _split_unescaped(text: str, sep: str) -> List[str]:
    """Split on ``sep`` occurrences not preceded by a backslash; escape
    sequences are preserved verbatim for a later unescape pass."""
    parts: List[str] = []
    current: List[str] = []
    escaped = False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def render_key(name: str, labels: LabelKey) -> str:
    """The registry-dump key: ``name{k=v,...}`` with sorted labels.

    Label *values* are escaped (``\\,`` ``\\=`` ``\\}`` ``\\\\``) so
    the rendering is injective and :func:`parse_key` inverts it.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={_escape_label(v)}" for k, v in labels)
    return f"{name}{{{inner}}}"


_KEY_RE = re.compile(r"^(?P<name>[^{]+)(\{(?P<labels>.*)\})?$", re.DOTALL)


def parse_key(key: str) -> Tuple[str, LabelKey]:
    """Inverse of :func:`render_key` (used by dump mergers/reporters)."""
    match = _KEY_RE.match(key)
    if match is None:  # pragma: no cover - regex matches any string
        raise MetricsError(f"unparseable metric key {key!r}")
    name = match.group("name")
    raw = match.group("labels")
    if not raw:
        return name, ()
    labels = []
    for part in _split_unescaped(raw, ","):
        # Label keys are identifiers (never escaped), so the first
        # "=" is always the key/value separator.
        k, _, rest = part.partition("=")
        labels.append((k, _unescape_label(rest)))
    return name, tuple(labels)


class Counter:
    """Monotonically increasing count; the workhorse instrument.

    ``inc`` is deliberately a bare attribute add — it sits on hot paths
    (one call per PODEM backtrack, per simulated vector batch).
    """

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """Last-written value (pool sizes, cache occupancy)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Any:
        return {"gauge": self.value}


#: Default histogram buckets: powers of two cover search-effort
#: distributions (backtracks per fault, sequence lengths) well.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Histogram:
    """Fixed-bucket histogram: counts of observations <= each bound,
    plus a +Inf overflow bucket, total sum and count."""

    __slots__ = ("bounds", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise MetricsError(
                f"histogram bucket bounds must be sorted: {bounds!r}"
            )
        self.counts = [0] * (len(self.bounds) + 1)  # last = overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        position = len(self.bounds)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                position = index
                break
        self.counts[position] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> Any:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create store of named, labelled instruments.

    The same ``(name, labels)`` pair always returns the same instrument
    object; asking for it as a different instrument type is an error
    (silent type morphing would corrupt dumps).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, cls, name: str, labels: Dict[str, object], **kwargs):
        if _NAME_RE.match(name) is None:
            raise MetricsError(
                f"bad metric name {name!r}; expected dotted lowercase "
                "like 'atpg.backtracks'"
            )
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(**kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise MetricsError(
                f"metric {render_key(*key)!r} already registered as "
                f"{type(instrument).kind}, requested {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, bounds=bounds or DEFAULT_BUCKETS
        )

    def dump(self) -> Dict[str, Any]:
        """JSON-able snapshot: rendered key -> instrument snapshot,
        sorted by key (byte-stable for equal registries)."""
        out: Dict[str, Any] = {}
        for (name, labels) in sorted(self._instruments):
            instrument = self._instruments[(name, labels)]
            out[render_key(name, labels)] = instrument.snapshot()
        return out


def merge_dumps(dumps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine registry dumps from many cells into one aggregate view.

    Counters and histogram sums add; gauges keep the last value seen
    (a cross-cell gauge aggregate has no single right answer).
    """
    merged: Dict[str, Any] = {}
    for dump in dumps:
        for key, value in dump.items():
            if key not in merged:
                merged[key] = _copy_value(value)
                continue
            merged[key] = _merge_value(merged[key], value, key)
    return {key: merged[key] for key in sorted(merged)}


def _copy_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k: list(v) if isinstance(v, list) else v
            for k, v in value.items()
        }
    return value


def _merge_value(base: Any, incoming: Any, key: str) -> Any:
    if isinstance(base, dict) and "gauge" in base:
        return _copy_value(incoming)
    if isinstance(base, dict) and "counts" in base:
        if base.get("bounds") != incoming.get("bounds"):
            raise MetricsError(
                f"cannot merge histogram {key!r}: bucket bounds differ"
            )
        return {
            "bounds": list(base["bounds"]),
            "counts": [
                a + b for a, b in zip(base["counts"], incoming["counts"])
            ],
            "sum": base["sum"] + incoming["sum"],
            "count": base["count"] + incoming["count"],
        }
    return base + incoming


def render_metrics_summary(
    dump: Dict[str, Any], title: str = "Metrics"
) -> str:
    """Plain-text table of a registry dump (the ``--profile`` report
    section and the ``trace_summary`` script share it)."""
    lines = [f"{title}: {len(dump)} instrument(s)"]
    if not dump:
        return lines[0]
    width = max(len(key) for key in dump)
    for key in sorted(dump):
        value = dump[key]
        if isinstance(value, dict) and "counts" in value:
            mean = value["sum"] / value["count"] if value["count"] else 0.0
            rendered = (
                f"count={value['count']} sum={_num(value['sum'])} "
                f"mean={mean:.2f}"
            )
        elif isinstance(value, dict) and "gauge" in value:
            rendered = _num(value["gauge"])
        else:
            rendered = _num(value)
        lines.append(f"  {key.ljust(width)}  {rendered}")
    return "\n".join(lines)


def _num(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)
