"""Zero-dependency observability: metrics, trace spans, exporters.

The experiment platform's single source of truth for *where the effort
goes*: PODEM backtracks, frame expansions, illegal-state cache hits,
fault-simulation events, per-rule lint timing.  Three pieces:

* :class:`MetricsRegistry` — named counters / gauges / fixed-bucket
  histograms with labels (``atpg.backtracks{engine=hitec,...}``);
* :class:`Tracer` — hierarchical spans timed by the engines'
  deterministic :class:`~repro.atpg.result.WorkClock` virtual time
  (wall clock rides along as stripped-before-compare metadata);
* exporters — ``trace.jsonl`` JSONL dump, a metrics summary table and
  a flame-style per-phase rollup (``python -m repro.harness
  --profile``).

An :class:`Observability` bundles one registry and one tracer and is
what engines, simulators, the lint gate and the harness runner accept.
``Observability()`` (the engines' default) counts metrics but traces
nothing: its tracer writes to :data:`NULL_SINK`, whose disabled path
is benchmarked to stay within a few percent of un-instrumented runs.
"""

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    merge_dumps,
    parse_key,
    render_key,
    render_metrics_summary,
)
from .trace import (
    NULL_SINK,
    NullSink,
    RecordingSink,
    Tracer,
    annotate,
    make_span_record,
    null_tracer,
)
from .export import (
    TRACE_NAME,
    canonical_lines,
    read_trace_jsonl,
    render_rollup,
    rollup_by_path,
    span_to_line,
    strip_wall_fields,
    write_trace_jsonl,
)


class Observability:
    """One metrics registry + one tracer, threaded through a run.

    Metrics are always live (plain integer adds, cheap enough for hot
    loops); tracing is opt-in via a recording sink.  Every engine,
    simulator and gate takes ``obs=None`` and falls back to a private
    default instance, so library users get correct counters without
    wiring anything.
    """

    __slots__ = ("metrics", "trace")

    def __init__(self, metrics=None, trace=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else null_tracer()

    @classmethod
    def recording(cls, clock=None) -> "Observability":
        """Metrics plus an in-memory span recorder (``--profile``)."""
        return cls(trace=Tracer(sink=RecordingSink(), clock=clock))

    @classmethod
    def for_profile(cls, profile: bool) -> "Observability":
        return cls.recording() if profile else cls()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
    "Observability",
    "RecordingSink",
    "TRACE_NAME",
    "Tracer",
    "annotate",
    "canonical_lines",
    "make_span_record",
    "merge_dumps",
    "null_tracer",
    "parse_key",
    "read_trace_jsonl",
    "render_key",
    "render_metrics_summary",
    "render_rollup",
    "rollup_by_path",
    "span_to_line",
    "strip_wall_fields",
    "write_trace_jsonl",
]
