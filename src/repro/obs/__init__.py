"""Zero-dependency observability: trace spans and their exporters.

Where the wall time of a run goes, span by span.  The counts a run
produces live on their owners instead: the engines' fault-book records
and search tally (read by ``AtpgResult.counters()``), the fault
simulator's ``counters()`` and the SEST cache's ``LearningStats``.
Two pieces:

* :class:`Tracer` — hierarchical spans timed by the engines'
  deterministic :class:`~repro.atpg.result.WorkClock` virtual time
  (wall clock rides along as stripped-before-compare metadata);
* exporters — ``trace.jsonl`` JSONL dump and a flame-style per-phase
  rollup (``python -m repro run --profile``).

An :class:`Observability` holds one tracer and is what engines,
simulators, the lint gate and the harness runner accept.
``Observability()`` (the engines' default) traces nothing: its tracer
writes to :data:`NULL_SINK`, whose disabled path is benchmarked to stay
within a few percent of un-instrumented runs.
"""

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
    """One tracer, threaded through a run.

    Tracing is opt-in via a recording sink.  Every engine, simulator
    and gate takes ``obs=None`` and falls back to a private default
    instance that records nothing.
    """

    __slots__ = ("trace",)

    def __init__(self, trace=None):
        self.trace = trace if trace is not None else null_tracer()

    @classmethod
    def recording(cls, clock=None) -> "Observability":
        """An in-memory span recorder (``--profile``)."""
        return cls(trace=Tracer(sink=RecordingSink(), clock=clock))

    @classmethod
    def for_profile(cls, profile: bool) -> "Observability":
        return cls.recording() if profile else cls()


__all__ = [
    "NULL_SINK",
    "NullSink",
    "Observability",
    "RecordingSink",
    "TRACE_NAME",
    "Tracer",
    "annotate",
    "canonical_lines",
    "make_span_record",
    "null_tracer",
    "read_trace_jsonl",
    "render_rollup",
    "rollup_by_path",
    "span_to_line",
    "strip_wall_fields",
    "write_trace_jsonl",
]
