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

Engines, the lint gate, the fault analyzer and the harness cells take
``tracer=``.  ``Tracer()`` (the default each builds for itself) records
nothing, and its disabled path is benchmarked to stay within a few
percent of un-instrumented runs; ``Tracer(record=True)`` keeps every
span (``--profile``).
"""

from .trace import Tracer, make_span_record
from .export import (
    ROLLUP_ROWS,
    TRACE_NAME,
    canonical_lines,
    read_trace_jsonl,
    render_rollup,
    rollup_by_path,
    span_to_line,
    strip_wall_fields,
    write_trace_jsonl,
)

__all__ = [
    "ROLLUP_ROWS",
    "TRACE_NAME",
    "Tracer",
    "canonical_lines",
    "make_span_record",
    "read_trace_jsonl",
    "render_rollup",
    "rollup_by_path",
    "span_to_line",
    "strip_wall_fields",
    "write_trace_jsonl",
]
