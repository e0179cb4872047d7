"""Parallel, fault-tolerant execution engine for the experiment harness.

The experiment is a task graph of independent cells — one per (circuit
pair × engine) plus the global table cells.  Every cell goes through
one attempt loop, :func:`run_cell`, with:

* crash isolation — with ``jobs > 1`` each attempt runs in a spawned
  worker process, so a worker that dies (exception, segfault, OOM kill)
  costs one cell, not the run;
* a per-task wall-clock timeout — the parent joins the worker for at
  most ``task_timeout_seconds``, then terminates it;
* bounded retry-with-smaller-budget — a timed-out/crashed cell is
  re-attempted with ``budget.scaled(retry_budget_scale)``, so heavy
  circuits converge to an abortable effort level;
* poison-task quarantine — a cell that fails every attempt gets one
  ``quarantined`` row and the report marks it aborted instead of raising;
* a durable JSONL ledger (:mod:`repro.harness.ledger`) — every attempt
  is appended with its config fingerprint, wall time, peak RSS and ATPG
  counters, and ``--resume <run-id>`` skips ledger-completed cells.

``jobs=1`` runs the cells in-process, through the same JSON round-trip
and the same ledger, so serial and parallel runs are byte-identical
given deterministic budgets; ``jobs=N`` runs N threads that each wait
on one worker at a time.  Workers receive only ``(task, config)`` —
both picklable — and rebuild circuits by name through
:func:`repro.harness.suite.synthesize_named`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import multiprocessing
import os
import sys
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..lint import GLOBAL_LEDGER
from ..obs import TRACE_NAME, Tracer, make_span_record, write_trace_jsonl
from ..obs import coverage as coverage_mod
from . import ledger as ledger_mod
from . import figure3, table1, table5, table6, table7, table8
from .atpg_tables import (
    pair_counters,
    pair_lifecycle,
    pair_rows,
    coverage_row,
    run_pair,
)
from .config import HarnessConfig
from .ledger import TaskRecord
from .suite import (
    TABLE2_CIRCUITS,
    TABLE3_CIRCUITS,
    TABLE4_CIRCUITS,
)

#: Report sections in canonical order (task and report assembly order).
SECTIONS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure3",
)

Emit = Callable[[str], None]

_SPAWN = multiprocessing.get_context("spawn")


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One crash-isolated cell of the experiment grid."""

    key: str  # unique, e.g. "hitec:dk16.ji.sd"
    kind: str  # hitec_pair | attest_pair | sest_pair | struct_pair |
    #            table1 | table7 | figure3
    pair: Optional[str] = None  # circuit pair name, None for globals
    engine: Optional[str] = None
    tables: Tuple[str, ...] = ()  # report sections this cell feeds


def wants(config: HarnessConfig, section: str) -> bool:
    return config.tables is None or section in config.tables


def build_task_graph(config: HarnessConfig) -> List[TaskSpec]:
    """The experiment grid as independent cells, in canonical order.

    HITEC runs feed three report sections (Tables 2, 6 and 8 share one
    engine run, as in the paper), so they form a single cell per pair.
    """
    tasks: List[TaskSpec] = []
    if wants(config, "table1"):
        tasks.append(TaskSpec(key="table1", kind="table1", tables=("table1",)))
    if any(wants(config, t) for t in ("table2", "table6", "table8")):
        for name in config.circuits or TABLE2_CIRCUITS:
            tasks.append(
                TaskSpec(
                    key=f"hitec:{name}",
                    kind="hitec_pair",
                    pair=name,
                    engine="hitec",
                    tables=("table2", "table6", "table8"),
                )
            )
    if wants(config, "table3"):
        for name in config.circuits or TABLE3_CIRCUITS:
            tasks.append(
                TaskSpec(
                    key=f"attest:{name}",
                    kind="attest_pair",
                    pair=name,
                    engine="simbased",
                    tables=("table3",),
                )
            )
    if wants(config, "table4"):
        for name in config.circuits or TABLE4_CIRCUITS:
            tasks.append(
                TaskSpec(
                    key=f"sest:{name}",
                    kind="sest_pair",
                    pair=name,
                    engine="sest",
                    tables=("table4",),
                )
            )
    if wants(config, "table5"):
        for name in config.circuits or TABLE2_CIRCUITS:
            tasks.append(
                TaskSpec(
                    key=f"struct:{name}",
                    kind="struct_pair",
                    pair=name,
                    tables=("table5",),
                )
            )
    if wants(config, "table7"):
        tasks.append(TaskSpec(key="table7", kind="table7", tables=("table7",)))
    if wants(config, "figure3"):
        tasks.append(
            TaskSpec(key="figure3", kind="figure3", tables=("figure3",))
        )
    return tasks


# ---------------------------------------------------------------------------
# Cell execution (runs inside the worker process — everything here must
# be a pure function of (task, config)).


def _table8_rows(
    task: TaskSpec, config: HarnessConfig, run
) -> List[Dict]:
    table8_set = config.circuits or table8.DEFAULT_CIRCUITS
    return [table8.row_for_run(run)] if task.pair in table8_set else []


#: Report-section → row builder for one engine pair run.  Keyed by
#: section name, never by engine: which engine ran is entirely the
#: registry's business (``task.engine`` resolved by ``get_engine``).
_SECTION_ROWS = {
    "table2": lambda task, config, run: pair_rows(task.pair, run),
    "table3": lambda task, config, run: [coverage_row(task.pair, run)],
    "table4": lambda task, config, run: [coverage_row(task.pair, run)],
    "table6": lambda task, config, run: table6.rows_for_run(run),
    "table8": _table8_rows,
}


def _engine_pair_cell(
    task: TaskSpec, config: HarnessConfig, tracer: Tracer
) -> Dict:
    """One (engine × circuit pair) run feeding the task's sections.

    The single cell body behind the hitec/attest/sest pair kinds —
    ``task.engine`` is a registry name and ``task.tables`` picks the
    row builders, so adding an engine touches the registry and the task
    graph, never this function.
    """
    run = run_pair(task.pair, task.engine, config, tracer=tracer)
    tables: Dict[str, List[Dict]] = {}
    for section in task.tables:
        if wants(config, section):
            tables[section] = _SECTION_ROWS[section](task, config, run)
    return {
        "tables": tables,
        "counters": pair_counters(run),
        "lifecycle": pair_lifecycle(run),
    }


def _struct_cell(
    task: TaskSpec, config: HarnessConfig, tracer: Tracer
) -> Dict:
    return {"tables": {"table5": [table5.row_for_pair(task.pair, config)]}}


def _table1_cell(
    task: TaskSpec, config: HarnessConfig, tracer: Tracer
) -> Dict:
    return {"tables": {"table1": table1.compute_rows()}}


def _table7_cell(
    task: TaskSpec, config: HarnessConfig, tracer: Tracer
) -> Dict:
    return {"tables": {"table7": table7.compute_rows(config)}}


def _figure3_cell(
    task: TaskSpec, config: HarnessConfig, tracer: Tracer
) -> Dict:
    curves = figure3.generate(config, tracer=tracer)
    return {"curves": [curve.to_dict() for curve in curves]}


_CELLS = {
    "hitec_pair": _engine_pair_cell,
    "attest_pair": _engine_pair_cell,
    "sest_pair": _engine_pair_cell,
    "struct_pair": _struct_cell,
    "table1": _table1_cell,
    "table7": _table7_cell,
    "figure3": _figure3_cell,
}


def _resolve_hook(spec: str) -> Callable:
    """Import a ``pkg.module:function`` test-only task hook."""
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise ReproError(
            f"bad task_hook {spec!r}; expected 'pkg.module:function'"
        )
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def execute_task(task: TaskSpec, config: HarnessConfig) -> Dict:
    """Run one cell; returns its JSON-able payload.

    The process-local lint ledger is cleared first and serialized into
    the payload, so the parent can merge every task's DRC diagnostics
    into the report exactly as the serial harness did.

    Every task gets a fresh :class:`~repro.obs.Tracer`; with
    ``config.profile`` it records, and the span records ride along as
    ``payload["trace"]``.  Per-task tracers keep the trace a pure
    function of the cell, independent of scheduling order or worker
    placement.
    """
    if task.kind not in _CELLS:
        raise ReproError(f"unknown task kind {task.kind!r}")
    GLOBAL_LEDGER.clear()
    if config.task_hook:
        _resolve_hook(config.task_hook)(task, config)
    tracer = Tracer(record=config.profile)
    with tracer.span("task", key=task.key, kind=task.kind):
        payload = _CELLS[task.kind](task, config, tracer)
    payload["lint"] = ledger_mod.serialize_lint_ledger(GLOBAL_LEDGER)
    if config.profile:
        payload["trace"] = tracer.export()
    return payload


def _attempt_result(
    task: TaskSpec, config: HarnessConfig, catch=Exception
) -> Dict:
    """Run one attempt of a cell; returns the result a worker writes to
    its result file (``ok``, ``payload`` or ``error``, ``peak_rss_kb``).

    In-process and spawned attempts both go through here, so a crash
    carries the same traceback wherever the cell ran.
    """
    result: Dict = {"ok": False}
    try:
        result["payload"] = execute_task(task, config)
        result["ok"] = True
    except catch:
        result["error"] = traceback.format_exc(limit=20)
    result["peak_rss_kb"] = ledger_mod.peak_rss_kb()
    return result


def _worker_main(task: TaskSpec, config_data: Dict, result_path: str) -> None:
    """Spawned-process entry: run one cell, write one result file."""
    config = HarnessConfig.from_dict(config_data)
    result = _attempt_result(task, config, catch=BaseException)
    tmp_path = result_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp_path, result_path)
    sys.exit(0 if result["ok"] else 1)


# ---------------------------------------------------------------------------
# Parent-side scheduling.


@dataclasses.dataclass
class RunResult:
    """What one runner invocation produced."""

    run_id: str
    run_dir: str
    ledger_file: str
    records: List[TaskRecord]  # full ledger contents (incl. resumed rows)
    torn_lines: int = 0
    trace_file: Optional[str] = None  # assembled trace.jsonl (profile)
    service_file: Optional[str] = None  # service.json (cache-first runs)


def _scaled_config(config: HarnessConfig, attempt: int) -> HarnessConfig:
    if attempt == 0:
        return config
    factor = config.retry_budget_scale ** attempt
    return dataclasses.replace(config, budget=config.budget.scaled(factor))


def _record_for(
    task: TaskSpec,
    fingerprint: str,
    attempt: int,
    config: HarnessConfig,
    outcome: str,
    wall: float,
    payload: Optional[Dict] = None,
    rss_kb: int = 0,
    error: str = "",
) -> TaskRecord:
    payload = dict(payload or {})
    counters = payload.pop("counters", {})
    records = payload.pop("lifecycle", {})
    # Successful attempts carry the per-fault lifecycle core (empty for
    # non-ATPG cells).
    lifecycle = (
        coverage_mod.lifecycle_core(records) if outcome == "ok" else {}
    )
    return TaskRecord(
        key=task.key,
        kind=task.kind,
        pair=task.pair,
        engine=task.engine,
        tables=task.tables,
        fingerprint=fingerprint,
        attempt=attempt,
        budget_scale=config.retry_budget_scale ** attempt,
        outcome=outcome,
        wall_seconds=wall,
        peak_rss_kb=rss_kb,
        counters=counters,
        lifecycle=lifecycle,
        payload=payload,
        error=error,
    )


def _classify(
    result: Optional[Dict],
    exitcode: Optional[int],
    timed_out: bool,
    timeout: Optional[float],
) -> Tuple[str, Optional[Dict], int, str]:
    """Map a finished or killed attempt to ``(outcome, payload, rss_kb,
    error)``.

    A complete result counts even if the worker was killed between
    writing it and exiting; with no result, ``timed_out`` (the parent
    killed the worker at its deadline) separates a timeout from a
    crash.
    """
    if result is not None:
        rss_kb = int(result.get("peak_rss_kb", 0))
        if result.get("ok"):
            return "ok", result["payload"], rss_kb, ""
        error = result.get("error", f"worker exit code {exitcode}")
        return "crashed", None, rss_kb, error
    if timed_out:
        return (
            "timeout",
            None,
            0,
            f"exceeded task timeout of {timeout}s; worker killed",
        )
    return (
        "crashed",
        None,
        0,
        f"worker died with exit code {exitcode} and no result",
    )


def _spawn_attempt(
    task: TaskSpec,
    config: HarnessConfig,
    results_dir: str,
    attempt: int,
    started: Callable,
) -> Tuple[Optional[Dict], Optional[int], bool]:
    """One attempt in a spawned worker, waited for with a single join
    up to the task timeout; an overrunning worker is terminated, then
    killed.  Returns ``(result, exitcode, timed_out)``, where ``result``
    is None when the worker left no result file."""
    safe = task.key.replace(":", "_").replace("/", "_")
    result_path = os.path.join(results_dir, f"{safe}.{attempt}.json")
    # A file left by an earlier run must never be read as this
    # attempt's result.
    if os.path.exists(result_path):
        os.remove(result_path)
    process = _SPAWN.Process(
        target=_worker_main,
        args=(task, config.to_dict(), result_path),
        daemon=True,
    )
    process.start()
    started(process)
    process.join(config.task_timeout_seconds)
    timed_out = process.is_alive()
    if timed_out:
        process.terminate()
        process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join()
    try:
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except FileNotFoundError:
        result = None
    except ValueError as exc:
        result = {"ok": False, "error": f"unreadable worker result: {exc}"}
    return result, process.exitcode, timed_out


def run_cell(
    task: TaskSpec,
    config: HarnessConfig,
    results_dir: str,
    ledger_file: str,
    emit: Emit,
    pool: Optional[_Pool] = None,
) -> Optional[TaskRecord]:
    """Run one cell through every attempt it gets; the one place the
    retry, timeout and quarantine rules live.

    Attempt ``n`` runs with the budget scaled by
    ``retry_budget_scale ** n``: in this process (no ``pool``; no
    timeout, since only a process can be killed) or, for a ``pool``
    cell, in a spawned worker that writes
    ``<results_dir>/<key>.<n>.json``.  Every attempt's row is appended
    to ``ledger_file``; when all ``max_task_retries + 1`` attempts
    fail, one ``quarantined`` row follows.  Returns the ``ok`` or
    ``quarantined`` row, or None when the pool was stopped first: then
    no further attempt starts, and an attempt that did not succeed
    writes no row.
    """
    fingerprint = config.fingerprint()
    if pool is not None:
        os.makedirs(results_dir, exist_ok=True)
    for attempt in range(config.max_task_retries + 1):
        if pool is not None and pool.cancelled():
            return None
        attempt_config = _scaled_config(config, attempt)
        start = time.monotonic()
        if pool is None:
            # The JSON round-trip matches what a worker result file
            # goes through, keeping serial and parallel rows identical.
            result = json.loads(
                json.dumps(_attempt_result(task, attempt_config))
            )
            exitcode, timed_out = 0, False
        else:
            result, exitcode, timed_out = _spawn_attempt(
                task, attempt_config, results_dir, attempt, pool.started
            )
        wall = time.monotonic() - start
        outcome, payload, rss_kb, error = _classify(
            result, exitcode, timed_out, config.task_timeout_seconds
        )
        if outcome != "ok" and pool is not None and pool.cancelled():
            return None
        record = _record_for(
            task, fingerprint, attempt, config, outcome, wall,
            payload=payload, rss_kb=rss_kb, error=error,
        )
        ledger_mod.append_record(ledger_file, record)
        if outcome == "ok":
            emit(f"{task.key} ok ({wall:.1f}s)")
            return record
        emit(f"{task.key} {outcome} (attempt {attempt})")
    record = _record_for(
        task, fingerprint, attempt, config, "quarantined", 0.0,
        error=f"quarantined after {attempt + 1} attempt(s): {outcome}",
    )
    ledger_mod.append_record(ledger_file, record)
    emit(f"{task.key} quarantined")
    return record


def _run_serial(
    tasks: List[TaskSpec],
    config: HarnessConfig,
    ledger_file: str,
    run_dir: str,
    emit: Emit,
) -> None:
    """In-process execution (jobs=1): same cells, same JSON round-trip,
    same ledger as the parallel path."""
    results_dir = os.path.join(run_dir, "results")
    for task in tasks:
        run_cell(
            task, config, results_dir, ledger_file,
            lambda line: emit(f"[runner] {line}"),
        )


class _Pool:
    """The cells of :func:`_run_parallel`, handed out in task-graph
    order.  Once stopped it hands out none, no running cell starts
    another attempt or writes a failed row, and every live worker is
    killed."""

    def __init__(self, tasks: List[TaskSpec]):
        self._lock = threading.Lock()
        self._todo = iter(tasks)
        self._processes: List = []
        self._stopped = False

    def next_task(self) -> Optional[TaskSpec]:
        with self._lock:
            return None if self._stopped else next(self._todo, None)

    def cancelled(self) -> bool:
        return self._stopped

    def started(self, process) -> None:
        """A spawned attempt's worker ``process`` is running."""
        with self._lock:
            self._processes.append(process)
            if self._stopped:
                process.kill()

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for process in self._processes:
                process.kill()


def _run_parallel(
    tasks: List[TaskSpec],
    config: HarnessConfig,
    ledger_file: str,
    run_dir: str,
    emit: Emit,
) -> None:
    """``config.jobs`` threads take the cells in task-graph order and
    run each through :func:`run_cell` in spawned workers; the rows they
    append are then put back in task-graph order."""
    results_dir = os.path.join(run_dir, "results")
    start = os.path.getsize(ledger_file) if os.path.exists(ledger_file) else 0
    pool = _Pool(tasks)
    errors: List[BaseException] = []

    def drain() -> None:
        try:
            for task in iter(pool.next_task, None):
                run_cell(
                    task, config, results_dir, ledger_file,
                    lambda line: emit(f"[runner] {line}"), pool,
                )
        except Exception as exc:  # re-raised by the calling thread
            errors.append(exc)
            pool.stop()

    threads = [
        threading.Thread(target=drain, daemon=True)
        for _ in range(config.jobs)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    except BaseException:  # an interrupt: kill live workers, re-raise
        pool.stop()
        raise
    if errors:
        raise errors[0]
    ledger_mod.order_tail(ledger_file, start, [task.key for task in tasks])


def assemble_trace(
    run_dir: str,
    tasks: List[TaskSpec],
    records: List[TaskRecord],
    fingerprint: str,
) -> Optional[str]:
    """Merge per-task span records into ``<run_dir>/trace.jsonl``.

    Tasks are written in canonical task-graph order — never scheduling
    order — with each span tagged by its task key, so serial and
    parallel runs of the same deterministic config produce identical
    span trees modulo the ``wall*`` metadata fields.  Failed attempts
    contribute zero-duration ``task.crashed``/``task.timeout`` event
    records derived from durable ledger rows rather than live parent
    state, keeping scheduling events reproducible too.
    """
    completed = ledger_mod.completed_by_key(records, fingerprint)
    failures: Dict[str, List[TaskRecord]] = {}
    for record in records:
        if record.fingerprint != fingerprint:
            continue
        if record.outcome in ("crashed", "timeout"):
            failures.setdefault(record.key, []).append(record)
    merged: List[Dict] = []
    for task in tasks:
        for failure in sorted(
            failures.get(task.key, ()), key=lambda r: r.attempt
        ):
            event = make_span_record(
                seq=None,
                parent=None,
                name=f"task.{failure.outcome}",
                path=f"task.{failure.outcome}",
                attrs={"event": True, "attempt": failure.attempt},
                t0=None,
                t1=None,
                wall_ms=round(failure.wall_seconds * 1000.0, 3),
            )
            event["task"] = task.key
            merged.append(event)
        record = completed.get(task.key)
        if record is None:
            continue
        for span in record.payload.get("trace", ()):
            span = dict(span)
            span["task"] = task.key
            merged.append(span)
    path = os.path.join(run_dir, TRACE_NAME)
    write_trace_jsonl(path, merged)
    return path


def run_experiment(
    config: HarnessConfig, emit: Optional[Emit] = None
) -> RunResult:
    """Execute the experiment task graph; returns the full run ledger.

    With ``config.resume`` set, previously completed cells (matching
    the current config fingerprint) are skipped and new attempts append
    to the existing ledger.
    """
    emit = emit or (lambda line: None)
    fingerprint = config.fingerprint()
    run_id = config.resume or ledger_mod.new_run_id()
    run_dir = ledger_mod.run_directory(config.runs_dir, run_id)
    ledger_file = ledger_mod.ledger_path(config.runs_dir, run_id)
    os.makedirs(run_dir, exist_ok=True)

    prior_records: List[TaskRecord] = []
    torn = 0
    if config.resume:
        ledger_mod.terminate_torn_tail(ledger_file)
        prior_records, torn = ledger_mod.load_records(ledger_file)
        mismatched = {
            record.fingerprint
            for record in prior_records
            if record.fingerprint != fingerprint
        }
        if mismatched:
            raise ReproError(
                f"refusing to resume run {run_id!r}: ledger rows were "
                f"produced under config fingerprint(s) "
                f"{sorted(mismatched)} but the current config is "
                f"{fingerprint!r}"
            )
        if torn:
            emit(f"[runner] resume: ignored {torn} torn ledger line(s)")

    with open(
        os.path.join(run_dir, "config.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {"fingerprint": fingerprint, "config": config.to_dict()},
            handle,
            indent=2,
            sort_keys=True,
        )

    tasks = build_task_graph(config)
    completed = ledger_mod.completed_by_key(prior_records, fingerprint)
    todo = [task for task in tasks if task.key not in completed]
    if completed:
        emit(
            f"[runner] resume {run_id}: {len(completed)} cell(s) already "
            f"complete, {len(todo)} to run"
        )

    # Cache-first path (repro.harness.cache): hits land in the ledger
    # before any execution, misses run below.
    session = None
    if config.store_dir:
        from .cache import ServiceSession

        session = ServiceSession(config)
        todo = session.serve_cached(todo, ledger_file, emit)
        if session.hits:
            emit(
                f"[service] {session.hits} cell(s) from cache, "
                f"{len(todo)} to compute"
            )

    if todo:
        if config.jobs <= 1:
            _run_serial(todo, config, ledger_file, run_dir, emit)
        else:
            _run_parallel(todo, config, ledger_file, run_dir, emit)

    # Re-read the ledger: the file is the single source of truth the
    # report is assembled from (also exactly what resume would see).
    records, torn = ledger_mod.load_records(ledger_file)

    service_file = None
    if session is not None:
        if todo:
            stored = session.store_fresh(todo, records, fingerprint)
            if stored:
                emit(f"[service] stored {stored} fresh cell(s)")
        service_file = os.path.join(run_dir, "service.json")
        with open(service_file, "w", encoding="utf-8") as handle:
            json.dump(session.summary(), handle, indent=2, sort_keys=True)
    trace_file = None
    if config.profile:
        trace_file = assemble_trace(run_dir, tasks, records, fingerprint)
        emit(f"[runner] trace written to {trace_file}")
    return RunResult(
        run_id=run_id,
        run_dir=run_dir,
        ledger_file=ledger_file,
        records=records,
        torn_lines=torn,
        trace_file=trace_file,
        service_file=service_file,
    )
