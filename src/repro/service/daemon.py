"""The long-lived ATPG service daemon.

``python -m repro.service serve --store <dir> --socket <path>`` runs a
:class:`ServiceDaemon`: a threaded unix-domain socket server speaking
the line-delimited JSON protocol of :mod:`repro.service.client`, in
front of ``jobs`` worker threads.  Each thread takes the next queued
job and runs its cell through :func:`repro.harness.runner.run_cell`,
the same attempt loop a local run uses: spawned worker, per-task
timeout kill, retry with ``budget.scaled``, and one quarantine row when
every attempt fails.  The daemon only adds hooks around that loop
(telemetry events, the live worker that ``cancel`` terminates, the
cancel check), a results directory per cell key, and the store write.

Job semantics:

* **submit** with a cell key already in the store answers a completed
  job immediately (``cached: true``) — the daemon never recomputes a
  known cell;
* **submit** with a cell key already queued or running attaches to the
  existing job (``attached: true``) — concurrent clients cost one
  computation per key, never two;
* every completed attempt is appended to the daemon's own durable
  ledger (``<work_dir>/ledger.jsonl``), and successful records are
  written to the content-addressed store, so a daemon killed mid-job
  loses at most the in-flight attempt — never a stored result;
* **cancel** of a running job terminates its worker; the cancelled
  attempt is neither retried nor quarantined and writes no ledger row.

All science runs in spawned worker processes from ``(task, config)``
alone, so daemon-computed records are byte-identical to local-runner
records for the same cell key.

Telemetry plane (all advisory, never science):

* every protocol request bumps a per-op counter on the daemon's
  :class:`~repro.obs.MetricsRegistry`; queue depth, worker liveness
  and job latency histograms ride alongside, and the ``metrics`` op
  renders the registry Prometheus-style
  (:func:`repro.obs.metrics.render_exposition`).  The ``metrics`` op
  itself is observation-only — it increments nothing, so a quiesced
  daemon scrapes byte-identically;
* each job's lifecycle is appended to ``<work_dir>/telemetry.jsonl``
  (:class:`~repro.obs.telemetry.TelemetryLog`): submitted / cached /
  attached / started / retried / quarantined / cancelled / finished
  events with monotonic timestamps and the trace context the client
  stamped into the submit, so
  :func:`repro.obs.telemetry.assemble_job_trace` can rebuild one
  unified trace per job (client submit span → daemon queue/execute
  spans → worker span tree);
* a watchdog thread periodically flags over-deadline jobs and dead
  worker threads into gauges and ``watchdog`` events.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socketserver
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..obs import MetricsRegistry
from ..obs.metrics import render_exposition
from ..obs.telemetry import (
    LATENCY_BUCKETS,
    TELEMETRY_NAME,
    TelemetryLog,
    TraceContext,
    gen_span_id,
)
from .client import recv_message, send_message
from .store import ResultStore

#: Job lifecycle states (terminal: done / failed / cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Every protocol op (per-op request counters are pre-registered so an
#: exposition lists them all, scraped cold or warm).
PROTOCOL_OPS = (
    "ping",
    "submit",
    "status",
    "result",
    "cancel",
    "stats",
    "metrics",
    "shutdown",
)

#: What ``stats`` shows for a worker thread with no job.
_IDLE = {"state": "idle", "job": None, "cell": None, "task": None}


@dataclasses.dataclass
class _Job:
    """One submitted cell, from queue to terminal state."""

    id: str
    cell: str
    task_data: Dict[str, Any]
    config_data: Dict[str, Any]
    state: str = "queued"
    submitted: float = 0.0
    record: Optional[Dict[str, Any]] = None
    error: str = ""
    cancel_requested: bool = False
    process: Optional[Any] = None  # live worker process while running
    # -- telemetry (advisory) ------------------------------------------
    trace_id: str = ""
    client_span: str = ""
    queue_span: str = ""
    started: float = 0.0  # monotonic, first execution attempt
    attempts: int = 0
    worker: Optional[int] = None

    def public(self) -> Dict[str, Any]:
        return {
            "job": self.id,
            "cell": self.cell,
            "task": self.task_data.get("key"),
            "state": self.state,
            "error": self.error,
            "trace_id": self.trace_id,
        }


class ServiceDaemon:
    """Worker pool + job table + protocol server behind one socket."""

    def __init__(
        self,
        socket_path: str,
        store_dir: str,
        jobs: int = 1,
        work_dir: Optional[str] = None,
        emit: Optional[Callable[[str], None]] = None,
        watchdog_interval: float = 5.0,
    ):
        self.socket_path = socket_path
        self.store = ResultStore(store_dir)
        self.jobs = max(1, jobs)
        self.work_dir = work_dir or os.path.join(store_dir, "daemon")
        self.ledger_file = os.path.join(self.work_dir, "ledger.jsonl")
        self.emit = emit or (lambda line: None)

        self._lock = threading.Lock()
        self._queue_ready = threading.Condition(self._lock)
        self._jobs: Dict[str, _Job] = {}
        self._by_cell: Dict[str, str] = {}  # in-flight cell key -> job id
        self._queue: List[str] = []
        self._counter = 0
        self._started = time.monotonic()
        self._started_wall = time.time()
        self._stats = {
            "submitted": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "attached": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        self._shutdown = threading.Event()
        self._server: Optional[socketserver.ThreadingUnixStreamServer] = None
        self._workers: List[threading.Thread] = []

        # -- telemetry plane (advisory; see module docstring) ----------
        self.watchdog_interval = watchdog_interval
        self.telemetry = TelemetryLog(
            os.path.join(self.work_dir, TELEMETRY_NAME)
        )
        self.metrics = MetricsRegistry()
        # Eager registration: every instrument appears in an exposition
        # from the first scrape, value 0 — scrapers never see a key
        # come and go.
        self._m_hits = self.metrics.counter("service.cache_hits")
        self._m_misses = self.metrics.counter("service.cache_misses")
        self._m_attached = self.metrics.counter("service.attached")
        self._m_completed = self.metrics.counter("service.jobs_completed")
        self._m_failed = self.metrics.counter("service.jobs_failed")
        self._m_cancelled = self.metrics.counter("service.jobs_cancelled")
        self._m_retries = self.metrics.counter("service.retries")
        self._m_quarantined = self.metrics.counter("service.quarantined")
        self._m_queue_depth = self.metrics.gauge("service.queue_depth")
        self._m_running = self.metrics.gauge("service.jobs_running")
        self._m_workers = self.metrics.gauge("service.workers")
        self._m_workers.set(self.jobs)
        self._m_workers_alive = self.metrics.gauge("service.workers_alive")
        self._m_over_deadline = self.metrics.gauge(
            "service.jobs_over_deadline"
        )
        self._m_latency = self.metrics.histogram(
            "service.job_seconds", bounds=LATENCY_BUCKETS
        )
        self._m_queue_wait = self.metrics.histogram(
            "service.queue_seconds", bounds=LATENCY_BUCKETS
        )
        for op in PROTOCOL_OPS:
            self.metrics.counter("service.requests", op=op)
        for index in range(self.jobs):
            self.metrics.gauge("service.worker_busy", worker=index)
        self._worker_state: Dict[int, Dict[str, Any]] = {
            index: dict(_IDLE) for index in range(self.jobs)
        }
        self._watchdog_flagged: set = set()
        self._dead_workers: set = set()

    # -- protocol dispatch ---------------------------------------------

    def handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        handlers = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "status": self._op_status,
            "result": self._op_status,  # result = status + record
            "cancel": self._op_cancel,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }
        handler = handlers.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        if op != "metrics":
            # The metrics op is observation-only: counting it would make
            # the scrape perturb its own output, and a quiesced daemon
            # must expose byte-identical text on every scrape.
            with self._lock:
                self.metrics.counter("service.requests", op=op).inc()
        try:
            return handler(message)
        except Exception as exc:  # a bad request must not kill the daemon
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "pid": os.getpid()}

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        cell = message.get("cell")
        task_data = message.get("task")
        config_data = message.get("config")
        if not isinstance(cell, str) or not cell:
            return {"ok": False, "error": "submit requires a cell key"}
        if not isinstance(task_data, dict) or not isinstance(
            config_data, dict
        ):
            return {
                "ok": False,
                "error": "submit requires task and config objects",
            }
        # The client stamps each submit with a trace context; a submit
        # without one still gets a daemon-minted trace so every job is
        # traceable.
        context = TraceContext.from_dict(message.get("telemetry"))
        if context is None:
            context = TraceContext.new()
        with self._lock:
            self._stats["submitted"] += 1
            # Store hit: answer a synthetic completed job, no work.
            cached = self.store.get(cell)
            if cached is not None:
                self._stats["cache_hits"] += 1
                self._m_hits.inc()
                job = self._new_job(cell, task_data, config_data)
                job.state = "done"
                job.record = cached
                job.trace_id = context.trace_id
                job.client_span = context.span_id
                self.telemetry.event(
                    "cached",
                    job=job.id,
                    cell=cell,
                    task=job.task_data.get("key"),
                    trace_id=job.trace_id,
                    client_span=job.client_span,
                )
                response = job.public()
                response.update({"ok": True, "cached": True})
                return response
            # In-flight dedup: attach to the existing job for this key.
            existing = self._by_cell.get(cell)
            if existing is not None:
                self._stats["attached"] += 1
                self._m_attached.inc()
                job = self._jobs[existing]
                self.telemetry.event(
                    "attached",
                    job=job.id,
                    cell=cell,
                    task=job.task_data.get("key"),
                    trace_id=context.trace_id,
                    client_span=context.span_id,
                )
                response = job.public()
                response.update({"ok": True, "cached": False, "attached": True})
                return response
            self._stats["cache_misses"] += 1
            self._m_misses.inc()
            job = self._new_job(cell, task_data, config_data)
            job.trace_id = context.trace_id
            job.client_span = context.span_id
            job.queue_span = gen_span_id()
            self._by_cell[cell] = job.id
            self._queue.append(job.id)
            self._m_queue_depth.set(len(self._queue))
            self.telemetry.event(
                "submitted",
                job=job.id,
                cell=cell,
                task=job.task_data.get("key"),
                trace_id=job.trace_id,
                client_span=job.client_span,
                queue_span=job.queue_span,
            )
            self._queue_ready.notify()
            response = job.public()
            response.update({"ok": True, "cached": False, "attached": False})
            return response

    def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(message.get("job"))
            if job is None:
                return {"ok": False, "error": f"no job {message.get('job')!r}"}
            response = job.public()
            response["ok"] = True
            if message.get("op") == "result" and job.record is not None:
                response["record"] = job.record
            return response

    def _op_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(message.get("job"))
            if job is None:
                return {"ok": False, "error": f"no job {message.get('job')!r}"}
            if job.state == "queued":
                self._queue.remove(job.id)
                self._m_queue_depth.set(len(self._queue))
                self.telemetry.event(
                    "cancelled", job=job.id, cell=job.cell, state="queued",
                    trace_id=job.trace_id,
                )
                self._finish(job, "cancelled", error="cancelled while queued")
            elif job.state == "running":
                job.cancel_requested = True
                self.telemetry.event(
                    "cancelled", job=job.id, cell=job.cell, state="running",
                    trace_id=job.trace_id,
                )
                if job.process is not None and job.process.is_alive():
                    job.process.terminate()
            response = job.public()
            response["ok"] = True
            return response

    def _op_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            running = sum(
                1 for job in self._jobs.values() if job.state == "running"
            )
            stats = dict(self._stats)
            stats.update(
                {
                    "queue_depth": len(self._queue),
                    "running": running,
                    "workers": self.jobs,
                    "uptime_seconds": round(
                        time.monotonic() - self._started, 3
                    ),
                    # -- daemon identity (the `--watch` header) --------
                    "pid": os.getpid(),
                    "started_unix": round(self._started_wall, 3),
                    "socket": self.socket_path,
                    "work_dir": self.work_dir,
                    "telemetry_file": self.telemetry.path,
                    "workers_detail": [
                        dict(self._worker_state[index], worker=index)
                        for index in sorted(self._worker_state)
                    ],
                    "store": self.store.stats().to_dict(),
                }
            )
        return {"ok": True, "stats": stats}

    def _op_metrics(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Prometheus-style exposition of the daemon registry.

        Observation-only: refreshes the point-in-time gauges and
        renders — nothing is incremented, so repeated scrapes of a
        quiesced daemon return byte-identical text.
        """
        with self._lock:
            self._refresh_gauges()
            dump = self.metrics.dump()
        return {
            "ok": True,
            "exposition": render_exposition(dump),
            "metrics": dump,
        }

    def _refresh_gauges(self) -> None:
        """Point-in-time gauges (caller holds the lock)."""
        self._m_queue_depth.set(len(self._queue))
        self._m_running.set(
            sum(1 for job in self._jobs.values() if job.state == "running")
        )
        if self._workers:
            self._m_workers_alive.set(
                sum(1 for thread in self._workers if thread.is_alive())
            )
        for index, state in self._worker_state.items():
            self.metrics.gauge("service.worker_busy", worker=index).set(
                1 if state["state"] == "running" else 0
            )

    def _op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._shutdown.set()
        with self._lock:
            self._queue_ready.notify_all()
        if self._server is not None:
            # shutdown() must come from another thread than the handler.
            threading.Thread(
                target=self._server.shutdown, daemon=True
            ).start()
        return {"ok": True}

    # -- job table ------------------------------------------------------

    def _new_job(self, cell, task_data, config_data) -> _Job:
        self._counter += 1
        job = _Job(
            id=f"job-{self._counter}",
            cell=cell,
            task_data=task_data,
            config_data=config_data,
            submitted=time.monotonic(),
        )
        self._jobs[job.id] = job
        return job

    def _finish(
        self,
        job: _Job,
        state: str,
        record: Optional[Dict[str, Any]] = None,
        error: str = "",
    ) -> None:
        """Move a job to a terminal state (caller holds the lock)."""
        job.state = state
        job.record = record
        job.error = error
        job.process = None
        if self._by_cell.get(job.cell) == job.id:
            del self._by_cell[job.cell]
        key = {"done": "completed", "failed": "failed", "cancelled": "cancelled"}
        self._stats[key[state]] += 1
        {
            "done": self._m_completed,
            "failed": self._m_failed,
            "cancelled": self._m_cancelled,
        }[state].inc()
        latency = time.monotonic() - job.submitted
        self._m_latency.observe(latency)
        self.telemetry.event(
            "finished",
            job=job.id,
            cell=job.cell,
            task=job.task_data.get("key"),
            state=state,
            error=error,
            attempts=job.attempts,
            latency_seconds=round(latency, 6),
            trace_id=job.trace_id,
        )

    # -- worker pool ----------------------------------------------------

    def _worker_loop(self, index: int = 0) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown.is_set():
                    self._queue_ready.wait(0.2)
                if self._shutdown.is_set() and not self._queue:
                    self._worker_state[index] = dict(_IDLE)
                    return
                job = self._jobs[self._queue.pop(0)]
                job.state = "running"
                job.worker = index
                job.started = time.monotonic()
                self._m_queue_depth.set(len(self._queue))
                self._m_queue_wait.observe(job.started - job.submitted)
                self._worker_state[index] = {
                    "state": "running",
                    "job": job.id,
                    "cell": job.cell,
                    "task": job.task_data.get("key"),
                }
            try:
                self._execute(job)
            except Exception as exc:  # defensive: keep the pool alive
                with self._lock:
                    self._finish(
                        job, "failed", error=f"daemon execution error: {exc}"
                    )
            finally:
                with self._lock:
                    self._worker_state[index] = dict(_IDLE)

    def _execute(self, job: _Job) -> None:
        """One cell through the runner's attempt loop; the daemon adds
        telemetry, cancel, its own ledger and the store write."""
        # Imported here, not at module top: repro.harness.config imports
        # repro.service for the shared key schema.
        from ..harness.config import HarnessConfig
        from ..harness.runner import TaskSpec, run_cell

        task_data = dict(job.task_data)
        task_data["tables"] = tuple(task_data.get("tables") or ())
        task = TaskSpec(**task_data)
        config = HarnessConfig.from_dict(job.config_data)
        record = run_cell(
            task,
            config,
            # Per cell: two in-flight cells may share a task key.
            os.path.join(self.work_dir, "results", job.cell),
            self.ledger_file,
            lambda line: self.emit(f"[daemon] {line}"),
            spawn=True,
            hooks=_JobHooks(self, job),
        )
        if record is None:
            state, data, error = "cancelled", None, "cancelled"
        elif record.outcome == "ok":
            state, data, error = "done", json.loads(record.to_json()), ""
            self.store.put(job.cell, data)
        else:
            state, data = "failed", json.loads(record.to_json())
            error = f"quarantined after {record.attempt + 1} attempt(s)"
        with self._lock:
            self._finish(job, state, record=data, error=error)

    # -- health watchdog -------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._shutdown.wait(self.watchdog_interval):
            try:
                self.run_watchdog_scan()
            except Exception:  # pragma: no cover - watchdog must not die
                pass

    def run_watchdog_scan(self) -> Dict[str, int]:
        """One health sweep: flag over-deadline jobs and dead workers.

        A running job is over-deadline when its total running time
        exceeds the full retry envelope its own config allows
        (``task_timeout_seconds × (max_task_retries + 1)``, plus one
        watchdog interval of grace) — the per-attempt timeout kill is
        the runner's job, the watchdog catches a *stuck pipeline* (a
        kill that never completed, a worker thread wedged between
        attempts).  Each condition is flagged once per job/worker into
        a ``watchdog`` event; the gauges always reflect the current
        census.  Public and synchronous so tests (and operators via the
        REPL) can run a sweep deterministically.
        """
        now = time.monotonic()
        flagged = {"over_deadline": 0, "dead_workers": 0}
        with self._lock:
            for job in self._jobs.values():
                if job.state != "running" or not job.started:
                    continue
                timeout = job.config_data.get("task_timeout_seconds")
                if not timeout:
                    continue
                retries = int(job.config_data.get("max_task_retries", 0))
                allowed = (
                    timeout * (retries + 1) + self.watchdog_interval
                )
                overrun = now - job.started - allowed
                if overrun <= 0:
                    continue
                flagged["over_deadline"] += 1
                if job.id not in self._watchdog_flagged:
                    self._watchdog_flagged.add(job.id)
                    self.telemetry.event(
                        "watchdog",
                        kind="job_over_deadline",
                        job=job.id,
                        cell=job.cell,
                        worker=job.worker,
                        overrun_seconds=round(overrun, 3),
                        trace_id=job.trace_id,
                    )
                    self.emit(
                        f"[daemon] watchdog: job {job.id} over deadline "
                        f"by {overrun:.1f}s"
                    )
            self._m_over_deadline.set(flagged["over_deadline"])
            for index, thread in enumerate(self._workers):
                if thread.is_alive() or self._shutdown.is_set():
                    continue
                flagged["dead_workers"] += 1
                if index not in self._dead_workers:
                    self._dead_workers.add(index)
                    self.telemetry.event(
                        "watchdog",
                        kind="worker_dead",
                        worker=index,
                        last=dict(self._worker_state.get(index) or {}),
                    )
                    self.emit(f"[daemon] watchdog: worker {index} died")
            self._refresh_gauges()
        return flagged

    # -- server ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Bind the socket, start the pool, and serve until shutdown."""
        daemon = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                with self.request.makefile(
                    "rw", encoding="utf-8", newline="\n"
                ) as handle:
                    try:
                        while True:
                            try:
                                message = recv_message(handle)
                            except Exception as exc:
                                send_message(
                                    handle, {"ok": False, "error": str(exc)}
                                )
                                return
                            if message is None:
                                return
                            send_message(
                                handle, daemon.handle_message(message)
                            )
                    except (BrokenPipeError, ConnectionResetError):
                        return

        class Server(socketserver.ThreadingUnixStreamServer):
            daemon_threads = True
            allow_reuse_address = True

        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        os.makedirs(
            os.path.dirname(os.path.abspath(self.socket_path)), exist_ok=True
        )
        self._server = Server(self.socket_path, Handler)
        for index in range(self.jobs):
            thread = threading.Thread(
                target=self._worker_loop, args=(index,), daemon=True
            )
            thread.start()
            self._workers.append(thread)
        watchdog = threading.Thread(target=self._watchdog_loop, daemon=True)
        watchdog.start()
        self.telemetry.event(
            "daemon.start",
            pid=os.getpid(),
            socket=self.socket_path,
            store=self.store.root,
            workers=self.jobs,
        )
        self.emit(
            f"[daemon] serving on {self.socket_path} "
            f"(store={self.store.root}, workers={self.jobs})"
        )
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._shutdown.set()
            with self._lock:
                self._queue_ready.notify_all()
            for thread in self._workers:
                thread.join(timeout=5.0)
            watchdog.join(timeout=5.0)
            self._server.server_close()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self.telemetry.event("daemon.stop", pid=os.getpid())
            self.telemetry.close()


class _JobHooks:
    """The daemon's additions to :func:`repro.harness.runner.run_cell`
    for one job (see :class:`repro.harness.runner.CellHooks`)."""

    def __init__(self, daemon: ServiceDaemon, job: _Job):
        self.daemon, self.job = daemon, job

    def cancelled(self) -> bool:
        return self.job.cancel_requested

    def _event(self, kind: str, **fields: Any) -> None:
        """One job telemetry event (caller holds the daemon lock)."""
        job = self.job
        self.daemon.telemetry.event(
            kind, job=job.id, cell=job.cell, trace_id=job.trace_id, **fields
        )

    def started(self, attempt: int, process) -> None:
        job = self.job
        with self.daemon._lock:
            job.attempts += 1
            job.process = process
            if job.cancel_requested:
                process.terminate()  # the cancel came during the spawn
            self._event(
                "started", task=job.task_data.get("key"), attempt=attempt,
                worker=job.worker, exec_span=gen_span_id(),
            )

    def failed(self, attempt: int, outcome: str, error: str) -> None:
        with self.daemon._lock:
            self.daemon._m_retries.inc()
            self._event(
                "retried", attempt=attempt, outcome=outcome, error=error
            )

    def quarantined(self, attempt: int) -> None:
        with self.daemon._lock:
            self.daemon._m_quarantined.inc()
            self._event("quarantined", attempt=attempt)
