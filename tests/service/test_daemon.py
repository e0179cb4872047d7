"""Daemon job semantics and fault injection.

In-thread daemons cover the job table (submit/attach/cache-hit/cancel
and store write-back); a subprocess daemon covers the crash story —
SIGKILL mid-job must lose at most the in-flight attempt, and a restart
on the same store must serve everything already computed.
"""

import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.config import HarnessConfig
from repro.harness.runner import build_task_graph
from repro.harness.ledger import load_records
from repro.service import (
    ProtocolError,
    ResultStore,
    ServiceClient,
    ServiceError,
)
from repro.service import keys as service_keys

from tests.harness.test_runner import LEAN_BUDGET
from tests.service.helpers import running_daemon

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def tiny_config(tmp_path, **overrides):
    base = HarnessConfig(
        budget=LEAN_BUDGET,
        max_faults=50,
        circuits=("dk16.ji.sd",),
        tables=("table1", "table2", "table6", "table8"),
        runs_dir=str(tmp_path / "runs"),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def tasks_by_key(config):
    return {task.key: task for task in build_task_graph(config)}


def submit_args(task, config):
    """(cell, task_data, config_data) as the harness client sends them."""
    structures = None
    if task.pair is not None:
        from repro.harness.suite import build_pair

        pair = build_pair(task.pair, config.retime_target_ratio)
        structures = {
            "original": service_keys.circuit_structure_hash(
                pair.original_circuit
            ),
            "retimed": service_keys.circuit_structure_hash(
                pair.retimed_circuit
            ),
        }
    cell = service_keys.cell_key(task, config, structures)
    return cell, dataclasses.asdict(task), config.to_dict()


@pytest.fixture
def daemon(tmp_path):
    """An in-thread ServiceDaemon; yields (client, daemon handle)."""
    with running_daemon(tmp_path) as handles:
        yield handles


class TestJobSemantics:
    def test_submit_runs_and_stores(self, tmp_path, daemon):
        client, instance = daemon
        config = tiny_config(tmp_path)
        task = tasks_by_key(config)["table1"]
        cell, task_data, config_data = submit_args(task, config)

        response = client.submit(cell, task_data, config_data)
        assert response["cached"] is False
        result = client.result(response["job"], timeout=120.0)
        assert result["state"] == "done"
        record = result["record"]
        assert record["outcome"] == "ok"
        assert record["key"] == "table1"
        # The result is durably stored and the daemon ledger has the row.
        assert instance.store.get(cell) == record
        assert os.path.exists(instance.ledger_file)

        stats = client.stats()
        assert stats["completed"] == 1
        assert stats["cache_misses"] == 1
        assert stats["store"]["entries"] == 1

    def test_resubmit_is_cache_hit_with_identical_record(
        self, tmp_path, daemon
    ):
        client, _ = daemon
        config = tiny_config(tmp_path)
        task = tasks_by_key(config)["table1"]
        cell, task_data, config_data = submit_args(task, config)

        first = client.submit(cell, task_data, config_data)
        record = client.result(first["job"], timeout=120.0)["record"]

        again = client.submit(cell, task_data, config_data)
        assert again["cached"] is True
        assert again["state"] == "done"
        cached = client.result(again["job"], timeout=10.0)["record"]
        assert cached == record  # byte-identical science replay

        stats = client.stats()
        assert stats["cache_hits"] == 1
        assert stats["completed"] == 1  # the hit computed nothing

    def test_duplicate_in_flight_key_attaches(self, tmp_path, daemon):
        """Two clients racing on one cell cost one computation."""
        client, _ = daemon
        config = tiny_config(tmp_path)
        task = tasks_by_key(config)["hitec:dk16.ji.sd"]
        cell, task_data, config_data = submit_args(task, config)

        first = client.submit(cell, task_data, config_data)
        second = client.submit(cell, task_data, config_data)
        assert second.get("attached") is True
        assert second["job"] == first["job"]

        result = client.result(first["job"], timeout=300.0)
        assert result["state"] == "done"
        stats = client.stats()
        assert stats["attached"] == 1
        assert stats["cache_misses"] == 1
        assert stats["completed"] == 1
        assert stats["store"]["entries"] == 1

    def test_cancel_queued_job(self, tmp_path, daemon):
        """jobs=1: while the first cell runs, a queued second cell can
        be cancelled cleanly and never computes."""
        client, instance = daemon
        config = tiny_config(tmp_path)
        tasks = tasks_by_key(config)
        slow = submit_args(tasks["hitec:dk16.ji.sd"], config)
        quick = submit_args(tasks["table1"], config)

        running = client.submit(*slow)
        queued = client.submit(*quick)
        cancelled = client.cancel(queued["job"])
        assert cancelled["state"] == "cancelled"
        result = client.result(queued["job"], timeout=10.0)
        assert result["state"] == "cancelled"
        assert "record" not in result

        assert client.result(running["job"], timeout=300.0)["state"] == "done"
        stats = client.stats()
        assert stats["cancelled"] == 1
        assert instance.store.get(quick[0]) is None

    def test_bad_requests_are_clean_errors(self, daemon):
        client, _ = daemon
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})
        with pytest.raises(ServiceError, match="requires a cell key"):
            client.request({"op": "submit"})
        with pytest.raises(ServiceError, match="task and config"):
            client.request({"op": "submit", "cell": "ab" * 32})
        with pytest.raises(ServiceError, match="no job"):
            client.status("job-999")
        # The daemon survived all of it.
        assert client.ping()

    def test_corrupt_store_entry_recomputes(self, tmp_path, daemon):
        client, instance = daemon
        config = tiny_config(tmp_path)
        task = tasks_by_key(config)["table1"]
        cell, task_data, config_data = submit_args(task, config)

        record = client.result(
            client.submit(cell, task_data, config_data)["job"], timeout=120.0
        )["record"]
        with open(instance.store._object_path(cell), "w") as handle:
            handle.write("garbage")

        response = client.submit(cell, task_data, config_data)
        assert response["cached"] is False  # corruption = miss
        recomputed = client.result(response["job"], timeout=120.0)["record"]
        assert recomputed["counters"] == record["counters"]
        assert recomputed["payload"] == record["payload"]
        stats = client.stats()
        assert stats["store"]["quarantined"] == 1
        assert stats["store"]["entries"] == 1  # healed by the recompute


HANG = "tests.harness.hooks:hang_struct"


def struct_config(tmp_path, **overrides):
    return tiny_config(tmp_path, tables=("table5",), **overrides)


def ledger_rows(instance):
    if not os.path.exists(instance.ledger_file):
        return []
    records, _ = load_records(instance.ledger_file)
    return [(r.key, r.attempt, r.outcome) for r in records]


class TestAttemptLoop:
    def test_stale_result_of_another_cell_is_never_read(
        self, tmp_path, daemon
    ):
        """Two cells of one task key: the second one hangs and is
        killed, and must not come back with the first one's result."""
        client, instance = daemon
        config_a = struct_config(tmp_path)
        task = tasks_by_key(config_a)["struct:dk16.ji.sd"]
        cell_a, task_data, data_a = submit_args(task, config_a)
        done = client.result(
            client.submit(cell_a, task_data, data_a)["job"], timeout=120.0
        )
        assert done["state"] == "done"

        config_b = struct_config(
            tmp_path,
            max_faults=51,
            task_hook=HANG,
            task_timeout_seconds=2.0,
            max_task_retries=0,
        )
        cell_b, task_data, data_b = submit_args(task, config_b)
        assert cell_b != cell_a
        result = client.result(
            client.submit(cell_b, task_data, data_b)["job"], timeout=120.0
        )
        assert result["state"] == "failed"
        assert result["record"]["outcome"] == "quarantined"
        assert instance.store.get(cell_b) is None
        assert instance.store.get(cell_a) == done["record"]
        assert ledger_rows(instance) == [
            ("struct:dk16.ji.sd", 0, "ok"),
            ("struct:dk16.ji.sd", 0, "timeout"),
            ("struct:dk16.ji.sd", 0, "quarantined"),
        ]

    @pytest.mark.parametrize("retries", [0, 1])
    def test_cancel_running_job(self, tmp_path, daemon, retries):
        """Cancelling a running cell kills its worker; the attempt is
        neither retried nor quarantined and writes no row."""
        client, instance = daemon
        config = struct_config(
            tmp_path,
            task_hook=HANG,
            task_timeout_seconds=120.0,
            max_task_retries=retries,
        )
        task = tasks_by_key(config)["struct:dk16.ji.sd"]
        cell, task_data, config_data = submit_args(task, config)
        job_id = client.submit(cell, task_data, config_data)["job"]
        job = instance._jobs[job_id]
        deadline = time.monotonic() + 60.0
        while job.process is None or not job.process.is_alive():
            assert time.monotonic() < deadline
            time.sleep(0.02)

        client.cancel(job_id)
        result = client.result(job_id, timeout=60.0)
        assert result["state"] == "cancelled"
        assert "record" not in result
        stats = client.stats()
        assert (stats["cancelled"], stats["failed"]) == (1, 0)
        assert ledger_rows(instance) == []
        assert instance._m_retries.value == 0
        assert instance._m_quarantined.value == 0
        assert instance.store.get(cell) is None


class TestDaemonCrash:
    def _spawn(self, socket_path, store_dir):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "serve",
                "--socket",
                socket_path,
                "--store",
                store_dir,
                "--jobs",
                "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _wait_up(self, client):
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.ping()
                return
            except (ServiceError, ProtocolError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def test_sigkill_mid_job_then_restart_recovers(self, tmp_path):
        """Kill -9 while a cell is running: the client sees a clean
        error, nothing corrupt lands in the store, and a restarted
        daemon on the same store completes the work."""
        socket_path = str(tmp_path / "svc.sock")
        store_dir = str(tmp_path / "store")
        config = tiny_config(tmp_path)
        task = tasks_by_key(config)["hitec:dk16.ji.sd"]
        cell, task_data, config_data = submit_args(task, config)
        client = ServiceClient(socket_path, timeout=10.0)

        first = self._spawn(socket_path, store_dir)
        try:
            self._wait_up(client)
            submitted = client.submit(cell, task_data, config_data)
            deadline = time.monotonic() + 60.0
            while client.status(submitted["job"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=10.0)
        finally:
            if first.poll() is None:
                first.kill()

        # The socket file may linger, but the client error is clean.
        with pytest.raises(ServiceError, match="no daemon"):
            client.ping()
        # Nothing half-written: the store holds no entry for the cell.
        assert ResultStore(store_dir).get(cell) is None

        second = self._spawn(socket_path, store_dir)
        try:
            self._wait_up(client)
            response = client.submit(cell, task_data, config_data)
            result = client.result(response["job"], timeout=300.0)
            assert result["state"] == "done"
            assert result["record"]["outcome"] == "ok"
            assert ResultStore(store_dir).get(cell) == result["record"]
            client.shutdown()
            second.wait(timeout=30.0)
        finally:
            if second.poll() is None:
                second.kill()
                second.wait(timeout=10.0)
