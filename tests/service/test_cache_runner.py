"""Cache-first harness runs: warm runs must be byte-identical science.

The acceptance bar for the result cache: a warm-cache run computes
zero cells, replays the cold run's ledger rows verbatim, and renders
the identical report text (modulo the wall-clock footer, which is the
report analogue of WALL_TIME_FIELDS).  Cache counters live outside the
ledger and report, and are deterministic across ``--jobs`` levels.
"""

import io
import json
import os

import pytest

from repro.harness import run_all
from repro.harness.report import science_text

from tests.harness.test_runner import LEAN_BUDGET

CIRCUITS = ("dk16.ji.sd",)
TABLES = ("table1", "table2", "table6", "table8")
NUM_CELLS = 2  # table1 + hitec:dk16.ji.sd


@pytest.fixture
def tiny_run(tmp_path):
    import dataclasses

    from repro.harness.config import HarnessConfig

    base = HarnessConfig(
        budget=LEAN_BUDGET,
        max_faults=50,
        circuits=CIRCUITS,
        tables=TABLES,
    )

    def run(name, store, jobs=1):
        config = dataclasses.replace(
            base,
            runs_dir=str(tmp_path / name),
            store_dir=str(store),
            jobs=jobs,
        )
        report = run_all(config=config, stream=io.StringIO(), quiet=True)
        (run_id,) = os.listdir(config.runs_dir)
        return report, os.path.join(config.runs_dir, run_id)

    return run


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def service_summary(run_dir):
    return json.loads(read(os.path.join(run_dir, "service.json")))


class TestColdWarm:
    def test_warm_run_is_byte_identical_and_computes_nothing(
        self, tmp_path, tiny_run
    ):
        store = tmp_path / "store"

        cold_report, cold_dir = tiny_run("cold", store)
        cold = service_summary(cold_dir)
        assert cold["cache_hits"] == 0
        assert cold["cache_misses"] == NUM_CELLS
        assert cold["store"]["entries"] == NUM_CELLS

        warm_report, warm_dir = tiny_run("warm", store)
        warm = service_summary(warm_dir)
        assert warm["cache_hits"] == NUM_CELLS
        assert warm["cache_misses"] == 0

        # Ledger rows replay verbatim — the whole file is byte-equal,
        # wall-time fields included (they are the cold run's).
        assert read(os.path.join(warm_dir, "ledger.jsonl")) == read(
            os.path.join(cold_dir, "ledger.jsonl")
        )
        assert science_text(warm_report) == science_text(cold_report)

        # Parallel warm run: the probe happens parent-side in canonical
        # order, so counters and bytes are --jobs invariant.
        jobs4_report, jobs4_dir = tiny_run("warm-jobs4", store, jobs=4)
        assert service_summary(jobs4_dir) == warm
        assert read(os.path.join(jobs4_dir, "ledger.jsonl")) == read(
            os.path.join(cold_dir, "ledger.jsonl")
        )
        assert science_text(jobs4_report) == science_text(cold_report)

    def test_corrupt_entry_recomputes_only_that_cell(
        self, tmp_path, tiny_run
    ):
        from repro.service import ResultStore

        store = tmp_path / "store"
        _, cold_dir = tiny_run("cold", store)
        cold_ledger = read(os.path.join(cold_dir, "ledger.jsonl"))

        result_store = ResultStore(str(store))
        victim = next(iter(result_store.keys()))
        with open(result_store._object_path(victim), "w") as handle:
            handle.write("corrupted beyond recognition")

        warm_report, warm_dir = tiny_run("warm", store)
        warm = service_summary(warm_dir)
        assert warm["cache_hits"] == NUM_CELLS - 1
        assert warm["cache_misses"] == 1
        # The corrupt envelope was quarantined, then the recomputed
        # record stored back: the store heals to full occupancy.
        assert warm["store"]["entries"] == NUM_CELLS
        assert warm["store"]["quarantined"] == 1

        # Recomputed science matches the cold run modulo row order and
        # wall time (the recomputed row measures its own wall clock).
        cold_rows = {
            json.loads(line)["key"]: json.loads(line)
            for line in cold_ledger.splitlines()
        }
        for line in read(
            os.path.join(warm_dir, "ledger.jsonl")
        ).splitlines():
            row = json.loads(line)
            reference = cold_rows.pop(row["key"])
            for field in ("wall_seconds", "peak_rss_kb"):
                row.pop(field), reference.pop(field)
            assert row == reference
        assert cold_rows == {}

    def test_distinct_science_does_not_cross_hit(self, tmp_path, tiny_run):
        """A config change lands on different cell keys: the warm store
        of one science must not serve another."""
        import dataclasses

        from repro.harness.config import HarnessConfig

        store = tmp_path / "store"
        tiny_run("cold", store)

        changed = HarnessConfig(
            budget=LEAN_BUDGET,
            max_faults=40,  # different science
            circuits=CIRCUITS,
            tables=("table1",),
            runs_dir=str(tmp_path / "changed"),
            store_dir=str(store),
        )
        run_all(config=changed, stream=io.StringIO(), quiet=True)
        (run_id,) = os.listdir(changed.runs_dir)
        summary = service_summary(
            os.path.join(changed.runs_dir, run_id)
        )
        assert summary["cache_hits"] == 0
        assert summary["cache_misses"] == 1


class TestStoredV5Rows:
    def test_v5_entry_replays_as_fresh_v6_row(self, tmp_path):
        """A store filled before v6 holds rows carrying the derived
        perf/search cores, and one filled before v7 rows carrying a
        ``metrics`` registry dump; a cache hit replays either into the
        run ledger as exactly the row a fresh (v7) computation
        writes."""
        from repro.harness.cache import ServiceSession
        from repro.harness.config import HarnessConfig
        from repro.harness.runner import TaskSpec, _record_for

        config = HarnessConfig(
            budget=LEAN_BUDGET,
            circuits=CIRCUITS,
            tables=TABLES,
            store_dir=str(tmp_path / "store"),
        )
        task = TaskSpec(
            key="hitec:dk16.ji.sd",
            kind="hitec_pair",
            pair="dk16.ji.sd",
            engine="hitec",
            tables=("table2", "table6", "table8"),
        )
        counters = {
            "original": {
                "atpg.backtracks": 7,
                "search.invalid_events": 3,
            },
            "retimed": {"atpg.backtracks": 11},
        }
        fresh = _record_for(
            task, config.fingerprint(), 0, config, "ok", 1.5,
            payload={
                "counters": counters,
                "lifecycle": {"original": [{"fault": "x/0"}]},
                "tables": {"table2": [{"circuit": "dk16.ji.sd"}]},
            },
            rss_kb=4096,
        )
        metrics = {"atpg.backtracks{circuit=dk16.ji.sd,engine=hitec}": 18}
        v6 = dict(json.loads(fresh.to_json()), v=6, metrics=metrics)
        v5 = dict(
            v6,
            v=5,
            perf={
                "schema": 1,
                "counters": {
                    "original/atpg.backtracks": 7,
                    "original/search.invalid_events": 3,
                    "retimed/atpg.backtracks": 11,
                },
            },
            search={
                "schema": 1,
                "counters": {"original": {"search.invalid_events": 3}},
            },
        )
        for stored in (v5, v6):
            session = ServiceSession(config)
            session.store.put(session.cell_key(task), stored)

            ledger_file = str(tmp_path / f"ledger-v{stored['v']}.jsonl")
            assert session.serve_cached(
                [task], ledger_file, lambda _: None
            ) == []
            assert session.hits == 1
            assert read(ledger_file) == fresh.to_json() + "\n"
            replayed = json.loads(read(ledger_file))
            assert replayed["v"] == 7
            assert not {"perf", "search", "metrics"} & set(replayed)
