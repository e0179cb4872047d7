"""Cache-first execution: the harness in front of repro.service's store.

With ``config.store_dir`` set, :func:`repro.harness.runner
.run_experiment` routes every to-do cell through a
:class:`ServiceSession` before computing anything:

* each cell's canonical content address is built by
  :func:`repro.service.keys.cell_key` (task coordinates × science
  config × circuit structure hashes — the parent synthesizes the pair
  once, through the in-process suite cache, to hash its structure);
* cells already in the store append their cached
  :class:`~repro.harness.ledger.TaskRecord` to the run ledger verbatim
  — report assembly and resume then treat them exactly like freshly
  computed rows, so a warm run's tables and reports are byte-identical
  to the cold run that populated the store;
* cache misses execute as usual, in-process at ``jobs=1`` or in the
  spawned-worker pool otherwise, and their successful records are
  stored for every later run.

Cache traffic is counted in the session's ``hits`` / ``misses``,
written to ``<run_dir>/service.json`` as ``cache_hits`` /
``cache_misses``.  Probing happens in canonical task order in the
parent, so the counts are deterministic across ``--jobs`` levels; they
never enter ledger rows or the report text (which must stay
byte-identical between cold and warm runs).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List

from ..service import ResultStore
from ..service import keys as service_keys
from . import ledger as ledger_mod
from .config import HarnessConfig
from .ledger import TaskRecord
from .suite import build_pair

Emit = Callable[[str], None]


class ServiceSession:
    """One run's view of the result cache at ``config.store_dir``."""

    def __init__(self, config: HarnessConfig):
        self.config = config
        self.store = ResultStore(config.store_dir)
        self.hits = 0
        self.misses = 0
        self._cell_keys: Dict[str, str] = {}

    # -- keys ----------------------------------------------------------

    def cell_key(self, task) -> str:
        """Content address of one task cell (memoized per task key)."""
        if task.key not in self._cell_keys:
            structures = None
            if task.pair is not None:
                pair = build_pair(
                    task.pair, self.config.retime_target_ratio
                )
                structures = {
                    "original": service_keys.circuit_structure_hash(
                        pair.original_circuit
                    ),
                    "retimed": service_keys.circuit_structure_hash(
                        pair.retimed_circuit
                    ),
                }
            self._cell_keys[task.key] = service_keys.cell_key(
                task, self.config, structures
            )
        return self._cell_keys[task.key]

    # -- cache probe ---------------------------------------------------

    def serve_cached(self, tasks: List, ledger_file: str, emit: Emit) -> List:
        """Append cache hits to the run ledger; returns the misses.

        Probes in canonical task order so hit/miss counts are
        scheduling-independent.
        """
        remaining = []
        for task in tasks:
            data = self.store.get(self.cell_key(task))
            if data is None:
                self.misses += 1
                remaining.append(task)
                continue
            ledger_mod.append_record(ledger_file, TaskRecord.from_dict(data))
            self.hits += 1
            emit(f"[service] {task.key} served from cache")
        return remaining

    # -- write-back ----------------------------------------------------

    def store_fresh(
        self, tasks: List, records: List[TaskRecord], fingerprint: str
    ) -> int:
        """Persist the successful records of locally computed cells;
        returns how many entries were written."""
        completed = ledger_mod.completed_by_key(records, fingerprint)
        stored = 0
        for task in tasks:
            record = completed.get(task.key)
            if record is None:
                continue
            self.store.put(
                self.cell_key(task), json.loads(record.to_json())
            )
            stored += 1
        return stored

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict:
        """JSON-able session summary (written to ``service.json``)."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "store": self.store.stats().to_dict(),
        }
