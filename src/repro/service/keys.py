"""Canonical cell-key schema shared by resume and the result cache.

Three layers, each hashed over a canonical (sorted-keys, separator-
free) JSON payload:

* :func:`science_payload` / :func:`config_fingerprint` — the
  result-affecting subset of a :class:`~repro.harness.config
  .HarnessConfig` (its ``SCIENCE_FIELDS``).  This *is* the ledger
  fingerprint: ``HarnessConfig.fingerprint()`` delegates here, so the
  ``--resume`` notion of "same configuration" and the cache notion are
  one function.
* :func:`circuit_structure_hash` — a canonical hash of a gate-level
  netlist (nodes in insertion order with kind/gate/fanin/init, primary
  inputs and outputs).  Node *names* are included deliberately: fault
  sites are named, so an alpha-renamed circuit is a different
  experiment cell.
* :func:`cell_key` — the content address of one experiment cell: the
  task coordinates (kind, task key, engine, pair), the science
  payload, and the structure hashes of every circuit the cell runs on.
  Two runs — any preset, any ``--jobs``, any machine — that agree on
  this key compute byte-identical science, so the store may serve
  either one's :class:`~repro.harness.ledger.TaskRecord` for the
  other.

This module must stay import-light (no :mod:`repro.harness` imports):
the harness imports *us* to build fingerprints.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

#: Bumped whenever the cell-key payload schema changes shape — or when
#: stored rows gain a field that cannot be synthesized on load (v2:
#: ledger RECORD_VERSION 5 added per-fault ``lifecycle`` records; a
#: store of v4 rows must miss and recompute, not serve rows with empty
#: forensics).  Part of every payload, so old store entries miss
#: rather than mis-hit.
KEY_SCHEMA_VERSION = 2


def canonical_json(payload: Any) -> str:
    """The one JSON spelling every key hash is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any, length: Optional[int] = None) -> str:
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    text = digest.hexdigest()
    return text[:length] if length else text


def science_payload(config) -> Dict[str, Any]:
    """The result-affecting fields of a harness config, as JSON-able
    data (``config`` is duck-typed: ``to_dict()`` + ``SCIENCE_FIELDS``,
    so this works on anything shaped like a HarnessConfig)."""
    data = config.to_dict()
    return {field: data[field] for field in config.SCIENCE_FIELDS}


def config_fingerprint(config) -> str:
    """Hash of every result-affecting config field.

    Byte-compatible with the pre-service ``HarnessConfig.fingerprint``
    (16 hex chars over the sorted science payload): committed ledgers,
    perf baselines and ``--resume`` ids stay valid.
    """
    return _digest(science_payload(config), length=16)


def circuit_structure_hash(circuit) -> str:
    """Canonical structural hash of a :class:`~repro.circuit.netlist
    .Circuit` (any mutation that changes simulation or fault semantics
    changes the hash)."""
    nodes = [
        [
            node.name,
            node.kind.value,
            node.gate.name if node.gate is not None else None,
            list(node.fanin),
            node.init,
        ]
        for node in circuit.nodes()
    ]
    payload = {
        "name": circuit.name,
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "nodes": nodes,
    }
    return _digest(payload)


def cell_key_payload(
    task,
    config,
    structures: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """The full (pre-hash) content-address payload of one cell.

    ``task`` is duck-typed on the runner's ``TaskSpec`` fields (``key``,
    ``kind``, ``pair``, ``engine``); ``structures`` maps a scope name
    (``"original"``/``"retimed"``) to a :func:`circuit_structure_hash`
    for every circuit the cell runs on, or is None for cells whose
    circuits are fully determined by the science payload alone.
    """
    return {
        "schema": KEY_SCHEMA_VERSION,
        "task": {
            "key": task.key,
            "kind": task.kind,
            "pair": task.pair,
            "engine": task.engine,
        },
        "science": science_payload(config),
        "structures": dict(structures) if structures else None,
    }


def cell_key(
    task,
    config,
    structures: Optional[Mapping[str, str]] = None,
) -> str:
    """The content address (64 hex chars) of one experiment cell."""
    return _digest(cell_key_payload(task, config, structures))
