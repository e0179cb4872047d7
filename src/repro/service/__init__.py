"""Content-addressed result cache for experiment cells.

The harness ledger already fingerprints every (circuit pair × engine ×
config) cell; this package promotes that fingerprint into a cache key,
so any cell ever computed — across runs, presets and users — is served
from the store instead of recomputed:

* :mod:`repro.service.keys` — the **one** canonical cell-key schema.
  ``HarnessConfig.fingerprint()`` and the resume path of
  :func:`repro.harness.ledger.completed_by_key` delegate here, so the
  run-resume notion of "same cell" and the cache notion of "same cell"
  can never disagree.
* :mod:`repro.service.store` — content-addressed on-disk store of full
  :class:`~repro.harness.ledger.TaskRecord` rows with atomic fsync'd
  writes, integrity hashes and corruption quarantine.

The harness's cache-first execution path
(:func:`repro.harness.experiment.run_all` with ``store_dir`` set, see
:mod:`repro.harness.cache`) probes the store before running anything
and stores every fresh success back.
"""

from .keys import (
    KEY_SCHEMA_VERSION,
    cell_key,
    cell_key_payload,
    circuit_structure_hash,
    config_fingerprint,
    science_payload,
)
from .store import ResultStore, StoreStats

__all__ = [
    "KEY_SCHEMA_VERSION",
    "ResultStore",
    "StoreStats",
    "cell_key",
    "cell_key_payload",
    "circuit_structure_hash",
    "config_fingerprint",
    "science_payload",
]
