"""Canonical cell-key schema: the one hash resume and the cache share."""

import dataclasses
import hashlib
import json

from repro.harness.config import HarnessConfig
from repro.harness.runner import TaskSpec, build_task_graph
from repro.harness.suite import build_pair
from repro.service import keys

#: The quick preset's fingerprint as committed ledgers/baselines carry
#: it.  This constant pins byte-compatibility of the shared key module
#: with the pre-service ``HarnessConfig.fingerprint()`` — if it ever
#: changes, every committed run id and perf baseline silently expires.
QUICK_FINGERPRINT = "019f0c7e975f5b5b"


def lean_cfg(**overrides):
    base = HarnessConfig.quick()
    return dataclasses.replace(base, **overrides) if overrides else base


class TestConfigFingerprint:
    def test_quick_preset_fingerprint_is_pinned(self):
        assert HarnessConfig.quick().fingerprint() == QUICK_FINGERPRINT

    def test_matches_legacy_hand_computation(self):
        config = lean_cfg()
        data = config.to_dict()
        payload = {f: data[f] for f in config.SCIENCE_FIELDS}
        expected = hashlib.sha256(
            json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        ).hexdigest()[:16]
        assert keys.config_fingerprint(config) == expected
        assert config.fingerprint() == expected

    def test_execution_knobs_do_not_change_fingerprint(self):
        base = lean_cfg()
        varied = lean_cfg(
            runs_dir="/somewhere/else",
            store_dir="/a/store",
        )
        assert varied.fingerprint() == base.fingerprint()

    def test_science_fields_change_fingerprint(self):
        base = lean_cfg()
        assert (
            lean_cfg(max_faults=base.max_faults + 1).fingerprint()
            != base.fingerprint()
        )


class TestCircuitStructureHash:
    def test_stable_across_synthesis_runs(self):
        from repro.harness import suite

        first = keys.circuit_structure_hash(
            build_pair("dk16.ji.sd").original_circuit
        )
        suite.clear_caches()
        second = keys.circuit_structure_hash(
            build_pair("dk16.ji.sd").original_circuit
        )
        assert first == second
        assert len(first) == 64

    def test_original_and_retimed_differ(self):
        pair = build_pair("dk16.ji.sd")
        assert keys.circuit_structure_hash(
            pair.original_circuit
        ) != keys.circuit_structure_hash(pair.retimed_circuit)

    def test_distinct_circuits_differ(self, toggle_circuit, two_bit_counter):
        assert keys.circuit_structure_hash(
            toggle_circuit
        ) != keys.circuit_structure_hash(two_bit_counter)


class TestCellKey:
    def task(self, **overrides):
        base = dict(
            key="hitec:dk16.ji.sd",
            kind="hitec_pair",
            pair="dk16.ji.sd",
            engine="hitec",
            tables=("table2",),
        )
        base.update(overrides)
        return TaskSpec(**base)

    def test_key_shape_and_determinism(self):
        config = lean_cfg()
        structures = {"original": "a" * 64, "retimed": "b" * 64}
        key = keys.cell_key(self.task(), config, structures)
        assert len(key) == 64
        assert key == keys.cell_key(self.task(), config, structures)

    def test_key_separates_engines_and_tasks(self):
        config = lean_cfg()
        structures = {"original": "a" * 64}
        base = keys.cell_key(self.task(), config, structures)
        assert (
            keys.cell_key(
                self.task(key="sest:dk16.ji.sd", engine="sest"),
                config,
                structures,
            )
            != base
        )
        assert (
            keys.cell_key(self.task(), lean_cfg(max_faults=1), structures)
            != base
        )
        assert keys.cell_key(self.task(), config, None) != base
        assert (
            keys.cell_key(
                self.task(), config, {"original": "c" * 64}
            )
            != base
        )

    def test_schema_version_is_in_the_payload(self):
        payload = keys.cell_key_payload(self.task(), lean_cfg(), None)
        assert payload["schema"] == keys.KEY_SCHEMA_VERSION
        assert payload["structures"] is None
        assert payload["task"]["engine"] == "hitec"

    def test_every_graph_task_gets_a_distinct_key(self):
        config = lean_cfg(circuits=("dk16.ji.sd", "pma.ji.sd"))
        tasks = build_task_graph(config)
        assert len(tasks) > 2
        seen = {keys.cell_key(task, config) for task in tasks}
        assert len(seen) == len(tasks)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert (
            keys.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
        )
