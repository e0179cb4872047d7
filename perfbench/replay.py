"""Warm replay of a ``pipeline`` run, in a fresh process.

``python3 -m perfbench.replay --config C --runs-dir D --out O
[--spans S]`` re-runs ``runner.run_experiment`` with
the configuration in ``C`` (whose store the cold run filled), assembles
the report, and writes the table rows, the report, the store hit counts
and its own timing (as measured, and at reference speed; see
``workloads.Speed``) to ``O``.  With ``--spans`` the run is traced and
its spans are written to ``S``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time


def main() -> None:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--runs-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from perfbench import layers
    from perfbench.spans import Recorder
    from perfbench.workloads import Speed, table_rows

    # The replay measures itself: the parent cannot sample the speed of
    # the processor this process runs on.
    with Speed() as speed:
        from repro.harness import report as report_mod
        from repro.harness import runner
        from repro.harness.config import HarnessConfig

        with open(args.config, "r", encoding="utf-8") as handle:
            config = HarnessConfig.from_dict(json.load(handle))
        config = dataclasses.replace(config, runs_dir=args.runs_dir, task_hook=None)
        recorder = Recorder(run="warm")
        patcher = layers.install(recorder) if args.spans else None
        try:
            result = runner.run_experiment(config)
            report = report_mod.assemble_report(config, result.records)
        finally:
            if patcher is not None:
                patcher.restore()
        ended = time.perf_counter()
        factor = speed.factor(began, ended)
    with open(result.service_file, "r", encoding="utf-8") as handle:
        service = json.load(handle)
    out = {
        "rows": table_rows(result.records, config.fingerprint()),
        "report": report,
        "cache_hits": service["cache_hits"],
        "cache_misses": service["cache_misses"],
        "seconds": ended - began,
        "scaled": (ended - began) * factor,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    if args.spans:
        recorder.dump(args.spans)


if __name__ == "__main__":
    try:
        main()
    finally:
        from perfbench.workloads import stop_child_processes

        stop_child_processes()
