"""Worker-side speed sampling and tracing for the ``pipeline`` workload.

The runner calls ``HarnessConfig.task_hook`` in each spawned worker
just before the cell body runs.  ``task_hook`` is an execution knob,
outside ``HarnessConfig.SCIENCE_FIELDS``, so setting it changes no
fingerprint, cell key or ledger science.  :func:`install` starts a
:class:`~perfbench.workloads.Speed` sampler in the worker, whose
samples are written at exit to the directory named by
``PERFBENCH_SAMPLE_DIR``: the parent scales the cold run by the speed
the workers measured between their own steps.  When
``PERFBENCH_SPAN_DIR`` is set (a traced iteration) it also wraps the
worker's layers and its cell body, and writes the worker's spans
there at exit.
"""

from __future__ import annotations

import atexit
import os

SAMPLE_DIR_ENV = "PERFBENCH_SAMPLE_DIR"
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
HOOK = "perfbench.hook:install"

# The hook is a plain function the runner calls by import path, so the
# process is the only owner of what it installs.
_installed = False


def install(task, config) -> None:
    global _installed
    if _installed:
        return
    _installed = True
    from perfbench import layers
    from perfbench.spans import Recorder
    from perfbench.workloads import Speed

    name = f"worker-{os.getpid()}"
    speed = Speed().__enter__()
    atexit.register(speed.dump, os.path.join(os.environ[SAMPLE_DIR_ENV], f"{name}.json"))
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        recorder = Recorder(run=f"worker:{task.key}")
        patcher = layers.install(recorder)
        layers.install_cells(recorder, patcher)
        atexit.register(recorder.dump, os.path.join(span_dir, f"{name}.jsonl"))
