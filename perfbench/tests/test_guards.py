import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.workloads import Refused, check_steady, harness_config

SPEC = {
    "pairs": ["dk16.ji.sd"],
    "engines": ["hitec"],
    "jobs": 1,
    "max_faults": 10,
    "rng_seeds": {"hitec": 17},
    "min_iterations": 2,
}


def test_shipped_workloads_pass_the_guard():
    config = workloads.load_config()
    for name, spec in config["workloads"].items():
        harness_config(spec, config["default_seed"])


def test_refuses_a_wall_clock_budget():
    config = harness_config(SPEC, 97)
    wall_clock = dataclasses.replace(
        config, budget=dataclasses.replace(config.budget, deterministic_clock=False)
    )
    with pytest.raises(Refused, match="deterministic_clock"):
        check_steady(SPEC, wall_clock)


def test_refuses_an_unpinned_engine_seed():
    spec = dict(SPEC, rng_seeds={})
    with pytest.raises(Refused, match="rng seed"):
        harness_config(spec, 97)


def test_refuses_an_unpinned_sample_seed():
    config = dataclasses.replace(harness_config(SPEC, 97), fault_sample_seed=None)
    with pytest.raises(Refused, match="fault_sample_seed"):
        check_steady(SPEC, config)


def test_refuses_more_than_two_processes():
    with pytest.raises(Refused, match="2 processes"):
        harness_config(dict(SPEC, jobs=4), 97)


def test_refuses_a_single_iteration():
    # One iteration leaves nothing to compare "iterations agree" with.
    with pytest.raises(Refused, match="min_iterations"):
        harness_config(dict(SPEC, min_iterations=1), 97)


def test_run_fails_without_the_program(tmp_path):
    # A directory holding only the benchmark: exit non-zero, no result.
    shutil.copytree(
        os.path.dirname(workloads.CONFIG_PATH),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


_LEAVES_NOTHING = """
import multiprocessing, os, subprocess
from perfbench.workloads import stop_child_processes

def children():
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as handle:
            pids.extend(handle.read().split())
    return pids

worker = multiprocessing.get_context("spawn").Process(target=os.getpid)
worker.start()
worker.join()
subprocess.Popen(["sleep", "60"])
assert len(children()) == 2, children()  # the resource tracker and sleep
stop_child_processes()
print(children())
"""


def test_stop_child_processes_reaps_the_resource_tracker_and_strays():
    path = os.pathsep.join([workloads.ROOT, os.path.join(workloads.ROOT, "src")])
    done = subprocess.run(
        [sys.executable, "-c", _LEAVES_NOTHING],
        cwd=workloads.ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
