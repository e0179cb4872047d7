"""The benchmark's three workloads.

``search``   HITEC then SEST on one original/retimed pair, in-process.
``simulate`` the simulation-based (Attest-style) engine on the Table 3
             pairs, in-process.
``pipeline`` ``runner.run_experiment`` at jobs=2 into an empty result
             store, then a warm replay of the same run from that store
             in a fresh process.

Every workload runs the quick budget on the deterministic WorkClock, so
engine work is a pure function of the inputs.  The inputs that set how
much search an engine does (the timed fault sample and the engines' RNG
seeds) are pinned in ``perfbench/config.json``: on the ``dk16.ji.sd``
pair the cost of a run moves by 30-45% between fault samples and by 20%
between engine seeds, far beyond any bound a regression gate can use.
``--seed`` drives the inputs that do not change the cost: each engine
workload's untimed probe (a fresh fault sample and engine seeds, whose
claims are re-checked) and the pipeline's fault-sample seed, whose
sample holds every candidate fault.

Each workload repeats one iteration until ``--seconds`` are used and
reports medians over the iterations.  Correctness checks run outside
the timed phase.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import layers
from perfbench.hook import HOOK, SAMPLE_DIR_ENV, SPAN_DIR_ENV
from perfbench.spans import Recorder, Span, load_spans
from perfbench.stats import median, ratio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_PATH = os.path.join(ROOT, "perfbench", "config.json")
#: Scratch space of a run: run directories, stores, span files.  Kept
#: inside the checkout (the benchmark writes nowhere else).
WORK_DIR = os.path.join(ROOT, ".perfbench")


#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: The pair the seed's probe runs on (the smallest Table 3 pair).
PROBE_PAIR = "dk16.ji.sd"


class Refused(Exception):
    """The workload's configuration would not give steady numbers."""


def load_config() -> Dict:
    with open(CONFIG_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_steady(spec: Dict, config) -> None:
    """Refuse a workload whose engine work is not a pure function of
    its inputs: the budget must run on the deterministic clock and
    every seed that feeds the timed work must be pinned."""
    if not config.budget.deterministic_clock:
        raise Refused("budget.deterministic_clock must be True")
    if not isinstance(config.fault_sample_seed, int):
        raise Refused("fault_sample_seed must be a pinned integer")
    seeds = spec.get("rng_seeds", {})
    for engine in spec.get("engines", ()):
        if not isinstance(seeds.get(engine), int):
            raise Refused(f"engine {engine!r} needs a pinned rng seed")
    if spec["jobs"] > 2:
        raise Refused("no workload may use more than 2 processes")
    if spec.get("min_iterations", 0) < 2:
        raise Refused("min_iterations must be at least 2, so iterations can be compared")


def harness_config(spec: Dict, fault_sample_seed: int, **overrides):
    from repro.harness.config import HarnessConfig

    config = dataclasses.replace(
        HarnessConfig.quick(),
        max_faults=spec["max_faults"],
        fault_sample_seed=fault_sample_seed,
        circuits=tuple(spec["pairs"]),
        jobs=spec["jobs"],
        **overrides,
    )
    check_steady(spec, config)
    return config


#: CPU seconds :func:`reference_loop` takes at reference speed; fixes
#: the unit of every time reported at reference speed.
REFERENCE_LOOP_S = 0.002
#: Seconds between two speed samples.
SAMPLE_INTERVAL_S = 0.1


def reference_loop() -> int:
    """Fixed pure-Python work (integer arithmetic and dict stores, like
    the program's interpreters); its CPU time measures how fast this
    machine runs Python right now."""
    table = {}
    acc = 0
    for k in range(8_000):
        acc = (acc * 31 + k) & 0xFFFFFFFF
        table[k & 2047] = acc
    return acc


def child_pids() -> List[int]:
    """Pids of this process's child processes (Linux ``/proc``)."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", "r", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue  # the thread ended since the list was read
    return pids


def running_children() -> List[int]:
    """Pids of this process's live child processes, leaving out the
    ``multiprocessing`` resource tracker, which lives as long as its
    parent."""
    running = []
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"resource_tracker" in handle.read():
                    continue
        except OSError:
            continue  # the child ended since the list was read
        running.append(pid)
    return running


def stop_child_processes() -> None:
    """Stop every process this one started and wait for each to end.

    ``multiprocessing`` starts a resource tracker with its first spawned
    worker; left alone it ends only after this process has exited, so
    nobody waits for it.  Close its pipe and reap it here, then kill and
    reap any other child still running."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


class Speed:
    """Machine speed, sampled throughout a run.

    On a shared VM the same work takes up to 1.7 times longer from one
    second to the next, and the program's CPU time moves with it.
    While a ``Speed`` is entered, a timer interrupts the process every
    ``SAMPLE_INTERVAL_S`` seconds to time :func:`reference_loop` in CPU
    seconds (about 2% of the run).  A timed step is also reported at
    reference speed: its seconds times the mean of ``REFERENCE_LOOP_S``
    over the loop times sampled during the step.

    Each sample also notes whether the process was alone, with no child
    process running.  A step whose work runs in worker processes is
    scaled by the workers' own samples (see ``perfbench/hook.py``) and
    the parent's samples taken alone: samples the parent takes beside
    busy workers queue behind them, slow down with the program's own
    load and would hide part of its cost.
    """

    def __init__(self):
        #: (perf_counter time, loop CPU seconds, alone) per sample.
        self.samples: List[Tuple[float, float, bool]] = []
        self._previous_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        began = time.thread_time()
        reference_loop()
        cpu = time.thread_time() - began
        self.samples.append((time.perf_counter(), cpu, not running_children()))

    def __enter__(self) -> "Speed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def factor(
        self,
        start: float,
        end: float,
        alone: bool = False,
        extra: Sequence[Tuple[float, float, bool]] = (),
    ) -> float:
        """Reference seconds per second over ``[start, end]``, from this
        process's samples (with ``alone``, only those taken with no
        child running) and the ``extra`` samples of other processes; a
        step shorter than the interval uses the nearest sample."""
        usable = [s for s in self.samples if s[2] or not alone] + list(extra)
        inside = [cpu for at, cpu, _ in usable if start <= at <= end]
        if not inside:
            if not usable:
                self._sample()
                usable = self.samples[-1:]
            middle = (start + end) / 2
            inside = [min(usable, key=lambda sample: abs(sample[0] - middle))[1]]
        return sum(REFERENCE_LOOP_S / cpu for cpu in inside) / len(inside)

    def dump(self, path: str) -> None:
        """Stop sampling and write the samples to ``path`` (JSON)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.samples, handle)


def load_samples(directory: str) -> List[Tuple[float, float, bool]]:
    """Every sample dumped to ``directory`` by worker processes."""
    samples = []
    for entry in sorted(os.listdir(directory)):
        with open(os.path.join(directory, entry), "r", encoding="utf-8") as handle:
            samples.extend(tuple(sample) for sample in json.load(handle))
    return samples


@dataclasses.dataclass
class Measured:
    """Seconds and CPU seconds of a series of steps, as measured and at
    reference speed."""

    seconds: float = 0.0
    scaled: float = 0.0
    cpu: float = 0.0
    cpu_scaled: float = 0.0


def measured(
    steps: List[Callable[[], object]], speed: Speed, sample_dir: Optional[str] = None
):
    """Run ``steps`` in order, timing each; returns the steps' results
    and their :class:`Measured` totals, each step scaled by the speed
    sampled while it ran.  For steps that run worker processes,
    ``sample_dir`` is where the workers dump their samples; the parent
    then counts only its samples taken with no worker running."""
    results = []
    totals = Measured()
    for step in steps:
        # Each step starts with no garbage left from the one before, as
        # in the fresh worker process a harness cell runs in; otherwise
        # the peak RSS depends on when the collector last ran.
        gc.collect()
        cpu0 = cpu_seconds()
        began = time.perf_counter()
        results.append(step())
        ended = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        if sample_dir is None:
            factor = speed.factor(began, ended)
        else:
            factor = speed.factor(began, ended, alone=True, extra=load_samples(sample_dir))
        totals.seconds += ended - began
        totals.scaled += (ended - began) * factor
        totals.cpu += cpu
        totals.cpu_scaled += cpu * factor
    return results, totals


@dataclasses.dataclass
class Outcome:
    """Everything one workload run reports."""

    #: Timing name -> seconds per iteration, as measured ...
    raw: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: ... and at reference speed (see :class:`Speed`).
    scaled: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    layer_runs: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)
    coverage: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Peak RSS at the end of the timed phase, before the untimed checks
    #: (whose seed-driven probe would otherwise set it).
    peak_rss_mb: float = 0.0

    def time(self, name: str, seconds: float, scaled: float) -> None:
        self.raw.setdefault(name, []).append(seconds)
        self.scaled.setdefault(name, []).append(scaled)

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)
        if not passed:
            print(f"[perfbench] check failed: {name}", file=sys.stderr)


def timed_loop(
    seconds: float,
    trace: bool,
    minimum: int,
    iterate: Callable[[int, bool], None],
) -> None:
    """Call ``iterate(index, traced)`` until ``seconds`` are used.

    Untraced runs only, or with ``trace`` untraced and traced runs in
    turn.  Stops before an iteration that would overrun, once at least
    ``minimum`` iterations (with ``trace``, one of each kind) have run.
    """
    start = time.perf_counter()
    walls: List[float] = []
    index = 0
    if trace:
        minimum = max(minimum, 2)
    while True:
        traced = trace and index % 2 == 1
        began = time.perf_counter()
        iterate(index, traced)
        walls.append(time.perf_counter() - began)
        index += 1
        used = time.perf_counter() - start
        if index >= minimum and used + median(walls) > seconds:
            break


_IMPORT_TIMER = """
import json, sys, time
began = time.perf_counter()
from perfbench.workloads import Speed
with Speed() as speed:
    import {modules}
    ended = time.perf_counter()
    factor = speed.factor(began, ended)
json.dump([ended - began, (ended - began) * factor], sys.stdout)
"""


def import_program(modules: List[str]) -> Tuple[float, float]:
    """Import the program's ``modules`` in a fresh process (its import
    cost is part of every set-up); returns the seconds it took, as
    measured and at reference speed, timed by that process itself."""
    code = _IMPORT_TIMER.format(modules=", ".join(modules))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.PIPE, text=True,
    )
    seconds, scaled = json.loads(done.stdout)
    return seconds, scaled


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    env["TMPDIR"] = os.path.join(WORK_DIR, "tmp")
    return env


def same_float(left: float, right: float) -> bool:
    return abs(left - right) <= 1e-9 * max(1.0, abs(left), abs(right))


# ---------------------------------------------------------------------------
# search / simulate: engine calls in-process


ENGINE_MODULES = [
    "repro.harness.suite",
    "repro.harness.config",
    "repro.lint",
    "repro.fault.analysis",
    "repro.fault.simulator",
    "repro.atpg.hitec",
    "repro.atpg.sest",
    "repro.atpg.simbased",
]


@dataclasses.dataclass
class Side:
    """One engine run on one circuit of a pair."""

    engine: str
    circuit: object
    analysis: object
    result: Optional[object]  # ExpandedResult, None when the run failed

    @property
    def label(self) -> str:
        return f"{self.engine}:{self.circuit.name}"


def _engine_class(name: str):
    from repro.atpg import hitec, sest, simbased

    return {
        "hitec": hitec.HitecEngine,
        "sest": sest.SestEngine,
        "simbased": simbased.SimBasedEngine,
    }[name]


def run_side(engine: str, circuit, config, rng_seed: int) -> Side:
    """Lint gate, fault analysis, target selection, engine run and
    full-universe expansion of one engine on one circuit.  Calls go
    through module attributes so the traced run's wrappers see them."""
    from repro import lint
    from repro.fault import analysis as fault_analysis
    from repro.harness import config as config_mod

    analysis = result = None
    try:
        lint.gate_circuit(
            circuit,
            mode=config.lint_mode,
            stage=f"pre-atpg:{circuit.name}",
            config=lint.LintConfig(fail_on=lint.Severity.parse(config.lint_fail_on)),
        )
        analysis = fault_analysis.analyze_faults_cached(
            circuit, level=config.collapse_level
        )
        targets = config_mod.select_target_faults(analysis, config)
        runner = _engine_class(engine)(circuit, budget=config.budget, rng_seed=rng_seed)
        result = fault_analysis.expand_result(runner.run(targets), analysis, circuit)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    return Side(engine, circuit, analysis, result)


def side_steps(spec: Dict, pairs: List, config, rng_seeds: Dict[str, int]) -> List:
    """One step per engine x pair x side, in workload order."""
    return [
        functools.partial(run_side, engine, circuit, config, rng_seeds[engine])
        for engine in spec["engines"]
        for pair in pairs
        for circuit in (pair.original_circuit, pair.retimed_circuit)
    ]


def forget_synthesis() -> None:
    """Forget every synthesized circuit and generated benchmark FSM, as
    in a fresh process (``suite.clear_caches`` keeps the FSMs)."""
    from repro.fsm.benchmarks import benchmark_fsm
    from repro.harness import suite

    suite.clear_caches()
    benchmark_fsm.cache_clear()


def clear_derived_caches() -> None:
    """Forget fault analyses and compiled kernels (built pairs stay),
    so every iteration pays what a fresh harness cell pays."""
    from repro.fault.analysis import clear_analysis_cache
    from repro.lint import GLOBAL_LEDGER
    from repro.sim.compile import clear_program_cache

    clear_analysis_cache()
    clear_program_cache()
    GLOBAL_LEDGER.clear()


def detected_faults(result) -> List:
    return [fault for fault, status in result.statuses.items() if status.state == "detected"]


def grade(side: Side, passes: int) -> List:
    """Replay the side's emitted tests over its full fault universe
    with the program's fault simulator, ``passes`` times; returns the
    faults detected."""
    from repro.fault.simulator import FaultSimulator

    for _ in range(passes):
        simulator = FaultSimulator(side.circuit, faults=[])
        report = simulator.run_analyzed(side.result.test_set.sequences, side.analysis)
    return sorted(report.detected)


def redetected(side: Side) -> bool:
    """Every detection the side claims is re-detected by its own tests
    on the interpreted simulator, a code path independent of the
    compiled kernels."""
    from repro.fault.simulator import FaultSimulator

    claimed = detected_faults(side.result)
    if not claimed:
        return True
    simulator = FaultSimulator(side.circuit, faults=claimed, backend="interpreted")
    report = simulator.run(side.result.test_set.sequences)
    return set(report.detected) == set(claimed)


def coverage_of(sides: List[Side]) -> Dict[str, float]:
    detected = resolved = total = 0
    for side in sides:
        summary = side.result.summary()
        detected += summary.detected
        resolved += summary.detected + summary.redundant + summary.untestable
        total += summary.total
    return {
        "fault_coverage_pct": 100.0 * ratio(detected, total),
        "fault_efficiency_pct": 100.0 * ratio(resolved, total),
    }


def engine_workload(
    name: str,
    spec: Dict,
    seed: int,
    seconds: float,
    trace: bool,
    speed: Speed,
    outcome: Outcome,
) -> None:
    from repro.harness import suite

    setup_recorder = Recorder(run="setup")
    for repeat in range(SETUP_REPEATS):
        forget_synthesis()
        # The traced run traces its last set-up.
        last_repeat = repeat == SETUP_REPEATS - 1
        patcher = layers.install(setup_recorder) if trace and last_repeat else None
        try:
            imported, imported_scaled = import_program(ENGINE_MODULES)
            steps = [functools.partial(suite.build_pair, pair) for pair in spec["pairs"]]
            pairs, setup = measured(steps, speed)
            outcome.time("setup_s", imported + setup.seconds, imported_scaled + setup.scaled)
        finally:
            if patcher is not None:
                patcher.restore()

    config = harness_config(spec, spec["fault_sample_seed"])
    rng_seeds = spec["rng_seeds"]
    dff_ratio = ratio(
        sum(p.retimed_circuit.num_dffs() for p in pairs),
        sum(p.original_circuit.num_dffs() for p in pairs),
    )
    fingerprints: List = []
    last: Dict[str, object] = {}

    def iterate(index: int, traced: bool) -> None:
        last.clear()  # free the previous iteration's results
        clear_derived_caches()
        recorder = Recorder(run=f"iteration-{index}")
        patcher = layers.install(recorder) if traced else None
        try:
            sides, run = measured(side_steps(spec, pairs, config, rng_seeds), speed)
        finally:
            if patcher is not None:
                patcher.restore()
        done = [side for side in sides if side.result is not None]
        steps = [functools.partial(grade, side, spec["replay_passes"]) for side in done]
        detections, replay = measured(steps, speed)
        graded = {side.label: found for side, found in zip(done, detections)}
        outcome.attempted += len(sides)
        outcome.failed += sum(side.result is None for side in sides)
        fingerprints.append(
            [(s.label, None if s.result is None else s.result.counters()) for s in sides]
        )
        last.update(sides=sides, graded=graded)
        if traced:
            outcome.time("traced_wall_s", run.seconds, run.scaled)
            outcome.layer_runs.append(
                layers.layer_metrics(
                    recorder.spans,
                    run.seconds,
                    layers.engine_metrics(side.result for side in done),
                    {"dff_ratio": dff_ratio, "jobs": spec["jobs"]},
                    setup_spans=setup_recorder.spans,
                )
            )
        else:
            outcome.time("wall_s", run.seconds, run.scaled)
            outcome.time("cpu_s", run.cpu, run.cpu_scaled)
            outcome.time("replay_s", replay.seconds, replay.scaled)

    timed_loop(seconds, trace, spec["min_iterations"], iterate)
    outcome.peak_rss_mb = peak_rss_mb()

    # -- correctness, outside the timed phase ---------------------------
    sides = [side for side in last["sides"] if side.result is not None]
    if len(sides) == len(last["sides"]):
        outcome.coverage = coverage_of(sides)
        expected = spec["expected"]
        for key in ("fault_coverage_pct", "fault_efficiency_pct"):
            outcome.check(f"{key} = recorded", same_float(outcome.coverage[key], expected[key]))
    outcome.check(
        "iterations agree", all(f == fingerprints[0] for f in fingerprints)
    )
    for side in sides:
        outcome.check(
            f"{side.label} replay re-detects claims",
            set(detected_faults(side.result)) <= set(last["graded"][side.label]),
        )
        outcome.check(f"{side.label} claims re-detected", redetected(side))

    # The seed's own input: a fresh fault sample and engine seeds.
    probe_config = dataclasses.replace(config, max_faults=spec["probe_max_faults"], fault_sample_seed=seed)
    probe_seeds = {engine: seed for engine in spec["engines"]}
    probe_pairs = [pair for pair in pairs if pair.name == PROBE_PAIR]
    clear_derived_caches()
    probe = [step() for step in side_steps(spec, probe_pairs, probe_config, probe_seeds)]
    outcome.attempted += len(probe)
    outcome.failed += sum(side.result is None for side in probe)
    for side in probe:
        if side.result is not None:
            outcome.check(f"probe {side.label} claims re-detected", redetected(side))


# ---------------------------------------------------------------------------
# pipeline: run_experiment cold into a store, warm replay from it


def cell_outcomes(records, tasks) -> Dict[str, bool]:
    """Task key -> whether its first attempt succeeded (a retried or
    quarantined cell counts as failed)."""
    first_ok = {r.key for r in records if r.outcome == "ok" and r.attempt == 0}
    failed = {r.key for r in records if r.outcome != "ok"}
    return {task.key: task.key in first_ok and task.key not in failed for task in tasks}


def table_rows(records, fingerprint) -> Dict[str, object]:
    from repro.harness.ledger import completed_by_key

    return {
        key: record.payload.get("tables", {})
        for key, record in sorted(completed_by_key(records, fingerprint).items())
    }


def ledger_science(records, fingerprint) -> Dict[str, Dict]:
    """Completed ledger rows without their wall-time fields: what must
    not change between runs, traced or not."""
    from repro.harness.ledger import WALL_TIME_FIELDS, completed_by_key

    science = {}
    for key, record in sorted(completed_by_key(records, fingerprint).items()):
        row = json.loads(record.to_json())
        for field in WALL_TIME_FIELDS:
            row.pop(field, None)
        science[key] = row
    return science


def ledger_coverage(records, fingerprint) -> Dict[str, float]:
    from repro.harness.ledger import completed_by_key

    detected = resolved = total = 0
    for record in completed_by_key(records, fingerprint).values():
        if not record.engine:
            continue
        for counters in record.counters.values():
            detected += counters["cover.faults_detected"]
            resolved += (
                counters["cover.faults_detected"]
                + counters["cover.faults_redundant"]
                + counters["cover.faults_untestable"]
            )
            total += counters["cover.faults_total"]
    return {
        "fault_coverage_pct": 100.0 * ratio(detected, total),
        "fault_efficiency_pct": 100.0 * ratio(resolved, total),
    }


def pipeline_workload(
    name: str,
    spec: Dict,
    seed: int,
    seconds: float,
    trace: bool,
    speed: Speed,
    outcome: Outcome,
) -> None:
    from repro.harness import report as report_mod
    from repro.harness import runner, suite

    run_root = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    def fresh_directories() -> None:
        shutil.rmtree(run_root, ignore_errors=True)
        os.makedirs(run_root)

    for _ in range(SETUP_REPEATS):
        imported, imported_scaled = import_program(
            ["repro.harness.runner", "repro.harness.cache"]
        )
        _, setup = measured([fresh_directories], speed)
        outcome.time("setup_s", imported + setup.seconds, imported_scaled + setup.scaled)
    print(f"[perfbench] run and store directories under {run_root}", file=sys.stderr)

    # The sample holds every candidate fault (max_faults exceeds every
    # pair's candidate count), so the seed changes the configuration
    # and cell keys but not the cost.
    base = harness_config(spec, seed, tables=tuple(spec["tables"]))
    fingerprint = base.fingerprint()
    tasks = runner.build_task_graph(base)
    cold_science: List = []
    last: Dict[str, object] = {}

    def iterate(index: int, traced: bool) -> None:
        here = os.path.join(run_root, f"it{index}")
        span_dir = os.path.join(here, "spans")
        sample_dir = os.path.join(here, "samples")
        os.makedirs(span_dir)
        os.makedirs(sample_dir)
        # The hook samples speed in every worker, and traces it in a
        # traced iteration; it changes no science (see hook.py).
        config = dataclasses.replace(
            base,
            runs_dir=os.path.join(here, "cold"),
            store_dir=os.path.join(here, "store"),
            task_hook=HOOK,
        )
        # A cold run is a fresh invocation: nothing synthesized yet.
        forget_synthesis()
        recorder = Recorder(run=f"cold-{index}")
        patcher = None
        os.environ[SAMPLE_DIR_ENV] = sample_dir
        if traced:
            os.environ[SPAN_DIR_ENV] = span_dir
            patcher = layers.install(recorder)
        try:
            results, cold = measured(
                [functools.partial(runner.run_experiment, config)], speed, sample_dir
            )
            result = results[0]
            reports, assembly = measured(
                [functools.partial(report_mod.assemble_report, config, result.records)], speed
            )
            report = reports[0]
        finally:
            if patcher is not None:
                patcher.restore()
            os.environ.pop(SPAN_DIR_ENV, None)
            os.environ.pop(SAMPLE_DIR_ENV, None)
        wall = cold.seconds + assembly.seconds
        wall_scaled = cold.scaled + assembly.scaled

        warm_out = os.path.join(here, "warm.json")
        warm_spans_path = os.path.join(span_dir, "warm.jsonl") if traced else None
        command = [
            sys.executable, "-m", "perfbench.replay",
            "--config", _write_config(config, os.path.join(here, "config.json")),
            "--runs-dir", os.path.join(here, "warm"),
            "--out", warm_out,
        ]
        if warm_spans_path:
            command += ["--spans", warm_spans_path]
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True)
        with open(warm_out, "r", encoding="utf-8") as handle:
            warm = json.load(handle)
        oks = cell_outcomes(result.records, tasks)
        outcome.attempted += len(oks)
        outcome.failed += sum(not ok for ok in oks.values())
        rows = table_rows(result.records, fingerprint)
        cold_science.append(ledger_science(result.records, fingerprint))
        last.update(
            rows=rows, report=report, warm=warm, records=result.records, tasks=len(tasks)
        )
        if traced:
            spans: List[Span] = list(recorder.spans)
            for entry in sorted(os.listdir(span_dir)):
                if entry.startswith("worker-"):
                    spans.extend(load_spans(os.path.join(span_dir, entry)))
            records = result.records
            pairs = [suite.build_pair(pair) for pair in spec["pairs"]]
            context = {
                "dff_ratio": ratio(
                    sum(p.retimed_circuit.num_dffs() for p in pairs),
                    sum(p.original_circuit.num_dffs() for p in pairs),
                ),
                "jobs": config.jobs,
                "cells": len(tasks),
                "retried": sum(r.outcome in ("crashed", "timeout") for r in records),
                "quarantined": sum(r.outcome == "quarantined" for r in records),
                "cell_wall_sum_s": sum(
                    r.wall_seconds for r in records if r.outcome != "quarantined"
                ),
            }
            outcome.time("traced_wall_s", wall, wall_scaled)
            outcome.layer_runs.append(
                layers.layer_metrics(
                    spans,
                    wall,
                    layers.ledger_engine_metrics(records),
                    context,
                    warm_spans=load_spans(warm_spans_path),
                )
            )
        else:
            outcome.time("wall_s", wall, wall_scaled)
            outcome.time("cpu_s", cold.cpu + assembly.cpu, cold.cpu_scaled + assembly.cpu_scaled)
            outcome.time("replay_s", warm["seconds"], warm["scaled"])
        shutil.rmtree(os.path.join(here, "store"), ignore_errors=True)

    timed_loop(seconds, trace, spec["min_iterations"], iterate)
    outcome.peak_rss_mb = peak_rss_mb()

    # -- correctness, outside the timed phase ---------------------------
    warm = last["warm"]
    outcome.coverage = ledger_coverage(last["records"], fingerprint)
    expected = spec["expected"]
    for key in ("fault_coverage_pct", "fault_efficiency_pct"):
        outcome.check(f"{key} = recorded", same_float(outcome.coverage[key], expected[key]))
    outcome.check(
        "ledger science agrees across iterations, traced or not",
        all(science == cold_science[0] for science in cold_science),
    )
    outcome.check("warm rows = cold rows", warm["rows"] == last["rows"])
    outcome.check("warm report = cold report", warm["report"] == last["report"])
    outcome.check(
        "warm store hit_frac = 1.0",
        warm["cache_hits"] == last["tasks"] and warm["cache_misses"] == 0,
    )
    shutil.rmtree(run_root, ignore_errors=True)


def _write_config(config, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config.to_dict(), handle, sort_keys=True)
    return path


WORKLOADS = {
    "search": engine_workload,
    "simulate": engine_workload,
    "pipeline": pipeline_workload,
}
