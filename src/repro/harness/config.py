"""Harness configuration: how much effort each table regeneration spends.

The paper burned >5000 CPU hours on a DECstation farm; the harness
scales that to minutes while preserving every *relative* observation
(who wins, roughly by what factor, where the collapses happen).  Three
presets:

* ``smoke``  — seconds per table; used by the pytest benchmarks so the
  whole suite regenerates quickly.
* ``default`` — a few minutes per ATPG table; what EXPERIMENTS.md
  records.
* ``heavy``  — larger budgets for closer-to-paper abort behavior.
* ``quick``  — smoke budgets with the deterministic virtual clock, for
  reproducible profiling (``--quick --profile`` traces are
  byte-identical across ``--jobs`` levels).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from ..atpg.result import EffortBudget
from ..service import keys as service_keys


@dataclasses.dataclass
class HarnessConfig:
    """Effort knobs shared by the table harnesses."""

    budget: EffortBudget
    # Circuits with more collapsed faults than this get a deterministic
    # fault sample (classical practice for very large circuits; scf's
    # synthesized stand-in is several thousand gates).
    max_faults: int = 800
    fault_sample_seed: int = 97
    # Limit the Table 2 suite (None = all 16 pairs).
    circuits: Optional[Tuple[str, ...]] = None
    retime_target_ratio: float = 3.5
    # Pre-ATPG DRC gate: "warn" records diagnostics in the run report,
    # "strict" aborts the experiment on an error-severity finding,
    # "off" skips the analyzer.
    lint_mode: str = "warn"
    # Severity at which the strict gate aborts (note|warning|error).
    lint_fail_on: str = "error"
    # Limit which report sections the runner regenerates (None = all of
    # table1..table8 plus figure3).  Section names follow the task
    # graph: "table2" implies the HITEC runs that also feed tables 6/8.
    tables: Optional[Tuple[str, ...]] = None
    # Static fault-analysis level fed to the engines (repro.fault
    # .analysis): "equiv" = equivalence classes only, the default adds
    # dominance/checkpoint reduction.  Reports always expand over the
    # full fault universe, so tables from either level agree fault-for-
    # fault; the level changes search effort, not reported coverage.
    collapse_level: str = "equiv+dom+checkpoint"

    # ---- execution knobs (repro.harness.runner) ----------------------
    # These shape *how* cells run, never *what* they compute, so they
    # are excluded from fingerprint() and resuming a run with different
    # execution knobs is legal.
    jobs: int = 1  # worker processes; 1 = in-process serial
    task_timeout_seconds: Optional[float] = None  # per-task wall clock
    max_task_retries: int = 1  # extra attempts before quarantine
    retry_budget_scale: float = 0.5  # budget shrink factor per retry
    runs_dir: str = "runs"  # where run ledgers live
    resume: Optional[str] = None  # run id to resume
    # Record trace spans per task and assemble the run's
    # trace.jsonl.  Tracing never feeds the science payload, so
    # this is an execution knob: profiled and unprofiled runs produce
    # identical table rows and may resume each other's ledgers.
    profile: bool = False
    # Test-only fault-injection hook: "pkg.module:function", called in
    # the worker as hook(task, config) before the cell executes.
    task_hook: Optional[str] = None
    # Content-addressed result store (repro.service.store): cells whose
    # cell_key is already present are served from cache instead of
    # recomputed.  Cache-served rows are byte-identical to computed
    # ones, so this is pure execution policy.
    store_dir: Optional[str] = None

    #: Fields that change experiment results (everything else is
    #: execution policy).
    SCIENCE_FIELDS = (
        "budget",
        "max_faults",
        "fault_sample_seed",
        "circuits",
        "retime_target_ratio",
        "lint_mode",
        "lint_fail_on",
        "tables",
        "collapse_level",
    )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (inverse of :meth:`from_dict`); tuples become
        lists, which from_dict restores."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HarnessConfig":
        data = dict(data)
        data["budget"] = EffortBudget(**data["budget"])
        for field in ("circuits", "tables"):
            if data.get(field) is not None:
                data[field] = tuple(data[field])
        return cls(**data)

    def fingerprint(self) -> str:
        """Hash of every result-affecting field.

        Ledger rows record this; ``--resume`` refuses to mix rows
        produced under a different science configuration.  Delegates to
        :func:`repro.service.keys.config_fingerprint` — the same schema
        keys the content-addressed result cache, so resume and cache
        can never disagree about what "same configuration" means.
        """
        return service_keys.config_fingerprint(self)

    @classmethod
    def smoke(cls) -> "HarnessConfig":
        return cls(
            budget=EffortBudget(
                max_backtracks=200,
                max_frames=4,
                max_justify_depth=10,
                max_preimages=3,
                per_fault_seconds=0.5,
                total_seconds=40.0,
                random_sequences=16,
                random_length=25,
            ),
            max_faults=250,
            circuits=("dk16.ji.sd", "s820.jc.sr"),
        )

    @classmethod
    def quick(cls) -> "HarnessConfig":
        """Smoke effort on the deterministic virtual clock — the preset
        behind ``--quick``; its traces are identical at any --jobs."""
        config = cls.smoke()
        return dataclasses.replace(
            config,
            budget=dataclasses.replace(
                config.budget, deterministic_clock=True
            ),
        )

    @classmethod
    def default(cls) -> "HarnessConfig":
        return cls(
            budget=EffortBudget(
                max_backtracks=600,
                max_frames=6,
                max_justify_depth=16,
                max_preimages=4,
                per_fault_seconds=2.0,
                total_seconds=180.0,
                random_sequences=48,
                random_length=40,
            ),
            max_faults=600,
        )

    @classmethod
    def heavy(cls) -> "HarnessConfig":
        return cls(budget=EffortBudget.paper(), max_faults=2000)


def sample_faults(faults, config: HarnessConfig):
    """Deterministic fault sample when the list exceeds the cap."""
    from .._util import make_rng

    if len(faults) <= config.max_faults:
        return list(faults)
    rng = make_rng(config.fault_sample_seed)
    indices = sorted(rng.sample(range(len(faults)), config.max_faults))
    return [faults[i] for i in indices]


def select_target_faults(analysis, config: HarnessConfig):
    """The engine's target list for one analyzed circuit.

    The sample is always drawn from the *equivalence-level* candidates
    (classes minus provably-untestable ones) and dominance pruning is
    applied afterwards, so the ``equiv+dom+checkpoint`` level targets a
    strict subset of what ``equiv`` targets under the same seed.  That
    subset property is what makes effort comparisons across collapse
    levels (and against perf baselines) well-founded: the fuller level
    can only remove work, never swap in a different-sized sample of
    different faults.
    """
    candidates = [
        rep
        for rep in analysis.equiv_representatives
        if rep not in analysis.untestable
    ]
    sampled = sample_faults(candidates, config)
    if not analysis.dominated:
        return sampled
    return [fault for fault in sampled if fault not in analysis.dominated]
