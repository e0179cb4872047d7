"""SEST-style sequential ATPG: PODEM search plus dynamic state learning.

Sequential EST ([6], [21] in the paper) distinguishes itself from HITEC
by *learning during the search*: state objectives proven unsatisfiable
are remembered and never re-explored.  This engine shares the forward
phase and justification machinery with :class:`HitecEngine` and turns
on the :class:`~repro.atpg.learning.IllegalStateCache`; the cache
persists across faults within a run, which is where the cited
order-of-magnitude savings come from (§5: "state learning techniques
...have proven to decrease the amount of ATPG time ... by an order of
magnitude").

The learning ablation benchmark (``benchmarks/bench_ablation_learning``)
runs the same circuits through both engines to reproduce that claim's
shape.

The search-state observatory (:mod:`repro.obs.search`) makes the
learning effect directly visible: cubes rejected by the illegal-state
cache without re-proof are tallied as ``search.learned_prunes``, and
``search.states_examined`` counts every cube the justification DFS
still had to touch — a SEST run on the same circuit shows fewer
examined cubes and a nonzero prune count relative to plain HITEC.
"""

from __future__ import annotations

from typing import Optional

from ..circuit.netlist import Circuit
from ..obs import Tracer
from .hitec import HitecEngine
from .result import EffortBudget


class SestEngine(HitecEngine):
    """HITEC's phases with SEST's illegal-state learning enabled."""

    def __init__(
        self,
        circuit: Circuit,
        budget: Optional[EffortBudget] = None,
        rng_seed: int = 29,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(
            circuit,
            budget=budget,
            learning=True,
            rng_seed=rng_seed,
            tracer=tracer,
        )
        self.name = "sest"

    @property
    def learning_stats(self):
        """Cache counters for the learning ablation."""
        return self.learning_cache.stats if self.learning_cache else None
