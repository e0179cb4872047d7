"""Search-state observatory (``repro.obs.search``).

Classifies every machine state the ATPG search touches as valid
(reachable from reset) or invalid, and turns wasted effort into a
first-class observable.  Three pieces:

* :class:`StateClassifier` — one memoized valid/invalid oracle per
  circuit (symbolic BDD reachable set, explicit-BFS fallback for tiny
  circuits without one);
* :class:`SearchObserver` — per-run streaming tallies: every cube the
  structural justification proposes and every concrete state a
  simulation run drives through becomes a ``search.*`` counter
  increment.  The engine's fault book
  (:class:`repro.atpg.result.FaultBook`) reads the per-fault dwell off
  these tallies;
* the report layer — per-cell waste attribution joined with density of
  encoding, the original→retimed waste movement, and the waste↔density
  rank correlation.

CLI (the waste section of the combined observatory report)::

    python -m repro report <run-dir-or-ledger>
    python -m repro report --runs-dir runs   # newest run

All tallies increment at deterministic WorkClock-ordered points, so
reports are byte-identical across ``--jobs`` levels.

This package deliberately never imports ``repro.atpg`` or
``repro.harness`` — the engines and harness import *us*.
"""

from .classifier import StateClassifier, StateCube, cube_key
from .observer import SearchObserver, SearchTally
from .report import (
    SEARCH_PREFIX,
    WasteRow,
    density_map_from_rows,
    pair_deltas,
    render_correlation,
    render_pair_deltas,
    render_report,
    render_waste_attribution,
    search_counter_block,
    waste_density_correlation,
    waste_fraction,
    waste_rows_from_ledger_rows,
)

__all__ = [
    "SEARCH_PREFIX",
    "SearchObserver",
    "SearchTally",
    "StateClassifier",
    "StateCube",
    "WasteRow",
    "cube_key",
    "density_map_from_rows",
    "pair_deltas",
    "render_correlation",
    "render_pair_deltas",
    "render_report",
    "render_waste_attribution",
    "search_counter_block",
    "waste_density_correlation",
    "waste_fraction",
    "waste_rows_from_ledger_rows",
]
