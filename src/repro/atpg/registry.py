"""Engine registry: the one place that maps engine names to classes.

Everything that needs "an engine by name" — the harness runner, the
CLI, benchmarks, tests — goes through :func:`get_engine`; nothing else
in the tree is allowed to branch on engine-name strings.  Each entry is
an :class:`EngineSpec` carrying the constructor and the paper context
the name stands for (HITEC [11], SEST [21], the Attest/TDX-style
simulation-based family).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from ..circuit.netlist import Circuit
from ..errors import AtpgError
from ..obs import Tracer
from .hitec import HitecEngine
from .result import EffortBudget
from .sest import SestEngine
from .simbased import SimBasedEngine, SimBasedOptions


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """One registered engine family."""

    name: str
    factory: Callable[..., object]  # (circuit, *, budget, tracer[, options])
    description: str
    takes_options: bool = False  # accepts a SimBasedOptions-style object
    aliases: Tuple[str, ...] = ()


def _make_hitec(circuit: Circuit, *, budget=None, tracer=None):
    return HitecEngine(circuit, budget=budget, tracer=tracer)


def _make_sest(circuit: Circuit, *, budget=None, tracer=None):
    return SestEngine(circuit, budget=budget, tracer=tracer)


def _make_simbased(
    circuit: Circuit, *, budget=None, tracer=None, options=None
):
    return SimBasedEngine(
        circuit, budget=budget, options=options, tracer=tracer
    )


ENGINES: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine spec (extension hook for out-of-tree engines).

    All keys are validated before any is inserted, so a collision
    leaves the registry untouched.
    """
    keys = (spec.name, *spec.aliases)
    for key in keys:
        existing = ENGINES.get(key)
        if existing is not None and existing.name != spec.name:
            raise AtpgError(
                f"engine name {key!r} already registered for "
                f"{existing.name!r}"
            )
    for key in keys:
        ENGINES[key] = spec
    return spec


register_engine(
    EngineSpec(
        name="hitec",
        factory=_make_hitec,
        description="HITEC-style PODEM search over time frames",
    )
)
register_engine(
    EngineSpec(
        name="sest",
        factory=_make_sest,
        description="HITEC phases plus SEST illegal-state learning",
    )
)
register_engine(
    EngineSpec(
        name="simbased",
        factory=_make_simbased,
        description="simulation-based sequence breeding (Attest/TDX family)",
        takes_options=True,
        aliases=("attest",),
    )
)


def engine_names() -> Tuple[str, ...]:
    """Canonical engine names (aliases excluded), sorted."""
    return tuple(sorted({spec.name for spec in ENGINES.values()}))


def get_engine(
    name: str,
    circuit: Circuit,
    *,
    budget: Optional[EffortBudget] = None,
    options: Optional[SimBasedOptions] = None,
    tracer: Optional[Tracer] = None,
):
    """Construct the named engine (implements the AtpgEngine protocol).

    ``options`` is only legal for engines that declare
    ``takes_options`` (the simulation-based family); passing it to a
    structural engine is an error rather than a silent drop.
    """
    spec = ENGINES.get(str(name).lower())
    if spec is None:
        known = ", ".join(sorted(ENGINES))
        raise AtpgError(f"unknown engine {name!r}; registered: {known}")
    if options is not None and not spec.takes_options:
        raise AtpgError(
            f"engine {spec.name!r} does not take an options object"
        )
    if spec.takes_options:
        return spec.factory(
            circuit, budget=budget, tracer=tracer, options=options
        )
    return spec.factory(circuit, budget=budget, tracer=tracer)
