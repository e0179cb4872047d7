"""Per-circuit memos of derived analyses.

Several layers derive an expensive, deterministic value from one
netlist: the compiled simulation program, the §5 reachable-state set,
the lint report.  A :class:`CircuitMemo` holds one such value per live
circuit object.  Entries are keyed weakly by the circuit itself
(identity), so a dropped circuit frees its entry, and are validated
against :attr:`~repro.circuit.netlist.Circuit.structure_version`, so a
mutated circuit rebuilds on next use instead of aliasing a stale value.
A value that references its circuit keeps that circuit alive until the
memo is cleared.

:func:`clear_circuit_memos` drops every memo at once; the suite-level
cache resets call it so each harness cell (and each benchmark
iteration) pays for its derived state again.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Generic, List, Tuple, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from .netlist import Circuit

T = TypeVar("T")


class CircuitMemo(Generic[T]):
    """One derived value per live circuit and structure version."""

    def __init__(self) -> None:
        self._entries: "weakref.WeakKeyDictionary[Circuit, Tuple[int, T]]" = (
            weakref.WeakKeyDictionary()
        )
        _MEMOS.append(self)

    def get(self, circuit: "Circuit", build: Callable[["Circuit"], T]) -> T:
        """The memoized value, built by ``build(circuit)`` on a miss."""
        cached = self._entries.get(circuit)
        version = circuit.structure_version
        if cached is not None and cached[0] == version:
            return cached[1]
        value = build(circuit)
        self._entries[circuit] = (version, value)
        return value

    def clear(self) -> None:
        self._entries.clear()


_MEMOS: List[CircuitMemo] = []


def clear_circuit_memos() -> None:
    """Drop every per-circuit memo (compiled programs, reachable sets,
    lint reports)."""
    for memo in _MEMOS:
        memo.clear()
