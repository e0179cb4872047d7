"""Cycle structure of sequential circuits (paper §4.2, Table 5, Figure 2,
Theorems 3-4).

Three metrics:

* **#cycles** (:func:`count_dff_cycles`) — cycles counted per unique D
  flip-flop subset, the convention of Lioy et al. [17] that Table 5
  uses.  Computed on the register view (one vertex per DFF, one edge
  per combinational connection).  The paper stresses that "the number
  of cycles computed varies according to the algorithm used" and that
  the *increase* under retiming is a counting artifact (Figure 2): one
  register splitting into several turns one DFF subset into many.  Our
  algorithm reproduces that direction (originals count fewer subsets
  than their retimed versions).
* **max cycle length** (:func:`max_cycle_length_report`) — the most D
  flip-flops on any *node-simple* cycle of the gate-level graph.  The
  node-disjointness is what Theorem 4's invariance rests on, and it
  makes the exact problem NP-hard; we run a branch-and-bound search
  with the same bound/budget scheme as the sequential-depth analysis.
* **path-distinct cycle count** (:func:`count_path_cycles`) — every
  simple cycle of the gate-level graph counted separately, the "actual"
  cycle count of Theorem 3.  Exponential; intended for the theorem's
  property tests and small demonstrators (the Figure 2 example lives in
  ``examples/cycle_counting_artifact.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterator, Set

from .._util import bit_positions, popcount
from ..circuit.graph import register_adjacency
from ..circuit.netlist import Circuit, NodeKind
from ..errors import AnalysisError
from .seqdepth import _register_reach


@dataclasses.dataclass
class CycleReport:
    """Table 5's cycle columns for one circuit."""

    num_cycles: int  # distinct DFF subsets forming a register-view cycle
    max_cycle_length: int  # most DFFs on any node-simple cycle
    count_capped: bool  # subset enumeration stopped early
    length_exact: bool  # max length proven (vs budget-limited best)


def _cycle_masks(adjacency: Dict[str, Set[str]], cap: int) -> Iterator[int]:
    """Simple-cycle enumeration, capped; yields each cycle as the bitmask
    of its vertices' positions in ``sorted(adjacency)``.

    A Johnson-style scheme sized for register graphs with tens of
    vertices: each cycle is discovered exactly once, rooted at its
    smallest vertex.
    """
    nodes = sorted(adjacency)
    index = {name: i for i, name in enumerate(nodes)}
    successors = [
        sorted(index[s] for s in adjacency[name] if s in index)
        for name in nodes
    ]
    yielded = 0
    for root, root_successors in enumerate(successors):
        path = [root]
        path_mask = 1 << root
        stack = [iter(root_successors)]
        while stack:
            for successor in stack[-1]:
                if successor == root:
                    yield path_mask
                    yielded += 1
                    if yielded >= cap:
                        return
                    continue
                # Vertices below the root were roots already.
                if successor < root or (path_mask >> successor) & 1:
                    continue
                path.append(successor)
                path_mask |= 1 << successor
                stack.append(iter(successors[successor]))
                break
            else:
                path_mask ^= 1 << path.pop()
                stack.pop()


def count_dff_cycles(circuit: Circuit, cap: int = 200_000) -> CycleReport:
    """Table 5 metrics: the Lioy-style subset count plus the node-simple
    maximum cycle length."""
    masks = list(_cycle_masks(register_adjacency(circuit), cap))
    length = max_cycle_length_report(circuit)
    return CycleReport(
        num_cycles=len(set(masks)),
        max_cycle_length=length.length,
        count_capped=len(masks) >= cap,
        length_exact=length.exact,
    )


@dataclasses.dataclass
class CycleLengthReport:
    """Result of the node-simple max-cycle-length search."""

    length: int
    exact: bool
    expansions: int


def max_cycle_length_report(
    circuit: Circuit, expansion_limit: int = 500_000
) -> CycleLengthReport:
    """Most DFFs on any node-simple cycle (branch-and-bound).

    Same exactness semantics as the sequential-depth search: proven when
    the search exhausts or the best cycle uses every register; otherwise
    a budget-limited best-found (which matches the original circuit's
    value on retimed circuits, since retiming maps cycles one-to-one —
    Theorem 4)."""
    names, _, dff_bit, num_dffs, reachable, successors = _register_reach(
        circuit
    )

    best = 0
    expansions = 0
    budget_hit = False
    on_path = [False] * len(names)

    def dfs(node_index: int, root: int, depth: int, used_mask: int) -> None:
        nonlocal best, expansions, budget_hit
        expansions += 1
        if expansions > expansion_limit:
            budget_hit = True
            return
        if best >= num_dffs:
            return
        remaining = reachable[node_index] & ~used_mask
        if depth + popcount(remaining) <= best:
            return
        root_bit = dff_bit[root]
        for successor in successors[node_index]:
            if successor == root:
                if depth > best:
                    best = depth
                continue
            if on_path[successor]:
                continue
            # Prune branches from which the root register is unreachable:
            # they can never close the cycle.
            if not reachable[successor] & root_bit:
                continue
            bit = dff_bit[successor]
            on_path[successor] = True
            dfs(
                successor,
                root,
                depth + 1 if bit else depth,
                used_mask | bit,
            )
            on_path[successor] = False
            if budget_hit:
                return

    # Roots: every DFF in turn; cycles through no DFF have length 0 and
    # never matter (a combinational cycle would fail circuit.check()).
    dff_indices = sorted(
        (i for i, bit in enumerate(dff_bit) if bit), key=lambda i: names[i]
    )
    for root in dff_indices:
        if budget_hit or best >= num_dffs:
            break
        on_path[root] = True
        dfs(root, root, 1, dff_bit[root])
        on_path[root] = False

    exact = (not budget_hit) or best >= num_dffs
    return CycleLengthReport(length=best, exact=exact, expansions=expansions)


def count_path_cycles(circuit: Circuit, cap: int = 200_000) -> int:
    """The *actual* (path-distinct) cycle count of Theorem 3: simple
    cycles over the circuit's **gates**, each distinct gate route counted
    separately, with registers collapsed into the connections (where the
    registers sit on a route cannot change which routes exist — exactly
    the connectivity-preservation argument of the theorem's proof).
    Parallel registers on one connection are one connection.

    Intended for small circuits (property tests, the Figure 2 example);
    raises :class:`AnalysisError` when the cap is hit, because a capped
    count would silently understate the invariant being tested.
    """
    count = 0
    for _ in _cycle_masks(_gate_adjacency(circuit), cap):
        count += 1
        if count >= cap:
            raise AnalysisError(
                f"path-cycle enumeration exceeded the cap ({cap}); "
                "use count_dff_cycles for large circuits"
            )
    return count


def _gate_adjacency(circuit: Circuit) -> Dict[str, Set[str]]:
    """Gate-to-gate connectivity with register chains collapsed."""
    fanouts = circuit.fanouts()
    adjacency: Dict[str, Set[str]] = {
        node.name: set()
        for node in circuit.nodes()
        if node.kind is NodeKind.GATE
    }

    def sinks_of(signal: str, seen: Set[str]) -> Set[str]:
        result: Set[str] = set()
        for reader in fanouts[signal]:
            if reader in seen:
                continue
            node = circuit.node(reader)
            if node.kind is NodeKind.DFF:
                seen.add(reader)
                result |= sinks_of(reader, seen)
            else:
                result.add(reader)
        return result

    for gate_name in adjacency:
        adjacency[gate_name] = sinks_of(gate_name, set())
    return adjacency


def cycle_dff_sets(
    circuit: Circuit, cap: int = 200_000
) -> Set[FrozenSet[str]]:
    """The distinct DFF subsets that form register-view cycles."""
    adjacency = register_adjacency(circuit)
    nodes = sorted(adjacency)
    return {
        frozenset(nodes[i] for i in bit_positions(mask))
        for mask in _cycle_masks(adjacency, cap)
    }
