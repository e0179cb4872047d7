"""Maximum sequential depth (paper §4.2, Table 5, Theorem 2).

Definition (the paper's): the sequential depth of a path from a primary
input to a primary output is the number of D flip-flops encountered
along it, *visiting no node more than once*; the maximum sequential
depth is the maximum over all such paths.

The node-disjointness clause matters: it is what makes the metric
retiming-invariant (Theorem 2 — a retimed register rank is a cut, so a
simple path crosses it the same number of times wherever the registers
sit), and it is also what makes the exact computation NP-hard.  The
implementation is a branch-and-bound DFS on the node graph:

* bound: ``depth so far + |registers reachable from here that the path
  has not used|`` (register reachability precomputed as bitmasks);
* the search is *proven* optimal when it exhausts, or when the best
  path found already crosses every register (nothing can beat that);
* otherwise an expansion budget stops it and the best found is returned
  with ``exact=False`` — on retimed circuits the corresponding original
  path is always found quickly, so the value is right even when the
  exhaustion proof is out of reach (Theorem 2's property test covers
  the invariance exactly on small circuits).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, Tuple

from .._util import popcount
from ..circuit.netlist import Circuit


@dataclasses.dataclass
class DepthReport:
    """Result of the sequential-depth search."""

    depth: int
    exact: bool  # True: proven maximal; False: budget-limited best-found
    expansions: int


def _register_reach(circuit: Circuit) -> Tuple:
    """Index the node graph for the branch-and-bound searches.

    Returns ``(names, index, dff_bit, num_dffs, reachable, successors)``
    over node positions: ``dff_bit[i]`` is node ``i``'s register bit (0
    for other nodes); ``reachable[i]`` the registers reachable from it
    along walks, not simple paths — an upper bound on what any simple
    path can still collect; ``successors[i]`` its fanout with
    register-rich branches first, so the best path is found early and
    the bound prunes the rest.
    """
    circuit.check()
    fanouts = circuit.fanouts()
    names = list(circuit.node_names())
    index = {name: i for i, name in enumerate(names)}
    dff_bit = [0] * len(names)
    dffs = list(circuit.dffs())
    for position, dff in enumerate(dffs):
        dff_bit[index[dff.name]] = 1 << position
    successors = [[index[r] for r in fanouts[name]] for name in names]

    reachable = list(dff_bit)
    changed = True
    while changed:
        changed = False
        for node_index, node_successors in enumerate(successors):
            acc = reachable[node_index]
            for successor in node_successors:
                acc |= reachable[successor]
            if acc != reachable[node_index]:
                reachable[node_index] = acc
                changed = True

    ordered = [
        sorted(succ, key=lambda s: -popcount(reachable[s]))
        for succ in successors
    ]
    # Path length is bounded by the node count; make sure Python's
    # recursion limit is not the binding constraint.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * len(names) + 1000))
    return names, index, dff_bit, len(dffs), reachable, ordered


def sequential_depth_report(
    circuit: Circuit, expansion_limit: int = 500_000
) -> DepthReport:
    """Branch-and-bound max-sequential-depth on the node graph."""
    names, index, dff_bit, num_dffs, reachable, successors = (
        _register_reach(circuit)
    )
    outputs = set(circuit.outputs)
    is_output = [name in outputs for name in names]

    best = 0
    expansions = 0
    budget_hit = False
    on_path = [False] * len(names)

    def dfs(node_index: int, depth: int, used_mask: int) -> None:
        nonlocal best, expansions, budget_hit
        expansions += 1
        if expansions > expansion_limit:
            budget_hit = True
            return
        if is_output[node_index] and depth > best:
            best = depth
        if best >= num_dffs:
            return  # nothing can cross more registers than exist
        remaining = reachable[node_index] & ~used_mask
        if depth + popcount(remaining) <= best:
            return
        for successor in successors[node_index]:
            if on_path[successor]:
                continue
            bit = dff_bit[successor]
            on_path[successor] = True
            dfs(successor, depth + 1 if bit else depth, used_mask | bit)
            on_path[successor] = False
            if budget_hit:
                return

    for pi in circuit.inputs:
        if budget_hit or best >= num_dffs:
            break
        start = index[pi]
        on_path[start] = True
        dfs(start, 0, 0)
        on_path[start] = False

    exact = (not budget_hit) or best >= num_dffs
    return DepthReport(depth=best, exact=exact, expansions=expansions)


def max_sequential_depth(
    circuit: Circuit, expansion_limit: int = 500_000
) -> int:
    """The paper's *max seq depth* metric (Table 5).  See
    :func:`sequential_depth_report` for exactness semantics."""
    return sequential_depth_report(circuit, expansion_limit).depth


def sequential_depth_per_output(circuit: Circuit) -> Dict[str, int]:
    """Max sequential depth restricted to each primary output's cone
    (diagnostic view; the paper reports only the maximum)."""
    result: Dict[str, int] = {}
    for po in circuit.outputs:
        restricted = circuit.copy(f"{circuit.name}@{po}")
        restricted._outputs = [po]  # narrow the sink
        result[po] = max_sequential_depth(restricted)
    return result
