"""The built-in DRC rules.

``DRC001``-``DRC005`` are the basic netlist sanity checks (structural
integrity, dead nodes, unknown power-up, missing outputs, disconnected
inputs); they carry ``legacy=True`` and ``--list-rules`` marks them
``[ported]``.  ``DRC101``-``DRC110`` are the structural analyses; each
exploits an existing substrate (graph traversals, ternary
simulation semantics, SCOAP, levelization) to catch — *before* any ATPG
CPU is spent — the netlist pathologies the paper shows structural test
generators drown in: uninitializable or redundant state, unobservable
or uncontrollable lines, and invalid-state-dominated encodings.

Rule check functions take a :class:`repro.lint.core.LintContext` and
yield ``(subject, message)`` or ``(subject, message, fix_hint)``
tuples; the runner stamps IDs and severities.  Every rule must tolerate
structurally broken circuits (that is what ``DRC001`` reports), so the
helpers below return ``None`` instead of raising when the netlist is
not well-formed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..circuit.gates import GateType, X, ternary_to_char
from ..circuit.graph import (
    dead_nodes,
    levelize,
    transitive_fanin,
)
from ..circuit.netlist import Circuit, NodeKind
from .core import LintContext, rule
from .severity import Severity

_CONST_GATES = (GateType.CONST0, GateType.CONST1)


# --------------------------------------------------------------------------
# Shared cached analyses.
# --------------------------------------------------------------------------


def _is_well_formed(context: LintContext) -> bool:
    """Fanin/PO references resolve and the combinational view is a DAG."""

    def compute() -> bool:
        try:
            context.circuit.check()
        except Exception:
            return False
        return True

    return bool(context.cached("well_formed", compute))


def _ternary_fixpoint(
    context: LintContext,
) -> Optional[Tuple[Dict[str, int], Dict[str, int]]]:
    """Abstract ternary reachability (see :mod:`repro.analysis.ternary`).

    The computation is shared with the static fault analyzer
    (:mod:`repro.fault.analysis`); this wrapper only adds the per-run
    cache and the well-formedness screen.
    """

    def compute() -> Optional[Tuple[Dict[str, int], Dict[str, int]]]:
        # Lazy: repro.analysis pulls in the ATPG result types, and this
        # module loads during the circuit package's own import.
        from ..analysis.ternary import ternary_fixpoint

        if not _is_well_formed(context):
            return None
        return ternary_fixpoint(context.circuit)

    return context.cached("ternary_fixpoint", compute)  # type: ignore[return-value]


def _levels(context: LintContext) -> Optional[Dict[str, int]]:
    def compute() -> Optional[Dict[str, int]]:
        if not _is_well_formed(context):
            return None
        return levelize(context.circuit)

    return context.cached("levels", compute)  # type: ignore[return-value]


# --------------------------------------------------------------------------
# DRC001-DRC005: basic netlist sanity checks.
# --------------------------------------------------------------------------


@rule(
    "DRC001",
    name="structural-integrity",
    severity=Severity.ERROR,
    category="structure",
    legacy=True,
)
def check_structural_integrity(context: LintContext) -> Iterator[Tuple[str, str]]:
    """Hard invariants of :meth:`Circuit.check` (dangling references,
    bad DFF arity, duplicate inputs, combinational cycles)."""
    try:
        context.circuit.check()
    except Exception as exc:
        yield context.circuit.name, str(exc)


@rule(
    "DRC002",
    name="dead-node",
    severity=Severity.WARNING,
    category="connectivity",
    legacy=True,
)
def check_dead_nodes(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Logic and inputs that influence no primary output or register."""
    if not _is_well_formed(context):
        return
    circuit = context.circuit
    for name in sorted(dead_nodes(circuit)):
        if circuit.node(name).kind is NodeKind.INPUT:
            yield name, "primary input influences no output or register"
        else:
            yield (
                name,
                "dead logic: influences no output or register",
                "sweep with circuit.graph.sweep_dead_nodes()",
            )


@rule(
    "DRC003",
    name="unknown-power-up",
    severity=Severity.WARNING,
    category="initialization",
    legacy=True,
)
def check_initialization(context: LintContext) -> Iterator[Tuple[str, str]]:
    """DFFs powering up unknown: the machine has no defined reset state.

    Every experiment in this study assumes a known reset state (explicit
    reset line or power-up reset, paper §2.1); ATPG on an
    uninitializable machine burns its budget on synchronizing sequences.
    """
    circuit = context.circuit
    dffs = list(circuit.dffs())
    if not dffs:
        return
    unknown = [d.name for d in dffs if d.init == X]
    if unknown:
        yield (
            circuit.name,
            f"{len(unknown)} of {len(dffs)} DFFs power up unknown "
            f"(first: {unknown[0]!r}); ATPG will need a synchronizing "
            "sequence",
        )


@rule(
    "DRC004",
    name="no-primary-outputs",
    severity=Severity.ERROR,
    category="interface",
    legacy=True,
    retiming_invariant=True,
)
def check_has_outputs(context: LintContext) -> Iterator[Tuple[str, str]]:
    """A netlist with no primary outputs is untestable by definition."""
    if not context.circuit.outputs:
        yield context.circuit.name, "no primary outputs"


@rule(
    "DRC005",
    name="disconnected-input",
    severity=Severity.WARNING,
    category="interface",
    legacy=True,
    retiming_invariant=True,
)
def check_disconnected_inputs(context: LintContext) -> Iterator[Tuple[str, str]]:
    """Primary inputs with no sequential path to any primary output."""
    circuit = context.circuit
    if not _is_well_formed(context):
        return
    po_cone = transitive_fanin(circuit, circuit.outputs, through_dffs=True)
    for pi in circuit.inputs:
        if pi not in po_cone:
            yield pi, "primary input cannot influence any output"


# --------------------------------------------------------------------------
# DRC101-DRC108: the new analyses.
# --------------------------------------------------------------------------


@rule(
    "DRC101",
    name="combinational-cycle",
    severity=Severity.ERROR,
    category="structure",
    retiming_invariant=True,
)
def check_combinational_cycles(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """DFF-free cycles (each reported once, as the SCC that contains it).

    Unlike :meth:`Circuit.check`, which stops at the first cycle, this
    enumerates every strongly connected component of the combinational
    view and names its members, so all loops can be fixed in one pass.
    """
    circuit = context.circuit
    for scc in _combinational_sccs(circuit):
        members = sorted(scc)
        shown = ", ".join(members[:6]) + (" ..." if len(members) > 6 else "")
        yield (
            members[0],
            f"combinational cycle through {len(members)} node(s): {shown}",
            "break the loop with a DFF or restructure the logic",
        )


def _combinational_sccs(circuit: Circuit) -> List[Set[str]]:
    """Tarjan SCCs of the combinational view (iterative); self-loops and
    multi-node components only."""
    edges: Dict[str, Tuple[str, ...]] = {}
    for node in circuit.nodes():
        if node.kind in (NodeKind.INPUT, NodeKind.DFF):
            edges[node.name] = ()
        else:
            edges[node.name] = tuple(f for f in node.fanin if f in circuit)

    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[Set[str]] = []

    for root in edges:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            name, edge_position = work[-1]
            if edge_position == 0:
                index[name] = lowlink[name] = counter[0]
                counter[0] += 1
                stack.append(name)
                on_stack.add(name)
            advanced = False
            successors = edges[name]
            for position in range(edge_position, len(successors)):
                successor = successors[position]
                if successor not in index:
                    work[-1] = (name, position + 1)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[name] = min(lowlink[name], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[name])
            if lowlink[name] == index[name]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == name:
                        break
                if len(component) > 1 or name in edges[name]:
                    sccs.append(component)
    return sccs


@rule(
    "DRC102",
    name="constant-net",
    severity=Severity.WARNING,
    category="redundancy",
)
def check_constant_nets(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Nets provably stuck at 0/1 by ternary static evaluation.

    A gate whose output holds one value in every reachable cycle is
    structurally redundant logic; every fault on it is untestable and
    the surrounding faults see a frozen side input.
    """
    fixpoint = _ternary_fixpoint(context)
    if fixpoint is None:
        return
    values, _ = fixpoint
    for node in context.circuit.gates():
        if node.gate in _CONST_GATES:
            continue  # intentional constant ties
        value = values[node.name]
        if value != X:
            yield (
                node.name,
                f"net provably stuck at {ternary_to_char(value)} in every "
                "reachable cycle: structurally redundant logic",
                "fold with circuit.transform.propagate_constants() and sweep",
            )


@rule(
    "DRC103",
    name="stuck-register",
    severity=Severity.WARNING,
    category="redundancy",
)
def check_stuck_registers(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Registers that provably never leave their init value.

    A stuck register contributes nothing to the state space but doubles
    the apparent one — the paper's density-of-encoding denominator grows
    while the valid-state count does not.
    """
    fixpoint = _ternary_fixpoint(context)
    if fixpoint is None:
        return
    _, state = fixpoint
    for dff in context.circuit.dffs():
        value = state[dff.name]
        if value != X:
            yield (
                dff.name,
                f"register provably holds {ternary_to_char(value)} in every "
                "reachable cycle",
                "replace the register with a constant and sweep",
            )


@rule(
    "DRC104",
    name="retiming-unsafe-init",
    severity=Severity.WARNING,
    category="retiming",
)
def check_retiming_init_safety(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Init-value inconsistencies that break Theorem 1 preconditions.

    Retiming preserves testability only when the retimed machine's reset
    state maps onto the original's (Theorem 1).  Three structural
    patterns make that mapping impossible to maintain exactly: parallel
    registers on one net that disagree on init (register merges/splits
    change reset behavior), a register whose init contradicts a provably
    constant D input (the reset state dies after one cycle), and mixed
    known/unknown power-up (backward moves cannot justify X inits
    through gates).
    """
    circuit = context.circuit
    if not _is_well_formed(context):
        return

    by_driver: Dict[str, List] = {}
    for dff in circuit.dffs():
        by_driver.setdefault(dff.fanin[0], []).append(dff)
    for driver, group in sorted(by_driver.items()):
        inits = {d.init for d in group}
        if len(group) > 1 and len(inits) > 1:
            rendered = ", ".join(
                f"{d.name}={ternary_to_char(d.init)}" for d in group
            )
            yield (
                driver,
                f"parallel registers on this net disagree on init "
                f"({rendered}); retiming cannot merge or split them "
                "without changing the reset state",
                "align the init values or separate the registers",
            )

    fixpoint = _ternary_fixpoint(context)
    if fixpoint is not None:
        values, _ = fixpoint
        for dff in circuit.dffs():
            driven = values[dff.fanin[0]]
            if driven != X and dff.init != X and dff.init != driven:
                yield (
                    dff.name,
                    f"init {ternary_to_char(dff.init)} contradicts the "
                    f"provably constant D input "
                    f"({ternary_to_char(driven)}); the reset state is "
                    "left after one cycle and backward retiming cannot "
                    "justify it",
                    "set the init value to the driven constant",
                )

    inits = [d.init for d in circuit.dffs()]
    unknown = sum(1 for v in inits if v == X)
    if 0 < unknown < len(inits):
        yield (
            circuit.name,
            f"mixed power-up: {unknown} of {len(inits)} registers start "
            "unknown; backward retiming moves cannot justify X init "
            "values through gates with defined siblings",
        )


@rule(
    "DRC105",
    name="scoap-saturated",
    severity=Severity.WARNING,
    category="testability",
)
def check_scoap_saturation(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Lines whose SCOAP controllability or observability saturates.

    A saturated controllability means no input/state sequence the
    fixpoint found can set the line; saturated observability means no
    path propagates a fault effect to an output.  ATPG will spend its
    whole per-fault budget proving these faults untestable — flagging
    them first is the cheap screen.
    """
    circuit = context.circuit
    if not _is_well_formed(context):
        return
    from ..analysis.testability import INFINITY, scoap  # lazy: heavy import

    # seed_reset: reset-state values cost nothing, so registers whose
    # only structural support is their own loop do not false-positive.
    report = scoap(
        circuit,
        max_iterations=context.config.scoap_iterations,
        seed_reset=True,
    )
    dead = dead_nodes(circuit)
    for node in circuit.nodes():
        name = node.name
        if node.kind is NodeKind.GATE and node.gate in _CONST_GATES:
            continue  # constants are uncontrollable by design
        worst = max(report.cc0[name], report.cc1[name])
        if worst >= INFINITY:
            stuck_at = "0" if report.cc0[name] >= INFINITY else "1"
            yield (
                name,
                f"SCOAP controllability saturated (cannot set the line "
                f"to {stuck_at}); stuck-at faults here will abort",
            )
    for node in circuit.nodes():
        name = node.name
        if name in dead:
            continue  # DRC002's finding; don't double-report
        if report.observability[name] >= INFINITY:
            yield (
                name,
                "SCOAP observability saturated: no structural path "
                "propagates a fault effect on this line to an output",
            )


@rule(
    "DRC106",
    name="state-encoding-density",
    severity=Severity.WARNING,
    category="encoding",
)
def check_encoding_density(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Register count far above the reachable-state bound (low density).

    The paper's key complexity indicator: when 2^#DFF dwarfs the valid
    states, ATPG drowns justifying unreachable states.  Two screens run:

    * a **structural upper bound** — stuck registers (from the ternary
      fixpoint) contribute no state bit and lockstep duplicates (same
      driver, same init) collapse to one — flagged when provably wasted
      bits reach ``min_wasted_state_bits``;
    * **exact symbolic reachability** (the Table 6/7 machinery) when
      ``#DFF <= density_dff_limit`` and the reset state is defined —
      flagged when the density of encoding is at or below
      ``min_density``.
    """
    circuit = context.circuit
    fixpoint = _ternary_fixpoint(context)
    if fixpoint is None:
        return
    _, state = fixpoint
    dffs = list(circuit.dffs())
    total = len(dffs)
    if total == 0:
        return
    classes: Set[Tuple[str, int]] = set()
    stuck = 0
    for dff in dffs:
        if state[dff.name] != X:
            stuck += 1
            continue
        classes.add((dff.fanin[0], dff.init))
    effective = len(classes)
    wasted = total - effective
    if wasted >= context.config.min_wasted_state_bits:
        yield (
            circuit.name,
            f"{total} DFFs but at most 2^{effective} reachable states "
            f"({stuck} stuck register(s), "
            f"{total - stuck - effective} lockstep duplicate(s)): "
            f"density of encoding <= 2^-{wasted} — the low-density red "
            "flag for sequential-ATPG blowup (paper §5)",
            "re-encode the state or sweep redundant registers",
        )

    if total > context.config.density_dff_limit:
        return
    if any(dff.init == X for dff in dffs):
        return  # density is defined relative to a reset state (DRC003)
    from ..analysis.density import reachability_report  # lazy: BDD engine

    report = reachability_report(circuit)
    density = report.density_of_encoding
    if density <= context.config.min_density:
        yield (
            circuit.name,
            f"density of encoding {density:.3g} "
            f"({report.num_valid_states} valid of 2^{total} total "
            f"states) is at or below {context.config.min_density:g}: "
            "ATPG will waste its budget justifying unreachable states "
            "(paper §5, Tables 6-7)",
            "re-encode with fewer state bits or retime registers back "
            "out of the combinational logic",
        )


@rule(
    "DRC107",
    name="combinational-depth",
    severity=Severity.WARNING,
    category="budget",
)
def check_combinational_depth(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Logic depth beyond the structural budget.

    Deep combinational cones blow up PODEM's backtrace and the
    time-frame expansion cost per frame; depth is capped by
    ``LintConfig.max_depth``.
    """
    levels = _levels(context)
    if levels is None:
        return
    budget = context.config.max_depth
    deepest = None
    for name, level in levels.items():
        if level > budget and (deepest is None or level > levels[deepest]):
            deepest = name
    if deepest is not None:
        yield (
            deepest,
            f"combinational depth {levels[deepest]} exceeds the "
            f"structural budget ({budget})",
            "restructure with a depth-oriented script or pipeline the cone",
        )


@rule(
    "DRC108",
    name="fanout-budget",
    severity=Severity.WARNING,
    category="budget",
)
def check_fanout_budget(context: LintContext) -> Iterator[Tuple[str, ...]]:
    """Nets whose fanout exceeds the structural budget.

    Very high fanout stems multiply the reconvergence the D-algorithm
    family must track and make single lines dominate the fault list.
    The budget scales with circuit size (``LintConfig.max_fanout`` is
    the absolute floor, ``max_fanout_fraction`` the relative cap), so
    two-level-style netlists with legitimately wide literal drivers are
    not drowned in findings — only disproportionate stems are flagged.
    """
    circuit = context.circuit
    if not _is_well_formed(context):
        return
    budget = max(
        context.config.max_fanout,
        int(context.config.max_fanout_fraction * len(circuit)),
    )
    for name, readers in sorted(circuit.fanouts().items()):
        extra = int(circuit.is_output(name))
        if len(readers) + extra > budget:
            yield (
                name,
                f"fanout {len(readers) + extra} exceeds the structural "
                f"budget ({budget})",
                "buffer the net into a fanout tree",
            )


@rule(
    "DRC109",
    name="untestable-fault-site",
    severity=Severity.WARNING,
    category="testability",
)
def check_untestable_fault_sites(
    context: LintContext,
) -> Iterator[Tuple[str, ...]]:
    """Fault sites with statically provable untestable stuck-at faults.

    The static fault analyzer (:mod:`repro.fault.analysis`) proves
    faults undetectable without search: unexcitable (the line is
    provably constant, sharing DRC102's ternary fixpoint) or
    unobservable (no structural path to any primary output).  Every
    such fault is dead weight in the fault list and usually marks
    removable logic.
    """
    if not _is_well_formed(context):
        return

    def compute() -> Dict[str, List[str]]:
        # Lazy: repro.fault imports the circuit package this module
        # loads under.
        from ..fault.analysis import untestable_faults

        by_node: Dict[str, List[str]] = {}
        for fault, reason in untestable_faults(context.circuit).items():
            by_node.setdefault(fault.node, []).append(
                f"{fault}: {reason}"
            )
        return by_node

    by_node = context.cached("untestable_faults", compute)
    for name in sorted(by_node):  # type: ignore[union-attr]
        proofs = by_node[name]  # type: ignore[index]
        yield (
            name,
            "; ".join(sorted(proofs)),
            "remove the dead logic or tie the line off explicitly",
        )


@rule(
    "DRC110",
    name="checkpoint-ratio",
    severity=Severity.NOTE,
    category="testability",
)
def check_checkpoint_ratio(
    context: LintContext,
) -> Iterator[Tuple[str, ...]]:
    """Checkpoint-to-site ratio outside the suite's normal band.

    Checkpoints (primary inputs, fanout stems, DFF outputs) bound the
    fault-collapsing yield: a near-zero ratio means the netlist is one
    long fanout-free chain (degenerate structure, suspiciously
    serial), a high ratio means nearly every line branches and
    dominance/checkpoint collapsing buys almost nothing.  The band is
    ``LintConfig.min_checkpoint_ratio``/``max_checkpoint_ratio``.
    """
    if not _is_well_formed(context):
        return
    from ..fault.analysis import checkpoint_nodes  # lazy, see DRC109

    circuit = context.circuit
    sites = len(circuit)
    if sites == 0:
        return
    ratio = len(checkpoint_nodes(circuit)) / sites
    low = context.config.min_checkpoint_ratio
    high = context.config.max_checkpoint_ratio
    if ratio < low:
        yield (
            circuit.name,
            f"checkpoint ratio {ratio:.4f} below {low} — the netlist "
            "is nearly one fanout-free chain; expect anomalously deep "
            "backtrace cones",
        )
    elif ratio > high:
        yield (
            circuit.name,
            f"checkpoint ratio {ratio:.4f} above {high} — almost every "
            "line is a stem; dominance/checkpoint collapsing will buy "
            "little",
        )
