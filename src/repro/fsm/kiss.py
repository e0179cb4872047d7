"""KISS2 format reader and writer.

KISS2 is the MCNC/SIS interchange format for FSMs — the input format of
the paper's synthesis flow.  Grammar (the subset every MCNC benchmark
uses)::

    .i <num-inputs>
    .o <num-outputs>
    .p <num-terms>          # optional, checked when present
    .s <num-states>         # optional, checked when present
    .r <reset-state>        # optional, defaults to first mentioned state
    <input-cube> <src> <dst> <output-pattern>
    ...
    .e                      # optional terminator

State names are arbitrary tokens; ``*`` as a source state (the ANY
convention some benchmarks use) is not supported and raises.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from .machine import Fsm, Transition


def read_kiss(text: str, name: str = "fsm") -> Fsm:
    """Parse KISS2 text into an :class:`Fsm` (validated)."""
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    declared_terms: Optional[int] = None
    declared_states: Optional[int] = None
    reset_state: Optional[str] = None
    rows: List[tuple] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == ".i":
            num_inputs = _int_directive(tokens, lineno)
        elif keyword == ".o":
            num_outputs = _int_directive(tokens, lineno)
        elif keyword == ".p":
            declared_terms = _int_directive(tokens, lineno)
        elif keyword == ".s":
            declared_states = _int_directive(tokens, lineno)
        elif keyword == ".r":
            if len(tokens) != 2:
                raise ParseError(".r needs one state name", lineno=lineno)
            reset_state = tokens[1]
        elif keyword in (".e", ".end"):
            break
        elif keyword.startswith("."):
            raise ParseError(
                f"unsupported KISS directive {keyword!r}", lineno=lineno
            )
        else:
            if len(tokens) != 4:
                raise ParseError(
                    f"transition row needs 4 fields, got {len(tokens)}",
                    lineno=lineno,
                )
            rows.append((tokens[0], tokens[1], tokens[2], tokens[3], lineno))

    if num_inputs is None or num_outputs is None:
        raise ParseError("KISS file must declare .i and .o")
    if not rows:
        raise ParseError("KISS file has no transitions")

    states: List[str] = []
    for _, src, dst, _, lineno in rows:
        for state in (src, dst):
            if state == "*":
                raise ParseError(
                    "the '*' ANY-state convention is not supported",
                    lineno=lineno,
                )
            if state not in states:
                states.append(state)
    if reset_state is None:
        reset_state = rows[0][1]
    if declared_states is not None and declared_states != len(states):
        raise ParseError(
            f".s declares {declared_states} states but transitions "
            f"mention {len(states)}"
        )
    if declared_terms is not None and declared_terms != len(rows):
        raise ParseError(
            f".p declares {declared_terms} terms but file has {len(rows)}"
        )

    fsm = Fsm(
        name=name,
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        states=states,
        reset_state=reset_state,
    )
    for inputs, src, dst, outputs, lineno in rows:
        if len(inputs) != num_inputs:
            raise ParseError(
                f"input cube {inputs!r} width != .i {num_inputs}",
                lineno=lineno,
            )
        if len(outputs) != num_outputs:
            raise ParseError(
                f"output pattern {outputs!r} width != .o {num_outputs}",
                lineno=lineno,
            )
        fsm.add_transition(Transition(inputs, src, dst, outputs))
    fsm.validate()
    return fsm


def write_kiss(fsm: Fsm) -> str:
    """Serialize an :class:`Fsm` to KISS2 text."""
    lines = [
        f".i {fsm.num_inputs}",
        f".o {fsm.num_outputs}",
        f".p {len(fsm.transitions)}",
        f".s {len(fsm.states)}",
        f".r {fsm.reset_state}",
    ]
    for t in fsm.transitions:
        lines.append(f"{t.inputs} {t.src} {t.dst} {t.outputs}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _int_directive(tokens: List[str], lineno: int) -> int:
    if len(tokens) != 2:
        raise ParseError(
            f"{tokens[0]} needs exactly one integer", lineno=lineno
        )
    try:
        return int(tokens[1])
    except ValueError:
        raise ParseError(
            f"{tokens[0]} argument {tokens[1]!r} is not an integer",
            lineno=lineno,
        ) from None
