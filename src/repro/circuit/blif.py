"""BLIF (Berkeley Logic Interchange Format) reader and writer.

SIS — the synthesis system the paper used — speaks BLIF, so this module
is the interchange layer of the reproduction: circuits can be dumped for
inspection and external netlists can be imported into the pipeline.

Reading
    ``.names`` covers of arbitrary size are converted into networks of
    library primitives (AND of literals per cube, OR across cubes; an
    OFF-set cover gets a trailing inverter).  ``.latch`` lines become
    DFF nodes; init values 0/1/2/3 map to 0/1/X/X.

Writing
    Each gate primitive is emitted as a ``.names`` cover in its natural
    SOP form, and each DFF as a ``.latch`` with its init value, so a
    round trip through this module preserves circuit function (though
    not necessarily gate-for-gate structure).
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .._util import NameAllocator, popcount
from ..errors import ParseError
from .gates import GateType, ONE, X, ZERO
from .netlist import Circuit, NodeKind

_LATCH_INIT_TO_TERNARY = {"0": ZERO, "1": ONE, "2": X, "3": X}
_TERNARY_TO_LATCH_INIT = {ZERO: "0", ONE: "1", X: "2"}


# --------------------------------------------------------------------------
# Writer
# --------------------------------------------------------------------------


def write_blif(circuit: Circuit, stream: Optional[TextIO] = None) -> str:
    """Serialize ``circuit`` to BLIF; returns the text (and writes to
    ``stream`` if given)."""
    out = io.StringIO()
    out.write(f".model {circuit.name}\n")
    out.write(_dot_list(".inputs", circuit.inputs))
    out.write(_dot_list(".outputs", circuit.outputs))
    for dff in circuit.dffs():
        init_char = _TERNARY_TO_LATCH_INIT[dff.init]
        out.write(f".latch {dff.fanin[0]} {dff.name} re clk {init_char}\n")
    for node in circuit.nodes():
        if node.kind is not NodeKind.GATE:
            continue
        out.write(_names_for_gate(node.name, node.gate, node.fanin))
    out.write(".end\n")
    text = out.getvalue()
    if stream is not None:
        stream.write(text)
    return text


def save_blif(circuit: Circuit, path: str) -> None:
    """Write ``circuit`` to a BLIF file at ``path``."""
    with open(path, "w") as f:
        write_blif(circuit, f)


def _dot_list(keyword: str, names: Sequence[str]) -> str:
    if not names:
        return f"{keyword}\n"
    lines = []
    current = keyword
    for name in names:
        if len(current) + len(name) + 1 > 78:
            lines.append(current + " \\")
            current = " "
        current += f" {name}"
    lines.append(current)
    return "\n".join(lines) + "\n"


def _names_for_gate(name: str, gate: GateType, fanin: Tuple[str, ...]) -> str:
    header = ".names " + " ".join(list(fanin) + [name]) + "\n"
    n = len(fanin)
    if gate is GateType.CONST0:
        return f".names {name}\n"
    if gate is GateType.CONST1:
        return f".names {name}\n1\n"
    if gate is GateType.BUF:
        return header + "1 1\n"
    if gate is GateType.NOT:
        return header + "0 1\n"
    if gate is GateType.AND:
        return header + "1" * n + " 1\n"
    if gate is GateType.NAND:
        rows = []
        for i in range(n):
            rows.append("-" * i + "0" + "-" * (n - i - 1) + " 1")
        return header + "\n".join(rows) + "\n"
    if gate is GateType.OR:
        rows = []
        for i in range(n):
            rows.append("-" * i + "1" + "-" * (n - i - 1) + " 1")
        return header + "\n".join(rows) + "\n"
    if gate is GateType.NOR:
        return header + "0" * n + " 1\n"
    if gate in (GateType.XOR, GateType.XNOR):
        want_odd = gate is GateType.XOR
        rows = []
        for minterm in range(1 << n):
            ones = popcount(minterm)
            if (ones % 2 == 1) == want_odd:
                bits = "".join(str((minterm >> i) & 1) for i in range(n))
                rows.append(bits + " 1")
        return header + "\n".join(rows) + "\n"
    raise AssertionError(f"unhandled gate type {gate!r}")


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------


def read_blif(text: str, name: Optional[str] = None) -> Circuit:
    """Parse BLIF text into a :class:`Circuit` of library primitives."""
    statements = _tokenize(text)
    model_name = name or "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    latches: List[Tuple[str, str, int, int]] = []  # (d, q, init, lineno)
    covers: List[Tuple[List[str], str, List[str], int]] = []

    i = 0
    while i < len(statements):
        tokens, lineno = statements[i]
        keyword = tokens[0]
        if keyword == ".model":
            if name is None and len(tokens) > 1:
                model_name = tokens[1]
            i += 1
        elif keyword == ".inputs":
            inputs.extend(tokens[1:])
            i += 1
        elif keyword == ".outputs":
            outputs.extend(tokens[1:])
            i += 1
        elif keyword == ".latch":
            latches.append(_parse_latch(tokens, lineno))
            i += 1
        elif keyword == ".names":
            signals = tokens[1:]
            if not signals:
                raise ParseError(".names with no signals", lineno=lineno)
            cube_rows: List[str] = []
            i += 1
            while i < len(statements):
                row_tokens, row_lineno = statements[i]
                if row_tokens[0].startswith("."):
                    break
                cube_rows.append(" ".join(row_tokens))
                i += 1
            covers.append((signals[:-1], signals[-1], cube_rows, lineno))
        elif keyword in (".end", ".exdc"):
            break
        elif keyword in (".clock", ".wire_load_slope", ".default_input_arrival"):
            i += 1  # ignored directives
        else:
            raise ParseError(f"unsupported BLIF directive {keyword!r}", lineno=lineno)

    circuit = Circuit(model_name)
    names = NameAllocator()
    for pi in inputs:
        names.reserve(pi)
        circuit.add_input(pi)
    for d_input, q, init, _ in latches:
        names.reserve(q)
        circuit.add_dff(q, d_input, init=init)
    # Pre-reserve every declared signal so fresh intermediate names minted
    # while elaborating one cover can never collide with a signal that a
    # later cover defines (BLIF covers may appear in any order).
    for fanin, output, _, _ in covers:
        names.reserve(output)
        for signal in fanin:
            names.reserve(signal)
    for fanin, output, rows, lineno in covers:
        _build_cover(circuit, names, fanin, output, rows, lineno)
    for po in outputs:
        circuit.add_output(po)
    circuit.check()
    return circuit


def load_blif(path: str) -> Circuit:
    """Read a BLIF file from disk."""
    with open(path) as f:
        return read_blif(f.read())


def _tokenize(text: str) -> List[Tuple[List[str], int]]:
    """Split BLIF text into (token-list, line-number) statements,
    resolving ``\\`` line continuations and stripping ``#`` comments."""
    statements: List[Tuple[List[str], int]] = []
    pending = ""
    pending_lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not pending:
            continue
        if pending:
            line = pending + " " + line.strip()
        else:
            pending_lineno = lineno
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            continue
        pending = ""
        tokens = line.split()
        if tokens:
            statements.append((tokens, pending_lineno))
    if pending:
        tokens = pending.split()
        if tokens:
            statements.append((tokens, pending_lineno))
    return statements


def _parse_latch(tokens: List[str], lineno: int) -> Tuple[str, str, int, int]:
    body = tokens[1:]
    if len(body) < 2:
        raise ParseError(".latch needs input and output", lineno=lineno)
    d_input, q = body[0], body[1]
    init = X
    rest = body[2:]
    if rest:
        init_token = rest[-1]
        if init_token in _LATCH_INIT_TO_TERNARY:
            init = _LATCH_INIT_TO_TERNARY[init_token]
    return d_input, q, init, lineno


def _build_cover(
    circuit: Circuit,
    names: NameAllocator,
    fanin: List[str],
    output: str,
    rows: List[str],
    lineno: int,
) -> None:
    """Turn one ``.names`` cover into primitive gates driving ``output``."""
    parsed: List[Tuple[str, str]] = []
    for row in rows:
        parts = row.split()
        if len(fanin) == 0:
            if len(parts) != 1:
                raise ParseError(f"bad constant cover row {row!r}", lineno=lineno)
            parsed.append(("", parts[0]))
            continue
        if len(parts) != 2:
            raise ParseError(f"bad cover row {row!r}", lineno=lineno)
        cube, value = parts
        if len(cube) != len(fanin):
            raise ParseError(
                f"cube {cube!r} width {len(cube)} != fanin count {len(fanin)}",
                lineno=lineno,
            )
        parsed.append((cube, value))

    output_values = {value for _, value in parsed}
    if output_values - {"0", "1"}:
        raise ParseError(f"bad cover output values {output_values}", lineno=lineno)
    if len(output_values) > 1:
        raise ParseError(
            "mixed ON-set and OFF-set rows in one cover", lineno=lineno
        )

    # Constant functions.
    if not parsed:
        circuit.add_gate(output, GateType.CONST0, [])
        names.reserve(output)
        return
    if not fanin:
        gate = GateType.CONST1 if parsed[0][1] == "1" else GateType.CONST0
        circuit.add_gate(output, gate, [])
        names.reserve(output)
        return

    is_offset = output_values == {"0"}

    def literal(signal: str, phase: str) -> str:
        if phase == "1":
            return signal
        inv = names.fresh(f"{signal}_n")
        circuit.add_gate(inv, GateType.NOT, [signal])
        return inv

    product_terms: List[str] = []
    for cube, _ in parsed:
        literals = [
            literal(fanin[pos], char)
            for pos, char in enumerate(cube)
            if char != "-"
        ]
        if not literals:
            term = names.fresh(f"{output}_t")
            circuit.add_gate(term, GateType.CONST1, [])
        elif len(literals) == 1:
            term = literals[0]
        else:
            term = names.fresh(f"{output}_t")
            circuit.add_gate(term, GateType.AND, literals)
        product_terms.append(term)

    names.reserve(output)
    final_gate = GateType.NOT if is_offset else GateType.BUF
    if len(product_terms) == 1:
        circuit.add_gate(output, final_gate, [product_terms[0]])
        return
    if is_offset:
        circuit.add_gate(output, GateType.NOR, product_terms)
    else:
        circuit.add_gate(output, GateType.OR, product_terms)
