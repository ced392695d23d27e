"""RV32I decoder subset: 26 ALU, shift, load, and store ops.

The op/port table ships as package data (data/rv32i_ops.json) and is the
single source of truth for encodings, port usage, and the generated coverage
plan: one bin per op, one per (register, port) pair, and one per
op x register x port cross for the ports that op actually uses. Each op's
match word (opcode | funct3 << 12 | funct7 << 25) keys the decode lookup,
and `encode` ORs the operand fields onto it; the CPU model's encoder builds
on the same words. Words that do not match any table entry hit nothing: a
word whose opcode no supported op uses is turned away by one table index,
before either match lookup.
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty
from covstim.duts import FORMAT_INTEGERS

# Ops with a fixed funct7 are keyed on opcode, funct3 and funct7; ops that
# leave bits 31:25 free are keyed on opcode and funct3 only, in a separate
# table so that a word with an unlisted funct7 never falls through to an
# R-type op.
MATCH_MASK = 0xFE00707F
FREE_MASK = 0x0000707F
_MASK = 0xFFFFFFFF

_PORTS = (  # port, its word field, the field's shift
    ("read_a", "rs1", 15),
    ("read_b", "rs2", 20),
    ("write", "rd", 7),
)


@lru_cache(maxsize=1)
def op_table() -> dict:
    """The shipped table, with each op's match word added as `match`."""
    raw = resources.files("covstim").joinpath("data/rv32i_ops.json").read_text()
    table = json.loads(raw)
    for op in table["ops"]:
        op["opcode"] = int(op["opcode"], 16)
        if op["funct7"] is not None:
            op["funct7"] = int(op["funct7"], 16)
        op["match"] = op["opcode"] | op["funct3"] << 12 | (op["funct7"] or 0) << 25
    return table


def store_imm(imm: int) -> int:
    """An S-type immediate in place: imm[11:5] at bits 31:25, imm[4:0] at 11:7."""
    imm &= 0xFFF
    return (imm >> 5) << 25 | (imm & 0x1F) << 7


def check_registers(**registers: int) -> None:
    """Raise ValueError unless every given register number is 0-31, so that
    no field spills into its neighbours."""
    for name, reg in registers.items():
        if not 0 <= reg <= 31:
            raise ValueError(f"{name} must be a register number 0-31, got {reg!r}")


def encode(
    op: str, rs1: int = 0, rs2: int = 0, rd: int = 0, imm: int = 0, shamt: int = 0
) -> int:
    """Assemble a word for one of the 26 supported ops.

    Immediates are signed Python ints, truncated to their field; the fields
    are ORed onto the op's match word and the result is an unsigned 32-bit
    word. Fields the op's format does not carry are ignored, but every
    register number must be 0-31 (ValueError otherwise).
    """
    entry = next((e for e in op_table()["ops"] if e["name"] == op), None)
    if entry is None:
        raise ValueError(f"unknown op {op!r}")
    check_registers(rs1=rs1, rs2=rs2, rd=rd)
    fmt = entry["format"]
    word = entry["match"] | rs1 << 15
    if fmt == "r":
        word |= rs2 << 20 | rd << 7
    elif fmt == "store":
        word |= rs2 << 20 | store_imm(imm)
    elif fmt == "i_shift":  # the shift amount sits in the rs2 field
        word |= (shamt & 0x1F) << 20 | rd << 7
    else:
        word |= (imm & 0xFFF) << 20 | rd << 7
    return word & _MASK


@lru_cache(maxsize=1)
def decoder_model() -> tuple[
    CoveragePlan, dict[int, tuple], dict[int, tuple], tuple[bool, ...]
]:
    """The plan, the two masked-word lookup tables and the opcode gate,
    built in one pass.

    Each table is keyed on an op's match word. An entry is (op bin id,
    ports): `ports` has one (field shift, pairs) item per port the op uses,
    in read_a, read_b, write order, and `pairs[reg]` is that register's
    (port bin id, cross bin id). The gate has 128 entries, indexed by a
    word's opcode (bits 6:0), true only for an opcode some op uses.
    """
    table = op_table()
    bins = []
    port_ids: dict[tuple[int, str], str] = {}
    for reg in range(32):
        for port, field, _ in _PORTS:
            port_ids[reg, port] = f"port_x{reg:02d}_{port}"
            bins.append(
                BinDescriptor(
                    id=port_ids[reg, port],
                    description=(
                        f"register x{reg} observed on decoder port {port} "
                        f"(the {field} field) by any supported op"
                    ),
                    difficulty=Difficulty.EASIER,
                    group="port",
                )
            )
    fixed: dict[int, tuple] = {}
    free: dict[int, tuple] = {}
    gate = [False] * 128
    harder = Difficulty.HARDER
    for op in table["ops"]:
        gate[op["opcode"]] = True
        name = op["name"]
        upper = name.upper()
        op_id = f"op_{name}"
        f7 = f", funct7 0x{op['funct7']:02x}" if op["funct7"] is not None else ""
        bins.append(
            BinDescriptor(
                id=op_id,
                description=(
                    f"a 32-bit word decoding to {upper} "
                    f"(opcode 0x{op['opcode']:02x}, funct3 {op['funct3']}{f7})"
                ),
                difficulty=Difficulty.EASIER,
                group="op",
            )
        )
        ports = []
        for port, field, shift in _PORTS:
            if not op[f"uses_{field}"]:
                continue
            pairs = []
            # most of the plan, built at every start-up: positionally
            for reg in range(32):
                cross_id = f"cross_{name}_x{reg:02d}_{port}"
                pairs.append((port_ids[reg, port], cross_id))
                bins.append(BinDescriptor(
                    cross_id,
                    f"{upper} with register x{reg} on port {port} (the {field} field)",
                    harder,
                    "cross",
                ))
            ports.append((shift, tuple(pairs)))
        (free if op["funct7"] is None else fixed).setdefault(op["match"], (op_id, tuple(ports)))
    if any(key & FREE_MASK in free for key in fixed):
        raise ValueError("op table: a funct7-free op shares opcode and funct3 with another op")
    return CoveragePlan("decoder", bins), fixed, free, tuple(gate)


class DecoderMonitor:
    """Feeds 32-bit words through the decoder and reports coverage bins."""

    kind = "decoder"
    stimulus_format = FORMAT_INTEGERS

    def __init__(self) -> None:
        self.plan, fixed, free, self._gate = decoder_model()
        self._fixed_get = fixed.get
        self._free_get = free.get

    def reset(self) -> None:
        pass  # the decoder is stateless

    def feed(self, stimulus: int) -> list[str]:
        # most uniform words carry an opcode no op uses: one index turns them away
        if not self._gate[stimulus & 0x7F]:
            return []
        # the masks and register fields all lie in the low 32 bits, so the
        # stimulus needs no 32-bit mask first
        entry = self._fixed_get(stimulus & MATCH_MASK) or self._free_get(stimulus & FREE_MASK)
        if entry is None:
            return []
        op_id, ports = entry
        bins = [op_id]
        for shift, pairs in ports:
            bins += pairs[(stimulus >> shift) & 31]
        return bins
