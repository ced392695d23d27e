"""RV32I decoder subset: 26 ALU, shift, load, and store ops.

The op/port table ships as package data (data/rv32i_ops.json) and is the
single source of truth for encodings, port usage, and the generated coverage
plan: one bin per op, one per (register, port) pair, and one per
op x register x port cross for the ports that op actually uses. Words that
do not match any table entry decode to the illegal value and hit nothing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

from covstim import rv32i
from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty
from covstim.duts import FORMAT_INTEGERS

ILLEGAL = "illegal"

PORT_READ_A = "read_a"  # rs1 field
PORT_READ_B = "read_b"  # rs2 field
PORT_WRITE = "write"  # rd field


@dataclass(frozen=True)
class DecodeResult:
    op: str
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    rd: Optional[int] = None
    imm: Optional[int] = None
    shamt: Optional[int] = None

    @property
    def is_illegal(self) -> bool:
        return self.op == ILLEGAL

    def ports(self) -> list[tuple[int, str]]:
        """(register, port) pairs this instruction touches."""
        pairs = []
        if self.rs1 is not None:
            pairs.append((self.rs1, PORT_READ_A))
        if self.rs2 is not None:
            pairs.append((self.rs2, PORT_READ_B))
        if self.rd is not None:
            pairs.append((self.rd, PORT_WRITE))
        return pairs


_ILLEGAL_RESULT = DecodeResult(op=ILLEGAL)

# Ops with a fixed funct7 are keyed on opcode, funct3 and funct7; ops that
# leave bits 31:25 free are keyed on opcode and funct3 only, in a separate
# table so that a word with an unlisted funct7 never falls through to an
# R-type op.
MATCH_MASK = 0xFE00707F
FREE_MASK = 0x0000707F

_PORTS = (  # port, its word field, the field's shift
    (PORT_READ_A, "rs1", 15),
    (PORT_READ_B, "rs2", 20),
    (PORT_WRITE, "rd", 7),
)


@lru_cache(maxsize=1)
def op_table() -> dict:
    raw = resources.files("covstim").joinpath("data/rv32i_ops.json").read_text()
    table = json.loads(raw)
    for op in table["ops"]:
        op["opcode"] = int(op["opcode"], 16)
        if op["funct7"] is not None:
            op["funct7"] = int(op["funct7"], 16)
    return table


def decode(word: int) -> DecodeResult:
    """Total function: unmatched words decode to the illegal value."""
    word &= rv32i.MASK32
    _, fixed, free = decoder_model()
    found = fixed.get(word & MATCH_MASK) or free.get(word & FREE_MASK)
    if found is None:
        return _ILLEGAL_RESULT
    entry = found[2]
    fmt = entry["format"]
    if fmt == "r":
        return DecodeResult(
            op=entry["name"], rs1=rv32i.rs1(word), rs2=rv32i.rs2(word), rd=rv32i.rd(word)
        )
    if fmt == "i_shift":
        return DecodeResult(
            op=entry["name"], rs1=rv32i.rs1(word), rd=rv32i.rd(word), shamt=rv32i.rs2(word)
        )
    if fmt == "store":
        return DecodeResult(
            op=entry["name"], rs1=rv32i.rs1(word), rs2=rv32i.rs2(word), imm=rv32i.imm_s(word)
        )
    # "i" and "load"
    return DecodeResult(
        op=entry["name"], rs1=rv32i.rs1(word), rd=rv32i.rd(word), imm=rv32i.imm_i(word)
    )


def encode(
    op: str, rs1: int = 0, rs2: int = 0, rd: int = 0, imm: int = 0, shamt: int = 0
) -> int:
    """Assemble a word for one of the 26 supported ops."""
    entry = next((e for e in op_table()["ops"] if e["name"] == op), None)
    if entry is None:
        raise ValueError(f"unknown op {op!r}")
    fmt = entry["format"]
    if fmt == "r":
        return rv32i.encode_r(entry["opcode"], entry["funct3"], entry["funct7"], rd, rs1, rs2)
    if fmt == "i_shift":
        imm12 = (entry["funct7"] << 5) | (shamt & 0x1F)
        return rv32i.encode_i(entry["opcode"], entry["funct3"], rd, rs1, imm12)
    if fmt == "store":
        return rv32i.encode_s(entry["opcode"], entry["funct3"], rs1, rs2, imm)
    return rv32i.encode_i(entry["opcode"], entry["funct3"], rd, rs1, imm)


def _reg_ids() -> range:
    return range(0, 32) if op_table()["include_x0_ports"] else range(1, 32)


def bins_for(result: DecodeResult) -> list[str]:
    """Op, port, and cross bins hit by one decoded word."""
    if result.is_illegal:
        return []
    include_x0 = op_table()["include_x0_ports"]
    bins = [f"op_{result.op}"]
    for reg, port in result.ports():
        if reg == 0 and not include_x0:
            continue
        bins.append(f"port_x{reg:02d}_{port}")
        bins.append(f"cross_{result.op}_x{reg:02d}_{port}")
    return bins


def decoder_plan() -> CoveragePlan:
    return decoder_model()[0]


@lru_cache(maxsize=1)
def decoder_model() -> tuple[CoveragePlan, dict[int, tuple], dict[int, tuple]]:
    """The plan and the two masked-word lookup tables, built in one pass.

    A table entry is (op bin id, ports, op-table record). `ports` has one
    (field shift, pairs) item per port the op uses, in read_a, read_b,
    write order; `pairs[reg]` is that register's (port bin id, cross bin
    id), or () where the plan leaves x0 out.
    """
    table = op_table()
    bins = []
    port_ids: dict[tuple[int, str], str] = {}
    for reg in _reg_ids():
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
    for op in table["ops"]:
        op_id = f"op_{op['name']}"
        f7 = f", funct7 0x{op['funct7']:02x}" if op["funct7"] is not None else ""
        bins.append(
            BinDescriptor(
                id=op_id,
                description=(
                    f"a 32-bit word decoding to {op['name'].upper()} "
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
            pairs: list[tuple] = [()] * 32
            for reg in _reg_ids():
                cross_id = f"cross_{op['name']}_x{reg:02d}_{port}"
                pairs[reg] = (port_ids[reg, port], cross_id)
                bins.append(
                    BinDescriptor(
                        id=cross_id,
                        description=(
                            f"{op['name'].upper()} with register x{reg} on port "
                            f"{port} (the {field} field)"
                        ),
                        difficulty=Difficulty.HARDER,
                        group="cross",
                    )
                )
            ports.append((shift, tuple(pairs)))
        entry = (op_id, tuple(ports), op)
        key = op["opcode"] | (op["funct3"] << 12)
        if op["funct7"] is None:
            free.setdefault(key, entry)
        else:
            fixed.setdefault(key | (op["funct7"] << 25), entry)
    if any(key & FREE_MASK in free for key in fixed):
        raise ValueError("op table: a funct7-free op shares opcode and funct3 with another op")
    return CoveragePlan("decoder", bins), fixed, free


class DecoderMonitor:
    """Feeds 32-bit words through the decoder and reports coverage bins."""

    kind = "decoder"
    stimulus_format = FORMAT_INTEGERS

    def __init__(self) -> None:
        self.plan, fixed, free = decoder_model()
        self._fixed_get = fixed.get
        self._free_get = free.get

    def reset(self) -> None:
        pass  # the decoder is stateless

    def feed(self, stimulus: int) -> list[str]:
        # the lookup of decode(), inlined; the masks and register fields all
        # lie in the low 32 bits, so the stimulus needs no 32-bit mask first
        entry = self._fixed_get(stimulus & MATCH_MASK) or self._free_get(stimulus & FREE_MASK)
        if entry is None:
            return []
        op_id, ports, _ = entry
        bins = [op_id]
        for shift, pairs in ports:
            bins += pairs[(stimulus >> shift) & 31]
        return bins

    def extras(self) -> dict:
        return {}
