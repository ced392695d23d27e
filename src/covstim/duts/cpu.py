"""Small RV32I CPU: 10 R-type ALU ops, the three stores, and JAL.

Stimuli are instruction-memory updates, a list of (address, word) pairs
applied before each step. The CPU fetches at pc (a missing word reads as
zero), decodes against the 14-op subset, and executes; anything else is a
NOP that only advances pc. Writes to x0 are discarded. JAL stores pc+4 in
rd and adds its sign-extended offset to pc; offsets >= 0 count as forward
jumps. The encodable offset is a multiple of 2, so jump targets are masked
to word alignment to keep pc fetchable.

Coverage: per-op seen/zero_dst/zero_src/same_src bins (where the fields
exist), jump direction bins, and one read-after-write hazard bin per
(writer op, reader op) pair of back-to-back executed instructions. An
executed NOP breaks hazard adjacency.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from covstim import rv32i
from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty
from covstim.duts import FORMAT_MEMORY_UPDATES, MalformedStimulusError
from covstim.duts.decoder import MATCH_MASK, decoder_model

_MASK = 0xFFFFFFFF
_JAL_OPCODE = 0x6F
_STORE_OPCODE = 0x23
_R_OPCODE = 0x33
_STORE_F3 = {0: "sb", 1: "sh", 2: "sw"}
_STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4}

R_OPS = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and")
STORE_OPS = ("sb", "sh", "sw")
CPU_OPS = R_OPS + STORE_OPS + ("jal",)

CPU_WRITERS = frozenset(R_OPS) | {"jal"}
CPU_READERS = frozenset(R_OPS) | set(STORE_OPS)

NOP = "nop"


@dataclass(frozen=True)
class CpuDecode:
    op: str  # one of CPU_OPS or "nop"
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    rd: Optional[int] = None
    imm: Optional[int] = None


_NOP_DECODE = CpuDecode(op=NOP)


def _signed(v: int) -> int:
    return v - 2**32 if v >= 2**31 else v


_ALU = {
    "add": lambda a, b: (a + b) & _MASK,
    "sub": lambda a, b: (a - b) & _MASK,
    "sll": lambda a, b: (a << (b & 31)) & _MASK,
    "slt": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (_signed(a) >> (b & 31)) & _MASK,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
}


def decode_cpu(word: int) -> CpuDecode:
    word &= _MASK
    opc = rv32i.opcode(word)
    if opc == _R_OPCODE:
        entry = decoder_model()[1].get(word & MATCH_MASK)  # only R-type ops use opcode 0x33
        if entry is None:
            return _NOP_DECODE
        return CpuDecode(
            op=entry[2]["name"], rs1=rv32i.rs1(word), rs2=rv32i.rs2(word), rd=rv32i.rd(word)
        )
    if opc == _STORE_OPCODE:
        name = _STORE_F3.get(rv32i.funct3(word))
        if name is None:
            return _NOP_DECODE
        return CpuDecode(op=name, rs1=rv32i.rs1(word), rs2=rv32i.rs2(word), imm=rv32i.imm_s(word))
    if opc == _JAL_OPCODE:
        return CpuDecode(op="jal", rd=rv32i.rd(word), imm=rv32i.imm_j(word))
    return _NOP_DECODE


def encode_cpu(op: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """Assemble a word for one of the 14 cpu ops."""
    if op == "jal":
        return rv32i.encode_j(_JAL_OPCODE, rd, imm)
    if op in _STORE_F3.values():
        f3 = {"sb": 0, "sh": 1, "sw": 2}[op]
        return rv32i.encode_s(_STORE_OPCODE, f3, rs1, rs2, imm)
    for match, (_, _, spec) in decoder_model()[1].items():
        if spec["format"] == "r" and spec["name"] == op:
            # the match value is the word with all register fields zero
            return (match | (rs2 << 20) | (rs1 << 15) | (rd << 7)) & _MASK
    raise ValueError(f"unknown cpu op {op!r}")


def cpu_plan() -> CoveragePlan:
    return _cpu_model()[0]


@lru_cache(maxsize=1)
def _cpu_model() -> tuple:
    """The plan plus the bin ids `CpuDut.step` emits, built in one pass.

    Returns (plan, R-type ops keyed by the decoder's masked word, stores
    keyed by funct3, JAL bins indexed [rd == 0][offset < 0], and JAL's
    hazard bins as the writer, keyed by reader op). An R-type or store entry is (name,
    seen, zero_src, same_src and zero_dst bin ids, ALU function, hazard
    bins as the writer, store width); the fields an op lacks are None, and
    a store's hazard bins are empty.
    """
    bins = []

    def add(bin_id: str, description: str, difficulty: Difficulty, group: str) -> str:
        bins.append(BinDescriptor(bin_id, description, difficulty, group))
        return bin_id

    op_bins: dict[str, dict[str, str]] = {}
    for op in CPU_OPS:
        own = op_bins[op] = {}
        own["seen"] = add(
            f"{op}_seen", f"instruction {op.upper()} executed", Difficulty.EASIER, "operation"
        )
        if op in CPU_WRITERS:
            own["zero_dst"] = add(
                f"{op}_zero_dst",
                f"{op.upper()} executed with destination register x0",
                Difficulty.HARDER,
                "operation",
            )
        if op in CPU_READERS:
            own["zero_src"] = add(
                f"{op}_zero_src",
                f"{op.upper()} executed with x0 as a source register",
                Difficulty.HARDER,
                "operation",
            )
            own["same_src"] = add(
                f"{op}_same_src",
                f"{op.upper()} executed with both source registers equal",
                Difficulty.HARDER,
                "operation",
            )
    jumps = tuple(
        add(
            f"jump_{direction}",
            f"JAL taken with a {direction} offset (zero counts as forward)",
            Difficulty.HARDER,
            "jump",
        )
        for direction in ("forward", "backward")
    )
    hazards: dict[str, dict[str, str]] = {}
    for writer in sorted(CPU_WRITERS):
        hazards[writer] = {
            reader: add(
                f"hazard_{writer}_{reader}",
                f"{writer.upper()} writing a register (not x0) immediately "
                f"followed by {reader.upper()} reading it (read-after-write)",
                Difficulty.HARDER,
                "hazard",
            )
            for reader in sorted(CPU_READERS)
        }
    def reader(name: str, alu=None, width=None) -> tuple:
        own = op_bins[name]
        return (name, own["seen"], own["zero_src"], own["same_src"], own.get("zero_dst"),
                alu, hazards.get(name, {}), width)

    # R-type encodings come from the decoder's masked-word table; sh and jal
    # are cpu-only and handled directly.
    r_ops = {
        match: reader(spec["name"], alu=_ALU[spec["name"]])
        for match, (_, _, spec) in decoder_model()[1].items()
        if spec["format"] == "r"
    }
    stores = {f3: reader(name, width=_STORE_WIDTH[name]) for f3, name in _STORE_F3.items()}
    jal = op_bins["jal"]
    jal_bins = tuple(
        tuple((jal["seen"], *zero_dst, jump) for jump in jumps)
        for zero_dst in ((), (jal["zero_dst"],))
    )
    return CoveragePlan("cpu", bins), r_ops, stores, jal_bins, hazards["jal"]


@dataclass
class CpuState:
    pc: int = 0
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    imem: dict[int, int] = field(default_factory=dict)
    dmem: dict[int, int] = field(default_factory=dict)


class CpuDut:
    """One timestep = apply instruction-memory updates, then execute once.

    `step` decodes inline and emits prebuilt bin ids; `decode_cpu` is the
    readable decode of the same words (see `last_decode`). The last writer's
    destination register carries read-after-write adjacency to the next
    instruction; a NOP, a store or an x0 destination clears it.
    """

    kind = "cpu"
    stimulus_format = FORMAT_MEMORY_UPDATES

    def __init__(self) -> None:
        self.plan, self._r_ops, self._stores, self._jal_bins, self._jal_hazards = _cpu_model()
        self.reset()

    def reset(self) -> None:
        self.state = CpuState()
        self.last_word: Optional[int] = None
        self._last_op = NOP
        self._writer_rd = 0  # destination of the previous instruction if it wrote one
        self._writer_hazards: dict[str, str] = {}  # its hazard bins by reader op

    @property
    def last_decode(self) -> CpuDecode:
        return _NOP_DECODE if self.last_word is None else decode_cpu(self.last_word)

    def apply_updates(self, updates: Sequence[Sequence[int]]) -> None:
        """Validate all updates, then apply; a malformed one rejects the lot."""
        for pair in updates:
            if len(pair) != 2:
                raise MalformedStimulusError(f"update must be [address, word]: {pair!r}")
            if int(pair[0]) & 3:
                raise MalformedStimulusError(
                    f"misaligned update address 0x{int(pair[0]) & _MASK:08x}"
                )
        imem = self.state.imem
        for addr, word in updates:
            imem[int(addr) & _MASK] = int(word) & _MASK

    def step(self) -> list[str]:
        s = self.state
        pc = s.pc
        word = s.imem.get(pc, 0)
        self.last_word = word
        opcode = word & 0x7F
        if opcode == _JAL_OPCODE:
            rd = (word >> 7) & 31
            # imm[20|10:1|11|19:12] from bits 31|30:21|20|19:12, sign-extended
            imm = (
                ((word >> 11) & 0x100000)
                | (word & 0xFF000)
                | ((word >> 9) & 0x800)
                | ((word >> 20) & 0x7FE)
            )
            imm -= (imm & 0x100000) << 1
            if rd:
                s.regs[rd] = (pc + 4) & _MASK
            # encodable offsets are even but not always multiples of 4
            s.pc = (pc + imm) & 0xFFFFFFFC
            self._last_op = "jal"
            self._writer_rd = rd
            self._writer_hazards = self._jal_hazards
            return list(self._jal_bins[rd == 0][imm < 0])
        s.pc = (pc + 4) & _MASK
        if opcode == _R_OPCODE:
            op = self._r_ops.get(word & MATCH_MASK)
        elif opcode == _STORE_OPCODE:
            op = self._stores.get((word >> 12) & 7)
        else:
            op = None
        if op is None:
            self._last_op = NOP
            self._writer_rd = 0
            return []
        name, seen, zero_src, same_src, zero_dst, alu, hazards, width = op
        regs = s.regs
        rs1 = (word >> 15) & 31
        rs2 = (word >> 20) & 31
        bins = [seen]
        if alu is not None:  # R-type
            rd = (word >> 7) & 31
            if rd:
                regs[rd] = alu(regs[rs1], regs[rs2])
            else:
                bins.append(zero_dst)
        else:  # store
            rd = 0
            # imm[11:5|4:0] from bits 31:25|11:7, sign-extended below
            imm = ((word >> 20) & 0xFE0) | ((word >> 7) & 0x1F)
            addr = (regs[rs1] + imm - ((imm & 0x800) << 1)) & _MASK
            value = regs[rs2]
            for i in range(width):
                s.dmem[(addr + i) & _MASK] = (value >> (8 * i)) & 0xFF
        if rs1 == 0 or rs2 == 0:
            bins.append(zero_src)
        if rs1 == rs2:
            bins.append(same_src)
        writer_rd = self._writer_rd
        if writer_rd and (writer_rd == rs1 or writer_rd == rs2):
            bins.append(self._writer_hazards[name])
        self._last_op = name
        self._writer_rd = rd
        self._writer_hazards = hazards
        return bins

    def feed(self, stimulus: Sequence[Sequence[int]]) -> list[str]:
        self.apply_updates(stimulus)
        return self.step()

    def extras(self) -> dict:
        return {"pc": self.state.pc, "last_word": self.last_word, "last_op": self._last_op}
