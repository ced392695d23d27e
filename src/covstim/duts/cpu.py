"""Small RV32I CPU: 10 R-type ALU ops, the three stores, and JAL.

Stimuli are instruction-memory updates, (address, word) pairs applied
before each step; any iterable of pairs will do, an iterator included. The
CPU fetches at pc (a missing word reads as zero), decodes against the
14-op subset, and executes; anything else is a NOP that only advances pc.
JAL adds its sign-extended offset to pc; offsets >= 0 count as forward
jumps. The encodable offset is a multiple of 2, so jump targets are masked
to word alignment to keep pc fetchable.

The R-type ops are the decoder's: `encode_cpu` assembles them, and `feed`
looks them up, by the decoder op table's match words. A store's funct3 is
its index in STORE_OPS, and JAL is encoded here.

The model keeps only the pc, the instruction memory and the last writer's
destination register. Register and data-memory values are not modelled:
the subset has no loads, branches or JALR, so no bin and no control flow
reads them.

The instruction memory has two parts: a write log of masked (address, word)
pairs in two `array("I")` columns, 8 bytes a write, and an address map that
holds the writes folded so far. A fetch at the address of the step's newest
write executes that word; any other fetch first folds the log into the map,
in write order, then reads the map. A constrained-random step writes a jump
at the pc it then fetches, so a crt run never builds the map. A step checks
and logs its updates in one pass; a malformed one cuts the log back to its
length before the step, so a rejected stimulus writes nothing.

Coverage: per-op seen/zero_dst/zero_src/same_src bins (where the fields
exist), jump direction bins, and one read-after-write hazard bin per
(writer op, reader op) pair of back-to-back executed instructions. An
executed NOP breaks hazard adjacency.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterable, Sequence

from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty
from covstim.duts import FORMAT_MEMORY_UPDATES, MalformedStimulusError
from covstim.duts.decoder import MATCH_MASK, check_registers, encode, store_imm

_MASK = 0xFFFFFFFF
JAL_OPCODE = 0x6F
_STORE_OPCODE = 0x23
_R_OPCODE = 0x33

# The signed part of a JAL offset that bits 31:20 carry, indexed by those
# bits; imm[19:12] sits in place at bits 19:12 and adds on as is. Built in
# index order, the lowest bit innermost. The crt draw moves its pc by it too.
JAL_HIGH = tuple([
    imm20 + imm10_1 + imm11
    for imm20 in (0, -1 << 20)  # bit 31, the sign
    for imm10_1 in range(0, 1 << 11, 2)  # bits 30:21
    for imm11 in (0, 1 << 11)  # bit 20
])

R_OPS = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and")
STORE_OPS = ("sb", "sh", "sw")  # in funct3 order
CPU_OPS = R_OPS + STORE_OPS + ("jal",)

CPU_WRITERS = frozenset(R_OPS) | {"jal"}
CPU_READERS = frozenset(R_OPS) | set(STORE_OPS)


def encode_cpu(op: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """Assemble a word for one of the 14 cpu ops.

    R-type words come from the decoder's `encode`. A JAL offset must be even
    and in the 21-bit signed range; every immediate is truncated to its field.
    A register number outside 0-31 raises ValueError.
    """
    if op in R_OPS:
        return encode(op, rs1=rs1, rs2=rs2, rd=rd)
    check_registers(rd=rd, rs1=rs1, rs2=rs2)
    if op in STORE_OPS:
        word = _STORE_OPCODE | STORE_OPS.index(op) << 12 | rs2 << 20 | rs1 << 15
        return (word | store_imm(imm)) & _MASK
    if op != "jal":
        raise ValueError(f"unknown cpu op {op!r}")
    imm &= 0x1FFFFE
    # imm[20|10:1|11|19:12] into bits 31|30:21|20|19:12
    word = (
        (imm >> 20) << 31
        | ((imm >> 1) & 0x3FF) << 21
        | ((imm >> 11) & 1) << 20
        | ((imm >> 12) & 0xFF) << 12
        | rd << 7
        | JAL_OPCODE
    )
    return word & _MASK


@lru_cache(maxsize=1)
def _cpu_model() -> tuple:
    """The plan plus the bin ids `CpuDut.feed` emits, built in one pass.

    Returns (plan, R-type ops keyed by the decoder's masked word, stores
    keyed by funct3, JAL bins indexed [rd == 0][offset < 0], and JAL's
    hazard bins as the writer, keyed by reader op). An R-type or store entry
    is (name, seen, zero_src, same_src and zero_dst bin ids, hazard bins as
    the writer); a store's zero_dst is None and its hazard bins are empty.
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
    def reader(name: str) -> tuple:
        own = op_bins[name]
        return (name, own["seen"], own["zero_src"], own["same_src"], own.get("zero_dst"),
                hazards.get(name, {}))

    # an R-type op is keyed by its word with every register field zero, which
    # is the decoder's match word
    r_ops = {encode(name): reader(name) for name in R_OPS}
    stores = {f3: reader(name) for f3, name in enumerate(STORE_OPS)}
    jal = op_bins["jal"]
    jal_bins = tuple(
        tuple((jal["seen"], *zero_dst, jump) for jump in jumps)
        for zero_dst in ((), (jal["zero_dst"],))
    )
    return CoveragePlan("cpu", bins), r_ops, stores, jal_bins, hazards["jal"]


class CpuDut:
    """One timestep = apply instruction-memory updates, then execute once.

    `feed` decodes inline and emits prebuilt bin ids. The last writer's
    destination register carries read-after-write adjacency to the next
    instruction; a NOP, a store or an x0 destination clears it.

    Writes go to the log `_addrs`/`_words`; `imem` folds the log into the
    address map `_imem` and returns the map. A step whose newest write is at
    the pc executes that word without folding.
    """

    kind = "cpu"
    stimulus_format = FORMAT_MEMORY_UPDATES

    def __init__(self) -> None:
        self.plan, self._r_ops, self._stores, self._jal_bins, self._jal_hazards = _cpu_model()
        self.reset()

    def reset(self) -> None:
        self.pc = 0
        self._imem: dict[int, int] = {}  # folded writes by address
        self._addrs = array("I")  # writes not folded yet, in write order
        self._words = array("I")
        self._writer_rd = 0  # destination of the previous instruction if it wrote one
        self._writer_hazards: dict[str, str] = {}  # its hazard bins by reader op

    def feed(self, stimulus: Iterable[Sequence[int]]) -> list[str]:
        """Apply the updates, then execute once; a malformed update rejects the lot.

        One pass checks each update and appends it to the write log. When an
        update is rejected, the log is cut back to its length before this
        stimulus and the error propagates, so a rejected stimulus writes
        nothing and does not step.
        """
        addrs, words = self._addrs, self._words
        logged = len(addrs)
        addr = -1  # no write: the fetch folds
        try:
            for pair in stimulus:
                if len(pair) != 2:
                    raise MalformedStimulusError(f"update must be [address, word]: {pair!r}")
                addr, word = pair
                # values are nearly always exact ints, for which int() is a wasted call
                if type(addr) is not int:
                    addr = int(addr)
                if addr & 3:
                    raise MalformedStimulusError(f"misaligned update address 0x{addr & _MASK:08x}")
                if type(word) is not int:
                    word = int(word)
                addr &= _MASK
                word &= _MASK
                addrs.append(addr)
                words.append(word)
        except BaseException:
            del addrs[logged:], words[logged:]
            raise
        pc = self.pc
        if addr != pc:  # the newest write, if any, is not the word at pc
            word = self.imem.get(pc, 0)
        opcode = word & 0x7F
        if opcode == JAL_OPCODE:
            rd = (word >> 7) & 31
            imm = JAL_HIGH[word >> 20] + (word & 0xFF000)
            # encodable offsets are even but not always multiples of 4
            self.pc = (pc + imm) & 0xFFFFFFFC
            self._writer_rd = rd
            self._writer_hazards = self._jal_hazards
            return list(self._jal_bins[rd == 0][imm < 0])
        self.pc = (pc + 4) & _MASK
        if opcode == _R_OPCODE:
            op = self._r_ops.get(word & MATCH_MASK)
        elif opcode == _STORE_OPCODE:
            op = self._stores.get((word >> 12) & 7)
        else:
            op = None
        if op is None:
            self._writer_rd = 0
            return []
        name, seen, zero_src, same_src, zero_dst, hazards = op
        rs1 = (word >> 15) & 31
        rs2 = (word >> 20) & 31
        bins = [seen]
        if zero_dst is None:  # a store writes no register
            rd = 0
        else:
            rd = (word >> 7) & 31
            if not rd:
                bins.append(zero_dst)
        if rs1 == 0 or rs2 == 0:
            bins.append(zero_src)
        if rs1 == rs2:
            bins.append(same_src)
        writer_rd = self._writer_rd
        if writer_rd and (writer_rd == rs1 or writer_rd == rs2):
            bins.append(self._writer_hazards[name])
        self._writer_rd = rd
        self._writer_hazards = hazards
        return bins

    @property
    def imem(self) -> dict[int, int]:
        """The instruction memory by address, with every logged write folded in."""
        addrs = self._addrs
        if addrs:
            self._imem.update(zip(addrs, self._words))
            del addrs[:], self._words[:]
        return self._imem
