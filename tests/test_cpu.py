"""CPU model tests.

Frozen expectations were hand-simulated from the instruction semantics
(register file starts at zero, so JAL's link value is the only way to mint a
nonzero value). The hazard oracle re-derives read-after-write pairs from the
executed decode trace, independent of the monitor's incremental bookkeeping.
The reference interpreter re-reads the documented semantics field by field
and is compared with the model after every step: bins, pc, registers, both
memories, extras and malformed-stimulus rejection.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from covstim.coverage import CoverageState, Difficulty
from covstim.duts import MalformedStimulusError
from covstim.duts.cpu import (
    CPU_READERS,
    CPU_WRITERS,
    CpuDut,
    cpu_plan,
    encode_cpu,
)

MASK = 0xFFFFFFFF


# --- plan shape ---------------------------------------------------------------

def test_plan_cardinality_closed_form():
    plan = cpu_plan()
    # 10 r-type ops x 4 bins, 3 stores x 3, jal x 2, 2 jump bins, 11x13 hazards
    assert len(plan) == 10 * 4 + 3 * 3 + 2 + 2 + 11 * 13 == 196
    groups = Counter(b.group for b in plan)
    assert groups == {"operation": 51, "jump": 2, "hazard": 143}


def test_plan_difficulty_split():
    plan = cpu_plan()
    easier = {b.id for b in plan if b.difficulty is Difficulty.EASIER}
    assert easier == {f"{op}_seen" for op in CPU_READERS | CPU_WRITERS | {"jal"}}
    assert len(easier) == 14


def test_plan_sorted_unique():
    ids = cpu_plan().ids()
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_hazard_writer_reader_sets():
    assert len(CPU_WRITERS) == 11  # 10 r-type + jal
    assert len(CPU_READERS) == 13  # 10 r-type + 3 stores
    assert "jal" in CPU_WRITERS and "jal" not in CPU_READERS
    assert "sw" in CPU_READERS and "sw" not in CPU_WRITERS


# --- hand-simulated programs ----------------------------------------------------

def run_program(updates_per_step):
    dut = CpuDut()
    state = CoverageState(dut.plan)
    hits = Counter()
    for updates in updates_per_step:
        bins = dut.feed(updates)
        hits.update(bins)
        state.record(bins)
    return dut, hits, state


def test_linked_jal_add_store_chain():
    prog = [
        (0, encode_cpu("jal", rd=1, imm=8)),       # x1 := 4, pc := 8
        (8, encode_cpu("add", rd=2, rs1=1, rs2=1)),  # x2 := 8
        (12, encode_cpu("sw", rs1=1, rs2=2, imm=0)),  # mem[4] := 8
        (16, encode_cpu("sub", rd=3, rs1=2, rs2=1)),  # x3 := 4
    ]
    dut, hits, _ = run_program([[u] for u in prog])
    assert dut.state.regs[1] == 4
    assert dut.state.regs[2] == 8
    assert dut.state.regs[3] == 4
    assert dut.state.pc == 20
    assert dut.state.dmem == {4: 8, 5: 0, 6: 0, 7: 0}
    assert hits["jal_seen"] == 1
    assert hits["jump_forward"] == 1
    assert hits["add_seen"] == 1
    assert hits["hazard_jal_add"] == 1  # jal wrote x1, add reads it next
    assert hits["hazard_add_sw"] == 1  # add wrote x2, sw reads it next
    assert hits["sw_seen"] == 1
    assert hits["sub_seen"] == 1
    assert "hazard_sw_sub" not in hits  # stores write no register
    assert hits["add_same_src"] == 1  # rs1 == rs2 == x1


def test_jal_backward_and_zero_dst():
    dut, hits, _ = run_program([[(0, encode_cpu("jal", rd=0, imm=-8))]])
    assert hits["jal_seen"] == 1
    assert hits["jal_zero_dst"] == 1
    assert hits["jump_backward"] == 1
    assert dut.state.pc == (0 - 8) & MASK
    assert dut.state.regs[0] == 0  # link discarded


def test_jal_zero_offset_counts_forward():
    _, hits, _ = run_program([[(0, encode_cpu("jal", rd=5, imm=0))]])
    assert hits["jump_forward"] == 1
    assert hits["jump_backward"] == 0


def test_jal_misaligned_target_masked_to_word():
    dut, hits, _ = run_program([[(0, encode_cpu("jal", rd=1, imm=10))]])
    assert dut.state.pc == 8  # target 10 masked down to word alignment
    assert dut.state.pc % 4 == 0
    assert hits["jump_forward"] == 1


def test_zero_src_and_same_src_variants():
    prog = [
        (0, encode_cpu("add", rd=5, rs1=0, rs2=1)),   # zero_src only
        (4, encode_cpu("add", rd=5, rs1=1, rs2=1)),   # same_src only
        (8, encode_cpu("add", rd=5, rs1=0, rs2=0)),   # both
        (12, encode_cpu("add", rd=0, rs1=1, rs2=2)),  # zero_dst
    ]
    _, hits, _ = run_program([[u] for u in prog])
    assert hits["add_seen"] == 4
    assert hits["add_zero_src"] == 2
    assert hits["add_same_src"] == 2
    assert hits["add_zero_dst"] == 1


def test_store_variants_have_no_zero_dst():
    plan = cpu_plan()
    for op in ("sb", "sh", "sw"):
        assert f"{op}_seen" in plan
        assert f"{op}_zero_src" in plan
        assert f"{op}_same_src" in plan
        assert f"{op}_zero_dst" not in plan
    assert "jal_zero_dst" in plan
    assert "jal_zero_src" not in plan
    assert "jal_same_src" not in plan


def test_write_to_x0_is_discarded():
    dut, hits, _ = run_program(
        [
            [(0, encode_cpu("jal", rd=0, imm=4))],
        ]
    )
    assert dut.state.regs[0] == 0
    assert hits["jal_zero_dst"] == 1


def test_nop_breaks_hazard_adjacency():
    prog = [
        [(0, encode_cpu("jal", rd=1, imm=8))],  # x1 := 4, pc := 8
        [],  # imem[8] is empty: executes as nop, pc := 12
        [(12, encode_cpu("add", rd=2, rs1=1, rs2=1))],
    ]
    _, hits, _ = run_program(prog)
    assert hits["add_seen"] == 1
    assert hits["hazard_jal_add"] == 0


def test_unsupported_word_executes_as_nop():
    # addi is a decoder op but not a cpu op; must fall through to nop
    from covstim.duts.decoder import encode

    dut, hits, _ = run_program([[(0, encode("addi", rd=1, rs1=0, imm=5))]])
    assert dut.state.pc == 4
    assert dut.state.regs[1] == 0
    assert sum(hits.values()) == 0


def test_store_byte_layouts():
    prog = [
        [(0, encode_cpu("jal", rd=1, imm=4))],               # x1 := 4
        [(4, encode_cpu("sh", rs1=0, rs2=1, imm=3))],        # mem[3..4] := 0x0004
        [(8, encode_cpu("sb", rs1=1, rs2=1, imm=-1))],       # mem[3] := 0x04
    ]
    dut, hits, _ = run_program(prog)
    assert dut.state.dmem[3] == 4 and dut.state.dmem[4] == 0
    assert hits["sh_zero_src"] == 1  # rs1 is x0
    assert hits["sb_same_src"] == 1  # rs1 == rs2 == x1


def test_alu_semantics_shift_and_compare():
    prog = [
        [(0, encode_cpu("jal", rd=1, imm=4))],                 # x1 := 4
        [(4, encode_cpu("sll", rd=2, rs1=1, rs2=1))],          # x2 := 4 << 4 = 64
        [(8, encode_cpu("sub", rd=3, rs1=0, rs2=1))],          # x3 := -4 wrapped
        [(12, encode_cpu("sra", rd=4, rs1=3, rs2=1))],         # x4 := -4 >> 4 = -1
        [(16, encode_cpu("slt", rd=5, rs1=3, rs2=1))],         # signed: -4 < 4 -> 1
        [(20, encode_cpu("sltu", rd=6, rs1=3, rs2=1))],        # unsigned: big -> 0
    ]
    dut, _, _ = run_program(prog)
    assert dut.state.regs[2] == 64
    assert dut.state.regs[3] == (-4) & MASK
    assert dut.state.regs[4] == MASK  # arithmetic shift keeps the sign
    assert dut.state.regs[5] == 1
    assert dut.state.regs[6] == 0


def test_misaligned_update_rejected_without_side_effects():
    dut = CpuDut()
    with pytest.raises(MalformedStimulusError):
        dut.feed([(0, 0x13), (2, 0x33)])
    assert dut.state.pc == 0
    assert dut.state.imem == {}


def test_extras_reports_pc_and_last_instruction():
    dut = CpuDut()
    word = encode_cpu("jal", rd=1, imm=8)
    dut.feed([(0, word)])
    extras = dut.extras()
    assert extras["pc"] == 8
    assert extras["last_word"] == word
    assert extras["last_op"] == "jal"


def test_reset_restores_power_on_state():
    dut = CpuDut()
    dut.feed([(0, encode_cpu("jal", rd=1, imm=8))])
    dut.reset()
    assert dut.state.pc == 0
    assert dut.state.regs == [0] * 32
    assert dut.state.imem == {} and dut.state.dmem == {}


# --- hazard oracle property ------------------------------------------------------

def oracle_hazards(trace) -> Counter:
    """Re-derive hazard bins from (op, rs1, rs2, rd) executed tuples."""
    hits: Counter = Counter()
    for prev, cur in zip(trace, trace[1:]):
        p_op, _, _, p_rd = prev
        c_op, c_rs1, c_rs2, _ = cur
        if p_op not in CPU_WRITERS or p_rd in (None, 0):
            continue
        if c_op not in CPU_READERS:
            continue
        reads = {c_rs1, c_rs2} - {None}
        if p_rd in reads:
            hits[f"hazard_{p_op}_{c_op}"] += 1
    return hits


def random_word(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.15:
        return rng.getrandbits(32)  # mostly decodes as nop
    op = rng.choice(sorted(CPU_WRITERS | CPU_READERS | {"jal"}))
    return encode_cpu(
        op,
        rd=rng.randrange(32),
        rs1=rng.randrange(32),
        rs2=rng.randrange(32),
        imm=rng.randrange(-64, 64) * 4 if op == "jal" else rng.randrange(-32, 32),
    )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), steps=st.integers(min_value=0, max_value=120))
def test_hazard_bins_match_trace_oracle(seed, steps):
    rng = random.Random(seed)
    dut = CpuDut()
    hits: Counter = Counter()
    trace = []
    for _ in range(steps):
        hits.update(dut.feed([(dut.state.pc, random_word(rng))]))
        d = dut.last_decode
        trace.append((d.op, d.rs1, d.rs2, d.rd))
    got = Counter({b: n for b, n in hits.items() if b.startswith("hazard_")})
    assert got == oracle_hazards(trace)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), steps=st.integers(min_value=0, max_value=80))
def test_x0_zero_and_pc_aligned_invariants(seed, steps):
    rng = random.Random(seed)
    dut = CpuDut()
    for _ in range(steps):
        dut.feed([(dut.state.pc, rng.getrandbits(32))])
        assert dut.state.regs[0] == 0
        assert dut.state.pc % 4 == 0


# --- step differential against a reference interpreter -----------------------------

# standard RV32I encodings, written out here rather than read from the package
REF_R_OPS = {
    (0, 0x00): "add", (0, 0x20): "sub", (1, 0x00): "sll", (2, 0x00): "slt",
    (3, 0x00): "sltu", (4, 0x00): "xor", (5, 0x00): "srl", (5, 0x20): "sra",
    (6, 0x00): "or", (7, 0x00): "and",
}
REF_STORES = {0: ("sb", 1), 1: ("sh", 2), 2: ("sw", 4)}


def field(word: int, hi: int, lo: int) -> int:
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def as_signed(value: int, bits: int) -> int:
    return value - (1 << bits) if value >> (bits - 1) else value


class RefCpu:
    """Straight-line reading of the model's documented semantics."""

    def __init__(self) -> None:
        self.pc = 0
        self.regs = [0] * 32
        self.imem: dict[int, int] = {}
        self.dmem: dict[int, int] = {}
        self.last_word = None
        self.last_op = "nop"
        self.prev_write = None  # (op, rd) of the previous instruction if it wrote rd != 0

    def feed(self, updates) -> list[str]:
        for update in updates:
            if len(update) != 2 or update[0] % 4:
                raise MalformedStimulusError(update)
        for addr, word in updates:
            self.imem[addr % 2**32] = word % 2**32
        word = self.imem.get(self.pc, 0)
        rd, f3, rs1, rs2, f7 = (
            field(word, 11, 7), field(word, 14, 12), field(word, 19, 15),
            field(word, 24, 20), field(word, 31, 25),
        )
        a, b = self.regs[rs1], self.regs[rs2]
        next_pc = (self.pc + 4) % 2**32
        op, reads, writes, offset = "nop", (), None, None
        if field(word, 6, 0) == 0x33 and (f3, f7) in REF_R_OPS:
            op, reads, writes = REF_R_OPS[f3, f7], (rs1, rs2), rd
            result = {
                "add": a + b, "sub": a - b, "sll": a << (b % 32),
                "slt": int(as_signed(a, 32) < as_signed(b, 32)), "sltu": int(a < b),
                "xor": a ^ b, "srl": a >> (b % 32), "sra": as_signed(a, 32) >> (b % 32),
                "or": a | b, "and": a & b,
            }[op]
            if rd:
                self.regs[rd] = result % 2**32
        elif field(word, 6, 0) == 0x23 and f3 in REF_STORES:
            (op, width), reads = REF_STORES[f3], (rs1, rs2)
            addr = a + as_signed((f7 << 5) | rd, 12)
            for i in range(width):
                self.dmem[(addr + i) % 2**32] = (b >> (8 * i)) % 256
        elif field(word, 6, 0) == 0x6F:
            op, writes = "jal", rd
            offset = as_signed(
                (field(word, 31, 31) << 20) | (field(word, 19, 12) << 12)
                | (field(word, 20, 20) << 11) | (field(word, 30, 21) << 1),
                21,
            )
            if rd:
                self.regs[rd] = next_pc
            next_pc = (self.pc + offset) % 2**32 // 4 * 4
        bins = []
        if op != "nop":
            bins.append(f"{op}_seen")
            if writes == 0:
                bins.append(f"{op}_zero_dst")
            if reads and 0 in reads:
                bins.append(f"{op}_zero_src")
            if reads and reads[0] == reads[1]:
                bins.append(f"{op}_same_src")
            if offset is not None:
                bins.append("jump_forward" if offset >= 0 else "jump_backward")
            if self.prev_write and self.prev_write[1] in reads:
                bins.append(f"hazard_{self.prev_write[0]}_{op}")
        self.prev_write = (op, writes) if writes else None
        self.pc, self.last_word, self.last_op = next_pc, word, op
        return bins

    def extras(self) -> dict:
        return {"pc": self.pc, "last_word": self.last_word, "last_op": self.last_op}


def jal_word(offset: int, rd: int) -> int:
    imm = offset & 0x1FFFFE
    return (
        (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xFF) << 12) | (rd << 7) | 0x6F
    )


def program_word(rng: random.Random) -> int:
    def reg() -> int:  # mostly x0-x3, so zero/same-source and hazard cases come up often
        return rng.randrange(4) if rng.random() < 0.7 else rng.randrange(32)

    roll = rng.random()
    if roll < 0.45:  # R-type; funct7 0x01 decodes to nothing
        f3, f7 = rng.randrange(8), rng.choice((0x00, 0x00, 0x20, 0x01))
        return (f7 << 25) | (reg() << 20) | (reg() << 15) | (f3 << 12) | (reg() << 7) | 0x33
    if roll < 0.7:  # store; funct3 3 decodes to nothing
        imm, f3 = rng.getrandbits(12), rng.randrange(4)
        return (
            ((imm >> 5) << 25) | (reg() << 20) | (reg() << 15) | (f3 << 12)
            | ((imm & 0x1F) << 7) | 0x23
        )
    if roll < 0.9:  # JAL: short hops either way, some to a half-word target, or anywhere
        kind = rng.random()
        if kind < 0.8:
            offset = 4 * rng.randrange(-8, 9) + (2 if kind < 0.2 else 0)
        else:
            offset = 2 * rng.randrange(-(2**19), 2**19)
        return jal_word(offset, reg())
    return rng.choice((0, rng.getrandbits(32)))  # nearly always a NOP


def program_updates(rng: random.Random, pc: int) -> list:
    """Usually the next instruction at pc (else re-run what is there), and
    sometimes one more update: misaligned ones and one-element ones are
    malformed and reject the step."""
    updates = [[pc, program_word(rng)]] if rng.random() < 0.85 else []
    if rng.random() < 0.15:
        where = rng.choice((4, 8, -4, 0, 1, 2, 3, None))
        updates.append([pc] if where is None else [(pc + where) & MASK, program_word(rng)])
    return updates


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), steps=st.integers(min_value=0, max_value=150))
def test_step_matches_reference_interpreter(seed, steps):
    rng = random.Random(seed)
    dut, ref = CpuDut(), RefCpu()
    for _ in range(steps):
        updates = program_updates(rng, ref.pc)
        try:
            expected = ref.feed(updates)
        except MalformedStimulusError:
            with pytest.raises(MalformedStimulusError):
                dut.feed(updates)
        else:
            assert dut.feed(updates) == expected
        s = dut.state
        assert (s.pc, s.regs, s.imem, s.dmem) == (ref.pc, ref.regs, ref.imem, ref.dmem)
        assert dut.extras() == ref.extras()
