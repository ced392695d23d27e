"""CPU model tests.

The model keeps the pc, the instruction memory and the last writer's
destination register, and nothing else: register and data-memory values are
not modelled, because no bin and no control flow reads them (the subset has
no loads, branches or JALR). Frozen expectations were hand-simulated from the
instruction fields. The hazard oracle re-derives read-after-write pairs from
the executed decode trace, independent of the monitor's incremental
bookkeeping; the trace comes from the reference interpreter, which re-reads
the documented semantics field by field and is compared with the model after
every step: bins, pc and malformed-stimulus rejection, and the
instruction memory either after every step or only at the end. Reading
`imem` folds the model's write log, so the end-only mode is the one where
writes stay in the log across steps and a later fetch reads one of them.
The same comparison runs over the dialogue benchmark's CPU replies, over
every value of the JAL offset's table-decoded bits 31:20, and over crt
streams, whose draw tracks the pc with the model's jump table; there the
reference interpreter's pc is the check on the draw's.
"""
from __future__ import annotations

import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from test_extraction import load_perfbench
from covstim.agents import CrtAgent, extract_stimuli
from covstim.coverage import CoverageState, Difficulty
from covstim.duts import FORMAT_MEMORY_UPDATES, MalformedStimulusError, make_dut
from covstim.duts.cpu import (
    CPU_READERS,
    CPU_WRITERS,
    JAL_HIGH,
    JAL_OPCODE,
    CpuDut,
    encode_cpu,
)
from covstim.duts.decoder import MATCH_MASK
from covstim.runtime import run_crt_trial

MASK = 0xFFFFFFFF


# --- plan shape ---------------------------------------------------------------

def test_plan_cardinality_closed_form():
    plan = make_dut("cpu").plan
    # 10 r-type ops x 4 bins, 3 stores x 3, jal x 2, 2 jump bins, 11x13 hazards
    assert len(plan) == 10 * 4 + 3 * 3 + 2 + 2 + 11 * 13 == 196
    groups = Counter(b.group for b in plan)
    assert groups == {"operation": 51, "jump": 2, "hazard": 143}


def test_plan_difficulty_split():
    plan = make_dut("cpu").plan
    easier = {b.id for b in plan if b.difficulty is Difficulty.EASIER}
    assert easier == {f"{op}_seen" for op in CPU_READERS | CPU_WRITERS | {"jal"}}
    assert len(easier) == 14


def test_plan_sorted_unique():
    ids = [b.id for b in make_dut("cpu").plan]
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
        (0, encode_cpu("jal", rd=1, imm=8)),       # writes x1, pc := 8
        (8, encode_cpu("add", rd=2, rs1=1, rs2=1)),  # reads x1, writes x2
        (12, encode_cpu("sw", rs1=1, rs2=2, imm=0)),  # reads x1 and x2
        (16, encode_cpu("sub", rd=3, rs1=2, rs2=1)),  # reads x2 and x1
    ]
    dut, hits, _ = run_program([[u] for u in prog])
    assert dut.pc == 20
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
    assert dut.pc == (0 - 8) & MASK


def test_jal_zero_offset_counts_forward():
    _, hits, _ = run_program([[(0, encode_cpu("jal", rd=5, imm=0))]])
    assert hits["jump_forward"] == 1
    assert hits["jump_backward"] == 0


def test_jal_misaligned_target_masked_to_word():
    dut, hits, _ = run_program([[(0, encode_cpu("jal", rd=1, imm=10))]])
    assert dut.pc == 8  # target 10 masked down to word alignment
    assert dut.pc % 4 == 0
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
    plan = make_dut("cpu").plan
    for op in ("sb", "sh", "sw"):
        assert f"{op}_seen" in plan
        assert f"{op}_zero_src" in plan
        assert f"{op}_same_src" in plan
        assert f"{op}_zero_dst" not in plan
    assert "jal_zero_dst" in plan
    assert "jal_zero_src" not in plan
    assert "jal_same_src" not in plan


def test_write_to_x0_is_discarded():
    prog = [
        [(0, encode_cpu("jal", rd=0, imm=4))],
        [(4, encode_cpu("add", rd=0, rs1=0, rs2=0))],
        [(8, encode_cpu("sw", rs1=0, rs2=0))],
    ]
    _, hits, _ = run_program(prog)
    assert hits["jal_zero_dst"] == 1
    assert hits["add_zero_dst"] == 1
    # a reader of x0 right after a write to x0 is no read-after-write pair
    assert not any(b.startswith("hazard_") for b in hits)


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
    assert dut.pc == 4
    assert sum(hits.values()) == 0


def test_store_source_register_bins():
    prog = [
        [(0, encode_cpu("jal", rd=1, imm=4))],               # writes x1
        [(4, encode_cpu("sh", rs1=0, rs2=1, imm=3))],        # reads x0 and x1
        [(8, encode_cpu("sb", rs1=1, rs2=1, imm=-1))],       # reads x1 twice
    ]
    dut, hits, _ = run_program(prog)
    assert dut.pc == 12
    assert hits["sh_zero_src"] == 1  # rs1 is x0
    assert hits["sb_same_src"] == 1  # rs1 == rs2 == x1
    assert hits["hazard_jal_sh"] == 1
    assert "hazard_sh_sb" not in hits  # stores write no register


JAL_TO_8 = encode_cpu("jal", rd=1, imm=8)
ADD = encode_cpu("add", rd=2, rs1=1, rs2=3)


def fed_cpus():
    """A fresh CpuDut, and one whose only write (a jump to 8 at 0) is still
    in its write log, with the pc and `imem` each should show."""
    pending = CpuDut()
    pending.feed([(0, JAL_TO_8)])  # the newest write is at the pc: not folded
    return [(CpuDut(), 0, {}), (pending, 8, {0: JAL_TO_8})]


def test_misaligned_update_rejected_without_side_effects():
    for dut, pc, imem in fed_cpus():
        with pytest.raises(MalformedStimulusError):
            dut.feed([(0, 0x13), (2, 0x33)])
        assert dut.pc == pc
        assert dut.imem == imem


@pytest.mark.parametrize("updates", [
    [(0, 0x13), (4, "nop")],
    [(0, 0x13), (4, "nop"), (2, 0x33)],  # the word fails before the address does
])
def test_non_integer_word_raises_before_any_write(updates):
    for dut, pc, imem in fed_cpus():
        with pytest.raises(ValueError, match="invalid literal for int"):
            dut.feed(updates)
        assert dut.pc == pc
        assert dut.imem == imem


@pytest.mark.parametrize("make", [
    lambda updates: iter(updates),
    lambda updates: (pair for pair in updates),
    lambda updates: map(tuple, updates),
], ids=["iter", "generator", "map"])
@pytest.mark.parametrize("updates", [
    [(0, JAL_TO_8)],
    [(8, ADD), (0, JAL_TO_8)],
    [(8, ADD)],
], ids=["at-pc", "two", "elsewhere"])
def test_one_shot_stimulus_writes_like_a_list(make, updates):
    """A stimulus read once, such as an iterator, writes its updates as the
    same list does: each pair is checked and written in the same pass."""
    for (dut, _, _), (twin, _, _) in zip(fed_cpus(), fed_cpus()):
        assert dut.feed(make(updates)) == twin.feed(updates)
        assert (dut.pc, len(dut._addrs)) == (twin.pc, len(twin._addrs))
        assert dut.imem == twin.imem


def test_one_shot_stimulus_rejected_leaves_the_log():
    for dut, pc, imem in fed_cpus():
        logged = len(dut._addrs)
        with pytest.raises(MalformedStimulusError, match="misaligned"):
            dut.feed(iter([(4, ADD), (8, JAL_TO_8), (6, ADD)]))
        assert (dut.pc, len(dut._addrs)) == (pc, logged)
        assert dut.imem == imem


@pytest.mark.parametrize("steps, bins, pc, imem", [
    # the last of two writes at the pc is the one executed
    ([[(0, ADD), (0, JAL_TO_8)]], ["jal_seen", "jump_forward"], 8, {0: JAL_TO_8}),
    ([[(0, JAL_TO_8), (0, ADD)]], ["add_seen"], 4, {0: ADD}),
    # the pc is written first and another address last: the fetch folds the log
    ([[(0, JAL_TO_8), (4, ADD)]], ["jal_seen", "jump_forward"], 8, {0: JAL_TO_8, 4: ADD}),
    ([[(0, JAL_TO_8), (8, ADD), (0, ADD), (8, JAL_TO_8)]], ["add_seen"], 4,
     {0: ADD, 8: JAL_TO_8}),
    # an empty stimulus fetches what is there: nothing, then a logged write
    ([[]], [], 4, {}),
    ([[(0, JAL_TO_8), (8, ADD)], [], [(12, ADD)]], ["add_seen"], 16,
     {0: JAL_TO_8, 8: ADD, 12: ADD}),
    # a jump back to a word logged two steps earlier, never rewritten
    ([[(0, JAL_TO_8)], [(8, encode_cpu("jal", rd=1, imm=-8))], []],
     ["jal_seen", "jump_forward"], 8, {0: JAL_TO_8, 8: encode_cpu("jal", rd=1, imm=-8)}),
], ids=["pc-twice-jal-last", "pc-twice-add-last", "pc-then-other", "two-addresses-twice",
        "empty", "empty-reads-log", "jump-back-to-logged"])
def test_fetch_reads_the_newest_write_at_pc(steps, bins, pc, imem):
    dut, ref = CpuDut(), RefCpu()
    for updates in steps:
        got, expected = dut.feed(updates), ref.feed(updates)
        assert got == expected
    assert got == bins
    assert (dut.pc, dut.imem) == (ref.pc, ref.imem) == (pc, imem)


@pytest.mark.parametrize("op", ["add", "sw", "jal"])
@pytest.mark.parametrize("field", ["rs1", "rs2", "rd"])
@pytest.mark.parametrize("reg", [-1, 32, 40])
def test_encode_cpu_rejects_out_of_range_registers(op, field, reg):
    # an unchecked rd of 40 would set bit 12, inside the JAL offset field
    with pytest.raises(ValueError, match=field):
        encode_cpu(op, **{field: reg})


def test_jal_moves_pc_to_its_target():
    dut = CpuDut()
    dut.feed([(0, encode_cpu("jal", rd=1, imm=8))])
    assert dut.pc == 8


def test_reset_restores_power_on_state():
    dut = CpuDut()
    dut.feed([(0, JAL_TO_8)])  # x1 := 4; the write stays in the log
    dut.reset()
    assert dut.pc == 0
    # the logged jump is gone: the fetch at 0 reads 0, a NOP
    assert dut.feed([]) == []
    assert dut.pc == 4
    assert dut.imem == {}
    dut.feed([(4, encode_cpu("jal", rd=1, imm=-4))])  # x1 := 8
    dut.reset()
    # the jal's write to x1 does not reach across the reset
    assert dut.feed([(0, encode_cpu("add", rd=2, rs1=1, rs2=1))]) == ["add_seen", "add_same_src"]


def test_write_log_item_holds_a_word():
    # a smaller item would raise OverflowError on the first word above 0xFFFF
    assert array("I").itemsize == 4


def test_crt_cpu_trial_traced_peak_stays_under_1_mb():
    """20,000 crt stimuli log 8 bytes a write, about 160 kB. Folding each
    write into the address map, one entry per stimulus, would peak at about
    1.8 MB."""
    dut, agent = CpuDut(), CrtAgent("cpu", random.Random(0))
    tracemalloc.start()
    try:
        run_crt_trial(dut, agent, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def hazard_case(dut, seed: int, steps: int) -> tuple[Counter, Counter]:
    """The hazard bins `dut` reports for `steps` random words, and the ones
    `oracle_hazards` derives from the reference interpreter's decode trace."""
    rng = random.Random(seed)
    ref = RefCpu()
    hits: Counter = Counter()
    trace = []
    for _ in range(steps):
        updates = [(ref.pc, random_word(rng))]
        ref.feed(updates)
        hits.update(dut.feed(updates))
        trace.append(ref.executed)
    got = Counter({b: n for b, n in hits.items() if b.startswith("hazard_")})
    return got, oracle_hazards(trace)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), steps=st.integers(min_value=0, max_value=120))
def test_hazard_bins_match_trace_oracle(seed, steps):
    got, expected = hazard_case(CpuDut(), seed, steps)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), steps=st.integers(min_value=0, max_value=80))
def test_pc_stays_word_aligned(seed, steps):
    rng = random.Random(seed)
    dut = CpuDut()
    for _ in range(steps):
        dut.feed([(dut.pc, rng.getrandbits(32))])
        assert dut.pc % 4 == 0


# --- step differential against a reference interpreter -----------------------------

# standard RV32I encodings, written out here rather than read from the package
REF_R_OPS = {
    (0, 0x00): "add", (0, 0x20): "sub", (1, 0x00): "sll", (2, 0x00): "slt",
    (3, 0x00): "sltu", (4, 0x00): "xor", (5, 0x00): "srl", (5, 0x20): "sra",
    (6, 0x00): "or", (7, 0x00): "and",
}
REF_STORES = {0: "sb", 1: "sh", 2: "sw"}


def field(word: int, hi: int, lo: int) -> int:
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def as_signed(value: int, bits: int) -> int:
    return value - (1 << bits) if value >> (bits - 1) else value


class RefCpu:
    """Straight-line reading of the model's documented semantics."""

    def __init__(self) -> None:
        self.pc = 0
        self.imem: dict[int, int] = {}
        self.executed = ("nop", None, None, None)  # (op, rs1, rs2, rd) of the last step
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
        next_pc = (self.pc + 4) % 2**32
        op, reads, writes, offset = "nop", (), None, None
        if field(word, 6, 0) == 0x33 and (f3, f7) in REF_R_OPS:
            op, reads, writes = REF_R_OPS[f3, f7], (rs1, rs2), rd
        elif field(word, 6, 0) == 0x23 and f3 in REF_STORES:
            op, reads = REF_STORES[f3], (rs1, rs2)
        elif field(word, 6, 0) == 0x6F:
            op, writes = "jal", rd
            offset = as_signed(
                (field(word, 31, 31) << 20) | (field(word, 19, 12) << 12)
                | (field(word, 20, 20) << 11) | (field(word, 30, 21) << 1),
                21,
            )
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
        self.pc = next_pc
        self.executed = (op, *(reads or (None, None)), writes)
        return bins


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


def program_updates(rng: random.Random, pc: int, rewrite: float = 0.85) -> list:
    """With chance `rewrite` the next instruction at pc (else re-run what is
    there), and sometimes one more update: misaligned ones and one-element
    ones are malformed and reject the step."""
    updates = [[pc, program_word(rng)]] if rng.random() < rewrite else []
    if rng.random() < 0.15:
        where = rng.choice((4, 8, -4, 0, 1, 2, 3, None))
        updates.append([pc] if where is None else [(pc + where) & MASK, program_word(rng)])
    return updates


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=0, max_value=150),
    imem_every_step=st.booleans(),
    # at 0.3 most steps re-run a word, and short jumps back reach words
    # written several steps earlier
    rewrite=st.sampled_from((0.85, 0.3)),
)
def test_step_matches_reference_interpreter(seed, steps, imem_every_step, rewrite):
    rng = random.Random(seed)
    dut, ref = CpuDut(), RefCpu()
    for _ in range(steps):
        updates = program_updates(rng, ref.pc, rewrite)
        try:
            expected = ref.feed(updates)
        except MalformedStimulusError:
            with pytest.raises(MalformedStimulusError):
                dut.feed(updates)
        else:
            assert dut.feed(updates) == expected
        assert dut.pc == ref.pc
        if imem_every_step:
            assert dut.imem == ref.imem
    assert dut.imem == ref.imem


def test_jal_offset_matches_reference_for_every_high_field():
    """Bits 31:20 carry imm[20|10:1|11]: all 4096 values, a few rd and
    imm[19:12] values, from a pc at the bottom and one near the top of the
    address space, so that offsets wrap both ways."""
    dut, ref = CpuDut(), RefCpu()
    for high in range(1 << 12):
        for rd in (0, 1, 31):
            for middle in (0x00, 0x5A, 0xFF):
                word = high << 20 | middle << 12 | rd << 7 | 0x6F
                for pc in (0, 0xFFFFF000):
                    dut.pc = ref.pc = pc
                    assert dut.feed([(pc, word)]) == ref.feed([(pc, word)]), hex(word)
                    assert dut.pc == ref.pc, hex(word)


def test_crt_stream_matches_reference():
    """Each crt stimulus writes a jump at the pc that the model and the
    reference interpreter have both reached, and the two agree on its bins:
    20 seeds x 2,000 stimuli from a reset CPU."""
    for seed in range(20):
        dut, ref = CpuDut(), RefCpu()
        for stimulus in CrtAgent("cpu", random.Random(seed)).stimuli(2_000):
            [[addr, _]] = stimulus
            assert addr == dut.pc == ref.pc, seed
            assert dut.feed(stimulus) == ref.feed(stimulus), seed
        assert dut.pc == ref.pc


@pytest.mark.parametrize("profile", ["short", "long"])
def test_benchmark_cpu_traffic_matches_reference(profile):
    """The dialogue benchmark's CPU replies (16-slot programs, single-slot
    rewrites, misaligned addresses), extracted as the agent extracts them and
    fed in order to the model and the reference interpreter. Odd seeds read
    `imem` only at the end, so writes stay in the model's log across steps."""
    gen = load_perfbench("gen")
    for seed in range(10):
        dut, ref = CpuDut(), RefCpu()
        for reply in gen.script(seed, 0, "cpu", profile, 300):
            for stimulus in extract_stimuli(reply, FORMAT_MEMORY_UPDATES).stimuli:
                try:
                    expected = ref.feed(stimulus)
                except MalformedStimulusError:
                    with pytest.raises(MalformedStimulusError):
                        dut.feed(stimulus)
                else:
                    assert dut.feed(stimulus) == expected
                assert dut.pc == ref.pc
                if seed % 2 == 0:
                    assert dut.imem == ref.imem
        assert dut.imem == ref.imem


# --- one-pass writes against the two-pass feed --------------------------------------

class TwoPassCpu(CpuDut):
    """The model with a `feed` that checks every update before it writes
    any, so the stimulus and its pairs are read twice: the oracle for the
    model's one-pass write path. Its step after the writes is the model's."""

    def feed(self, stimulus):
        for pair in stimulus:
            if len(pair) != 2:
                raise MalformedStimulusError(f"update must be [address, word]: {pair!r}")
            addr, word = pair
            addr = int(addr)
            if addr & 3:
                raise MalformedStimulusError(f"misaligned update address 0x{addr & MASK:08x}")
            int(word)  # a word `int` rejects raises here, before any write
        addrs, words = self._addrs, self._words
        addr = -1  # no write: the fetch folds
        for addr, word in stimulus:
            addr = int(addr) & MASK
            word = int(word) & MASK
            addrs.append(addr)
            words.append(word)
        pc = self.pc
        if addr != pc:  # the newest write, if any, is not the word at pc
            word = self.imem.get(pc, 0)
        opcode = word & 0x7F
        if opcode == JAL_OPCODE:
            rd = (word >> 7) & 31
            imm = JAL_HIGH[word >> 20] + (word & 0xFF000)
            self.pc = (pc + imm) & 0xFFFFFFFC
            self._writer_rd = rd
            self._writer_hazards = self._jal_hazards
            return list(self._jal_bins[rd == 0][imm < 0])
        self.pc = (pc + 4) & MASK
        if opcode == 0x33:
            op = self._r_ops.get(word & MATCH_MASK)
        elif opcode == 0x23:
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
        if zero_dst is None:
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


PROGRAM_WORDS = (
    JAL_TO_8, ADD, 0, encode_cpu("jal", rd=0, imm=-4), encode_cpu("sw", rs1=2, rs2=2),
    encode_cpu("add", rd=1, rs1=1, rs2=0),
)
# low addresses, so that writes land on the pc the steps reach and fetches
# read earlier writes
good_pair = st.tuples(
    st.sampled_from((0, 4, 8, 12)) | st.integers(0, 2**30 - 1).map(lambda n: 4 * n),
    st.sampled_from(PROGRAM_WORDS) | st.integers(0, MASK),
    st.booleans(),
).map(lambda t: list(t[:2]) if t[2] else t[:2])

# values that replace a good address or word
BAD_VALUES = {
    "non_integer": st.sampled_from(("nop", "0x10", "8", b"12", "", None, [4], 1j)),
    "float_or_bool": st.floats() | st.booleans(),
    "out_of_range": st.integers(max_value=-1) | st.integers(min_value=2**32),
}


@st.composite
def faulty_pair(draw, fault):
    addr, word = draw(good_pair)
    if fault == "length":
        return draw(st.sampled_from(((), (addr,), [addr, word, 0], (addr, word, word, 0))))
    if fault == "misaligned":
        return (addr + draw(st.integers(1, 3)), word)
    bad = draw(BAD_VALUES[fault])
    return (bad, word) if draw(st.booleans()) else [addr, bad]


@settings(max_examples=400, deadline=None)
@given(
    history=st.lists(st.lists(good_pair, max_size=3), max_size=4),
    before=st.lists(good_pair, max_size=5),
    fault=st.sampled_from(("length", "misaligned", *BAD_VALUES)).flatmap(faulty_pair),
    after=st.lists(good_pair, max_size=3),
    follow=st.lists(good_pair, max_size=2),
)
def test_one_pass_feed_matches_two_pass_feed(history, before, fault, after, follow):
    """Good updates with one fault among them, fed to a fresh CPU or one
    `history` has stepped: the same bins, or the same exception type and
    message; then the same pc, write-log length, `imem` and next step. A
    rejected stimulus leaves the write log at its length before it."""
    dut, oracle = CpuDut(), TwoPassCpu()
    for updates in history:
        assert dut.feed(updates) == oracle.feed(updates)
    logged = len(dut._addrs)
    outcomes = []
    for cpu in (dut, oracle):
        try:
            outcomes.append(cpu.feed(before + [fault] + after))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], tuple):
        assert len(dut._addrs) == logged
    assert (dut.pc, len(dut._addrs)) == (oracle.pc, len(oracle._addrs))
    assert dut.imem == oracle.imem
    assert dut.feed(follow) == oracle.feed(follow)  # the last writer carries over
