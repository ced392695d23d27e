"""Decoder monitor tests.

decoder_golden.json was frozen from the standard RV32I mask/match encoding
table and cross-checked against two independent open-source disassemblers
(see scripts/freeze_decoder_golden.py); tests/test_golden.py checks the file
against that oracle's output. The bins oracle below expands expected bins
from the raw fixture fields without going through the package decoder, and
`feed` is the only decode the tests exercise.
"""
from __future__ import annotations

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from covstim.coverage import CoverageState, Difficulty
from covstim.duts import make_dut
from covstim.duts.decoder import DecoderMonitor, decoder_model, encode, op_table

FIXTURE = Path(__file__).parent / "fixtures" / "decoder_golden.json"
R_OPS = {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


# --- golden corpus ------------------------------------------------------------

def test_golden_corpus_covers_all_ops(golden):
    ops = {e["op"] for e in golden}
    assert len(ops) == 27  # 26 ops + illegal


def test_spec_examples():
    monitor = DecoderMonitor()
    assert monitor.feed(0x00000033) == expand("add", (0, "read_a"), (0, "read_b"), (0, "write"))
    # addi x2, x1, 2
    assert monitor.feed(0x00208113) == expand("addi", (1, "read_a"), (2, "write"))
    assert i_type_imm(0x00208113) == 2
    assert monitor.feed(0xFFFFFFFF) == []


def test_decode_is_total():
    monitor = DecoderMonitor()
    for w in (0, 1, 0x33, 0x7F, 0xFFFFFFFF, 0x80000000):
        assert isinstance(monitor.feed(w), list)  # never raises


# --- plan shape ---------------------------------------------------------------

def test_plan_cardinality_closed_form():
    t0 = time.time()
    plan = make_dut("decoder").plan
    assert time.time() - t0 < 1.0
    table = op_table()
    ports_per_op = {
        op["name"]: sum((op["uses_rs1"], op["uses_rs2"], op["uses_rd"]))
        for op in table["ops"]
    }
    expected_cross = 32 * sum(ports_per_op.values())
    assert len(table["ops"]) == 26
    assert expected_cross == 1984
    assert len(plan) == 26 + 96 + expected_cross == 2106


def test_plan_groups_and_difficulty():
    plan = make_dut("decoder").plan
    groups = Counter(b.group for b in plan)
    assert groups == {"op": 26, "port": 96, "cross": 1984}
    for b in plan:
        want = Difficulty.HARDER if b.group == "cross" else Difficulty.EASIER
        assert b.difficulty is want, b.id


def test_plan_sorted_unique():
    ids = [b.id for b in make_dut("decoder").plan]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_port_bins_zero_padded():
    plan = make_dut("decoder").plan
    assert "port_x00_read_a" in plan
    assert "port_x31_write" in plan
    assert "cross_add_x07_read_b" in plan


# --- bins oracle --------------------------------------------------------------

def expand(op: str, *ports: tuple[int, str]) -> list[str]:
    """The op bin, then a port and a cross bin per (register, port) pair."""
    bins = [f"op_{op}"]
    for reg, port in ports:
        bins += [f"port_x{reg:02d}_{port}", f"cross_{op}_x{reg:02d}_{port}"]
    return bins


def signed_field(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def i_type_imm(word: int) -> int:
    return signed_field(word >> 20, 12)


def s_type_imm(word: int) -> int:
    return signed_field(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)


def oracle_bins(entry) -> list[str]:
    """Expected bins straight from fixture fields, in emission order: the op,
    then port and cross bins for rs1 (read_a), rs2 (read_b) and rd (write)."""
    if entry["op"] == "illegal":
        return []
    bins = [f"op_{entry['op']}"]
    for reg, port in (
        (entry["rs1"], "read_a"),
        (entry["rs2"], "read_b"),
        (entry["rd"], "write"),
    ):
        if reg is not None:
            bins.append(f"port_x{reg:02d}_{port}")
            bins.append(f"cross_{entry['op']}_x{reg:02d}_{port}")
    return bins


def decoder_oracle_bins(word: int) -> list[str]:
    """Expected bins for a raw word, by a linear scan of the op table."""
    table = op_table()
    opcode = word & 0x7F
    f3 = (word >> 12) & 0x7
    f7 = (word >> 25) & 0x7F
    entry = None
    for op in table["ops"]:
        if op["opcode"] != opcode or op["funct3"] != f3:
            continue
        if op["funct7"] is not None and op["funct7"] != f7:
            continue
        entry = op
        break
    if entry is None:
        return []
    bins = [f"op_{entry['name']}"]
    fields = (
        ("read_a", (word >> 15) & 31, entry["uses_rs1"]),
        ("read_b", (word >> 20) & 31, entry["uses_rs2"]),
        ("write", (word >> 7) & 31, entry["uses_rd"]),
    )
    for port, reg, used in fields:
        if not used:
            continue
        bins.append(f"port_x{reg:02d}_{port}")
        bins.append(f"cross_{entry['name']}_x{reg:02d}_{port}")
    return bins


def test_bins_for_matches_oracle_on_golden(golden):
    assert len(golden) > 600
    monitor = DecoderMonitor()
    for entry in golden:
        assert monitor.feed(entry["word"]) == oracle_bins(entry), f"word=0x{entry['word']:08x}"


def test_feed_matches_oracle_on_seeded_words():
    rng = random.Random(2310)
    ops = op_table()["ops"]
    words = [rng.getrandbits(32) for _ in range(5000)]
    for _ in range(5000):
        words.append(
            encode(
                rng.choice(ops)["name"],
                rs1=rng.randrange(32),
                rs2=rng.randrange(32),
                rd=rng.randrange(32),
                imm=rng.randrange(-2048, 2048),
                shamt=rng.randrange(32),
            )
        )
    # every funct7 under the R-type and immediate opcodes: the unlisted ones
    # (e.g. 0x86cec133, xor's fields with funct7 0x43) must hit nothing
    for opcode in (0x33, 0x13):
        for f3 in range(8):
            for f7 in range(128):
                fields = rng.getrandbits(32) & 0x01FF8F80  # rs2, rs1, rd
                words.append((f7 << 25) | fields | (f3 << 12) | opcode)
    words.append(0x86CEC133)
    assert decoder_oracle_bins(0x86CEC133) == []
    monitor = DecoderMonitor()
    for word in words:
        assert monitor.feed(word) == decoder_oracle_bins(word), hex(word)


def test_feed_matches_oracle_for_every_opcode_and_funct3():
    # the opcode gate turns a word away before either match lookup: every
    # opcode x funct3, with funct7 values the ops use and ones they do not
    rng = random.Random(2611)
    monitor = DecoderMonitor()
    for opcode in range(128):
        for f3 in range(8):
            for f7 in (0x00, 0x20, 0x01, 0x7F, rng.randrange(128)):
                for _ in range(3):
                    fields = rng.getrandbits(32) & 0x01FF8F80  # rs2, rs1, rd
                    word = (f7 << 25) | fields | (f3 << 12) | opcode
                    assert monitor.feed(word) == decoder_oracle_bins(word), hex(word)


def test_opcode_gate_admits_exactly_the_ops_opcodes():
    gate = decoder_model()[3]
    assert len(gate) == 128
    admitted = {opcode for opcode, used in enumerate(gate) if used}
    assert admitted == {op["opcode"] for op in op_table()["ops"]}


def test_bins_for_add_x0():
    got = sorted(DecoderMonitor().feed(0x00000033))
    assert got == [
        "cross_add_x00_read_a",
        "cross_add_x00_read_b",
        "cross_add_x00_write",
        "op_add",
        "port_x00_read_a",
        "port_x00_read_b",
        "port_x00_write",
    ]


def test_illegal_hits_nothing():
    assert DecoderMonitor().feed(0xFFFFFFFF) == []


# --- encode/feed round trip -----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(sorted(op["name"] for op in op_table()["ops"])),
    rs1=st.integers(min_value=0, max_value=31),
    rs2=st.integers(min_value=0, max_value=31),
    rd=st.integers(min_value=0, max_value=31),
    imm=st.integers(min_value=-2048, max_value=2047),
    shamt=st.integers(min_value=0, max_value=31),
)
def test_encode_decode_identity(op, rs1, rs2, rd, imm, shamt):
    word = encode(op, rs1=rs1, rs2=rs2, rd=rd, imm=imm, shamt=shamt)
    bins = DecoderMonitor().feed(word)
    if op in R_OPS:
        assert bins == expand(op, (rs1, "read_a"), (rs2, "read_b"), (rd, "write"))
    elif op in {"sb", "sw"}:
        assert bins == expand(op, (rs1, "read_a"), (rs2, "read_b"))
        assert s_type_imm(word) == imm
    elif op in {"slli", "srli", "srai"}:
        assert bins == expand(op, (rs1, "read_a"), (rd, "write"))
        assert (word >> 20) & 0x1F == shamt
    else:
        assert bins == expand(op, (rs1, "read_a"), (rd, "write"))
        assert i_type_imm(word) == imm


@pytest.mark.parametrize("op", ["add", "addi", "sw", "slli"])
@pytest.mark.parametrize("field", ["rs1", "rs2", "rd"])
@pytest.mark.parametrize("reg", [-1, 32, 40])
def test_encode_rejects_out_of_range_registers(op, field, reg):
    # an unchecked rd of 40 would set bit 12 (funct3) and turn add into sll
    with pytest.raises(ValueError, match=field):
        encode(op, **{field: reg})


# --- monitor -------------------------------------------------------------------

def test_monitor_records_bins(golden):
    mon = DecoderMonitor()
    state = CoverageState(mon.plan)
    for entry in golden[:200]:
        state.record(mon.feed(entry["word"]))
    assert "op_add" in state.covered


def test_monitor_illegal_word_hits_nothing():
    mon = DecoderMonitor()
    assert mon.feed(0xFFFFFFFF) == []
    assert mon.feed(0x00000000) == []
