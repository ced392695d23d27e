"""Decoder monitor tests.

decoder_golden.json was frozen from the standard RV32I mask/match encoding
table and cross-checked against two independent open-source disassemblers
(see scripts/freeze_decoder_golden.py). The bins oracle below expands expected
bins from the raw fixture fields without going through the package decoder.
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
from covstim.duts.decoder import (
    ILLEGAL,
    DecoderMonitor,
    bins_for,
    decode,
    decoder_plan,
    encode,
    op_table,
)

FIXTURE = Path(__file__).parent / "fixtures" / "decoder_golden.json"
R_OPS = {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


# --- golden corpus ------------------------------------------------------------

def test_golden_corpus_decodes(golden):
    assert len(golden) > 600
    for entry in golden:
        result = decode(entry["word"])
        ctx = f"word=0x{entry['word']:08x}"
        assert result.op == entry["op"], ctx
        assert result.rs1 == entry["rs1"], ctx
        assert result.rs2 == entry["rs2"], ctx
        assert result.rd == entry["rd"], ctx


def test_golden_corpus_covers_all_ops(golden):
    ops = {e["op"] for e in golden}
    assert len(ops) == 27  # 26 ops + illegal


def test_spec_examples():
    r = decode(0x00000033)
    assert (r.op, r.rs1, r.rs2, r.rd) == ("add", 0, 0, 0)
    r = decode(0x00208113)
    assert (r.op, r.rs1, r.rd, r.imm) == ("addi", 1, 2, 2)
    assert decode(0xFFFFFFFF).op == ILLEGAL


def test_decode_is_total():
    for w in (0, 1, 0x33, 0x7F, 0xFFFFFFFF, 0x80000000):
        decode(w)  # never raises


# --- plan shape ---------------------------------------------------------------

def test_plan_cardinality_closed_form():
    t0 = time.time()
    plan = decoder_plan()
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
    plan = decoder_plan()
    groups = Counter(b.group for b in plan)
    assert groups == {"op": 26, "port": 96, "cross": 1984}
    for b in plan:
        want = Difficulty.HARDER if b.group == "cross" else Difficulty.EASIER
        assert b.difficulty is want, b.id


def test_plan_sorted_unique():
    ids = decoder_plan().ids()
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_port_bins_zero_padded():
    plan = decoder_plan()
    assert "port_x00_read_a" in plan
    assert "port_x31_write" in plan
    assert "cross_add_x07_read_b" in plan


# --- bins oracle --------------------------------------------------------------

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
        if not used or (reg == 0 and not table["include_x0_ports"]):
            continue
        bins.append(f"port_x{reg:02d}_{port}")
        bins.append(f"cross_{entry['name']}_x{reg:02d}_{port}")
    return bins


def test_bins_for_matches_oracle_on_golden(golden):
    monitor = DecoderMonitor()
    for entry in golden:
        expected = oracle_bins(entry)
        ctx = f"word=0x{entry['word']:08x}"
        assert set(bins_for(decode(entry["word"]))) == set(expected), ctx
        assert monitor.feed(entry["word"]) == expected, ctx


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


def test_bins_for_add_x0():
    got = sorted(bins_for(decode(0x00000033)))
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
    assert bins_for(decode(0xFFFFFFFF)) == []


# --- encode/decode round trip ---------------------------------------------------

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
    result = decode(word)
    assert result.op == op
    if op in R_OPS:
        assert (result.rs1, result.rs2, result.rd) == (rs1, rs2, rd)
    elif op in {"sb", "sw"}:
        assert (result.rs1, result.rs2) == (rs1, rs2)
        assert result.imm == imm
    elif op in {"slli", "srli", "srai"}:
        assert (result.rs1, result.rd) == (rs1, rd)
        assert result.shamt == shamt
    else:
        assert (result.rs1, result.rd) == (rs1, rd)
        assert result.imm == imm


# --- monitor -------------------------------------------------------------------

def test_monitor_records_bins(golden):
    mon = DecoderMonitor()
    state = CoverageState(mon.plan)
    for entry in golden[:200]:
        state.record(mon.feed(entry["word"]))
    assert state.covered_count > 0
    assert state.count("op_add") > 0


def test_monitor_illegal_word_hits_nothing():
    mon = DecoderMonitor()
    assert mon.feed(0xFFFFFFFF) == []
    assert mon.feed(0x00000000) == []
