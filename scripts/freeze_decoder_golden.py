"""The independent decoder oracle behind tests/fixtures/decoder_golden.json.

`corpus_text(build_corpus())` is that fixture's exact contents;
scripts/regen_goldens.py writes it, and tests/test_golden.py checks the file.
The expectations here are derived from the standard RV32I mask/match encoding
table and hand-rolled field assembly, written independently of the package
decoder so the fixture stays an external oracle. Entries outside the decoder's
26-op subset are expected to decode as illegal.
"""
from __future__ import annotations

import json
import random

# (mask, match) pairs per the standard RV32I encoding table.
MASK_MATCH = {
    "add": (0xFE00707F, 0x00000033),
    "sub": (0xFE00707F, 0x40000033),
    "sll": (0xFE00707F, 0x00001033),
    "slt": (0xFE00707F, 0x00002033),
    "sltu": (0xFE00707F, 0x00003033),
    "xor": (0xFE00707F, 0x00004033),
    "srl": (0xFE00707F, 0x00005033),
    "sra": (0xFE00707F, 0x40005033),
    "or": (0xFE00707F, 0x00006033),
    "and": (0xFE00707F, 0x00007033),
    "addi": (0x0000707F, 0x00000013),
    "slti": (0x0000707F, 0x00002013),
    "sltiu": (0x0000707F, 0x00003013),
    "xori": (0x0000707F, 0x00004013),
    "ori": (0x0000707F, 0x00006013),
    "andi": (0x0000707F, 0x00007013),
    "slli": (0xFE00707F, 0x00001013),
    "srli": (0xFE00707F, 0x00005013),
    "srai": (0xFE00707F, 0x40005013),
    "lb": (0x0000707F, 0x00000003),
    "lh": (0x0000707F, 0x00001003),
    "lw": (0x0000707F, 0x00002003),
    "lbu": (0x0000707F, 0x00004003),
    "lhu": (0x0000707F, 0x00005003),
    "sb": (0x0000707F, 0x00000023),
    "sw": (0x0000707F, 0x00002023),
}
# sh (store-half) is deliberately absent: the decoder subset carries only
# sb and sw, so 0x..1023 words must classify as illegal here.

R_OPS = {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"}
I_ALU_OPS = {"addi", "slti", "sltiu", "xori", "ori", "andi"}
SHIFT_OPS = {"slli", "srli", "srai"}
LOAD_OPS = {"lb", "lh", "lw", "lbu", "lhu"}
STORE_OPS = {"sb", "sw"}


def classify(word: int) -> dict:
    """Expected decode of a word per the mask/match table."""
    for op, (mask, match) in MASK_MATCH.items():
        if word & mask == match:
            rd = (word >> 7) & 0x1F
            rs1 = (word >> 15) & 0x1F
            rs2 = (word >> 20) & 0x1F
            if op in R_OPS:
                return {"word": word, "op": op, "rs1": rs1, "rs2": rs2, "rd": rd}
            if op in I_ALU_OPS or op in SHIFT_OPS or op in LOAD_OPS:
                return {"word": word, "op": op, "rs1": rs1, "rs2": None, "rd": rd}
            return {"word": word, "op": op, "rs1": rs1, "rs2": rs2, "rd": None}
    return {"word": word, "op": "illegal", "rs1": None, "rs2": None, "rd": None}


def assemble_r(match: int, rd: int, rs1: int, rs2: int) -> int:
    return match | (rd << 7) | (rs1 << 15) | (rs2 << 20)


def assemble_i(match: int, rd: int, rs1: int, imm12: int) -> int:
    return match | (rd << 7) | (rs1 << 15) | ((imm12 & 0xFFF) << 20)


def assemble_s(match: int, rs1: int, rs2: int, imm12: int) -> int:
    imm = imm12 & 0xFFF
    return match | ((imm & 0x1F) << 7) | (rs1 << 15) | (rs2 << 20) | ((imm >> 5) << 25)


def build_corpus() -> list[dict]:
    rng = random.Random(20240817)
    words: list[int] = []
    regs = [0, 1, 2, 15, 31]
    for op in sorted(MASK_MATCH):
        mask, match = MASK_MATCH[op]
        for i, r1 in enumerate(regs):
            r2 = regs[(i + 2) % len(regs)]
            r3 = regs[(i + 4) % len(regs)]
            if op in R_OPS:
                words.append(assemble_r(match, r1, r2, r3))
            elif op in SHIFT_OPS:
                words.append(match | (r1 << 7) | (r2 << 15) | ((i * 7 % 32) << 20))
            elif op in STORE_OPS:
                words.append(assemble_s(match, r1, r2, rng.randrange(-2048, 2048)))
            else:
                words.append(assemble_i(match, r1, r2, rng.randrange(-2048, 2048)))
    # near-miss negatives around the subset's encoding constraints
    words += [
        0x00000033,  # add x0,x0,x0
        0x00208113,  # addi x2,x1,2
        0xFFFFFFFF,
        0x00000000,
        0x02001013,  # slli with bit 25 set: reserved in rv32
        0x40001013,  # slli with srai-style funct7
        0x00001013 | (0x7F << 25),
        0x40000013,  # addi funct3 but funct7-like bits set is still addi (imm)
        0x00003023,  # "sd": store funct3=3, illegal in rv32
        0x00A59123,  # "sh": store funct3=1, outside the decoder subset
        0x00003003,  # "ld": load funct3=3, illegal in rv32
        0x00006003,  # load funct3=6: illegal
        0x02000033,  # r-type funct7=1 (mul): outside subset
        0x000000B7,  # lui: outside subset
        0x00000063,  # beq: outside subset
        0x0000006F,  # jal: outside decoder subset
        0x00000067,  # jalr: outside subset
        0x0000000F,  # fence: outside subset
        0x00000073,  # ecall: outside subset
    ]
    words += [rng.getrandbits(32) for _ in range(500)]
    return [classify(w) for w in words]


def corpus_text(corpus: list[dict]) -> str:
    """The fixture file's exact contents."""
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"

