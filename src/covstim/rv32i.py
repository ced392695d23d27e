"""RV32I instruction word assemblers.

Shared by the decoder monitor and the CPU model. Immediates are signed
Python ints, truncated to their field; every result is an unsigned 32-bit
word.
"""
from __future__ import annotations

MASK32 = 0xFFFFFFFF


def encode_r(op: int, f3: int, f7: int, rd_: int, rs1_: int, rs2_: int) -> int:
    return (
        (f7 << 25) | (rs2_ << 20) | (rs1_ << 15) | (f3 << 12) | (rd_ << 7) | op
    ) & MASK32


def encode_i(op: int, f3: int, rd_: int, rs1_: int, imm12: int) -> int:
    return (((imm12 & 0xFFF) << 20) | (rs1_ << 15) | (f3 << 12) | (rd_ << 7) | op) & MASK32


def encode_s(op: int, f3: int, rs1_: int, rs2_: int, imm12: int) -> int:
    imm = imm12 & 0xFFF
    return (
        ((imm >> 5) << 25) | (rs2_ << 20) | (rs1_ << 15) | (f3 << 12) | ((imm & 0x1F) << 7) | op
    ) & MASK32


def encode_j(op: int, rd_: int, offset: int) -> int:
    """J-type; offset must be even, 21-bit signed range."""
    imm = offset & 0x1FFFFE
    word = (
        (((imm >> 20) & 0x1) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 0x1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (rd_ << 7)
        | op
    )
    return word & MASK32
