"""RV32I instruction word field extraction, immediates, and assemblers.

Shared by the decoder monitor and the CPU model. All values are unsigned
32-bit words; immediates come back sign-extended Python ints.
"""
from __future__ import annotations

MASK32 = 0xFFFFFFFF


def opcode(word: int) -> int:
    return word & 0x7F


def rd(word: int) -> int:
    return (word >> 7) & 0x1F


def funct3(word: int) -> int:
    return (word >> 12) & 0x7


def rs1(word: int) -> int:
    return (word >> 15) & 0x1F


def rs2(word: int) -> int:
    return (word >> 20) & 0x1F


def funct7(word: int) -> int:
    return (word >> 25) & 0x7F


def sign_extend(value: int, bits: int) -> int:
    sign_bit = 1 << (bits - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def imm_i(word: int) -> int:
    return sign_extend(word >> 20, 12)


def imm_s(word: int) -> int:
    value = ((word >> 25) << 5) | ((word >> 7) & 0x1F)
    return sign_extend(value, 12)


def imm_j(word: int) -> int:
    # J-type scrambles imm[20|10:1|11|19:12]; bit 0 is always zero.
    value = (
        (((word >> 31) & 0x1) << 20)
        | (((word >> 12) & 0xFF) << 12)
        | (((word >> 20) & 0x1) << 11)
        | (((word >> 21) & 0x3FF) << 1)
    )
    return sign_extend(value, 21)


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
