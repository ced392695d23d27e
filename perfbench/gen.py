"""Seeded generator of model-like replies for the dialogue workloads.

Every reply is built from the package's public encoders
(`duts.decoder.encode`, `duts.cpu.encode_cpu`) and plain arithmetic; the
program under test only ever sees the generated text. The same
(seed, variant, device, profile) always yields the same list of strings.

Reply kinds per device:
- stride: fenced runs of 16-40 values with a single or double stride, in
  range ([-16, 15]) or overflowing;
- decoder: fenced hex words, encoded legal RV32I ops mixed with uniform
  32-bit words (almost all illegal);
- cpu: a fenced JSON program over a 16-slot block at address 0 (R-type,
  store and JAL slots; the last slot jumps back to 0 so the pc stays in the
  block), then single-slot rewrites, a share of them at misaligned
  addresses (malformed stimuli);
- a fixed share of every script is unusable: prose, or values with no fence.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

from covstim.duts.cpu import R_OPS, STORE_OPS, encode_cpu
from covstim.duts.decoder import encode, op_table

UNUSABLE_SHARE = 0.10
MISALIGNED_SHARE = 0.05
CPU_SLOTS = 16

_PROSE = (
    "I would start by exploring the boundary conditions of the design and "
    "then gradually move towards the harder corner cases in the plan.",
    "Sure! Let me think about which inputs are most likely to reach the "
    "uncovered behaviours before writing any values down.",
    "The listed bins look difficult; a careful mix of patterns should help, "
    "so the next batch will focus on them one at a time.",
)

_INTROS = (
    "Here is the next batch of stimuli:",
    "These values target the uncovered bins:",
    "Next batch:",
    "Trying a different mix this time.",
)


@dataclass(frozen=True)
class Profile:
    """Reply-size knobs; `long` makes smaller replies so trials run longer."""

    stride_runs: tuple[int, int]
    decoder_words: tuple[int, int]
    decoder_legal_share: float
    cpu_rewrites: tuple[int, int]


PROFILES = {
    "short": Profile(stride_runs=(1, 3), decoder_words=(4, 12),
                     decoder_legal_share=0.6, cpu_rewrites=(2, 6)),
    "long": Profile(stride_runs=(1, 1), decoder_words=(2, 4),
                    decoder_legal_share=0.5, cpu_rewrites=(1, 2)),
}


def _fence(body: str, rng: random.Random) -> str:
    return f"{rng.choice(_INTROS)}\n```\n{body}\n```\n"


def _unusable(rng: random.Random, body: str) -> str:
    if rng.random() < 0.5:
        return rng.choice(_PROSE)
    return rng.choice(_INTROS) + "\n" + body + "\n"


def _stride_body(rng: random.Random, profile: Profile) -> str:
    values = []
    for _ in range(rng.randint(*profile.stride_runs)):
        kind = rng.random()
        if kind < 0.3:
            strides = [rng.randint(-16, 15)]
        elif kind < 0.4:
            strides = [rng.choice((-1, 1)) * rng.randint(17, 5000)]
        elif kind < 0.9:
            c1, c2 = rng.sample(range(-16, 16), 2)
            strides = [c1, c2]
        else:
            strides = [rng.choice((-1, 1)) * rng.randint(17, 5000) for _ in range(2)]
        value = rng.getrandbits(32) if rng.random() < 0.5 else rng.randint(0, 4096)
        for i in range(rng.randint(16, 40)):
            values.append(value & 0xFFFFFFFF)
            value += strides[i % len(strides)]
    if rng.random() < 0.5:
        return "\n".join(str(v) for v in values)
    return ", ".join(hex(v) for v in values)


def _decoder_body(rng: random.Random, profile: Profile) -> str:
    ops = [op["name"] for op in op_table()["ops"]]
    words = []
    for _ in range(rng.randint(*profile.decoder_words)):
        if rng.random() < profile.decoder_legal_share:
            words.append(
                encode(
                    rng.choice(ops),
                    rs1=rng.randrange(32),
                    rs2=rng.randrange(32),
                    rd=rng.randrange(32),
                    imm=rng.randint(-2048, 2047),
                    shamt=rng.randrange(32),
                )
            )
        else:
            words.append(rng.getrandbits(32))
    return "\n".join(f"0x{w:08x}" for w in words)


def _cpu_word(rng: random.Random, slot: int) -> int:
    kind = rng.random()
    if kind < 0.65:
        return encode_cpu(rng.choice(R_OPS), rd=rng.randrange(32),
                          rs1=rng.randrange(32), rs2=rng.randrange(32))
    if kind < 0.85:
        return encode_cpu(rng.choice(STORE_OPS), rs1=rng.randrange(32),
                          rs2=rng.randrange(32), imm=rng.randint(-2048, 2047))
    target = rng.randrange(CPU_SLOTS)
    return encode_cpu("jal", rd=rng.randrange(32), imm=4 * (target - slot))


def _cpu_body(rng: random.Random, profile: Profile) -> str:
    back = encode_cpu("jal", rd=rng.randrange(32), imm=-4 * (CPU_SLOTS - 1))
    block = [[4 * s, _cpu_word(rng, s)] for s in range(CPU_SLOTS - 1)]
    block.append([4 * (CPU_SLOTS - 1), back])
    stimuli = [block]
    for _ in range(rng.randint(*profile.cpu_rewrites)):
        slot = rng.randrange(CPU_SLOTS - 1)
        addr = 4 * slot
        if rng.random() < MISALIGNED_SHARE:
            addr += rng.randint(1, 3)
        stimuli.append([[addr, _cpu_word(rng, slot)]])
    return json.dumps(stimuli)


_BODIES = {"stride": _stride_body, "decoder": _decoder_body, "cpu": _cpu_body}


def script(seed: int, variant: int, device: str, profile: str, length: int) -> list[str]:
    """`length` replies for one device; deterministic in all arguments."""
    rng = random.Random(f"{seed}/{variant}/{device}/{profile}")
    knobs = PROFILES[profile]
    body_of = _BODIES[device]
    replies = []
    for _ in range(length):
        body = body_of(rng, knobs)
        if rng.random() < UNUSABLE_SHARE:
            replies.append(_unusable(rng, body))
        else:
            replies.append(_fence(body, rng))
    return replies
