"""One witness per plan bin, for every device.

A witness is the list of stimuli that, fed one by one to a freshly reset
device, hits its bin on the last one. The tables are built from the public
encoders (`decoder.encode`, `cpu.encode_cpu`) and plain stride arithmetic,
and name each bin from the documented id scheme, never by asking a device
what it hit; so a witness that misses, or a plan bin with no witness, shows
that the plan and the device disagree.
"""
from __future__ import annotations

from covstim.duts.cpu import CPU_READERS, CPU_WRITERS, R_OPS, STORE_OPS, encode_cpu
from covstim.duts.decoder import encode, op_table
from covstim.duts.stride import STRIDE_MAX, STRIDE_MIN, WINDOW

MASK = 0xFFFFFFFF
STRIDES = range(STRIDE_MIN, STRIDE_MAX + 1)


def _run(first: int, strides: tuple[int, ...]) -> list[int]:
    """A 16-value run from `first` whose differences cycle through `strides`."""
    values = [first]
    for i in range(WINDOW - 1):
        values.append((values[-1] + strides[i % len(strides)]) & MASK)
    return values


def stride_witnesses() -> dict[str, list[int]]:
    table = {f"single_stride_{c:+03d}": _run(0, (c,)) for c in STRIDES}
    for c1 in STRIDES:
        for c2 in STRIDES:
            if c1 != c2:
                table[f"double_stride_{c1:+03d}_{c2:+03d}"] = _run(0, (c1, c2))
    table["single_overflow_pos"] = _run(0, (STRIDE_MAX + 1,))
    table["single_overflow_neg"] = _run(0, (STRIDE_MIN - 1,))
    out = {"p": (100, 200), "n": (-100, -200)}  # two distinct strides per sign
    for s1 in "pn":
        for s2 in "pn":
            table[f"double_overflow_{s1}{s2}"] = _run(0, (out[s1][0], out[s2][1]))
    # two adjacent disjoint windows: the older one's category, then the newer one's
    none = [i * (i + 1) // 2 for i in range(WINDOW)]  # differences 1, 2, 3, ...
    single, double = _run(1000, (1,)), _run(1000, (1, 2))
    table["no_to_single"] = none + single
    table["no_to_double"] = none + double
    table["single_to_double"] = single + _run(2000, (1, 2))
    table["double_to_single"] = double + _run(2000, (1,))
    return table


# the register fields each decoder format carries, with their port names
_PORTS = {"read_a": "rs1", "read_b": "rs2", "write": "rd"}
_FIELDS = {
    "r": ("rs1", "rs2", "rd"),
    "store": ("rs1", "rs2"),
    "i": ("rs1", "rd"),
    "i_shift": ("rs1", "rd"),
    "load": ("rs1", "rd"),
}


def decoder_witnesses() -> dict[str, list[int]]:
    """Each op with every register value in all of its register fields."""
    table: dict[str, list[int]] = {}
    for op in op_table()["ops"]:
        name = op["name"]
        for reg in range(32):
            word = [encode(name, rs1=reg, rs2=reg, rd=reg)]
            table.setdefault(f"op_{name}", word)
            for port, field in _PORTS.items():
                if field in _FIELDS[op["format"]]:
                    table.setdefault(f"port_x{reg:02d}_{port}", word)
                    table[f"cross_{name}_x{reg:02d}_{port}"] = word
    return table


def _cpu_word(op: str, rd: int, rs1: int, rs2: int) -> int:
    if op == "jal":
        return encode_cpu("jal", rd=rd, imm=4)  # forward, to the next word
    return encode_cpu(op, rd=rd, rs1=rs1, rs2=rs2)


def cpu_witnesses() -> dict[str, list[list[list[int]]]]:
    """The first stimulus writes the program and runs its first instruction;
    each empty stimulus after it runs the next one."""
    table: dict[str, list[list[list[int]]]] = {}
    for op in R_OPS + STORE_OPS + ("jal",):
        table[f"{op}_seen"] = [[[0, _cpu_word(op, 1, 2, 3)]]]
        if op in CPU_WRITERS:
            table[f"{op}_zero_dst"] = [[[0, _cpu_word(op, 0, 2, 3)]]]
        if op in CPU_READERS:
            table[f"{op}_zero_src"] = [[[0, _cpu_word(op, 1, 0, 3)]]]
            table[f"{op}_same_src"] = [[[0, _cpu_word(op, 1, 2, 2)]]]
    table["jump_forward"] = [[[0, encode_cpu("jal", rd=1, imm=8)]]]
    table["jump_backward"] = table["jump_forward"] + [[[8, encode_cpu("jal", rd=1, imm=-8)]]]
    for writer in CPU_WRITERS:
        for reader in CPU_READERS:
            program = [[0, _cpu_word(writer, 5, 1, 2)], [4, _cpu_word(reader, 6, 5, 7)]]
            table[f"hazard_{writer}_{reader}"] = [program, []]
    return table


WITNESSES = {"stride": stride_witnesses, "decoder": decoder_witnesses, "cpu": cpu_witnesses}
