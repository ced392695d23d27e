"""Behavioral designs under test and their coverage monitors.

Every DUT exposes the same surface: its `kind` and `stimulus_format`, a
coverage plan, a `feed` method that consumes one stimulus and returns the
bin ids it hit (the device's only decode; the CPU's applies the memory
updates and executes in the same call), and `reset` for trial boundaries.
The harness reads nothing else of a device.
"""
from __future__ import annotations

from typing import Protocol

from covstim.coverage import CoveragePlan

# Stimulus wire formats understood by the extraction layer.
FORMAT_INTEGERS = "integers"
FORMAT_MEMORY_UPDATES = "memory_updates"


class MalformedStimulusError(ValueError):
    """Raised when a stimulus parses but violates the DUT's input contract."""


class Dut(Protocol):
    kind: str
    stimulus_format: str
    plan: CoveragePlan

    def reset(self) -> None: ...

    def feed(self, stimulus) -> list[str]: ...


def make_dut(kind: str) -> Dut:
    from covstim.duts.cpu import CpuDut
    from covstim.duts.decoder import DecoderMonitor
    from covstim.duts.stride import StrideMonitor

    duts = {"stride": StrideMonitor, "decoder": DecoderMonitor, "cpu": CpuDut}
    try:
        return duts[kind]()
    except KeyError:
        raise ValueError(f"unknown dut kind {kind!r}; expected one of {sorted(duts)}") from None


DUT_KINDS = ("stride", "decoder", "cpu")
