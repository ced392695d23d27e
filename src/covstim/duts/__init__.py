"""Behavioral designs under test and their coverage monitors.

Every DUT exposes the same surface: a coverage plan, a `feed` method that
consumes one stimulus and returns the bin ids it hit (the device's only
decode; the CPU's applies the memory updates and executes in the same
call), `reset` for trial boundaries, and `extras` for agent-facing state
(the CPU reports its `pc`, which the crt agent's stimulus generator reads
once per CPU stimulus, after the previous one was fed; the others report
nothing and the crt loop never asks them).
"""
from __future__ import annotations

from typing import Protocol, runtime_checkable

from covstim.coverage import CoveragePlan

# Stimulus wire formats understood by the extraction layer.
FORMAT_INTEGERS = "integers"
FORMAT_MEMORY_UPDATES = "memory_updates"


class MalformedStimulusError(ValueError):
    """Raised when a stimulus parses but violates the DUT's input contract."""


@runtime_checkable
class Dut(Protocol):
    kind: str
    stimulus_format: str
    plan: CoveragePlan

    def reset(self) -> None: ...

    def feed(self, stimulus) -> list[str]: ...

    def extras(self) -> dict: ...


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
