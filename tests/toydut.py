"""Ten-bin toy device for exercising the trial loop without a real DUT.

Stimulus value v hits bin_{v:02d} when 0 <= v < 10; anything else hits
nothing. The first five bins are Easier, the rest Harder.
"""
from __future__ import annotations

from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty
from covstim.duts import FORMAT_INTEGERS


def toy_plan() -> CoveragePlan:
    bins = [
        BinDescriptor(
            id=f"bin_{i:02d}",
            description=f"stimulus value {i} observed",
            difficulty=Difficulty.EASIER if i < 5 else Difficulty.HARDER,
            group="value",
        )
        for i in range(10)
    ]
    return CoveragePlan("toy", bins)


class ToyDut:
    kind = "toy"
    stimulus_format = FORMAT_INTEGERS

    def __init__(self) -> None:
        self.plan = toy_plan()

    def reset(self) -> None:
        pass

    def feed(self, stimulus: int) -> list[str]:
        if 0 <= stimulus < 10:
            return [f"bin_{stimulus:02d}"]
        return []
