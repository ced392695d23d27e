"""Functional coverage primitives: bin descriptors, plans, and covered sets.

A coverage plan is an ordered collection of named bins. Monitors translate
design activity into bin ids; the coverage state keeps the set of bins hit
so far and keeps the bins that remain uncovered up to date as hits arrive.
Plans are immutable once built so every consumer sees the same ordering.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, ValuesView


class Difficulty(str, Enum):
    EASIER = "easier"
    HARDER = "harder"


@dataclass(frozen=True)
class BinDescriptor:
    """One coverage bin: a stable id plus prompt-facing metadata."""

    id: str
    description: str
    difficulty: Difficulty
    group: str


class CoveragePlan:
    """Immutable, lexicographically ordered set of coverage bins.

    Builders zero-pad numeric id parts so same-family blocks sort numerically.
    Duplicate ids are a construction error.
    """

    def __init__(self, name: str, bins: Iterable[BinDescriptor]) -> None:
        self.name = name
        self.bins: tuple[BinDescriptor, ...] = tuple(
            sorted(bins, key=lambda b: b.id)
        )
        self._by_id = {b.id: b for b in self.bins}
        if len(self._by_id) != len(self.bins):
            raise ValueError(f"duplicate bin ids in plan {name!r}")
        # uncovered-bin views start from copies of `_by_id` and of these
        self._easier = {}
        self._harder = {}
        for b in self.bins:
            side = self._easier if b.difficulty is Difficulty.EASIER else self._harder
            side[b.id] = b

    def __len__(self) -> int:
        return len(self.bins)

    def __iter__(self) -> Iterator[BinDescriptor]:
        return iter(self.bins)

    def __contains__(self, bin_id: str) -> bool:
        return bin_id in self._by_id

    def descriptor(self, bin_id: str) -> BinDescriptor:
        try:
            return self._by_id[bin_id]
        except KeyError:
            raise KeyError(f"unknown bin id {bin_id!r} in plan {self.name!r}") from None

    def ids(self) -> list[str]:
        return [b.id for b in self.bins]

    def to_records(self) -> list[dict]:
        return [
            {
                "id": b.id,
                "description": b.description,
                "difficulty": b.difficulty.value,
                "group": b.group,
            }
            for b in self.bins
        ]

    def dump_json(self) -> str:
        """Serialize the plan deterministically (stable key and bin order)."""
        return json.dumps(self.to_records(), indent=2, sort_keys=True)


class UncoveredBins:
    """Live view of a state's unhit bins: in plan order, and split by difficulty.

    Like a dict view it follows every later `record`; copy what must outlast
    one. `easier` and `harder` iterate their bins in plan order. The bins
    are insertion-ordered dicts copied from the plan, and covering a bin
    deletes it, so keeping the view current costs O(new bins).
    """

    __slots__ = ("_all", "_easier", "_harder", "easier", "harder")

    def __init__(self, plan: CoveragePlan) -> None:
        self._all = plan._by_id.copy()
        self._easier = plan._easier.copy()
        self._harder = plan._harder.copy()
        self.easier: ValuesView[BinDescriptor] = self._easier.values()
        self.harder: ValuesView[BinDescriptor] = self._harder.values()

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[BinDescriptor]:
        return iter(self._all.values())

    def _cover(self, bin_ids: Iterable[str]) -> None:
        for bin_id in bin_ids:
            if self._all.pop(bin_id).difficulty is Difficulty.EASIER:
                del self._easier[bin_id]
            else:
                del self._harder[bin_id]


class CoverageState:
    """The bins of one plan hit so far. The set only grows; ids outside the
    plan are bugs.

    The uncovered-bin view is built by the first `uncovered()` call and kept
    current by `record` from then on, so a state that is never asked (the
    constrained-random loop) pays nothing for it.
    """

    def __init__(self, plan: CoveragePlan) -> None:
        self.plan = plan
        self.covered: set[str] = set()
        self._view: Optional[UncoveredBins] = None

    def record(self, bin_ids: Iterable[str]) -> list[str]:
        """Mark hits; return ids that just went from unhit to hit, in hit order."""
        newly_covered: list[str] = []
        covered = self.covered
        for bin_id in bin_ids:
            if bin_id in covered:
                continue
            # only plan ids ever enter `covered`, so this checks every id once
            if bin_id not in self.plan._by_id:
                raise ValueError(
                    f"monitor emitted unknown bin id {bin_id!r} "
                    f"for plan {self.plan.name!r}"
                )
            newly_covered.append(bin_id)
            covered.add(bin_id)
        if newly_covered and self._view is not None:
            self._view._cover(newly_covered)
        return newly_covered

    def rate(self) -> float:
        if len(self.plan) == 0:
            raise ValueError(f"plan {self.plan.name!r} has no bins")
        return len(self.covered) / len(self.plan)

    def is_full(self) -> bool:
        return len(self.covered) == len(self.plan)

    def uncovered(self) -> UncoveredBins:
        """Unhit bins in plan order: a live view, O(1) after the first call."""
        if self._view is None:
            self._view = UncoveredBins(self.plan)
            self._view._cover(self.covered)
        return self._view
