"""Functional coverage primitives: bin descriptors, plans, and covered sets.

A coverage plan is an ordered collection of named bins. Monitors translate
design activity into bin ids; the coverage state keeps the set of bins hit
so far and keeps the bins that remain uncovered up to date as hits arrive.
Plans are immutable once built so every consumer sees the same ordering.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from enum import Enum
from operator import attrgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Optional


class Difficulty(str, Enum):
    EASIER = "easier"
    HARDER = "harder"


class BinDescriptor(NamedTuple):
    """One coverage bin: a stable id plus prompt-facing metadata.

    An immutable value record. It is a NamedTuple rather than a frozen
    dataclass because the plans build thousands of them at start-up, and a
    NamedTuple is cheaper both to define and to build.
    """

    id: str
    description: str
    difficulty: Difficulty
    group: str


_id = attrgetter("id")


class CoveragePlan:
    """Immutable, lexicographically ordered set of coverage bins.

    Builders zero-pad numeric id parts so same-family blocks sort numerically.
    Duplicate ids are a construction error.
    """

    def __init__(self, name: str, bins: Iterable[BinDescriptor]) -> None:
        self.name = name
        self.bins: tuple[BinDescriptor, ...] = tuple(sorted(bins, key=_id))
        self._by_id = {b.id: b for b in self.bins}
        if len(self._by_id) != len(self.bins):
            raise ValueError(f"duplicate bin ids in plan {name!r}")

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
    one. `bins`, `easier` and `harder` are lists in plan order, so a sampler
    indexes them without copying; read them, never mutate them. The plan is
    sorted by id, so covering a bin finds it in `bins` and in its side's list
    by bisection and deletes it there: O(log U) comparisons plus a memmove of
    each list's tail per newly covered bin.
    """

    __slots__ = ("_by_id", "bins", "easier", "harder")

    def __init__(self, plan: CoveragePlan, covered: Collection[str]) -> None:
        self._by_id = plan._by_id
        self.bins = [b for b in plan.bins if b.id not in covered]
        self.easier = [b for b in self.bins if b.difficulty is Difficulty.EASIER]
        self.harder = [b for b in self.bins if b.difficulty is Difficulty.HARDER]

    def __len__(self) -> int:
        return len(self.bins)

    def _cover(self, bin_ids: Iterable[str]) -> None:
        by_id, bins = self._by_id, self.bins
        for bin_id in bin_ids:
            easier = by_id[bin_id].difficulty is Difficulty.EASIER
            side = self.easier if easier else self.harder
            del bins[bisect_left(bins, bin_id, key=_id)]
            del side[bisect_left(side, bin_id, key=_id)]


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

    def record(self, bin_ids: Collection[str]) -> list[str]:
        """Mark hits; return ids that just went from unhit to hit, in hit order."""
        covered = self.covered
        if covered.issuperset(bin_ids):  # the common case once coverage saturates
            return []
        newly_covered: list[str] = []
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

    def is_full(self) -> bool:
        return len(self.covered) == len(self.plan)

    def uncovered(self) -> UncoveredBins:
        """Unhit bins in plan order: a live view, O(1) after the first call."""
        if self._view is None:
            self._view = UncoveredBins(self.plan, self.covered)
        return self._view
