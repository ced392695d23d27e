"""Functional coverage primitives: bin descriptors, plans, and hit accounting.

A coverage plan is an ordered collection of named bins. Monitors translate
design activity into bin ids; the coverage state counts hits and reports which
bins remain uncovered. Plans are immutable once built so every consumer sees
the same ordering.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


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


class CoverageState:
    """Hit counts for one plan. Counts only grow; ids outside the plan are bugs."""

    def __init__(self, plan: CoveragePlan) -> None:
        self.plan = plan
        self.hits: dict[str, int] = {}

    def record(self, bin_ids: Iterable[str]) -> list[str]:
        """Count hits; return ids that just went from unhit to hit, in hit order."""
        newly_covered: list[str] = []
        hits = self.hits
        for bin_id in bin_ids:
            count = hits.get(bin_id)
            if count is not None:
                hits[bin_id] = count + 1
                continue
            # only plan ids ever enter `hits`, so this checks every id once
            if bin_id not in self.plan._by_id:
                raise ValueError(
                    f"monitor emitted unknown bin id {bin_id!r} "
                    f"for plan {self.plan.name!r}"
                )
            newly_covered.append(bin_id)
            hits[bin_id] = 1
        return newly_covered

    def count(self, bin_id: str) -> int:
        return self.hits.get(bin_id, 0)

    @property
    def covered_count(self) -> int:
        return len(self.hits)

    def rate(self) -> float:
        if len(self.plan) == 0:
            raise ValueError(f"plan {self.plan.name!r} has no bins")
        return self.covered_count / len(self.plan)

    def is_full(self) -> bool:
        return self.covered_count == len(self.plan)

    def uncovered(self) -> list[BinDescriptor]:
        """Unhit bins in plan order."""
        return [b for b in self.plan.bins if b.id not in self.hits]
