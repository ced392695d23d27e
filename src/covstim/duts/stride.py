"""Stride-pattern detector: classifies 16-value windows of a 32-bit stream.

A window has a single stride when all 15 consecutive differences are equal,
and a double stride when the differences alternate between two distinct
values, the first difference giving the first stride. Differences wrap in
signed 32-bit arithmetic. Strides in [-16, 15] hit dedicated bins; windows
whose stride (or both alternating strides) fall outside that range hit
overflow bins. A window with one alternating stride in range and one out of
range hits nothing. Transition bins fire when the two adjacent disjoint
16-value windows ending at the newest input change pattern category.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty
from covstim.duts import FORMAT_INTEGERS

WINDOW = 16
STRIDE_MIN = -16
STRIDE_MAX = 15
_MASK = 0xFFFFFFFF
_HALF = 2**31

# window categories, as indices into the transition table
_NONE, _SINGLE, _DOUBLE = 0, 1, 2
_TRANSITIONS = {
    (_NONE, _SINGLE): "no_to_single",
    (_NONE, _DOUBLE): "no_to_double",
    (_SINGLE, _DOUBLE): "single_to_double",
    (_DOUBLE, _SINGLE): "double_to_single",
}


@lru_cache(maxsize=1)
def _stride_model() -> tuple[CoveragePlan, dict, dict, dict]:
    """The plan plus its pattern bin ids: single strides keyed by unsigned
    32-bit difference, double strides by the (first, second) difference pair,
    and double overflows by whether (first, second) is negative."""
    bins = []
    single: dict[int, str] = {}
    double: dict[tuple[int, int], str] = {}
    double_overflow: dict[tuple[bool, bool], str] = {}
    for c in range(STRIDE_MIN, STRIDE_MAX + 1):
        single[c & _MASK] = f"single_stride_{c:+03d}"
        bins.append(
            BinDescriptor(
                id=single[c & _MASK],
                description=(
                    f"a window of 16 values whose 15 consecutive differences "
                    f"all equal {c} (signed 32-bit wrapping arithmetic)"
                ),
                difficulty=Difficulty.EASIER,
                group="single_stride",
            )
        )
    for c1 in range(STRIDE_MIN, STRIDE_MAX + 1):
        for c2 in range(STRIDE_MIN, STRIDE_MAX + 1):
            if c1 == c2:
                continue
            double[c1 & _MASK, c2 & _MASK] = f"double_stride_{c1:+03d}_{c2:+03d}"
            bins.append(
                BinDescriptor(
                    id=double[c1 & _MASK, c2 & _MASK],
                    description=(
                        f"a window of 16 values whose consecutive differences "
                        f"alternate {c1}, {c2}, {c1}, ... starting with {c1}"
                    ),
                    difficulty=Difficulty.HARDER,
                    group="double_stride",
                )
            )
    for sign, word in (("pos", "positive"), ("neg", "negative")):
        bins.append(
            BinDescriptor(
                id=f"single_overflow_{sign}",
                description=(
                    f"a single-stride window whose stride is {word} and outside "
                    f"[{STRIDE_MIN}, {STRIDE_MAX}]"
                ),
                difficulty=Difficulty.HARDER,
                group="overflow",
            )
        )
    for s1 in ("p", "n"):
        for s2 in ("p", "n"):
            w1 = "positive" if s1 == "p" else "negative"
            w2 = "positive" if s2 == "p" else "negative"
            double_overflow[s1 == "n", s2 == "n"] = f"double_overflow_{s1}{s2}"
            bins.append(
                BinDescriptor(
                    id=double_overflow[s1 == "n", s2 == "n"],
                    description=(
                        f"a double-stride window with both alternating strides "
                        f"outside [{STRIDE_MIN}, {STRIDE_MAX}]: the first stride "
                        f"{w1}, the second {w2}"
                    ),
                    difficulty=Difficulty.HARDER,
                    group="overflow",
                )
            )
    transitions = {
        "no_to_single": "a 16-value window with no stride pattern immediately "
        "followed by a single-stride window",
        "no_to_double": "a 16-value window with no stride pattern immediately "
        "followed by a double-stride window",
        "single_to_double": "a single-stride window immediately followed by a "
        "double-stride window",
        "double_to_single": "a double-stride window immediately followed by a "
        "single-stride window",
    }
    for bin_id, desc in transitions.items():
        bins.append(
            BinDescriptor(
                id=bin_id,
                description=desc + " (the two adjacent 16-value windows)",
                difficulty=Difficulty.HARDER,
                group="transition",
            )
        )
    return CoveragePlan("stride", bins), single, double, double_overflow


class StrideMonitor:
    """Feeds a 32-bit value stream through sliding-window classification.

    Windows are evaluated at every input once 16 values have arrived, in O(1)
    from two trailing run counters over the consecutive differences: the
    window is a single stride when its 15 differences all match the newest
    (`_equal_run` >= 15), and a double stride when each of its last 13
    differences matches the one two places before it (`_alternate_run` >=
    13) and the newest two differ. The transition check compares the
    category of the disjoint older window (inputs n-31..n-16), kept in a
    16-slot ring, against the newest (n-15..n).
    """

    kind = "stride"
    stimulus_format = FORMAT_INTEGERS

    def __init__(self) -> None:
        self.plan, self._single, self._double, self._double_overflow = _stride_model()
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._last_value = 0
        self._diff1: Optional[int] = None  # newest difference (unsigned)
        self._diff2: Optional[int] = None  # the one before it
        self._equal_run = 0
        self._alternate_run = 0
        self._ring = [_NONE] * WINDOW  # categories of windows ending at n-16..n-1

    def feed(self, stimulus: int) -> list[str]:
        value = stimulus & _MASK
        count = self._count = self._count + 1
        if count == 1:
            self._last_value = value
            return []
        diff = (value - self._last_value) & _MASK
        self._last_value = value
        diff1 = self._diff1
        if diff == diff1:
            self._equal_run += 1
        else:
            self._equal_run = 1
        if diff == self._diff2:
            self._alternate_run += 1
        else:
            self._alternate_run = 0
        self._diff2 = diff1
        self._diff1 = diff
        if count < WINDOW:
            return []
        if self._equal_run >= WINDOW - 1:
            category = _SINGLE
            pattern = self._single.get(diff)
            if pattern is None:
                pattern = "single_overflow_neg" if diff >= _HALF else "single_overflow_pos"
        elif self._alternate_run >= WINDOW - 3 and diff != diff1:
            # 15 differences alternate, so the newest is also the first stride
            category = _DOUBLE
            pattern = self._double.get((diff, diff1))
            if pattern is None:
                if diff in self._single or diff1 in self._single:
                    category = _NONE  # mixed: one stride in range, one out
                else:
                    pattern = self._double_overflow[diff >= _HALF, diff1 >= _HALF]
        else:
            category = _NONE
        slot = count % WINDOW
        older = self._ring[slot]
        self._ring[slot] = category
        if category == _NONE:  # no pattern, and no transition ends in "none"
            return []
        if count >= 2 * WINDOW:
            transition = _TRANSITIONS.get((older, category))
            if transition is not None:
                return [pattern, transition]
        return [pattern]

    def extras(self) -> dict:
        return {}
