"""Stride detector monitor tests.

The oracle here is written independently of the monitor: it classifies windows
by set construction (not by the monitor's trailing run counters) and re-scans
the whole stream for every window instead of sliding incrementally.
"""
from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from covstim.coverage import Difficulty
from covstim.duts.stride import StrideMonitor, classify_window, stride_plan

MASK = 0xFFFFFFFF


# --- independent oracle -----------------------------------------------------

def oracle_diff(after: int, before: int) -> int:
    d = (after - before) % 2**32
    return d - 2**32 if d >= 2**31 else d


def oracle_sign(c: int) -> str:
    return "pos" if c > 0 else "neg"


def oracle_classify(window):
    """Classify one 16-value window by exhaustive set construction."""
    assert len(window) == 16
    diffs = [oracle_diff(window[i + 1], window[i]) for i in range(15)]
    if len(set(diffs)) == 1:
        c = diffs[0]
        if -16 <= c <= 15:
            return ("single", c)
        return ("single_overflow", oracle_sign(c))
    evens = set(diffs[0::2])
    odds = set(diffs[1::2])
    if len(evens) == 1 and len(odds) == 1:
        c1, c2 = evens.pop(), odds.pop()
        if c1 != c2:
            in1 = -16 <= c1 <= 15
            in2 = -16 <= c2 <= 15
            if in1 and in2:
                return ("double", c1, c2)
            if not in1 and not in2:
                return ("double_overflow", oracle_sign(c1), oracle_sign(c2))
    return None


def oracle_bin(cls) -> str | None:
    if cls is None:
        return None
    if cls[0] == "single":
        return f"single_stride_{cls[1]:+03d}"
    if cls[0] == "double":
        return f"double_stride_{cls[1]:+03d}_{cls[2]:+03d}"
    if cls[0] == "single_overflow":
        return f"single_overflow_{cls[1]}"
    return f"double_overflow_{cls[1][0]}{cls[2][0]}"


def oracle_category(cls) -> str:
    if cls is None:
        return "none"
    return "single" if cls[0].startswith("single") else "double"


ORACLE_TRANSITIONS = {
    ("none", "single"): "no_to_single",
    ("none", "double"): "no_to_double",
    ("single", "double"): "single_to_double",
    ("double", "single"): "double_to_single",
}


def oracle_stream_bins(stream) -> Counter:
    """Brute-force re-scan: every window classified from scratch."""
    hits: Counter = Counter()
    stream = [v & MASK for v in stream]
    for i in range(15, len(stream)):
        b = oracle_bin(oracle_classify(stream[i - 15 : i + 1]))
        if b is not None:
            hits[b] += 1
    for i in range(31, len(stream)):
        older = oracle_category(oracle_classify(stream[i - 31 : i - 15]))
        newer = oracle_category(oracle_classify(stream[i - 15 : i + 1]))
        t = ORACLE_TRANSITIONS.get((older, newer))
        if t is not None:
            hits[t] += 1
    return hits


def monitor_stream_bins(stream) -> Counter:
    mon = StrideMonitor()
    hits: Counter = Counter()
    for v in stream:
        hits.update(mon.feed(v & MASK))
    return hits


# --- plan shape -------------------------------------------------------------

def test_plan_cardinality():
    plan = stride_plan()
    assert len(plan) == 1034
    groups = Counter(b.group for b in plan)
    assert groups == {
        "single_stride": 32,
        "double_stride": 992,
        "overflow": 6,
        "transition": 4,
    }


def test_plan_difficulty_split():
    plan = stride_plan()
    easier = [b for b in plan if b.difficulty is Difficulty.EASIER]
    assert len(easier) == 32
    assert all(b.group == "single_stride" for b in easier)


def test_plan_sorted_unique():
    plan = stride_plan()
    ids = plan.ids()
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


# --- frozen classification examples ----------------------------------------

def test_classify_all_equal_is_zero_stride():
    assert classify_window([7] * 16) == "single_stride_+00"


def test_classify_ascending_unit_stride():
    assert classify_window(list(range(16))) == "single_stride_+01"


def test_classify_overflowing_single_stride():
    assert classify_window(list(range(0, 1600, 100))) == "single_overflow_pos"
    assert classify_window(list(range(1600, 0, -100))) == "single_overflow_neg"


def test_classify_alternating_double_stride():
    # diffs alternate +1, -1 starting at +1
    assert classify_window([0, 1] * 8) == "double_stride_+01_-01"


def test_classify_double_overflow_signs_follow_stream_order():
    # 0,100,1,101,...: first difference +100 (pos), second -99 (neg)
    window = []
    for i in range(8):
        window += [i, i + 100]
    assert classify_window(window) == "double_overflow_pn"


def test_classify_growing_diffs_is_none():
    values = [0]
    for step in range(1, 16):
        values.append(values[-1] + step)
    assert classify_window(values) is None


def test_classify_mixed_double_overflow_is_none():
    # one stride in range (+5), one out (+100): hits nothing by design
    window = [0]
    for i in range(15):
        window.append(window[-1] + (5 if i % 2 == 0 else 100))
    assert classify_window(window) is None


def test_classify_wraps_32_bit_boundary():
    values = [(0xFFFFFFF8 + i) & MASK for i in range(16)]
    assert classify_window(values) == "single_stride_+01"


def test_classify_wrap_produces_int_min_overflow():
    # +0x80000000 and -0x80000000 both wrap to the same signed diff, INT_MIN
    assert classify_window([0, 0x80000000] * 8) == "single_overflow_neg"
    # alternate INT_MIN with +100: both strides out of range, distinct signs
    values = [0]
    for i in range(15):
        step = 0x80000000 if i % 2 == 0 else 100
        values.append((values[-1] + step) & MASK)
    assert classify_window(values) == "double_overflow_np"


def test_classify_rejects_wrong_length():
    with pytest.raises(ValueError):
        classify_window([1] * 15)
    with pytest.raises(ValueError):
        classify_window([1] * 17)


# --- frozen feed examples ---------------------------------------------------

def test_feed_no_bins_before_16_values():
    mon = StrideMonitor()
    for v in range(15):
        assert mon.feed(v) == []


def test_feed_first_window_hits_single_bin():
    mon = StrideMonitor()
    hits = [mon.feed(v) for v in range(16)]
    assert hits[-1] == ["single_stride_+01"]


def test_feed_sliding_windows_repeat_bin():
    bins = monitor_stream_bins(list(range(20)))
    assert bins == Counter({"single_stride_+01": 5})


def test_feed_single_to_double_transition():
    stream = list(range(0, 48, 3))  # single stride +3
    tail = [100]
    for i in range(15):
        tail.append(tail[-1] + (2 if i % 2 == 0 else 9))
    stream = stream + tail
    assert len(stream) == 32
    bins = monitor_stream_bins(stream)
    assert bins["single_to_double"] == 1
    assert bins["double_stride_+02_+09"] == 1
    assert bins["single_stride_+03"] == 1
    assert oracle_stream_bins(stream) == bins


def test_feed_no_to_single_transition():
    junk = [9, 2, 77, 5, 13, 40, 8, 61, 3, 90, 17, 55, 4, 70, 21, 36]
    assert oracle_classify(junk) is None
    stream = junk + [100 + 2 * i for i in range(16)]
    bins = monitor_stream_bins(stream)
    assert bins["no_to_single"] == 1
    assert oracle_stream_bins(stream) == bins


def test_feed_transition_needs_32_values():
    stream = [9, 2, 77, 5, 13, 40, 8, 61, 3, 90, 17, 55, 4, 70, 21] + [
        100 + 2 * i for i in range(16)
    ]
    assert len(stream) == 31
    bins = monitor_stream_bins(stream)
    assert "no_to_single" not in bins


def test_monitor_reset_clears_history():
    mon = StrideMonitor()
    for v in range(16):
        mon.feed(v)
    mon.reset()
    for v in range(15):
        assert mon.feed(v) == []


def test_monitor_emits_only_plan_bins():
    plan = stride_plan()
    stream = list(range(0, 64, 2)) + [0, 1] * 16 + list(range(0, 6400, 100))
    for b in monitor_stream_bins(stream):
        assert b in plan


# --- property: incremental monitor equals brute-force re-scan ---------------

def _arith(start: int, c: int, n: int) -> list[int]:
    out = [start & MASK]
    for _ in range(n - 1):
        out.append((out[-1] + c) & MASK)
    return out


def _alt(start: int, c1: int, c2: int, n: int) -> list[int]:
    out = [start & MASK]
    for i in range(n - 1):
        out.append((out[-1] + (c1 if i % 2 == 0 else c2)) & MASK)
    return out


def _segments() -> st.SearchStrategy:
    small = st.integers(min_value=-16, max_value=15)
    big = st.one_of(
        st.integers(min_value=16, max_value=200),
        st.integers(min_value=-200, max_value=-17),
    )
    any_stride = st.one_of(small, big)
    start = st.integers(min_value=0, max_value=MASK)
    length = st.integers(min_value=1, max_value=40)
    random_seg = st.lists(start, min_size=1, max_size=24)
    arith_seg = st.builds(_arith, start, any_stride, length)
    alt_seg = st.builds(_alt, start, any_stride, any_stride, length)
    return st.lists(
        st.one_of(random_seg, arith_seg, alt_seg), min_size=0, max_size=6
    ).map(lambda segs: [v for seg in segs for v in seg])


@settings(max_examples=250, deadline=None)
@given(stream=_segments())
# one alternating stride in range and one out: windows hit nothing and count
# as "none" for the transition that follows
@example(stream=_alt(0, 5, 100, 40) + _arith(7, 3, 20))
@example(stream=_alt(9, -200, -3, 40) + _alt(1, 2, -2, 20))
# runs that wrap past 2**32, and strides of +-2**31 (both wrap to INT_MIN)
@example(stream=_arith(0xFFFFFFF0, 1, 40) + _arith(3, 2**31, 40))
@example(stream=_alt(5, 2**31, 7, 40) + _alt(5, -(2**31), 100, 40))
def test_feed_matches_brute_force_oracle(stream):
    assert monitor_stream_bins(stream) == oracle_stream_bins(stream)


@settings(max_examples=100, deadline=None)
@given(window=st.lists(st.integers(min_value=0, max_value=MASK), min_size=16, max_size=16))
def test_classify_matches_oracle_on_random_windows(window):
    assert classify_window(window) == oracle_bin(oracle_classify(window))


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=MASK),
    c=st.integers(min_value=-16, max_value=15),
)
def test_every_in_range_single_stride_is_detected(start, c):
    stream = [start & MASK]
    for _ in range(15):
        stream.append((stream[-1] + c) & MASK)
    assert classify_window(stream) == f"single_stride_{c:+03d}"
    assert monitor_stream_bins(stream) == Counter({f"single_stride_{c:+03d}": 1})
