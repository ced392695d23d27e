"""Stride detector monitor tests.

The oracle here is written independently of the monitor: it classifies windows
by set construction (not by the monitor's trailing run counters) and re-scans
the whole stream for every window instead of sliding incrementally.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from covstim.coverage import Difficulty
from covstim.duts import make_dut
from covstim.duts.stride import StrideMonitor

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
    plan = make_dut("stride").plan
    assert len(plan) == 1034
    groups = Counter(b.group for b in plan)
    assert groups == {
        "single_stride": 32,
        "double_stride": 992,
        "overflow": 6,
        "transition": 4,
    }


def test_plan_difficulty_split():
    plan = make_dut("stride").plan
    easier = [b for b in plan if b.difficulty is Difficulty.EASIER]
    assert len(easier) == 32
    assert all(b.group == "single_stride" for b in easier)


def test_plan_sorted_unique():
    plan = make_dut("stride").plan
    ids = [b.id for b in plan]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


# --- frozen classification examples ----------------------------------------

def window_bin(values) -> str | None:
    """The pattern bin a fresh monitor reports for exactly 16 values, if any."""
    assert len(values) == 16
    monitor = StrideMonitor()
    for value in values:
        bins = monitor.feed(value)
    return bins[0] if bins else None


def test_classify_all_equal_is_zero_stride():
    assert window_bin([7] * 16) == "single_stride_+00"


def test_classify_ascending_unit_stride():
    assert window_bin(list(range(16))) == "single_stride_+01"


def test_classify_overflowing_single_stride():
    assert window_bin(list(range(0, 1600, 100))) == "single_overflow_pos"
    assert window_bin(list(range(1600, 0, -100))) == "single_overflow_neg"


def test_classify_alternating_double_stride():
    # diffs alternate +1, -1 starting at +1
    assert window_bin([0, 1] * 8) == "double_stride_+01_-01"


def test_classify_double_overflow_signs_follow_stream_order():
    # 0,100,1,101,...: first difference +100 (pos), second -99 (neg)
    window = []
    for i in range(8):
        window += [i, i + 100]
    assert window_bin(window) == "double_overflow_pn"


def test_classify_growing_diffs_is_none():
    values = [0]
    for step in range(1, 16):
        values.append(values[-1] + step)
    assert window_bin(values) is None


def test_classify_mixed_double_overflow_is_none():
    # one stride in range (+5), one out (+100): hits nothing by design
    window = [0]
    for i in range(15):
        window.append(window[-1] + (5 if i % 2 == 0 else 100))
    assert window_bin(window) is None


def test_classify_wraps_32_bit_boundary():
    values = [(0xFFFFFFF8 + i) & MASK for i in range(16)]
    assert window_bin(values) == "single_stride_+01"


def test_classify_wrap_produces_int_min_overflow():
    # +0x80000000 and -0x80000000 both wrap to the same signed diff, INT_MIN
    assert window_bin([0, 0x80000000] * 8) == "single_overflow_neg"
    # alternate INT_MIN with +100: both strides out of range, distinct signs
    values = [0]
    for i in range(15):
        step = 0x80000000 if i % 2 == 0 else 100
        values.append((values[-1] + step) & MASK)
    assert window_bin(values) == "double_overflow_np"


# --- frozen feed examples ---------------------------------------------------

_JUNK = [9, 2, 77, 5, 13, 40, 8, 61, 3, 90, 17, 55, 4, 70, 21, 36]


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
    assert oracle_classify(_JUNK) is None
    stream = _JUNK + [100 + 2 * i for i in range(16)]
    bins = monitor_stream_bins(stream)
    assert bins["no_to_single"] == 1
    assert oracle_stream_bins(stream) == bins


def test_feed_transition_needs_32_values():
    stream = _JUNK[:15] + [100 + 2 * i for i in range(16)]
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
    # after the reset, the window ending at position 40 has no pattern and
    # the one at 56 is single: a ring slot still tagged with a pre-reset
    # window ending at 40 would turn no_to_single into no transition (a
    # single there) or into double_to_single (a double there)
    after = _JUNK + _JUNK[:8] + _JUNK + _arith(900, 2, 16)
    assert len(after) == 56
    for stale in (_arith(700, 5, 16), _alt(700, 5, -3, 16)):
        before = _JUNK + _JUNK[:8] + stale
        assert len(before) == 40
        mon.reset()
        for v in before:
            mon.feed(v)
        mon.reset()
        hits: Counter = Counter()
        for v in after:
            hits.update(mon.feed(v))
        assert hits == oracle_stream_bins(after)
        assert hits["no_to_single"] == 1


def test_monitor_emits_only_plan_bins():
    plan = make_dut("stride").plan
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


# Streams whose last window is patterned and falls in a ring slot last
# written 16, 32 or 48 positions earlier, with the transitions they hit. A
# slot written 32 or 48 earlier is stale and must read as "none".
RING_TAG_CASES = [
    (_arith(0, 3, 16) + _JUNK + _arith(500, 2, 16), {"no_to_single": 1}),
    (_alt(0, 4, -7, 16) + _JUNK * 2 + _alt(500, 1, 6, 16), {"no_to_double": 1}),
    (_alt(0, 4, -7, 16) + _JUNK * 2 + _arith(500, -9, 16), {"no_to_single": 1}),
    (_arith(0, 3, 16) + _JUNK + _alt(500, 300, 2**31, 16), {"no_to_double": 1}),
    (_arith(0, 3, 16) + _alt(100, 2, 9, 16), {"single_to_double": 1}),
    (_alt(0, 4, -7, 16) + _arith(100, 1000, 16), {"double_to_single": 1}),
    (_arith(0, 3, 16) + _arith(500, 2, 16), {}),
    (_alt(0, 4, -7, 16) + _alt(500, 1, 6, 16), {}),
]
TRANSITION_BINS = {"no_to_single", "no_to_double", "single_to_double", "double_to_single"}


def _transitions(bins: Counter) -> dict:
    return {b: n for b, n in bins.items() if b in TRANSITION_BINS}


@pytest.mark.parametrize("stream,transitions", RING_TAG_CASES)
def test_ring_tag_cases_hit_their_transitions(stream, transitions):
    assert _transitions(oracle_stream_bins(stream)) == transitions
    assert _transitions(monitor_stream_bins(stream)) == transitions


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
# the newest window's ring slot was last written 16, 32 or 48 positions earlier
@example(stream=RING_TAG_CASES[0][0])
@example(stream=RING_TAG_CASES[1][0])
@example(stream=RING_TAG_CASES[2][0])
@example(stream=RING_TAG_CASES[3][0])
@example(stream=RING_TAG_CASES[4][0])
@example(stream=RING_TAG_CASES[5][0])
@example(stream=RING_TAG_CASES[6][0])
@example(stream=RING_TAG_CASES[7][0])
def test_feed_matches_brute_force_oracle(stream):
    assert monitor_stream_bins(stream) == oracle_stream_bins(stream)


def _crt_stream(rng: random.Random, length: int) -> list[int]:
    """Uniform 32-bit words, as the crt draw makes them, with single and
    double runs of 16-40 values (in range, overflowing or mixed) planted at
    random gaps, some of them back to back."""
    words = rng.getrandbits
    stream: list[int] = []
    while len(stream) < length:
        gap = rng.choice((0, 0, rng.randrange(1, 16), rng.randrange(16, 49),
                          rng.randrange(49, 200)))
        stream += [words(32) for _ in range(gap)]
        strides = [rng.randrange(-16, 16) if rng.random() < 0.6 else words(32)
                   for _ in range(2)]
        n = rng.randrange(16, 41)
        if rng.random() < 0.5:
            stream += _arith(words(32), strides[0], n)
        else:
            stream += _alt(words(32), strides[0], strides[1], n)
    return stream[:length]


def test_feed_matches_oracle_on_crt_shaped_streams():
    seen: Counter = Counter()
    for seed in range(4):
        stream = _crt_stream(random.Random(seed), 4000)
        bins = monitor_stream_bins(stream)
        assert bins == oracle_stream_bins(stream)
        seen.update(bins)
    assert TRANSITION_BINS <= set(seen)
    assert {"single_overflow_pos", "double_overflow_pn"} <= set(seen)


@settings(max_examples=100, deadline=None)
@given(window=st.lists(st.integers(min_value=0, max_value=MASK), min_size=16, max_size=16))
def test_classify_matches_oracle_on_random_windows(window):
    assert window_bin(window) == oracle_bin(oracle_classify(window))


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=MASK),
    c=st.integers(min_value=-16, max_value=15),
)
def test_every_in_range_single_stride_is_detected(start, c):
    stream = [start & MASK]
    for _ in range(15):
        stream.append((stream[-1] + c) & MASK)
    assert window_bin(stream) == f"single_stride_{c:+03d}"
    assert monitor_stream_bins(stream) == Counter({f"single_stride_{c:+03d}": 1})
