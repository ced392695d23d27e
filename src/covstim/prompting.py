"""Prompt templates and the four coverage-feedback strategies.

The dialogue-driving loop has four tunable levers, each with selectable
variants:

1. missed-bin sampling - which uncovered bins the next query lists
   (pure_random / type_based / mixed);
2. context selection - which past exchanges ride along in the prompt
   (recent / successful / mixed_recent_successful / successful_difficult);
3. dialogue restarting - when to throw the conversation away and start over
   (normal / low / high tolerance, or coverage_rate_based switching);
4. buffer resetting - what happens to the best-exchange buffer on restart
   (clear / keep / stable_keep).

Everything here is a pure function of dialogue state plus an rng handle, so
a fixed seed and a fixed response script reproduce a trial exactly.
Prompt wording is intentionally plain; tests pin the structure (sections,
listed bin ids, format reminders), not the prose, and reference copies live
under tests/fixtures/prompts/.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from covstim.coverage import BinDescriptor, CoveragePlan, Difficulty, UncoveredBins
from covstim.duts import FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES

TEMPLATE_VARIANTS = ("original", "one_line_intro", "negative_feedback")
MISSED_BIN_METHODS = ("pure_random", "type_based", "mixed")
CONTEXT_STRATEGIES = (
    "recent",
    "successful",
    "mixed_recent_successful",
    "successful_difficult",
)
RESTART_PLANS = ("normal", "low", "high", "coverage_rate_based")
BUFFER_RESETS = ("clear", "keep", "stable_keep")

# a harder bin counts this much when ranking exchanges by weighted score
HARDER_WEIGHT = 2.5
RATE_THRESHOLD = 0.15  # coverage rate dividing "early" from "late" behavior
SAMPLE_SIZE = 7  # missed bins listed per query

_TOLERANCES = {"normal": 7, "low": 4, "high": 10}
_MIN_WINDOW_HITS = 3  # restart fires when the window has fewer new bins than this
_MIXED_WINDOW = 4  # responses the mixed sampler gives a method before toggling
_STABLE_KEEP_HOLDOFF = 4  # responses after a restart with the buffer suppressed


@dataclass(frozen=True)
class StrategyConfig:
    template_variant: str = "original"
    missed_bin: str = "pure_random"
    context: str = "recent"
    restart: str = "normal"
    buffer_reset: str = "clear"

    def __post_init__(self) -> None:
        checks = (
            ("template_variant", self.template_variant, TEMPLATE_VARIANTS),
            ("missed_bin", self.missed_bin, MISSED_BIN_METHODS),
            ("context", self.context, CONTEXT_STRATEGIES),
            ("restart", self.restart, RESTART_PLANS),
            ("buffer_reset", self.buffer_reset, BUFFER_RESETS),
        )
        for name, value, allowed in checks:
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class Exchange:
    """One (query, response) pair with its coverage outcome."""

    seq: int
    query: str
    response: str
    easier_hits: int = 0
    harder_hits: int = 0

    @property
    def hits(self) -> int:
        return self.easier_hits + self.harder_hits

    @property
    def weighted_score(self) -> float:
        return self.easier_hits + HARDER_WEIGHT * self.harder_hits


_by_seq = attrgetter("seq")


def _chronological(exchanges: Iterable[Exchange]) -> list[Exchange]:
    return sorted(exchanges, key=_by_seq)


class ExchangePool:
    """The best-exchange buffer: exchanges grouped by outcome.

    A group holds the exchanges with one (easier_hits, harder_hits) pair in
    seq order, so ranking scores one member per group. The pool is sized
    and iterates in seq order.
    """

    def __init__(self) -> None:
        self._groups: dict[tuple[int, int], list[Exchange]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Exchange]:
        return iter(_chronological(chain.from_iterable(self._groups.values())))

    def groups(self):
        """The non-empty groups, each a list in seq order."""
        return self._groups.values()

    def append(self, ex: Exchange) -> None:
        """Add an exchange newer than every member."""
        self._groups.setdefault((ex.easier_hits, ex.harder_hits), []).append(ex)
        self._size += 1


class Dialogue:
    """Conversation state for one trial.

    `iterative` holds the exchanges since the last restart (what "recent"
    sees); `pool` is the best-exchange buffer's candidate set and survives
    restarts unless the reset plan clears it. The initial exchange is tracked
    separately because every assembled context keeps it.
    """

    def __init__(self, system_text: str) -> None:
        self.system_text = system_text
        self.initial: Optional[Exchange] = None
        self.iterative: list[Exchange] = []
        self.pool = ExchangePool()
        self.restarts = 0
        self.deltas_since_restart: list[int] = []
        self._seq = 0

    @property
    def responses_since_restart(self) -> int:
        return len(self.deltas_since_restart)

    def _make(self, query, response, easier_hits, harder_hits) -> Exchange:
        self._seq += 1
        return Exchange(self._seq, query, response, easier_hits, harder_hits)

    def record_initial(
        self, query: str, response: str, easier_hits: int = 0, harder_hits: int = 0
    ) -> Exchange:
        if self.initial is not None:
            raise ValueError("initial exchange already recorded; restart first")
        ex = self._make(query, response, easier_hits, harder_hits)
        self.initial = ex
        self.deltas_since_restart.append(ex.hits)
        return ex

    def record_iterative(
        self, query: str, response: str, easier_hits: int = 0, harder_hits: int = 0
    ) -> Exchange:
        if self.initial is None:
            raise ValueError("iterative exchange before the initial one")
        ex = self._make(query, response, easier_hits, harder_hits)
        self.iterative.append(ex)
        self.pool.append(ex)
        self.deltas_since_restart.append(ex.hits)
        return ex

    def restart(self, buffer_reset: str) -> None:
        """Drop the conversation; the buffer pool follows the reset plan."""
        if buffer_reset not in BUFFER_RESETS:
            raise ValueError(f"unknown buffer reset plan {buffer_reset!r}")
        self.restarts += 1
        self.initial = None
        self.iterative = []
        self.deltas_since_restart = []
        if buffer_reset == "clear":
            self.pool = ExchangePool()


# --- restart policy ---------------------------------------------------------------

def restart_tolerance(restart_plan: str, rate: float) -> int:
    """Window length (in responses) the dialogue gets before a restart check."""
    if restart_plan == "coverage_rate_based":
        return _TOLERANCES["low"] if rate < RATE_THRESHOLD else _TOLERANCES["normal"]
    try:
        return _TOLERANCES[restart_plan]
    except KeyError:
        raise ValueError(f"unknown restart plan {restart_plan!r}") from None


def stalled(deltas: Sequence[int], window: int, below: int) -> bool:
    """True when there are at least `window` per-response new-bin counts and
    the last `window` of them add up to fewer than `below`."""
    return len(deltas) >= window and sum(deltas[-window:]) < below


def should_restart(deltas: Sequence[int], restart_plan: str, rate: float) -> bool:
    """True when the last full tolerance window produced fewer than 3 new bins.

    `deltas` are per-response new-bin counts since the last restart, so a
    fresh dialogue always gets a full window before it can be restarted.
    """
    return stalled(deltas, restart_tolerance(restart_plan, rate), _MIN_WINDOW_HITS)


# --- missed-bin sampling -------------------------------------------------------------

def sample_missed_bins(
    uncovered: UncoveredBins,
    config: StrategyConfig,
    rng: random.Random,
    method: Optional[str] = None,
) -> list[BinDescriptor]:
    """Pick the min(SAMPLE_SIZE, len(uncovered)) bins the next query will list.

    `uncovered` is a coverage state's view, so the easier/harder split comes
    ready in plan order. pure_random samples uniformly without replacement;
    type_based keeps the first two in plan order and fills the rest with
    3 easier + 2 harder bins (topping up from the other pool when one runs
    short, or 5 uniform when no easier bins remain); when fewer bins remain,
    the easier share is filled before the harder one. The stateless form of
    "mixed" is its below-threshold behavior, type_based; use
    MissedBinSampler for the toggling version.
    """
    if not uncovered:
        raise ValueError("no uncovered bins to sample: monitor bug or plan complete")
    method = method or config.missed_bin
    if method == "mixed":
        method = "type_based"
    k = min(SAMPLE_SIZE, len(uncovered))
    if method == "pure_random":
        return rng.sample(list(uncovered), k)
    if method != "type_based":
        raise ValueError(f"unknown missed-bin method {method!r}")
    head = list(islice(uncovered, 2))
    want = k - len(head)
    # the head's easier (harder) members are the first of their difficulty,
    # so the rest of each side is what follows them
    m = sum(1 for b in head if b.difficulty is Difficulty.EASIER)
    easier = list(uncovered.easier)
    del easier[:m]
    harder = list(uncovered.harder)
    del harder[: len(head) - m]
    if not easier:  # the rest is all harder
        return head + rng.sample(harder, want)
    n_easier = min(3, len(easier), want)
    n_harder = min(2, len(harder), want - n_easier)
    shortfall = want - n_easier - n_harder
    if shortfall > 0:
        extra = min(shortfall, len(easier) - n_easier)
        n_easier += extra
        n_harder += min(shortfall - extra, len(harder) - n_harder)
    return head + rng.sample(easier, n_easier) + rng.sample(harder, n_harder)


class MissedBinSampler:
    """Sampling method holder; only the mixed plan has real state.

    The mixed plan starts as type_based and, once the coverage rate reaches
    the threshold, toggles between type_based and pure_random whenever the
    active method scores fewer than 3 new bins over its last 4 responses.
    The stall window resets on toggle and on dialogue restart; the active
    method survives restarts.
    """

    def __init__(self, config: StrategyConfig) -> None:
        self.config = config
        self.method = "type_based" if config.missed_bin == "mixed" else config.missed_bin
        self._window: list[int] = []

    def observe(self, new_hits: int, rate: float) -> None:
        if self.config.missed_bin != "mixed":
            return
        self._window.append(new_hits)
        if rate >= RATE_THRESHOLD and stalled(
            self._window, _MIXED_WINDOW, _MIN_WINDOW_HITS
        ):
            self.method = "pure_random" if self.method == "type_based" else "type_based"
            self._window = []

    def on_restart(self) -> None:
        self._window = []

    def sample(self, uncovered: UncoveredBins, rng: random.Random) -> list[BinDescriptor]:
        return sample_missed_bins(uncovered, self.config, rng, method=self.method)


# --- context selection ---------------------------------------------------------------

def _top_k(pool: ExchangePool, k: int, score, rng: random.Random) -> list[Exchange]:
    """Best k by score; exchanges tied at the boundary are sampled uniformly.

    `score` must depend on an exchange's hit counts only, so each group is
    scored once. Scores are walked from the top; the boundary score's
    groups, merged in seq order, are the ties.
    """
    if len(pool) <= k:
        return list(pool)
    by_score: dict = {}
    for group in pool.groups():
        by_score.setdefault(score(group[0]), []).append(group)
    sure: list[Exchange] = []
    for value in sorted(by_score, reverse=True):
        groups = by_score[value]
        if len(sure) + sum(map(len, groups)) >= k:
            break  # the pool holds more than k, so some score is the boundary
        sure.extend(chain.from_iterable(groups))
    ties = _chronological(chain.from_iterable(groups))
    return _chronological(sure + rng.sample(ties, k - len(sure)))


def select_context(
    dialogue: Dialogue, config: StrategyConfig, rng: random.Random
) -> list[dict]:
    """Assemble the prompt context: system + initial exchange + <= 3 iterative.

    Buffer-backed strategies fall back to `recent` during the stable_keep
    holdoff (the first 4 responses after a restart). Selected exchanges are
    emitted in creation order so the prompt reads chronologically.
    """
    strategy = config.context
    suppressed = (
        config.buffer_reset == "stable_keep"
        and dialogue.restarts > 0
        and dialogue.responses_since_restart < _STABLE_KEEP_HOLDOFF
    )
    if suppressed and strategy != "recent":
        strategy = "recent"

    if strategy == "recent":
        chosen = list(dialogue.iterative[-3:])
    elif strategy == "successful":
        chosen = _top_k(dialogue.pool, 3, lambda e: e.hits, rng)
    elif strategy == "successful_difficult":
        chosen = _top_k(dialogue.pool, 3, lambda e: e.weighted_score, rng)
    else:  # mixed_recent_successful
        chosen = _top_k(dialogue.pool, 2, lambda e: e.hits, rng)
        if dialogue.iterative:
            latest = dialogue.iterative[-1]
            if all(e.seq != latest.seq for e in chosen):
                chosen.append(latest)
        chosen = _chronological(chosen)

    messages = [{"role": "system", "content": dialogue.system_text}]
    if dialogue.initial is not None:
        messages.append({"role": "user", "content": dialogue.initial.query})
        messages.append({"role": "assistant", "content": dialogue.initial.response})
    for ex in chosen:
        messages.append({"role": "user", "content": ex.query})
        messages.append({"role": "assistant", "content": ex.response})
    return messages


# --- templates ------------------------------------------------------------------

_FORMAT_REQUIREMENTS = {
    FORMAT_INTEGERS: (
        "Reply with one fenced code block containing only integer stimulus "
        "values (decimal or 0x hexadecimal), one per line or comma separated."
    ),
    FORMAT_MEMORY_UPDATES: (
        "Reply with one fenced code block containing a JSON array of "
        "[address, instruction] pairs of 32-bit integers, for example "
        "[[0, 51], [4, 111]]."
    ),
}

_INTRO_ORIGINAL = (
    "We are verifying a hardware design by feeding it test stimuli while a "
    "coverage monitor records which behaviors occur. Every behavior of "
    "interest is a named coverage bin, and verification is finished only when "
    "each bin in the plan has been hit at least once. Your job is to propose "
    "stimuli; after every batch you will be told which bins are still missing "
    "so you can aim the next batch at them."
)

_INTRO_ONE_LINE = (
    "Generate test stimuli that hit as many uncovered coverage bins of the "
    "hardware design described below as possible."
)


def format_requirement(stimulus_format: str) -> str:
    """The one-line output contract repeated across the templates."""
    try:
        return _FORMAT_REQUIREMENTS[stimulus_format]
    except KeyError:
        raise ValueError(f"unknown stimulus format {stimulus_format!r}") from None


def build_system_message(stimulus_format: str) -> str:
    return (
        "You are a stimulus generator for hardware design verification. "
        "Propose test inputs that maximize functional coverage of the design "
        "under test. " + format_requirement(stimulus_format) + " Put nothing "
        "but stimulus values inside the code block."
    )


@functools.lru_cache(maxsize=16)
def _plan_summary(plan: CoveragePlan) -> str:
    """Once per plan (plans hash by identity and never change)."""
    groups: dict[str, list[BinDescriptor]] = {}
    for b in plan:
        groups.setdefault(b.group, []).append(b)
    lines = [
        f"The coverage plan \"{plan.name}\" contains {len(plan)} bins in "
        f"{len(groups)} families:"
    ]
    for name in sorted(groups):
        members = groups[name]
        label = name.replace("_", " ")
        lines.append(f"- {label} ({len(members)} bins), e.g. {members[0].description}")
    return "\n".join(lines)


def build_initial_query(
    plan: CoveragePlan,
    template_variant: str = "original",
    stimulus_format: str = FORMAT_INTEGERS,
) -> str:
    """Task introduction + plan summary + initial question.

    The output-format requirement is restated at the very end; instructions
    placed last survive long contexts best. Variants other than
    one_line_intro keep the original introduction.
    """
    intro = _INTRO_ONE_LINE if template_variant == "one_line_intro" else _INTRO_ORIGINAL
    question = (
        "To begin, produce a first batch of stimuli that exercises the "
        "design's basic behaviors across as many bin families as you can. "
        + format_requirement(stimulus_format)
    )
    return "\n\n".join([intro, _plan_summary(plan), question])


@dataclass(frozen=True)
class ResponseOutcome:
    """What the previous response achieved, as seen by the next query."""

    usable: bool  # stimuli were extracted
    new_hits: int


def build_iterative_query(
    outcome: ResponseOutcome,
    sampled_bins: Sequence[BinDescriptor],
    template_variant: str = "original",
    stimulus_format: str = FORMAT_INTEGERS,
) -> str:
    """Result summary + uncovered-bin list + iterative question.

    Three summary branches: format violation (restates the output contract),
    no new bins, and progress. The negative_feedback variant adds one
    "Avoid ..." sentence per listed bin.
    """
    req = format_requirement(stimulus_format)
    if not outcome.usable:
        summary = (
            "Your previous reply could not be used: no stimuli were extracted "
            "because it did not follow the required output format. " + req
        )
    elif outcome.new_hits == 0:
        summary = (
            "Your previous stimuli ran on the design but hit no new coverage "
            "bins; a different kind of input is needed."
        )
    else:
        plural = "bin" if outcome.new_hits == 1 else "bins"
        summary = (
            f"Good progress: your previous stimuli hit {outcome.new_hits} new "
            f"coverage {plural}."
        )

    if sampled_bins:
        lines = ["These coverage bins are still uncovered:"]
        for b in sampled_bins:
            lines.append(f"- {b.id}: {b.description} ({b.difficulty.value})")
            if template_variant == "negative_feedback":
                lines.append(
                    f"  Avoid stimuli that cannot cause this: {b.description}."
                )
        differences = "\n".join(lines)
    else:
        differences = "Every bin in the plan is currently covered."

    question = (
        "Produce a new batch of stimuli aimed at the bins listed above. " + req
    )
    return "\n\n".join([summary, differences, question])
