"""Stimulus agents: the constrained-random baseline and the LLM-driven agent.

Both produce DUT stimuli; the runtime owns the loop. The LLM agent keeps a
dialogue, asks a chat backend for responses, and extracts stimuli from the
first fenced code block of each response. A reply that yields no stimuli
is answered with the format-reminder query; it counts as a response that
covered nothing, so the runtime's exhaustion rule bounds how many unusable
replies come in a row and the budget gate bounds their cost.

Extraction reads the first fenced block and masks every value to 32 bits
rather than rejecting it:
- Integers: the block's tokens are split at whitespace and commas. A plain
  block, where every token is an integer that `int` reads in base 10
  (optional sign, digits, `_` between digits), or every token one that it
  reads in base 16 with a `0x`/`0X` prefix, is converted in one C-level
  `map(int, ...)`. Any other block is read token by token and forgivingly:
  `.,;:()[]` around a token is stripped, a run of leading signs is negative
  when it starts with `-`, `0x` picks base 16, and a token that is still no
  integer is skipped.
- Memory updates: the block as one JSON document, or else each line as one
  (a trailing comma allowed). An [address, word] pair is one stimulus of
  one update, a list of pairs one stimulus, a list of lists of pairs one
  stimulus each; booleans, floats and any other shape yield nothing, and
  so does a document nested deeper than the JSON parser's recursion limit.
"""
from __future__ import annotations

import json
import random
import re
import sys
from itertools import repeat
from typing import Iterator, NamedTuple, Optional

from covstim.backend import Completion, estimate_prompt
from covstim.coverage import CoveragePlan, UncoveredBins
from covstim.duts import DUT_KINDS, FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES
from covstim.duts.cpu import JAL_HIGH, JAL_OPCODE
from covstim.prompting import (
    Dialogue,
    MissedBinSampler,
    ResponseOutcome,
    StrategyConfig,
    build_initial_query,
    build_iterative_query,
    build_system_message,
    select_context,
    should_restart,
)

MASK32 = 0xFFFFFFFF


class ExtractionResult(NamedTuple):
    """The stimuli extracted from one reply (an immutable value record)."""

    stimuli: list


# --- response extraction -----------------------------------------------------------

_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_INLINE_FENCE = re.compile(r"```(.*?)```", re.DOTALL)


def _first_fenced_block(text: str) -> Optional[str]:
    match = _FENCE.search(text) or _INLINE_FENCE.search(text)
    return match.group(1) if match else None


def _parse_int(token: str) -> Optional[int]:
    token = token.strip(".,;:()[]")
    if not token:
        return None
    negative = token.startswith("-")
    body = token.lstrip("+-")
    try:
        value = int(body, 16) if body.lower().startswith("0x") else int(body, 10)
    except ValueError:
        return None
    return -value if negative else value


def _plain_integers(block: str, tokens: list[str]) -> Optional[list[int]]:
    """The block's values when every token is an integer that `int` reads in
    base 10, or every token one that it reads in base 16 with a 0x prefix;
    else None."""
    # in base 16 `int` accepts an x only in a 0x prefix, so when every token
    # converts, one x per token means every token has the prefix
    hexes = block.count("x") + block.count("X")
    try:
        if not hexes:
            return list(map(int, tokens))
        if hexes == len(tokens):
            return list(map(int, tokens, repeat(16)))
    except ValueError:
        pass
    return None


def _extract_integers(block: str) -> list[int]:
    tokens = block.replace(",", " ").split()  # str.split and re's \s agree on whitespace
    values = _plain_integers(block, tokens)
    if values is None:
        values = [v for v in map(_parse_int, tokens) if v is not None]
    if values and (min(values) < 0 or max(values) > MASK32):
        values = [v & MASK32 for v in values]
    return values


def _masked_pairs(items) -> Optional[list]:
    """`items` with each pair masked, or None unless it is a non-empty
    list of [int, int] pairs."""
    if type(items) is not list or not items:
        return None
    pairs = []
    for pair in items:
        if type(pair) is not list or len(pair) != 2:
            return None
        address, word = pair
        if type(address) is not int or type(word) is not int:  # bools are not ints here
            return None
        if not (0 <= address <= MASK32 and 0 <= word <= MASK32):
            pair = [address & MASK32, word & MASK32]
        pairs.append(pair)
    return pairs


def _updates_from_doc(doc) -> Optional[list]:
    """Map one JSON document to a list of memory-update stimuli, in one walk.

    A pair is one stimulus of one update, a list of pairs one stimulus, a
    list of lists of pairs one stimulus each; the first element tells which
    of the last two the document can be.
    """
    if type(doc) is not list or not doc:
        return None
    if type(doc[0]) is int:
        doc = [doc]  # a pair: a list of one pair
    head = doc[0]
    if type(head) is list and head and type(head[0]) is int:
        pairs = _masked_pairs(doc)
        return None if pairs is None else [pairs]
    stimuli = [_masked_pairs(element) for element in doc]
    return None if None in stimuli else stimuli


def _load(text: str):
    """The JSON document `text` holds, or None; one nested deeper than the
    parser's recursion limit holds none."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _extract_updates(block: str) -> list:
    doc = _load(block)
    if doc is not None:
        return _updates_from_doc(doc) or []
    stimuli = []
    for line in block.splitlines():
        line = line.strip().rstrip(",")
        if line and (doc := _load(line)) is not None:
            stimuli.extend(_updates_from_doc(doc) or [])
    return stimuli


def extract_stimuli(text: str, stimulus_format: str) -> ExtractionResult:
    """Parse one assistant response into DUT stimuli, by the rules in the
    module docstring."""
    block = _first_fenced_block(text)
    if block is None:
        return ExtractionResult(stimuli=[])
    if stimulus_format == FORMAT_INTEGERS:
        stimuli = _extract_integers(block)
    elif stimulus_format == FORMAT_MEMORY_UPDATES:
        stimuli = _extract_updates(block)
    else:
        raise ValueError(f"unknown stimulus format {stimulus_format!r}")
    return ExtractionResult(stimuli=stimuli)


# --- constrained-random baseline -----------------------------------------------------

# the low 12 bits of a JAL, indexed by its destination register
_JAL_RD = tuple(JAL_OPCODE | rd << 7 for rd in range(32))


class CrtAgent:
    """Unguided random stimuli.

    Stride and decoder inputs are uniform 32-bit words. The CPU baseline
    writes one jump-and-link instruction at the current pc each cycle
    (uniform destination register, uniform offset field), so execution never
    stalls on an empty instruction slot. The draw follows its own jumps: the
    pc starts at 0, a reset CPU's, and moves to each jump's target by the
    CPU's rule, so the stream is a function of the seed alone.
    """

    def __init__(self, dut_kind: str, rng: random.Random) -> None:
        if dut_kind not in DUT_KINDS:
            raise ValueError(f"unknown dut kind {dut_kind!r}")
        self.dut_kind = dut_kind
        self.rng = rng

    def stimuli(self, count: int) -> Iterator:
        """Return an iterator over `count` stimuli, each drawn when it is asked for.

        A stride or decoder stimulus is one `getrandbits(32)` word, drawn by
        `map` at C level. A count beyond `sys.maxsize`, which `repeat` cannot
        take, is cut to it: no trial feeds that many. A CPU stimulus draws
        `randrange(32)` then `getrandbits(20)`; it is a JAL at the pc the
        previous one jumped to, which a reset `CpuDut` fed this stream
        executes in turn.
        """
        if self.dut_kind != "cpu":
            return map(self.rng.getrandbits, repeat(32, min(count, sys.maxsize)))
        return self._jumps(count)

    def _jumps(self, count: int) -> Iterator:
        getrandbits = self.rng.getrandbits
        jal_rd, jal_high, pc = _JAL_RD, JAL_HIGH, 0
        for _ in range(count):
            # randrange(32) as CPython draws it: 6 bits, redrawn while >= 32
            rd = getrandbits(6)
            while rd >= 32:
                rd = getrandbits(6)
            high = getrandbits(20) << 12  # instruction bits 31:12
            yield [[pc, jal_rd[rd] | high]]
            pc = (pc + jal_high[high >> 20] + (high & 0xFF000)) & 0xFFFFFFFC


# --- llm agent ----------------------------------------------------------------------

class PreparedQuery(NamedTuple):
    """The next query, its context messages and its prompt estimate (an
    immutable value record)."""

    query: str
    messages: list
    prompt_token_estimate: int
    restarted: bool  # the dialogue was restarted to build this query


class ResponseRecord(NamedTuple):
    """One backend reply and what was extracted from it (an immutable value
    record)."""

    completion: Completion
    extraction: ExtractionResult


class LlmAgent:
    """Dialogue-driven stimulus generator.

    The runtime drives it in three steps per response: prepare (restart the
    dialogue if its window stalled, then build the query and context, so the
    caller can apply its token-budget gate before any call), submit (backend
    call and extraction; the reply is held pending), and credit (after the
    stimuli ran, record the exchange with its hit counts and advance the
    sampler).
    """

    def __init__(
        self,
        plan: CoveragePlan,
        stimulus_format: str,
        strategy: StrategyConfig,
        backend,
        rng: random.Random,
    ) -> None:
        self.plan = plan
        self.stimulus_format = stimulus_format
        self.strategy = strategy
        self.backend = backend
        self.rng = rng
        self.dialogue = Dialogue(build_system_message(stimulus_format))
        self.sampler = MissedBinSampler(strategy)
        self.last_outcome: Optional[ResponseOutcome] = None
        self._pending: Optional[tuple[PreparedQuery, str, bool]] = None

    def prepare(self, uncovered: UncoveredBins) -> PreparedQuery:
        """Build the next query; `uncovered` is the coverage state's live view.

        The restart rule is applied first, at the rate `uncovered` implies;
        a fresh dialogue has no full window, so a second call cannot restart
        it again.
        """
        dialogue, strategy = self.dialogue, self.strategy
        size = len(self.plan)
        rate = (size - len(uncovered)) / size
        restarted = should_restart(dialogue.deltas, strategy.restart, rate, dialogue.restart_at)
        if restarted:
            dialogue.restart(strategy.buffer_reset)
            self.last_outcome = None
        if dialogue.initial is None:
            query = build_initial_query(
                self.plan, strategy.template_variant, self.stimulus_format
            )
        else:
            sampled = self.sampler.sample(uncovered, self.rng) if uncovered else []
            query = build_iterative_query(
                self.last_outcome, sampled, strategy.template_variant, self.stimulus_format
            )
        messages = select_context(dialogue, strategy, self.rng)
        messages.append({"role": "user", "content": query})
        return PreparedQuery(query, messages, estimate_prompt(messages), restarted)

    def submit(self, prepared: PreparedQuery) -> ResponseRecord:
        completion = self.backend.complete(prepared.messages)
        extraction = extract_stimuli(completion.text, self.stimulus_format)
        self._pending = (prepared, completion.text, bool(extraction.stimuli))
        return ResponseRecord(completion, extraction)

    def credit(self, easier_hits: int, harder_hits: int, rate: float) -> None:
        """Record the pending reply with the bins its stimuli newly covered."""
        if self._pending is None:
            raise ValueError("no submitted reply to credit")
        prepared, text, usable = self._pending
        self._pending = None
        self.dialogue.record(prepared.query, text, easier_hits, harder_hits)
        self.last_outcome = ResponseOutcome(usable=usable, new_hits=easier_hits + harder_hits)
        self.sampler.observe(self.dialogue, rate)
