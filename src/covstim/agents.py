"""Stimulus agents: the constrained-random baseline and the LLM-driven agent.

Both produce DUT stimuli; the runtime owns the loop. The LLM agent keeps a
dialogue, asks a chat backend for responses, and extracts stimuli from the
first fenced code block of each response. A reply that yields no stimuli
is answered with the format-reminder query; it counts as a response that
covered nothing, so the runtime's exhaustion rule bounds how many unusable
replies come in a row and the budget gate bounds their cost.

Extraction is deliberately forgiving: values are masked to 32 bits rather
than rejected, and unparseable tokens inside an otherwise valid block are
skipped.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Optional

from covstim.backend import Completion, estimate_prompt
from covstim.coverage import CoveragePlan, UncoveredBins
from covstim.duts import DUT_KINDS, FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES
from covstim.prompting import (
    Dialogue,
    MissedBinSampler,
    ResponseOutcome,
    StrategyConfig,
    build_initial_query,
    build_iterative_query,
    build_system_message,
    select_context,
)

MASK32 = 0xFFFFFFFF

_JAL_OPCODE = 0x6F


@dataclass(frozen=True)
class ExtractionResult:
    stimuli: list


# --- response extraction -----------------------------------------------------------

_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_INLINE_FENCE = re.compile(r"```(.*?)```", re.DOTALL)


def _first_fenced_block(text: str) -> Optional[str]:
    match = _FENCE.search(text) or _INLINE_FENCE.search(text)
    return match.group(1) if match else None


def _parse_int(token: str) -> Optional[int]:
    token = token.strip().strip(".,;:()[]")
    if not token:
        return None
    negative = token.startswith("-")
    body = token.lstrip("+-")
    try:
        value = int(body, 16) if body.lower().startswith("0x") else int(body, 10)
    except ValueError:
        return None
    return -value if negative else value


def _extract_integers(block: str) -> list[int]:
    values = []
    for token in re.split(r"[\s,]+", block):
        parsed = _parse_int(token)
        if parsed is not None:
            values.append(parsed & MASK32)
    return values


def _is_pair(x) -> bool:
    return (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in x)
    )


def _mask_pairs(pairs) -> list:
    return [[a & MASK32, w & MASK32] for a, w in pairs]


def _updates_from_doc(doc) -> Optional[list]:
    """Map one JSON document to a list of memory-update stimuli."""
    if _is_pair(doc):
        return [_mask_pairs([doc])]
    if isinstance(doc, list) and doc and all(_is_pair(e) for e in doc):
        return [_mask_pairs(doc)]
    if (
        isinstance(doc, list)
        and doc
        and all(isinstance(e, list) and e and all(_is_pair(p) for p in e) for e in doc)
    ):
        return [_mask_pairs(e) for e in doc]
    return None


def _extract_updates(block: str) -> list:
    try:
        doc = json.loads(block)
    except ValueError:
        doc = None
    if doc is not None:
        return _updates_from_doc(doc) or []
    stimuli = []
    for line in block.splitlines():
        line = line.strip().rstrip(",")
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        stimuli.extend(_updates_from_doc(doc) or [])
    return stimuli


def extract_stimuli(text: str, stimulus_format: str) -> ExtractionResult:
    """Parse one assistant response into DUT stimuli.

    Integers format: decimal or 0x hex, one per line or comma separated.
    Memory-updates format: JSON [address, instruction] pairs; a flat array of
    pairs is a single stimulus, an array of such arrays (or one JSON document
    per line) yields several. Everything is masked to 32 bits.
    """
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

class CrtAgent:
    """Unguided random stimuli.

    Stride and decoder inputs are uniform 32-bit words. The CPU baseline
    writes one jump-and-link instruction at the current pc each cycle
    (uniform destination register, uniform offset field), so execution never
    stalls on an empty instruction slot.
    """

    kind = "crt"

    def __init__(self, dut_kind: str, rng: random.Random) -> None:
        if dut_kind not in DUT_KINDS:
            raise ValueError(f"unknown dut kind {dut_kind!r}")
        self.dut_kind = dut_kind
        self.rng = rng

    def next_stimulus(self, extras: dict):
        if self.dut_kind != "cpu":
            return self.rng.getrandbits(32)
        word = _JAL_OPCODE | (self.rng.randrange(32) << 7) | (self.rng.getrandbits(20) << 12)
        return [[extras["pc"], word]]


# --- llm agent ----------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedQuery:
    kind: str  # "initial" | "iterative"
    query: str
    messages: list
    prompt_token_estimate: int


@dataclass(frozen=True)
class ResponseRecord:
    kind: str
    query: str
    completion: Completion
    extraction: ExtractionResult


class LlmAgent:
    """Dialogue-driven stimulus generator.

    The runtime drives it in three steps per response: prepare (build the
    query and context, cheap and side-effect free, so the caller can apply
    its token-budget gate first), submit (backend call and extraction; the
    reply is held pending), and credit (after the stimuli ran, record the
    exchange with its hit counts and advance the restart/sampler windows).
    """

    kind = "llm"

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
        """Build the next query; `uncovered` is the coverage state's live view."""
        if self.dialogue.initial is None:
            kind = "initial"
            query = build_initial_query(
                self.plan, self.strategy.template_variant, self.stimulus_format
            )
        else:
            kind = "iterative"
            sampled = self.sampler.sample(uncovered, self.rng) if uncovered else []
            query = build_iterative_query(
                self.last_outcome,
                sampled,
                self.strategy.template_variant,
                self.stimulus_format,
            )
        messages = select_context(self.dialogue, self.strategy, self.rng)
        messages.append({"role": "user", "content": query})
        return PreparedQuery(kind, query, messages, estimate_prompt(messages))

    def submit(self, prepared: PreparedQuery) -> ResponseRecord:
        completion = self.backend.complete(prepared.messages)
        extraction = extract_stimuli(completion.text, self.stimulus_format)
        self._pending = (prepared, completion.text, bool(extraction.stimuli))
        return ResponseRecord(prepared.kind, prepared.query, completion, extraction)

    def credit(self, easier_hits: int, harder_hits: int, rate: float) -> None:
        """Record the pending reply with the bins its stimuli newly covered."""
        if self._pending is None:
            raise ValueError("no submitted reply to credit")
        prepared, text, usable = self._pending
        self._pending = None
        if prepared.kind == "initial":
            self.dialogue.record_initial(prepared.query, text, easier_hits, harder_hits)
        else:
            self.dialogue.record_iterative(prepared.query, text, easier_hits, harder_hits)
        new_hits = easier_hits + harder_hits
        self.last_outcome = ResponseOutcome(usable=usable, new_hits=new_hits)
        self.sampler.observe(new_hits, rate)

    def restart(self) -> None:
        self.dialogue.restart(self.strategy.buffer_reset)
        self.sampler.on_restart()
        self.last_outcome = None
