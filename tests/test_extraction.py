"""Response extraction, CRT baseline, and LLM agent tests."""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from covstim.agents import AgentFeedback, CrtAgent, LlmAgent, extract_stimuli
from covstim.backend import ReplayBackend
from covstim.coverage import BinDescriptor, CoveragePlan, CoverageState, Difficulty
from covstim.duts import FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES
from covstim.prompting import StrategyConfig

FIXTURES = Path(__file__).parent / "fixtures"


# --- integer extraction ---------------------------------------------------------

def test_comma_separated_integers():
    out = extract_stimuli("```\n1, 2, 3\n```", FORMAT_INTEGERS)
    assert out.stimuli == [1, 2, 3]
    assert out.well_formed and not out.gibberish


def test_hex_values_with_prose_around_the_fence():
    out = extract_stimuli(
        "Sure! Here are values: ```\n0x10\n0x14\n```", FORMAT_INTEGERS
    )
    assert out.stimuli == [16, 20]
    assert out.well_formed


def test_refusal_is_gibberish():
    out = extract_stimuli("I cannot help with that.", FORMAT_INTEGERS)
    assert out.stimuli == []
    assert out.gibberish and not out.well_formed


def test_empty_response_is_gibberish():
    out = extract_stimuli("", FORMAT_INTEGERS)
    assert out.gibberish


def test_unfenced_numbers_are_malformed_but_not_gibberish():
    out = extract_stimuli("1 2 3 4 5", FORMAT_INTEGERS)
    assert out.stimuli == []
    assert not out.well_formed and not out.gibberish


def test_negative_and_oversized_values_are_masked():
    out = extract_stimuli("```\n-1\n0x1FFFFFFFF\n```", FORMAT_INTEGERS)
    assert out.stimuli == [0xFFFFFFFF, 0xFFFFFFFF]


def test_language_tag_and_mixed_separators():
    out = extract_stimuli("```text\n7, 8\n9\n```", FORMAT_INTEGERS)
    assert out.stimuli == [7, 8, 9]


def test_single_line_fence():
    out = extract_stimuli("```5, 6```", FORMAT_INTEGERS)
    assert out.stimuli == [5, 6]


def test_fence_with_no_parseable_values():
    out = extract_stimuli("```\nnothing here\n```", FORMAT_INTEGERS)
    assert out.stimuli == []
    assert not out.well_formed
    assert not out.gibberish  # the format was attempted


def test_skips_unparseable_tokens_inside_block():
    out = extract_stimuli("```\nvalue: 4\n5\n```", FORMAT_INTEGERS)
    assert out.stimuli == [4, 5]


def test_first_fence_wins():
    out = extract_stimuli("```\n1\n```\ntext\n```\n2\n```", FORMAT_INTEGERS)
    assert out.stimuli == [1]


# --- memory-update extraction -------------------------------------------------------

def test_flat_pair_array_is_one_stimulus():
    out = extract_stimuli("```json\n[[0, 19], [4, 51]]\n```", FORMAT_MEMORY_UPDATES)
    assert out.stimuli == [[[0, 19], [4, 51]]]
    assert out.well_formed


def test_array_of_arrays_is_multiple_stimuli():
    text = "```json\n[[[0, 19]], [[4, 51], [8, 99]]]\n```"
    out = extract_stimuli(text, FORMAT_MEMORY_UPDATES)
    assert out.stimuli == [[[0, 19]], [[4, 51], [8, 99]]]


def test_single_pair_is_one_single_update_stimulus():
    out = extract_stimuli("```\n[0, 111]\n```", FORMAT_MEMORY_UPDATES)
    assert out.stimuli == [[[0, 111]]]


def test_one_json_document_per_line():
    text = "```\n[[0, 19]]\n[[4, 51], [8, 99]]\n```"
    out = extract_stimuli(text, FORMAT_MEMORY_UPDATES)
    assert out.stimuli == [[[0, 19]], [[4, 51], [8, 99]]]


def test_update_values_are_masked():
    out = extract_stimuli("```\n[[-4, 4294967297]]\n```", FORMAT_MEMORY_UPDATES)
    assert out.stimuli == [[[0xFFFFFFFC, 1]]]


def test_non_integer_pairs_are_rejected():
    out = extract_stimuli('```\n[["pc", 19]]\n```', FORMAT_MEMORY_UPDATES)
    assert out.stimuli == []
    assert not out.well_formed


def test_unknown_format_is_an_error():
    with pytest.raises(ValueError):
        extract_stimuli("```\n1\n```", "carrier_pigeon")


@given(st.text(max_size=200))
def test_extraction_is_total_and_consistent(text):
    for fmt in (FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES):
        out = extract_stimuli(text, fmt)
        if out.gibberish:
            assert out.stimuli == [] and not out.well_formed
        if out.well_formed:
            assert out.stimuli


# --- crt baseline -----------------------------------------------------------------

def golden():
    return json.loads((FIXTURES / "crt_golden.json").read_text())


def test_crt_stride_first_draws_match_golden():
    agent = CrtAgent("stride", random.Random(42))
    assert [agent.next_stimulus({}) for _ in range(2)] == golden()["stride"]


def test_crt_decoder_first_draws_match_golden():
    agent = CrtAgent("decoder", random.Random(42))
    assert [agent.next_stimulus({}) for _ in range(2)] == golden()["decoder"]


def test_crt_cpu_update_follows_the_pc():
    agent = CrtAgent("cpu", random.Random(42))
    words = golden()["cpu_words"]
    assert agent.next_stimulus({"pc": 0}) == [[0, words[0]]]
    assert agent.next_stimulus({"pc": 24}) == [[24, words[1]]]


def test_crt_cpu_words_are_jump_and_link():
    agent = CrtAgent("cpu", random.Random(7))
    for pc in range(0, 400, 4):
        [[addr, word]] = agent.next_stimulus({"pc": pc})
        assert addr == pc
        assert word & 0x7F == 0x6F  # the JAL opcode


def test_crt_rejects_unknown_kind():
    with pytest.raises(ValueError):
        CrtAgent("fpga", random.Random(0))


# --- llm agent: one prepare/submit/credit cycle per response -------------------------

def toy_plan(n=6):
    bins = [
        BinDescriptor(
            id=f"bin_{i:02d}",
            description=f"value {i} observed",
            difficulty=Difficulty.EASIER if i < 3 else Difficulty.HARDER,
            group="toy",
        )
        for i in range(n)
    ]
    return CoveragePlan("toy", bins)


def make_agent(script, strategy=None):
    plan = toy_plan()
    agent = LlmAgent(
        plan=plan,
        stimulus_format=FORMAT_INTEGERS,
        strategy=strategy or StrategyConfig(),
        backend=ReplayBackend(script),
        rng=random.Random(11),
    )
    feedback = AgentFeedback(rate=0.0, uncovered=CoverageState(plan).uncovered())
    return agent, feedback


def test_cycle_returns_stimuli_and_appends_one_exchange():
    agent, feedback = make_agent(["```\n7\n```"])
    record = agent.submit(agent.prepare(feedback))
    assert record.extraction.stimuli == [7]
    assert record.kind == "initial"
    assert agent.dialogue.initial is None  # held until credit
    agent.credit(0, 0, feedback.rate)
    assert agent.dialogue.initial is not None
    assert agent.dialogue.iterative == []


def test_cycle_regenerates_once_after_gibberish():
    agent, feedback = make_agent(["utter nonsense words only", "```\n1\n```"])
    first = agent.submit(agent.prepare(feedback))
    agent.credit(0, 0, feedback.rate)
    second = agent.submit(agent.prepare(feedback))
    assert first.extraction.gibberish
    assert second.extraction.stimuli == [1]
    # the failed attempt became the initial exchange; the retry is iterative
    assert first.kind == "initial"
    assert second.kind == "iterative"
    # the regeneration query restates the format contract
    assert "format" in second.query


def test_credit_patches_exchange_and_outcome():
    agent, feedback = make_agent(["```\n7\n```", "```\n8\n```"])
    agent.submit(agent.prepare(feedback))
    agent.credit(easier_hits=2, harder_hits=1, rate=0.5)
    assert agent.dialogue.initial.hits == 3
    assert agent.last_outcome.new_hits == 3
    assert agent.dialogue.deltas_since_restart == [3]
    # next query reports the progress
    prepared = agent.prepare(feedback)
    assert prepared.kind == "iterative"
    assert "hit 3 new" in prepared.query


def test_prepare_is_side_effect_free_and_estimates_tokens():
    agent, feedback = make_agent(["```\n7\n```"])
    first = agent.prepare(feedback)
    second = agent.prepare(feedback)
    assert first.query == second.query
    assert first.prompt_token_estimate == second.prompt_token_estimate > 0
    assert first.messages[0]["role"] == "system"
    assert first.messages[-1] == {"role": "user", "content": first.query}


def test_agent_restart_resets_dialogue_to_initial_query():
    agent, feedback = make_agent(["```\n7\n```", "```\n8\n```", "```\n9\n```"])
    agent.submit(agent.prepare(feedback))
    agent.credit(1, 0, 0.2)
    agent.submit(agent.prepare(feedback))
    agent.credit(0, 0, 0.2)
    agent.restart()
    assert agent.dialogue.initial is None
    assert agent.prepare(feedback).kind == "initial"
