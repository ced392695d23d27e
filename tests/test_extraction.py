"""Response extraction, CRT baseline, and LLM agent tests."""
from __future__ import annotations

import json
import random
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import extraction_oracle as oracle
from test_golden import regen
from covstim import agents
from covstim.agents import CrtAgent, LlmAgent, extract_stimuli
from covstim.backend import ReplayBackend
from covstim.coverage import BinDescriptor, CoveragePlan, CoverageState, Difficulty
from covstim.duts import DUT_KINDS, FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES, make_dut
from covstim.prompting import StrategyConfig

FIXTURES = Path(__file__).parent / "fixtures"

# within the reply cap, but deeper than `json.loads` can recurse
DEEP_REPLY = "```\n" + "[" * 1200 + "\n```"


# --- integer extraction ---------------------------------------------------------

def test_comma_separated_integers():
    out = extract_stimuli("```\n1, 2, 3\n```", FORMAT_INTEGERS)
    assert out.stimuli == [1, 2, 3]


def test_hex_values_with_prose_around_the_fence():
    out = extract_stimuli(
        "Sure! Here are values: ```\n0x10\n0x14\n```", FORMAT_INTEGERS
    )
    assert out.stimuli == [16, 20]


def test_refusal_yields_no_stimuli():
    out = extract_stimuli("I cannot help with that.", FORMAT_INTEGERS)
    assert out.stimuli == []


def test_empty_response_yields_no_stimuli():
    out = extract_stimuli("", FORMAT_INTEGERS)
    assert out.stimuli == []


def test_unfenced_numbers_yield_no_stimuli():
    out = extract_stimuli("1 2 3 4 5", FORMAT_INTEGERS)
    assert out.stimuli == []


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


def test_unknown_format_is_an_error():
    with pytest.raises(ValueError):
        extract_stimuli("```\n1\n```", "carrier_pigeon")


def test_document_nested_too_deep_yields_nothing():
    assert extract_stimuli(DEEP_REPLY, FORMAT_MEMORY_UPDATES).stimuli == []
    deep_line = "```\n[[0, 19]]\n" + "[" * 1200 + "\n[[4, 51]]\n```"
    out = extract_stimuli(deep_line, FORMAT_MEMORY_UPDATES)
    assert out.stimuli == [[[0, 19]], [[4, 51]]]


@given(st.text(max_size=200))
@example(DEEP_REPLY)
@example("```\n" + "[" * 20_000 + "\n```")  # Hypothesis lifts the recursion limit by 2000
def test_extraction_is_total_and_consistent(text):
    for fmt in (FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES):
        assert isinstance(extract_stimuli(text, fmt).stimuli, list)


# --- differential: the one-pass parsers against the per-token oracle -----------------

LONG_DECIMAL = "7" * 5000  # past int's digit limit: skipped, not raised
IRREGULAR = ("+5", "--5", "(12)", "5.", "1_000", "0x_ff", "0X1F", "\u0661\u0662",
             LONG_DECIMAL, "-", "0x", "ff", "-0", "+-3", "[0x10],", "7a", "²")
SEPARATORS = (" ", "\n", ",", ", ", "\t", " ,\n", "\xa0", "\x1c", "\u3000", "\u2028")

decimal_tokens = st.integers(-2**40, 2**40).map(str)
hex_tokens = st.builds(
    lambda v, upper: ("-" if v < 0 else "") + ("0X" if upper else "0x") + format(abs(v), "x"),
    st.integers(-2**40, 2**40), st.booleans(),
)
irregular_tokens = st.sampled_from(IRREGULAR) | st.text(max_size=6)


def blocks_of(tokens):
    return st.lists(st.tuples(tokens, st.sampled_from(SEPARATORS)), max_size=12).map(
        lambda pairs: "".join(t + sep for t, sep in pairs)
    )


@settings(max_examples=300, deadline=None)
@given(
    blocks_of(decimal_tokens)
    | blocks_of(hex_tokens)
    | blocks_of(decimal_tokens | hex_tokens)
    | blocks_of(decimal_tokens | hex_tokens | irregular_tokens)
)
@example("1\n" + LONG_DECIMAL + "\n2")
@example("0x10, 16, -0x10, -16")
def test_integer_extraction_matches_the_oracle(block):
    assert agents._extract_integers(block) == oracle._extract_integers(block)


json_leaves = st.sampled_from(
    ("-0", "0", "true", "false", "null", "1.5", "-2.0e3", '"pc"', "{}",
     str(2**64 + 1), str(-(2**64) - 1), str(2**32), "-4")
) | st.integers(-2**66, 2**66).map(str)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_docs | st.lists(json_docs | st.sampled_from(("", "junk", "[1,")), max_size=4).map(
    lambda lines: "\n".join(line + ("," if i % 2 else "") for i, line in enumerate(lines))
))
@example("[[-0, 4294967297], [18446744073709551617, -4]]")
@example("[[[0, 1]], [], [[2, 3]]]")
@example("[[0, 1, 2]]")
@example("[[0, true]]")
@example("[[1.0, 2]]")
def test_update_extraction_matches_the_oracle(block):
    assert agents._extract_updates(block) == oracle._extract_updates(block)


load_perfbench = regen.load_perfbench


@pytest.mark.parametrize("workload", ["chat-long", "chat-http"])
@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_replies_extract_as_the_oracle_does(workload, seed):
    gen, workloads = load_perfbench("gen"), load_perfbench("workloads")
    wl = workloads.WORKLOADS[workload]
    oracles = {FORMAT_INTEGERS: oracle._extract_integers,
               FORMAT_MEMORY_UPDATES: oracle._extract_updates}
    for device in workloads.DEVICES:
        fmt = make_dut(device).stimulus_format
        for variant in range(wl.variants):
            for reply in gen.script(seed, variant, device, wl.profile, wl.script_length):
                block = agents._first_fenced_block(reply)
                want = [] if block is None else oracles[fmt](block)
                assert extract_stimuli(reply, fmt).stimuli == want, reply


# --- crt baseline -----------------------------------------------------------------

def golden():
    return json.loads((FIXTURES / "crt_golden.json").read_text())


def test_crt_stride_first_draws_match_golden():
    assert regen.crt_first_draws("stride") == golden()["stride"]


def test_crt_decoder_first_draws_match_golden():
    assert regen.crt_first_draws("decoder") == golden()["decoder"]


def jal_target(pc: int, word: int) -> int:
    """Where the JAL `word` at `pc` jumps: the J-type immediate decoded field
    by field as RV32I lays it out (imm[20|10:1|11|19:12] in bits
    31|30:21|20|19:12), then word-aligned as the cpu aligns its targets."""
    imm = (
        (word >> 31 & 1) << 20 | (word >> 21 & 0x3FF) << 1
        | (word >> 20 & 1) << 11 | (word >> 12 & 0xFF) << 12
    )
    if imm >> 20:
        imm -= 1 << 21
    return (pc + imm) % 2**32 // 4 * 4


def test_crt_cpu_update_follows_the_pc():
    words = golden()["cpu_words"]
    assert list(CrtAgent("cpu", random.Random(42)).stimuli(2)) == [
        [[0, words[0]]],
        [[jal_target(0, words[0]), words[1]]],
    ]


def test_crt_cpu_words_are_jump_and_link():
    pc = 0
    for [[addr, word]] in CrtAgent("cpu", random.Random(7)).stimuli(100):
        assert addr == pc
        assert word & 0x7F == 0x6F  # the JAL opcode
        pc = jal_target(pc, word)


def per_call_draws(kind: str, rng: random.Random):
    """crt stimuli drawn call by call: the oracle for `CrtAgent.stimuli`. A
    CPU stimulus is a JAL at the pc the previous one jumps to, from 0."""
    pc = 0
    while True:
        if kind != "cpu":
            yield rng.getrandbits(32)
            continue
        word = 0x6F | (rng.randrange(32) << 7) | (rng.getrandbits(20) << 12)
        yield [[pc, word]]
        pc = jal_target(pc, word)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(DUT_KINDS),
    seed=st.integers(0, 2**64),
    count=st.integers(0, 400),
    data=st.data(),
)
def test_crt_stimuli_match_per_call_draws(kind, seed, count, data):
    taken = data.draw(st.integers(0, count), label="taken")
    fast, slow = random.Random(seed), random.Random(seed)
    stream = CrtAgent(kind, fast).stimuli(count)
    draws = per_call_draws(kind, slow)
    assert list(islice(stream, taken)) == list(islice(draws, taken))
    assert fast.getstate() == slow.getstate()  # lazy: nothing drawn ahead
    assert list(stream) == list(islice(draws, count - taken))
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("kind", DUT_KINDS)
def test_crt_stimuli_take_a_count_beyond_sys_maxsize(kind):
    """A `crt_count` of 10**30 is legal; `repeat` would overflow on it."""
    fast, slow = random.Random(3), random.Random(3)
    stream = CrtAgent(kind, fast).stimuli(10**30)
    assert list(islice(stream, 1_000)) == list(islice(per_call_draws(kind, slow), 1_000))
    assert fast.getstate() == slow.getstate()


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
    return agent, CoverageState(plan).uncovered()


def test_cycle_returns_stimuli_and_appends_one_exchange():
    agent, uncovered = make_agent(["```\n7\n```"])
    record = agent.submit(agent.prepare(uncovered))
    assert record.extraction.stimuli == [7]
    assert agent.dialogue.initial is None  # held until credit
    agent.credit(0, 0, 0.0)
    assert agent.dialogue.initial is not None
    assert agent.dialogue.iterative == []


def test_cycle_regenerates_once_after_an_unusable_reply():
    agent, uncovered = make_agent(["utter nonsense words only", "```\n1\n```"])
    first = agent.submit(agent.prepare(uncovered))
    agent.credit(0, 0, 0.0)
    prepared = agent.prepare(uncovered)
    second = agent.submit(prepared)
    assert first.extraction.stimuli == []
    assert not agent.last_outcome.usable
    assert second.extraction.stimuli == [1]
    agent.credit(0, 0, 0.0)
    # the failed attempt became the initial exchange; the retry is iterative
    assert agent.dialogue.initial.response == "utter nonsense words only"
    assert [ex.response for ex in agent.dialogue.iterative] == ["```\n1\n```"]
    # the regeneration query restates the format contract
    assert "format" in prepared.query


def test_credit_patches_exchange_and_outcome():
    agent, uncovered = make_agent(["```\n7\n```", "```\n8\n```"])
    agent.submit(agent.prepare(uncovered))
    agent.credit(easier_hits=2, harder_hits=1, rate=0.5)
    assert agent.dialogue.initial.hits == 3
    assert agent.last_outcome.new_hits == 3
    assert agent.dialogue.deltas == [3]
    # next query reports the progress
    prepared = agent.prepare(uncovered)
    assert not prepared.restarted
    assert "hit 3 new" in prepared.query


def test_prepare_is_side_effect_free_and_estimates_tokens():
    agent, uncovered = make_agent(["```\n7\n```"])
    first = agent.prepare(uncovered)
    second = agent.prepare(uncovered)
    assert first.query == second.query
    assert first.prompt_token_estimate == second.prompt_token_estimate > 0
    assert first.messages[0]["role"] == "system"
    assert first.messages[-1] == {"role": "user", "content": first.query}


def test_agent_restart_resets_dialogue_to_initial_query():
    # the low plan restarts after 4 responses with fewer than 3 new bins
    script = ["```\n7\n```"] * 5
    agent, uncovered = make_agent(script, StrategyConfig(restart="low"))
    initial = agent.prepare(uncovered).query
    for hits in (1, 0, 0, 1):
        prepared = agent.prepare(uncovered)
        assert not prepared.restarted
        agent.submit(prepared)
        agent.credit(hits, 0, 0.2)
    prepared = agent.prepare(uncovered)
    assert prepared.restarted
    assert agent.dialogue.initial is None
    assert agent.dialogue.restart_at == 4 and agent.dialogue.restarts == 1
    assert agent.last_outcome is None
    assert prepared.query == initial
    # the fresh dialogue has no full window, so preparing again does not restart
    again = agent.prepare(uncovered)
    assert not again.restarted and again.query == initial
