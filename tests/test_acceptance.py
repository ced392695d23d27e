"""End-to-end acceptance criteria.

One test per criterion; each prints a single ACCEPTANCE <n> PASS/FAIL line
(written past pytest's capture so the verdicts are visible in any run).
Coverage-rate targets for the random baselines are statistical bands, not
exact values; everything else is exact or a hard bound.
"""
from __future__ import annotations

import json
import random
import threading
import time
from collections import Counter
from http.server import ThreadingHTTPServer

import pytest

from conftest import ACCEPTANCE_VERDICTS
from covstim.agents import CrtAgent
from covstim.backend import ReplayBackend
from covstim.cli import main
from covstim.duts import make_dut
from covstim.duts.cpu import cpu_plan
from covstim.duts.decoder import DecoderMonitor, bins_for, decode, decoder_plan, encode, op_table
from covstim.duts.stride import stride_plan
from covstim.prompting import (
    Dialogue,
    MissedBinSampler,
    StrategyConfig,
    _top_k,
    restart_tolerance,
    should_restart,
    sample_missed_bins,
)
from covstim.runtime import (
    BUDGET_EXHAUSTED,
    RunConfig,
    run_crt_trial,
    run_experiment,
)
from test_backend import _StubHandler, _chat_payload
from test_cpu import oracle_hazards, random_word
from test_decoder import decoder_oracle_bins
from test_golden import FIXTURES, replay_golden
from test_prompting import make_bins
from test_stride import monitor_stream_bins, oracle_stream_bins
from toydut import ToyDut


def verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)  # visible in captured output when the criterion fails
    ACCEPTANCE_VERDICTS.append(line)  # echoed by conftest after the run


# --- 1: plan cardinalities ----------------------------------------------------------


def test_criterion_1_plan_cardinalities():
    t0 = time.perf_counter()
    stride = len(stride_plan())
    cpu = len(cpu_plan())
    table = op_table()
    # closed form from the shipped table: one bin per op, 32x3 port bins,
    # and 32 cross bins per port an op actually uses
    expected_decoder = len(table["ops"]) + 96 + sum(
        32 * (op["uses_rs1"] + op["uses_rs2"] + op["uses_rd"]) for op in table["ops"]
    )
    decoder = len(decoder_plan())
    took = time.perf_counter() - t0
    ok = stride == 1034 and cpu == 196 and decoder == expected_decoder and took < 1.0
    verdict(
        "1 plan-cardinalities",
        ok,
        f"stride={stride} cpu={cpu} decoder={decoder} "
        f"closed_form={expected_decoder} t={took:.2f}s",
    )
    assert (stride, cpu, decoder) == (1034, 196, expected_decoder)
    assert took < 1.0


# --- 2: constrained-random baselines ------------------------------------------------


def crt_baseline(kind: str, seeds=range(5), count=1_000_000):
    rates = []
    worst = 0.0
    for seed in seeds:
        dut = make_dut(kind)
        agent = CrtAgent(kind, random.Random(seed))
        t0 = time.perf_counter()
        trial = run_crt_trial(dut, agent, count, chunk=count)
        worst = max(worst, time.perf_counter() - t0)
        rates.append(100 * trial.rate)
    return sum(rates) / len(rates), worst


def test_criterion_2_crt_baselines():
    stride_rate, stride_t = crt_baseline("stride")
    decoder_rate, decoder_t = crt_baseline("decoder")
    cpu_rate, cpu_t = crt_baseline("cpu")
    ok = (
        stride_rate <= 2.0
        and abs(decoder_rate - 53.92) <= 5.0
        and cpu_rate <= 5.0
        and stride_t < 60
        and decoder_t < 60
        and cpu_t < 120
    )
    verdict(
        "2 crt-baselines",
        ok,
        f"stride={stride_rate:.2f}%<=2% decoder={decoder_rate:.2f}%=53.92+-5 "
        f"cpu={cpu_rate:.2f}%<=5% worst_seed_times="
        f"{stride_t:.1f}/{decoder_t:.1f}/{cpu_t:.1f}s",
    )
    assert stride_rate <= 2.0 and stride_t < 60
    assert abs(decoder_rate - 53.92) <= 5.0 and decoder_t < 60
    assert cpu_rate <= 5.0 and cpu_t < 120


# --- 3: monitor oracle equivalence --------------------------------------------------


def stride_case(rng: random.Random) -> list[int]:
    stream: list[int] = []
    target = rng.randrange(34, 90)
    while len(stream) < target:
        mode = rng.random()
        base = rng.getrandbits(32)
        if mode < 0.40:
            step = rng.randrange(-6, 7)
            stream += [base + i * step for i in range(rng.randrange(8, 24))]
        elif mode < 0.70:
            s1, s2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
            run = [base]
            for i in range(rng.randrange(8, 24)):
                run.append(run[-1] + (s1 if i % 2 == 0 else s2))
            stream += run
        else:
            stream += [rng.getrandbits(32) for _ in range(rng.randrange(4, 12))]
    return stream


def decoder_case_word(rng: random.Random) -> int:
    if rng.random() < 0.4:
        return rng.getrandbits(32)
    table = op_table()
    entry = rng.choice(table["ops"])
    word = encode(
        entry["name"],
        rs1=rng.randrange(32),
        rs2=rng.randrange(32),
        rd=rng.randrange(32),
        imm=rng.randrange(-100, 100),
        shamt=rng.randrange(32),
    )
    if rng.random() < 0.2:  # perturb funct7 to probe near-miss decodes
        word ^= rng.getrandbits(7) << 25
    return word


def cpu_case(seed: int, steps: int = 30) -> tuple[Counter, Counter]:
    rng = random.Random(seed)
    dut = make_dut("cpu")
    hits: Counter = Counter()
    trace = []
    for _ in range(steps):
        hits.update(dut.feed([(dut.state.pc, random_word(rng))]))
        d = dut.last_decode
        trace.append((d.op, d.rs1, d.rs2, d.rd))
    got = Counter({b: n for b, n in hits.items() if b.startswith("hazard_")})
    return got, oracle_hazards(trace)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(30817)
    stride_cases = cpu_cases = 0
    for _ in range(1000):
        stream = stride_case(rng)
        assert monitor_stream_bins(stream) == oracle_stream_bins(stream)
        stride_cases += 1
    decoder_words = 0
    monitor = DecoderMonitor()
    for _ in range(1500):
        word = decoder_case_word(rng)
        expected = decoder_oracle_bins(word)
        assert set(bins_for(decode(word))) == set(expected), hex(word)
        assert monitor.feed(word) == expected, hex(word)
        decoder_words += 1
    for seed in range(1000):
        got, expected = cpu_case(seed)
        assert got == expected, f"seed={seed}"
        cpu_cases += 1
    took = time.perf_counter() - t0
    ok = took < 300
    verdict(
        "3 oracle-equivalence",
        ok,
        f"stride={stride_cases} decoder={decoder_words} cpu={cpu_cases} "
        f"cases all equal, t={took:.1f}s<300s",
    )
    assert ok


# --- 4: deterministic replay --------------------------------------------------------


def test_criterion_4_golden_replay(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "trial.jsonl"
    replay_golden(path)
    golden = (FIXTURES / "golden_trial.jsonl").read_bytes()
    took = time.perf_counter() - t0
    identical = path.read_bytes() == golden
    events = [
        json.loads(line)
        for line in golden.decode().splitlines()
        if json.loads(line)["type"] == "event"
    ]
    restarts = [e["response_idx"] for e in events if e["restart"]]
    shape = restarts == [11, 18, 25, 32] and len(events) == 37
    ok = identical and shape and took < 5.0
    verdict(
        "4 deterministic-replay",
        ok,
        f"byte_identical={identical} restarts={restarts} "
        f"exhausted_at={len(events)} t={took:.2f}s",
    )
    assert identical and shape
    assert took < 5.0


# --- 5: strategy worked examples ----------------------------------------------------


def test_criterion_5_strategy_examples():
    rng = random.Random(5)
    checks = []

    bins = make_bins(easier=6, harder=6)
    config = StrategyConfig()
    few = sample_missed_bins(bins[:5], config, rng)
    checks.append(
        ("fewer-than-k returns all", sorted(b.id for b in few) == [b.id for b in bins[:5]])
    )
    drawn = sample_missed_bins(bins, config, rng)
    checks.append(
        ("pure_random 7 unique", len(drawn) == 7 and len(set(d.id for d in drawn)) == 7)
    )
    typed = sample_missed_bins(
        bins, StrategyConfig(missed_bin="type_based"), rng
    )
    head, tail = typed[:2], typed[2:]
    easier_tail = sum(1 for b in tail if b.difficulty.value == "easier")
    checks.append(
        (
            "type_based 2 head + 3 easier + 2 harder",
            head == bins[:2] and len(typed) == 7 and easier_tail == 3,
        )
    )

    checks.append(
        ("restart normal [0,0,1,1,0,0,0]", should_restart([0, 0, 1, 1, 0, 0, 0], "normal", 0.5, 0.15))
    )
    checks.append(("restart low [0,0,0,2]", should_restart([0, 0, 0, 2], "low", 0.5, 0.15)))
    checks.append(
        (
            "rate_based tolerance 4 below threshold, 7 above",
            restart_tolerance("coverage_rate_based", 0.10, 0.15) == 4
            and restart_tolerance("coverage_rate_based", 0.20, 0.15) == 7
            and should_restart([0, 0, 0, 2], "coverage_rate_based", 0.10, 0.15)
            and not should_restart([0, 0, 0, 2], "coverage_rate_based", 0.20, 0.15),
        )
    )

    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    for delta in (0, 0, 1, 1):
        sampler.observe(delta, rate=0.10)
    before = sampler.method
    sampler.observe(0, rate=0.20)  # window [0,1,1,0] sums 2 under a healthy rate
    flipped = sampler.method
    sampler.on_restart()
    checks.append(
        (
            "mixed toggles then survives restart",
            before == "type_based" and flipped == "pure_random"
            and sampler.method == "pure_random",
        )
    )

    dialogue = Dialogue("sys")
    dialogue.record_initial("init q", "init r")
    dialogue.record_iterative("qA", "rA")
    dialogue.credit_last(2, 0)  # two Easier hits
    dialogue.record_iterative("qB", "rB")
    dialogue.credit_last(0, 1)  # one Harder hit
    plain = _top_k(dialogue.pool, 1, lambda e: e.hits, random.Random(0))
    weighted = _top_k(dialogue.pool, 1, lambda e: e.weighted_score, random.Random(0))
    checks.append(
        (
            "weighted flip 2E vs 1H",
            plain[0].query == "qA" and weighted[0].query == "qB",
        )
    )

    failed = [name for name, passed in checks if not passed]
    verdict(
        "5 strategy-examples",
        not failed,
        f"{len(checks)} examples" + (f", failed: {failed}" if failed else " all exact"),
    )
    assert not failed


# --- 6: budget conservation ---------------------------------------------------------


def fuzz_script(rng: random.Random) -> list[str]:
    script = []
    for _ in range(rng.randrange(1, 30)):
        roll = rng.random()
        if roll < 0.5:
            values = " ".join(
                str(rng.randrange(0, 13)) for _ in range(rng.randrange(1, 6))
            )
            script.append(f"```\n{values}\n```")
        elif roll < 0.75:
            script.append("no stimuli to offer here")
        else:
            script.append("```\nxyzzy\n```")
    return script


def test_criterion_6_budget_conservation():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    runs = 0
    for _ in range(100):
        budget = rng.choice([0, rng.randrange(200, 2000), rng.randrange(2000, 20000)])
        config = RunConfig(dut="toy", agent="llm", seed=rng.randrange(1000), budget_tokens=budget)
        backend = ReplayBackend(fuzz_script(rng))
        report = run_experiment(config, backend=backend, dut=ToyDut())
        assert report.total_tokens <= budget, (budget, report.total_tokens)
        statuses = [t.status for t in report.trials]
        assert all(s != BUDGET_EXHAUSTED for s in statuses[:-1]), statuses
        runs += 1
    took = time.perf_counter() - t0
    ok = runs == 100 and took < 30
    verdict(
        "6 budget-conservation",
        ok,
        f"{runs} scripted experiments, sum(tokens)<=budget and only final "
        f"trial truncated, t={took:.1f}s<30s",
    )
    assert ok


# --- 7: live pipeline produces a structured report ----------------------------------

# The dialogue-driven coverage results depend on whichever live model serves
# the endpoint and are NOT acceptance targets; this criterion only checks that
# the live transport feeds the logging/report pipeline end to end.

RESPONSE_TEXT = "```\n0 4 8 12 16 20 24 28 32 36 40 44 48 52 56 60\n```"

CSV_COLUMNS = [
    "dut",
    "agent",
    "plan_size",
    "trials",
    "max_coverage",
    "coverage_rate_pct",
    "avg_msg_per_trial",
    "stdev_msg_per_trial",
    "avg_cov_per_msg",
    "stdev_cov_per_msg",
    "tokens_in",
    "tokens_out",
    "total_tokens",
]


@pytest.fixture
def acceptance_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    usage = {"prompt_tokens": 120, "completion_tokens": 30}
    server.responses = [(200, _chat_payload(RESPONSE_TEXT, usage=usage))]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def test_criterion_7_live_pipeline_report_shape(acceptance_stub, tmp_path, capsys):
    endpoint = (
        f"http://127.0.0.1:{acceptance_stub.server_address[1]}/v1/chat/completions"
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "dut": "stride",
                "agent": "llm",
                "budget_tokens": 12000,
                "seed": 7,
                "backend": {"endpoint": endpoint, "model": "stub-model", "retries": 0},
            }
        )
    )
    out_dir = tmp_path / "out"
    rc = main(
        ["run", "--config", str(config_path), "--backend", "live", "--out", str(out_dir)]
    )
    capsys.readouterr()
    lines = (out_dir / "report.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    records = [
        json.loads(line) for line in (out_dir / "log.jsonl").read_text().splitlines()
    ]
    statuses = [r["status"] for r in records if r["type"] == "trial_end"]
    rc_report = main(["report", "--log", str(out_dir / "log.jsonl")])
    capsys.readouterr()
    checks = [
        ("cli ok", rc == 0),
        ("csv columns", header == CSV_COLUMNS),
        ("row dut/agent", row["dut"] == "stride" and row["agent"] == "llm"),
        ("rate percent", 0.0 <= float(row["coverage_rate_pct"]) <= 100.0),
        ("several trials", len(statuses) >= 2),
        ("message stats present", row["avg_msg_per_trial"] != "-"),
        ("tokens within budget", int(row["total_tokens"]) <= 12000),
        ("log verifies", rc_report == 0),
        ("server spoken to", len(acceptance_stub.requests) > 0),
    ]
    failed = [name for name, passed in checks if not passed]
    verdict(
        "7 live-pipeline-report",
        not failed,
        f"{len(statuses)} trials over stub transport, csv+text+log verified"
        + (f", failed: {failed}" if failed else ""),
    )
    assert not failed
