"""Self-tests of the benchmark: run with `python3 -m pytest perfbench/tests`."""
import random

import pytest

import bench
import gen
import tracing
from covstim import agents, backend, prompting, runtime
from covstim.backend import ReplayBackend
from covstim.duts import make_dut
from covstim.runtime import report_from_log, run_experiment
from workloads import DEVICES, REPLAY_CONFIG, WORKLOADS


@pytest.mark.parametrize("profile", sorted(gen.PROFILES))
@pytest.mark.parametrize("device", DEVICES)
def test_generator_is_deterministic_per_seed(device, profile):
    first = gen.script(3, 0, device, profile, 60)
    assert first == gen.script(3, 0, device, profile, 60)
    assert first != gen.script(4, 0, device, profile, 60)
    assert first != gen.script(3, 1, device, profile, 60)
    assert len(first) == 60 and all(isinstance(r, str) and r for r in first)


def test_generator_unusable_share_is_fixed():
    replies = gen.script(0, 0, "decoder", "short", 2000)
    unusable = sum("```" not in r for r in replies)
    assert abs(unusable / len(replies) - gen.UNUSABLE_SHARE) < 0.03


def _patched_names():
    return [
        (runtime, "run_trial"), (runtime, "write_log"), (runtime, "CoverageState"),
        (runtime, "CrtAgent"), (runtime, "LlmAgent"), (agents, "select_context"),
        (agents, "extract_stimuli"), (agents, "MissedBinSampler"), (backend, "requests"),
        (prompting, "_top_k"),
    ]


def test_tracing_wrappers_restore_originals():
    originals = [getattr(mod, name) for mod, name in _patched_names()]
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), aggregate=False):
            for (mod, name), original in zip(_patched_names(), originals):
                assert getattr(mod, name) is not original
            raise RuntimeError("leave the block by an exception")
    for (mod, name), original in zip(_patched_names(), originals):
        assert getattr(mod, name) is original


def _traced_run(tmp_path, workload, device, crt_count=None):
    wl = WORKLOADS[workload]
    config = wl.run_config(device, seed=1)
    if crt_count:
        config.crt_count = crt_count
    script = gen.script(1, 0, device, wl.profile, wl.script_length) if wl.agent == "llm" else None
    plain_log, traced_log = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"
    make_backend = (lambda: ReplayBackend(script, REPLAY_CONFIG)) if script else (lambda: None)
    run_experiment(config, backend=make_backend(), dut=make_dut(device), log_path=plain_log)
    tracer = tracing.Tracer()
    dut = tracing.TracedDut(make_dut(device), tracer, aggregate=wl.agent == "crt")
    traced_backend = make_backend()
    if traced_backend is not None:
        traced_backend = tracing.TracedBackend(traced_backend, tracer)
    with tracing.patched(tracer, aggregate=wl.agent == "crt"):
        with tracer.span("runtime.experiment"):
            run_experiment(config, backend=traced_backend, dut=dut, log_path=traced_log)
    report_from_log(traced_log)
    assert traced_log.read_bytes() == plain_log.read_bytes()
    return tracer


@pytest.mark.parametrize(
    "workload, device, crt_count",
    [("crt", "cpu", 25_000), ("chat-long", "decoder", None), ("chat-http", "stride", None)],
)
def test_self_times_add_up_to_traced_end_to_end(tmp_path, workload, device, crt_count):
    tracer = _traced_run(tmp_path, workload, device, crt_count)
    root = tracer.spans[-1]
    assert root.name == "runtime.experiment" and root.parent is None
    times = tracing.layer_times(tracer.spans)
    assert all(self_time >= -1e-9 for _, _, self_time in times.values())
    total_self = sum(self_time for _, _, self_time in times.values())
    assert total_self == pytest.approx(root.end - root.start, rel=1e-9)
    if workload == "crt":
        assert times[f"duts.{device}.feed"][0] == crt_count
        assert times["runtime.crt_chunk"][0] == 3
    else:
        assert times["backend.complete"][0] == tracer.counts["responses"] > 0
    # only chat-long's buffer-backed context scores the exchange pool
    assert (tracer.counts["pool_scanned"] > 0) == (workload == "chat-long")


def test_stub_server_answers_like_replay_and_stops(tmp_path):
    b = bench.Bench("chat-http", seed=2, run_dir=tmp_path)
    b.make_inputs()
    proc, endpoint = b.start_stub()
    try:
        http = WORKLOADS["chat-http"].backend("cpu.1", "t", endpoint, None)
        replay = ReplayBackend(b.scripts["cpu.1"], REPLAY_CONFIG)
        messages = [{"role": "system", "content": "s" * 37}, {"role": "user", "content": "q"}]
        for _ in range(5):
            got, want = http.complete(messages), replay.complete(messages)
            assert (got.text, got.tokens_in, got.tokens_out) == (
                want.text, want.tokens_in, want.tokens_out)
    finally:
        bench.stop_stub(proc)
    assert proc.poll() is not None


def test_percentile_and_tail_level():
    ordered = sorted(random.Random(0).random() for _ in range(1000))
    assert bench.percentile(ordered, 50) == ordered[499]
    assert bench.percentile(ordered, 99) == ordered[989]
    assert bench.tail_level(1000) == 99.0
    assert bench.tail_level(10_000) == 99.9
    assert bench.tail_level(100) == 90.0
