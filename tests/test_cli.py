"""CLI subcommands (run, baseline, plans, report) and the baselines script."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from covstim.backend import BackendConfig, HttpBackend
from covstim.cli import main
from covstim.duts import DUT_KINDS
from covstim.runtime import ABORTED, RunConfig, run_experiment
from test_backend import (  # noqa: F401 (fixtures)
    MALFORMED_PAYLOADS,
    _chat_payload,
    no_proxy_env,
    stub_server,
)

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"
GOLDEN_LOG = REPO / "tests" / "fixtures" / "golden_trial.jsonl"


def test_plans_dump_is_full_plan_json(capsys):
    assert main(["plans", "--dut", "stride", "--dump"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1034
    ids = [r["id"] for r in records]
    assert ids == sorted(ids)
    assert set(records[0]) == {"id", "description", "difficulty", "group"}


def test_plans_summary_lists_groups(capsys):
    assert main(["plans", "--dut", "cpu"]) == 0
    out = capsys.readouterr().out
    assert "196 bins" in out
    assert "hazard" in out


def test_plans_rejects_unknown_dut():
    with pytest.raises(SystemExit):
        main(["plans", "--dut", "fifo"])


def test_baseline_writes_reports_and_log(tmp_path, capsys):
    rc = main(
        [
            "baseline",
            "--dut",
            "stride",
            "--count",
            "2000",
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "dut:" in out and "stride" in out
    assert "trials:             1" in out
    for name in ("log.jsonl", "report.csv", "report.txt"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "report.txt").read_text() == out


def write_run_setup(tmp_path, seed=5):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["```\n1 2 3\n```", "```\n4 5 6\n```"]))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"dut": "stride", "agent": "llm", "budget_tokens": 100000, "seed": seed}
        )
    )
    return config, script


def test_run_with_replay_backend(tmp_path, capsys):
    config, script = write_run_setup(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "run",
            "--config",
            str(config),
            "--backend",
            f"replay:{script}",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "aborted" in out  # two-response script ends mid-trial
    log = out_dir / "log.jsonl"
    assert log.exists()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records[0]["type"] == "header"
    assert records[0]["seed"] == 5
    assert records[-1]["type"] == "report"


def test_run_seed_override_lands_in_log(tmp_path, capsys):
    config, script = write_run_setup(tmp_path, seed=5)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "run",
            "--config",
            str(config),
            "--seed",
            "9",
            "--backend",
            f"replay:{script}",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    header = json.loads((out_dir / "log.jsonl").read_text().splitlines()[0])
    assert header["seed"] == 9


def stride_reply(i: int) -> str:
    """Twenty values at a stride of 1-4: new single-stride bins at first,
    then nothing new, so the dialogue restarts."""
    step = i % 4 + 1
    return "```\n" + " ".join(str(100 * i + step * k) for k in range(20)) + "\n```"


def padded_stride_reply(i: int) -> str:
    """A stride reply trailed by prose: about 3,000 characters, more than the
    default max_tokens (600) x 4, as from a server that ignores max_tokens."""
    return stride_reply(i) + "\nThe stride pattern continues." * 100


def stub_endpoint(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


def write_live_config(path, endpoint, **fields) -> Path:
    path.write_text(
        json.dumps(
            {
                "dut": "stride",
                "agent": "llm",
                "budget_tokens": 20000,
                "seed": 3,
                "backend": {"endpoint": endpoint, "model": "stub-model", "retries": 0},
                **fields,
            }
        )
    )
    return path


def live_then_replay(stub_server, tmp_path, replies):
    """`covstim run --backend live --out live` against the stub (no usage
    block), then a replay of its script into `replay`; returns the dirs."""
    stub_server.responses = [(200, _chat_payload(text)) for text in replies]
    config = write_live_config(tmp_path / "config.json", stub_endpoint(stub_server))
    live, replay = tmp_path / "live", tmp_path / "replay"
    run = ["run", "--config", str(config), "--out"]
    assert main([*run, str(live), "--backend", "live"]) == 0
    script = live / "replay_script.json"
    assert main([*run, str(replay), "--backend", f"replay:{script}"]) == 0
    return live, replay


def test_live_run_records_a_script_that_replays_to_the_same_log(stub_server, tmp_path, capsys):
    replies = [stride_reply(i) for i in range(200)]
    live, replay = live_then_replay(stub_server, tmp_path, replies)
    capsys.readouterr()
    calls = len(stub_server.requests)
    assert 0 < calls < len(replies)
    script = json.loads((live / "replay_script.json").read_text())
    assert script == replies[:calls]  # one per call, in order
    log = (live / "log.jsonl").read_bytes()
    assert (replay / "log.jsonl").read_bytes() == log
    assert not (replay / "replay_script.json").exists()
    events = [json.loads(line) for line in log.splitlines() if b'"type":"event"' in line]
    assert len(events) == calls
    assert any(event["restart"] for event in events)


def test_live_run_past_max_tokens_replays_to_the_same_log(stub_server, tmp_path, capsys):
    replies = [padded_stride_reply(i) for i in range(200)]
    live, replay = live_then_replay(stub_server, tmp_path, replies)
    capsys.readouterr()
    calls = len(stub_server.requests)
    script = json.loads((live / "replay_script.json").read_text())
    assert script == [text[:2400] for text in replies[:calls]]  # cut to 600 x 4
    log = (live / "log.jsonl").read_bytes()
    assert (replay / "log.jsonl").read_bytes() == log
    assert json.loads(log.splitlines()[-1])["max_coverage"] > 0  # the cut kept stimuli


def test_budget_holds_against_a_server_that_ignores_max_tokens(stub_server):
    stub_server.responses = [(200, _chat_payload(padded_stride_reply(i))) for i in range(100)]
    backend = BackendConfig(endpoint=stub_endpoint(stub_server), model="m", retries=0)
    overshot = []
    for budget in range(2_000, 9_000, 97):
        stub_server.requests.clear()  # every run hears the same replies
        config = RunConfig(
            dut="stride", agent="llm", seed=1, budget_tokens=budget, backend=backend
        )
        report = run_experiment(config, backend=HttpBackend(backend))
        if report.total_tokens > budget:
            overshot.append((budget, report.total_tokens))
    assert not overshot


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_live_run_aborts_on_a_malformed_payload(stub_server, tmp_path, capsys, case):
    stub_server.responses = [(200, _chat_payload(stride_reply(0))), (200, MALFORMED_PAYLOADS[case])]
    config = write_live_config(tmp_path / "config.json", stub_endpoint(stub_server))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--backend", "live", "--out", str(out)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    [end] = [r for r in records if r["type"] == "trial_end"]
    assert end["status"] == ABORTED and end["messages"] == 1
    assert "malformed completion payload" in end["error"]
    assert main(["report", "--log", str(out / "log.jsonl")]) == 0


def test_live_run_with_no_trial_exits_non_zero(stub_server, tmp_path, capsys):
    stub_server.responses = [(200, MALFORMED_PAYLOADS["null content"])]
    config = write_live_config(tmp_path / "config.json", stub_endpoint(stub_server))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--backend", "live", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("covstim: stopped before trial 1: malformed completion payload")
    records = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert [r["type"] for r in records] == ["header", "report"]
    assert records[-1]["trials"] == [] and f"covstim: {records[-1]['note']}\n" == err
    assert main(["report", "--log", str(out / "log.jsonl")]) == 0


def test_live_run_with_a_malformed_endpoint_exits_at_once(tmp_path, capsys, monkeypatch):
    import covstim.backend as backend_mod

    slept = []
    monkeypatch.setattr(backend_mod.time, "sleep", slept.append)
    config = write_live_config(tmp_path / "config.json", "localhost/v1")
    raw = json.loads(config.read_text())
    raw["backend"]["retries"] = 3  # a transport failure would sleep before each retry
    config.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(config), "--backend", "live"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("covstim: backend endpoint 'localhost/v1'")
    assert slept == []


def test_run_with_zero_budget_exits_non_zero(tmp_path, capsys):
    config, script = write_run_setup(tmp_path)
    config.write_text(json.dumps({"dut": "stride", "agent": "llm", "budget_tokens": 0}))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config), "--backend", f"replay:{script}", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "covstim: zero token budget: no trials were run\n"
    assert (out / "log.jsonl").exists() and (out / "report.txt").exists()


def test_report_round_trip(tmp_path, capsys):
    config, script = write_run_setup(tmp_path)
    out_dir = tmp_path / "out"
    main(
        [
            "run",
            "--config",
            str(config),
            "--backend",
            f"replay:{script}",
            "--out",
            str(out_dir),
        ]
    )
    run_out = capsys.readouterr().out
    rc = main(["report", "--log", str(out_dir / "log.jsonl")])
    assert rc == 0
    report_out = capsys.readouterr().out
    assert "max coverage:" in report_out
    assert report_out.splitlines()[4] == run_out.splitlines()[4]  # same coverage line


def doctor(text: str, kind: str, edit) -> str:
    """A JSONL log's text with `edit` applied to every record of type `kind`."""
    doctored = []
    for line in text.splitlines():
        record = json.loads(line)
        if record["type"] == kind:
            edit(record)
        doctored.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(doctored) + "\n"


def rejection(log, capsys) -> str:
    """The message `covstim report` exits 1 with on a log it must reject."""
    rc = main(["report", "--log", str(log)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("covstim: ")
    return err


def test_report_flags_tampered_log(tmp_path, capsys):
    config, script = write_run_setup(tmp_path)
    out_dir = tmp_path / "out"
    main(
        [
            "run",
            "--config",
            str(config),
            "--backend",
            f"replay:{script}",
            "--out",
            str(out_dir),
        ]
    )
    capsys.readouterr()
    log = out_dir / "log.jsonl"
    log.write_text(
        doctor(log.read_text(), "trial_end", lambda r: r.update(coverage=r["coverage"] + 1))
    )
    assert "mismatch" in rejection(log, capsys)


def test_report_rejects_record_missing_a_field(tmp_path, capsys):
    assert main(["baseline", "--dut", "stride", "--count", "2000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    original = log.read_text()
    for kind, field in [("trial_end", "messages"), ("header", "plan_size"), ("report", "max_rate")]:
        log.write_text(doctor(original, kind, lambda record: record.pop(field)))
        assert f"{kind} record lacks field {field!r}" in rejection(log, capsys)


def test_report_flags_tampered_events(tmp_path, capsys):
    assert main(["baseline", "--dut", "stride", "--count", "2000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    log.write_text(
        doctor(log.read_text(), "event", lambda r: r.update(coverage=999, new_bins=["bogus"]))
    )
    assert "event 1 logs coverage 999" in rejection(log, capsys)


@pytest.mark.parametrize(
    "field, value", [("tokens_in", "24219"), ("messages", "37"), ("coverage", None)]
)
def test_report_rejects_wrong_typed_trial_end_fields(tmp_path, capsys, field, value):
    log = tmp_path / "log.jsonl"
    log.write_text(doctor(GOLDEN_LOG.read_text(), "trial_end", lambda r: r.update({field: value})))
    err = rejection(log, capsys)
    assert f"trial_end record field {field!r} must be an integer, got {value!r}" in err


def test_report_checks_a_device_log_against_its_plan(tmp_path, capsys):
    assert main(["baseline", "--dut", "decoder", "--count", "3000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    original = log.read_text()
    renamed: list = []

    def rename_one_bin(record):
        if record["new_bins"] and not renamed:
            renamed.append(record["new_bins"][0])
            record["new_bins"][0] = "bogus"

    log.write_text(doctor(original, "event", rename_one_bin))
    assert renamed
    assert "lists bin 'bogus', not in the decoder plan" in rejection(log, capsys)
    log.write_text(doctor(original, "header", lambda r: r.update(plan_size=r["plan_size"] - 1)))
    assert "the decoder plan has" in rejection(log, capsys)


def test_report_rejects_a_line_that_is_not_an_object(tmp_path, capsys):
    assert main(["baseline", "--dut", "stride", "--count", "2000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    lines = log.read_text().splitlines()
    for junk in ("[1,2]", "7", '"event"', "null"):
        log.write_text("\n".join([lines[0], junk, *lines[1:]]) + "\n")
        assert "line 2 is not a JSON object" in rejection(log, capsys)


def test_run_llm_without_backend_fails(tmp_path, capsys):
    config, _ = write_run_setup(tmp_path)
    rc = main(["run", "--config", str(config)])
    assert rc == 1
    assert "backend" in capsys.readouterr().err


def test_run_rejects_bogus_backend_spec(tmp_path, capsys):
    config, _ = write_run_setup(tmp_path)
    rc = main(["run", "--config", str(config), "--backend", "bogus"])
    assert rc == 1
    assert "unknown backend" in capsys.readouterr().err


def test_sample_configs_load():
    paths = sorted((REPO / "configs").glob("*.json"))
    assert paths
    for path in paths:
        RunConfig.from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("key", ["crt_chunk", "exhaust_zero_window"])
def test_run_rejects_a_deleted_config_key(tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dut": "stride", "agent": "crt", "crt_count": 100, key: 10}))
    assert main(["run", "--config", str(config)]) == 1
    assert "bad run config" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rate_threshold", "sample_size"])
def test_run_rejects_a_deleted_strategy_key(tmp_path, capsys, key):
    config = write_live_config(tmp_path / "config.json", "http://127.0.0.1:9/v1", strategy={key: 7})
    assert main(["run", "--config", str(config)]) == 1
    assert "bad run config" in capsys.readouterr().err


def test_run_baselines_script_matches_run_experiment():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_baselines.py"), "--count", "300", "--seeds", "2"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == list(DUT_KINDS)
    for kind, plan_size, avg_bins, avg_rate, _worst in rows:
        reports = [
            run_experiment(RunConfig(dut=kind, agent="crt", seed=seed, crt_count=300))
            for seed in range(2)
        ]
        assert int(plan_size) == reports[0].plan_size
        assert avg_bins == f"{sum(r.max_coverage for r in reports) / 2:.1f}"
        assert avg_rate == f"{sum(100 * r.max_rate for r in reports) / 2:.2f}"


def test_benchmark_self_tests_pass():
    # perfbench's own tests: its input generator, tracer and stub server, and
    # traced runs that drive the package through its DUT and agent proxies
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=SCRIPTS.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_run_baselines_script_rejects_counts_below_one():
    for flag in ("--seeds", "--count"):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_baselines.py"), flag, "0"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr
