"""CLI subcommands (run, plans, report) and the baselines script."""
from __future__ import annotations

import gc
import json
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from covstim.backend import BackendConfig, HttpBackend
from covstim.cli import _COMMANDS, _build_parser, main
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


def write_crt_config(tmp_path, dut="stride", count=2000) -> Path:
    config = tmp_path / f"crt_{dut}.json"
    config.write_text(json.dumps({"dut": dut, "agent": "crt", "crt_count": count}))
    return config


def run_crt(tmp_path, *extra, dut="stride", count=2000) -> int:
    """`covstim run` on a crt config, writing the log and reports to `tmp_path`."""
    config = write_crt_config(tmp_path, dut, count)
    return main(["run", "--config", str(config), "--out", str(tmp_path), *extra])


def test_run_on_a_crt_config_writes_reports_and_log(tmp_path, capsys):
    rc = run_crt(tmp_path, "--seed", "3")
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


def test_live_run_closes_its_connection(stub_server, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        live_then_replay(stub_server, tmp_path, [stride_reply(i) for i in range(200)])
        gc.collect()  # an unclosed socket warns when it is collected
    assert len(stub_server.requests) > 0
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def test_budget_holds_against_a_server_that_ignores_max_tokens(stub_server):
    stub_server.responses = [(200, _chat_payload(padded_stride_reply(i))) for i in range(100)]
    backend = BackendConfig(endpoint=stub_endpoint(stub_server), model="m", retries=0)
    overshot = []
    for budget in range(2_000, 9_000, 97):
        stub_server.requests.clear()  # every run hears the same replies
        config = RunConfig(
            dut="stride", agent="llm", seed=1, budget_tokens=budget, backend=backend
        )
        http = HttpBackend(backend)
        report = run_experiment(config, backend=http)
        http.close()
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
    assert run_crt(tmp_path) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    original = log.read_text()
    for kind, field in [("trial_end", "messages"), ("header", "plan_size"), ("report", "max_rate")]:
        log.write_text(doctor(original, kind, lambda record: record.pop(field)))
        assert f"{kind} record lacks field {field!r}" in rejection(log, capsys)


def test_report_flags_tampered_events(tmp_path, capsys):
    assert run_crt(tmp_path) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    log.write_text(
        doctor(log.read_text(), "event", lambda r: r.update(coverage=999, new_bins=["bogus"]))
    )
    assert "trial 1 event 1 record lists bin 'bogus', not in the stride plan" in rejection(
        log, capsys
    )


@pytest.mark.parametrize(
    "field, value", [("tokens_in", "24219"), ("messages", "37"), ("coverage", None)]
)
def test_report_rejects_wrong_typed_trial_end_fields(tmp_path, capsys, field, value):
    log = tmp_path / "log.jsonl"
    log.write_text(doctor(GOLDEN_LOG.read_text(), "trial_end", lambda r: r.update({field: value})))
    err = rejection(log, capsys)
    assert f"trial_end record mismatch on {field}: logged {value!r}, recomputed " in err


def test_report_checks_a_device_log_against_its_plan(tmp_path, capsys):
    assert run_crt(tmp_path, dut="decoder", count=3000) == 0
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


def test_report_rejects_a_crt_log_cut_short_of_a_huge_count(tmp_path, capsys):
    # the header's count is valid config, and no schedule is built from it
    assert run_crt(tmp_path, count=20_000) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    log.write_text(doctor(log.read_text(), "header", lambda r: r.update(crt_count=10**30)))
    err = rejection(log, capsys)
    assert err.endswith(f"ends the crt trial after 20000 of {10**30} stimuli\n")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_report_rejects_a_line_that_is_not_an_object(tmp_path, capsys):
    assert run_crt(tmp_path) == 0
    capsys.readouterr()
    log = tmp_path / "log.jsonl"
    lines = log.read_text().splitlines()
    # the last two are not JSON: a dropped comma, and nesting deeper than
    # json.loads recurses
    for junk in ("[1,2]", "7", '"event"', "null", lines[1].replace(",", " ", 1), "[" * 100_000):
        log.write_text("\n".join([lines[0], junk, *lines[1:]]) + "\n")
        assert rejection(log, capsys) == f"covstim: log {log} line 2 is not a JSON object\n"


DEEP_JSON = "[" * 100_000  # deeper than json.load recurses


def one_line_rejection(capsys, prefix: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_run_rejects_a_config_nested_too_deeply(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(DEEP_JSON)
    assert main(["run", "--config", str(config)]) == 1
    one_line_rejection(capsys, f"covstim: config {config} is not valid JSON: ")


def test_run_rejects_a_replay_script_nested_too_deeply(tmp_path, capsys):
    config, script = write_run_setup(tmp_path)
    script.write_text(DEEP_JSON)
    assert main(["run", "--config", str(config), "--backend", f"replay:{script}"]) == 1
    one_line_rejection(capsys, f"covstim: replay script {script} is not valid JSON: ")


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


def test_crt_configs_cover_every_device_once():
    crt = {}
    for path in sorted((REPO / "configs").glob("*.json")):
        raw = json.loads(path.read_text())
        if raw["agent"] == "crt":
            crt[path.name] = raw["dut"]
    assert sorted(crt.values()) == sorted(DUT_KINDS)
    assert all(name == f"crt_{dut}.json" for name, dut in crt.items())


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block after README's `heading` line."""
    text = (REPO / "README.md").read_text()
    section = text[text.index(f"\n{heading}\n"):]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_lines_parse_and_name_real_configs():
    lines = [
        shlex.split(line, comments=True)
        for line in readme_block("## CLI", "sh").splitlines()
        if line.startswith("covstim ")
    ]
    assert {argv[1] for argv in lines} == set(_COMMANDS)  # every subcommand is shown
    for argv in lines:
        try:
            _build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README's {shlex.join(argv)!r} is not a valid command line")
        for arg in argv:
            if arg.startswith("configs/"):
                assert (REPO / arg).is_file(), f"README's {shlex.join(argv)!r} names {arg}"


def test_readme_config_example_loads():
    config = RunConfig.from_dict(json.loads(readme_block("### Config format", "json")))
    assert config.agent == "llm" and config.backend is not None


def test_run_rejects_a_backend_on_a_crt_run(tmp_path, capsys):
    config = write_crt_config(tmp_path)
    out = tmp_path / "out"
    for spec in ("live", "replay:script.json", "bogus"):
        assert main(["run", "--config", str(config), "--backend", spec, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"covstim: --backend applies only to llm runs; {config} is a crt run\n"
    assert not out.exists()


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


BASE_CRT_CONFIG = {"dut": "stride", "agent": "crt", "crt_count": 100}
WRONG_TYPED_CONFIGS = {
    "budget_tokens_string": {**BASE_CRT_CONFIG, "budget_tokens": "100"},
    "budget_tokens_negative": {**BASE_CRT_CONFIG, "budget_tokens": -5},
    "strategy_string": {**BASE_CRT_CONFIG, "strategy": "recent"},
    "crt_count_float": {**BASE_CRT_CONFIG, "crt_count": 1000.5},
    "crt_count_bool": {**BASE_CRT_CONFIG, "crt_count": True},
    "seed_string": {**BASE_CRT_CONFIG, "seed": "abc"},
    "backend_retries_float": {
        "dut": "stride",
        "agent": "llm",
        "backend": {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "retries": 2.5},
    },
    "top_level_list": [1, 2],
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPED_CONFIGS))
def test_run_rejects_a_wrong_typed_config(tmp_path, capsys, case):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WRONG_TYPED_CONFIGS[case]))
    # main() lets no other exception out, so a traceback would fail the test
    assert main(["run", "--config", str(config), "--backend", "live"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("covstim: bad run config: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", -1),
        ("timeout", 0),
        ("timeout", float("nan")),
        ("top_p", 7),
        ("top_p", -1),
        ("timeout", float("inf")),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
    ],
)
def test_run_rejects_an_out_of_range_backend_value(tmp_path, capsys, field, value):
    config = tmp_path / "config.json"
    backend = {"endpoint": "http://127.0.0.1:9/v1", "model": "m", field: value}
    # json writes a NaN or an infinity as the bare token NaN or Infinity,
    # which json.load reads back
    config.write_text(json.dumps({"dut": "stride", "agent": "llm", "backend": backend}))
    assert main(["run", "--config", str(config), "--backend", "live"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"covstim: bad run config: {field} must be ")
    assert "Traceback" not in err


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
