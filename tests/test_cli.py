"""CLI subcommands (run, baseline, plans, report) and the baselines script."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from covstim.cli import main
from covstim.duts import DUT_KINDS
from covstim.runtime import RunConfig, run_experiment

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    doctored = []
    for line in log.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "trial_end":
            record["coverage"] += 1
        doctored.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    log.write_text("\n".join(doctored) + "\n")
    rc = main(["report", "--log", str(log)])
    assert rc == 1
    assert "mismatch" in capsys.readouterr().err


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
