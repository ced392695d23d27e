"""Command-line entry point: run experiments, plan dumps, reports.

Subcommands:
  run     run an experiment (llm or crt) described by a JSON config file
  plans   inspect or dump a device's coverage plan
  report  verify a JSONL run log and print its report
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from covstim.backend import HttpBackend, RecordingBackend, ReplayBackend
from covstim.duts import DUT_KINDS, make_dut
from covstim.runtime import (
    RunConfig,
    report_csv,
    report_from_log,
    report_text,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covstim",
        description="coverage-driven test stimulus generation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON run config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--backend", default=None, help="llm runs only: 'live' or 'replay:<script.json>'"
    )
    run_p.add_argument(
        "--out", default=None,
        help="directory for log.jsonl, report.csv, report.txt (+ replay_script.json if live)",
    )

    plans_p = sub.add_parser("plans", help="inspect a device's coverage plan")
    plans_p.add_argument("--dut", required=True, choices=DUT_KINDS)
    plans_p.add_argument(
        "--dump", action="store_true", help="print the full plan as JSON"
    )

    report_p = sub.add_parser("report", help="verify and print a JSONL run log")
    report_p.add_argument("--log", required=True)
    return parser


def _make_backend(spec, config: RunConfig):
    if spec in (None, "live"):
        if config.backend is None:
            raise ValueError(
                "live runs need a 'backend' section in the config "
                "(or pass --backend replay:<script.json>)"
            )
        return HttpBackend(config.backend)
    if spec.startswith("replay:"):
        return ReplayBackend.from_file(spec[len("replay:"):], config=config.backend)
    raise ValueError(f"unknown backend {spec!r}; expected 'live' or 'replay:<script>'")


def _emit(report, out_dir) -> None:
    text = report_text(report)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report_csv(report), encoding="utf-8")
        (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _log_path(out_dir):
    if out_dir is None:
        return None
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return Path(out_dir) / "log.jsonl"


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
            raise ValueError(f"config {args.config} is not valid JSON: {exc}") from None
    config = RunConfig.from_dict(raw)
    if args.seed is not None:
        config.seed = args.seed
    if config.agent != "llm" and args.backend is not None:
        raise ValueError(f"--backend applies only to llm runs; {args.config} is a crt run")
    backend = _make_backend(args.backend, config) if config.agent == "llm" else None
    log_path = _log_path(args.out)
    live = isinstance(backend, HttpBackend)
    # a live run's replies are kept, so `--backend replay:` can run it again
    recorder = RecordingBackend(backend) if live and log_path is not None else None
    try:
        report = run_experiment(config, backend=recorder or backend, log_path=log_path)
    finally:
        if live:
            backend.close()
    if recorder is not None:
        recorder.dump(log_path.with_name("replay_script.json"))
    _emit(report, args.out)
    if not report.trials:  # the log holds only its header and report
        print(f"covstim: {report.note}", file=sys.stderr)
        return 1
    return 0


def _cmd_plans(args) -> int:
    plan = make_dut(args.dut).plan
    if args.dump:
        sys.stdout.write(plan.dump_json() + "\n")
        return 0
    sys.stdout.write(f"{plan.name}: {len(plan)} bins\n")
    groups = Counter(b.group for b in plan)
    for group in sorted(groups):
        sys.stdout.write(f"  {group}: {groups[group]}\n")
    return 0


def _cmd_report(args) -> int:
    report = report_from_log(args.log)
    _emit(report, None)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "plans": _cmd_plans,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"covstim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
