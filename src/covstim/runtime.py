"""Trial loop, budget accounting, experiment metrics, and JSONL logging.

An experiment runs trials until the token budget is spent. Each LLM trial is
a flat per-response loop: check the stopping rules, maybe restart the
dialogue, build the next query, gate it against the remaining budget, call
the backend, run the extracted stimuli, and credit the outcome back to the
agent. The crt baseline runs one budget-free trial with a fixed stimulus
count and logs coverage-curve events in fixed-size chunks.

Serialized output (events, trial ends, report) is deterministic: sorted
keys, no wall-clock values, so a scripted run reproduces its log
byte-for-byte.
"""
from __future__ import annotations

import json
import random
import statistics
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

from covstim.agents import AgentFeedback, CrtAgent, LlmAgent
from covstim.backend import BackendConfig, BackendError
from covstim.coverage import CoverageState, Difficulty
from covstim.duts import MalformedStimulusError, make_dut
from covstim.prompting import StrategyConfig, should_restart

SCHEMA_VERSION = 1

FULL_COVERAGE = "full_coverage"
EXHAUSTED = "exhausted"
BUDGET_EXHAUSTED = "budget_exhausted"
ABORTED = "aborted"

# trials that ran to their own stopping rule; budget cuts and aborts are not
COMPLETED_STATUSES = (FULL_COVERAGE, EXHAUSTED)

DEFAULT_BUDGET_TOKENS = 10_000_000
DEFAULT_CRT_COUNT = 1_000_000
DEFAULT_CRT_CHUNK = 10_000


def exhausted(
    deltas: Sequence[int],
    zero_window: int = 25,
    low_window: int = 40,
    low_hits: int = 3,
) -> bool:
    """Stopping rule: no new bins in the last 25 responses, or fewer than 3
    in the last 40. Windows must be full before they can fire."""
    if len(deltas) >= zero_window and sum(deltas[-zero_window:]) == 0:
        return True
    if len(deltas) >= low_window and sum(deltas[-low_window:]) < low_hits:
        return True
    return False


@dataclass
class RunConfig:
    dut: str
    agent: str  # "crt" | "llm"
    seed: int = 0
    budget_tokens: int = DEFAULT_BUDGET_TOKENS
    crt_count: int = DEFAULT_CRT_COUNT
    crt_chunk: int = DEFAULT_CRT_CHUNK
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    backend: Optional[BackendConfig] = None
    exhaust_zero_window: int = 25
    exhaust_low_window: int = 40
    exhaust_low_hits: int = 3

    def __post_init__(self) -> None:
        if self.agent not in ("crt", "llm"):
            raise ValueError(f"agent must be 'crt' or 'llm', got {self.agent!r}")
        if self.crt_count <= 0 or self.crt_chunk <= 0:
            raise ValueError("crt_count and crt_chunk must be positive")
        for name in ("exhaust_zero_window", "exhaust_low_window", "exhaust_low_hits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        try:
            if isinstance(data.get("strategy"), dict):
                data["strategy"] = StrategyConfig(**data["strategy"])
            if isinstance(data.get("backend"), dict):
                data["backend"] = BackendConfig(**data["backend"])
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad run config: {exc}") from None


@dataclass(frozen=True)
class TrialSummary:
    """Per-trial outcome: the only list of per-trial fields; the trial_end log
    record and the report's trial rows are built from it."""

    trial: int
    status: str
    coverage: int
    rate: float
    messages: int
    tokens_in: int
    tokens_out: int

    @property
    def tokens(self) -> int:
        return self.tokens_in + self.tokens_out


@dataclass(frozen=True)
class TrialRecord(TrialSummary):
    """A finished trial: its summary plus what only the log keeps."""

    events: list  # JSONL-ready event dicts, one per response (or crt chunk)
    malformed: int = 0
    error: Optional[str] = None

    def summary(self) -> TrialSummary:
        return _from_record(TrialSummary, vars(self))

    def trial_end_record(self) -> dict:
        kept = (f.name for f in fields(self) if f.name != "events")
        return {"type": "trial_end", **{name: getattr(self, name) for name in kept}}


def _from_record(cls, record: dict):
    """Build dataclass `cls` from the same-named keys of `record`."""
    return cls(**{f.name: record[f.name] for f in fields(cls)})


def _event(
    trial: int,
    response_idx: int,
    stimuli: int,
    new_bins: list[str],
    state: CoverageState,
    restart: bool,
    tokens_in: int,
    tokens_out: int,
) -> dict:
    return {
        "type": "event",
        "trial": trial,
        "response_idx": response_idx,
        "stimuli": stimuli,
        "new_bins": new_bins,
        "coverage": state.covered_count,
        "rate": state.rate(),
        "restart": restart,
        "tokens_in": tokens_in,
        "tokens_out": tokens_out,
    }


def run_trial(
    dut, agent: LlmAgent, config: RunConfig, budget_remaining: int, trial_index: int = 1
) -> TrialRecord:
    """One dialogue-driven trial against a freshly reset DUT.

    Stops on full coverage, the exhaustion rule, the budget gate (a call is
    made only when the prompt estimate plus the response allowance still
    fits), or a backend error (status aborted).
    """
    state = CoverageState(dut.plan)
    plan = dut.plan
    events: list[dict] = []
    deltas: list[int] = []
    tokens_in = tokens_out = 0
    messages = 0
    malformed = 0
    error: Optional[str] = None
    max_tokens = agent.backend.config.max_tokens
    while True:
        if state.is_full():
            status = FULL_COVERAGE
            break
        if exhausted(
            deltas,
            config.exhaust_zero_window,
            config.exhaust_low_window,
            config.exhaust_low_hits,
        ):
            status = EXHAUSTED
            break
        restarted = False
        if should_restart(
            agent.dialogue.deltas_since_restart,
            agent.strategy.restart,
            state.rate(),
            agent.strategy.rate_threshold,
        ):
            agent.restart()
            restarted = True
        prepared = agent.prepare(AgentFeedback(rate=state.rate(), uncovered=state.uncovered()))
        spent = tokens_in + tokens_out
        if spent + prepared.prompt_token_estimate + max_tokens > budget_remaining:
            status = BUDGET_EXHAUSTED
            break
        try:
            record = agent.submit(prepared)
        except BackendError as exc:
            status = ABORTED
            error = str(exc)
            break
        messages += 1
        tokens_in += record.completion.tokens_in
        tokens_out += record.completion.tokens_out
        new_ids: list[str] = []
        for stimulus in record.extraction.stimuli:
            try:
                hit = dut.feed(stimulus)
            except MalformedStimulusError:
                malformed += 1
                continue
            new_ids.extend(state.record(hit))
        easier = sum(
            1 for b in new_ids if plan.descriptor(b).difficulty is Difficulty.EASIER
        )
        agent.credit(easier, len(new_ids) - easier, state.rate())
        deltas.append(len(new_ids))
        events.append(
            _event(
                trial_index,
                messages,
                len(record.extraction.stimuli),
                new_ids,
                state,
                restarted,
                record.completion.tokens_in,
                record.completion.tokens_out,
            )
        )
    return TrialRecord(
        trial=trial_index,
        status=status,
        coverage=state.covered_count,
        rate=state.rate(),
        messages=messages,
        tokens_in=tokens_in,
        tokens_out=tokens_out,
        events=events,
        malformed=malformed,
        error=error,
    )


def run_crt_trial(
    dut, agent: CrtAgent, count: int, chunk: int = DEFAULT_CRT_CHUNK, trial_index: int = 1
) -> TrialRecord:
    """One budget-free constrained-random trial of `count` stimuli.

    No messages are exchanged; events are coverage-curve samples, one per
    `chunk` stimuli. A trial that runs out its stimulus count without full
    coverage ends exhausted (the stream is over).
    """
    state = CoverageState(dut.plan)
    hits, plan_size = state.hits, len(state.plan)
    feed, extras, next_stimulus = dut.feed, dut.extras, agent.next_stimulus
    events: list[dict] = []
    chunk_new: list[str] = []
    fed = 0
    status = EXHAUSTED
    last = count - 1
    for i in range(count):
        bins = feed(next_stimulus(extras()))
        if bins:
            chunk_new += state.record(bins)
        fed += 1
        full = len(hits) == plan_size
        if fed == chunk or i == last or full:
            events.append(
                _event(trial_index, len(events) + 1, fed, chunk_new, state, False, 0, 0)
            )
            chunk_new = []
            fed = 0
            if full:
                status = FULL_COVERAGE
                break
    return TrialRecord(
        trial=trial_index,
        status=status,
        coverage=state.covered_count,
        rate=state.rate(),
        messages=0,
        tokens_in=0,
        tokens_out=0,
        events=events,
    )


@dataclass
class ExperimentReport:
    dut: str
    agent: str
    plan_size: int
    budget: int
    trials: list[TrialSummary]
    max_coverage: int
    max_rate: float
    avg_messages: Optional[float]
    stdev_messages: Optional[float]
    avg_cov_per_msg: Optional[float]
    stdev_cov_per_msg: Optional[float]
    tokens_in: int
    tokens_out: int
    note: Optional[str] = None

    @property
    def total_tokens(self) -> int:
        return self.tokens_in + self.tokens_out


def compute_metrics(summaries: Sequence[TrialSummary], plan_size: int) -> dict:
    """Aggregate metrics: max coverage and token totals over all trials;
    message statistics over completed trials only (sample stdev, absent below
    two samples)."""
    completed = [t for t in summaries if t.status in COMPLETED_STATUSES]
    max_coverage = max((t.coverage for t in summaries), default=0)
    metrics = {
        "max_coverage": max_coverage,
        "max_rate": max_coverage / plan_size if plan_size else 0.0,
    }
    message_counts = [t.messages for t in completed if t.messages > 0]
    cov_per_msg = [t.coverage / t.messages for t in completed if t.messages > 0]
    for name, series in (("messages", message_counts), ("cov_per_msg", cov_per_msg)):
        metrics[f"avg_{name}"] = statistics.mean(series) if series else None
        metrics[f"stdev_{name}"] = (
            statistics.stdev(series) if len(series) >= 2 else None
        )
    metrics["tokens_in"] = sum(t.tokens_in for t in summaries)
    metrics["tokens_out"] = sum(t.tokens_out for t in summaries)
    return metrics


def build_report(
    config: RunConfig, plan_size: int, trials: Sequence[TrialRecord], note: Optional[str]
) -> ExperimentReport:
    summaries = [t.summary() for t in trials]
    return ExperimentReport(
        dut=config.dut,
        agent=config.agent,
        plan_size=plan_size,
        budget=config.budget_tokens if config.agent == "llm" else 0,
        trials=summaries,
        note=note,
        **compute_metrics(summaries, plan_size),
    )


def run_experiment(
    config: RunConfig,
    backend=None,
    dut=None,
    log_path=None,
) -> ExperimentReport:
    """Run trials until the budget is spent; optionally write the JSONL log.

    The agent, DUT, and coverage state are reset between trials; one seeded
    rng drives the whole experiment. A trial that ends before its first
    response (budget too small, or the backend/script immediately done) is
    dropped rather than reported as a phantom empty trial.
    """
    if dut is None:
        dut = make_dut(config.dut)
    rng = random.Random(config.seed)
    trials: list[TrialRecord] = []
    note: Optional[str] = None
    if config.agent == "crt":
        dut.reset()
        agent = CrtAgent(config.dut, rng)
        trials.append(run_crt_trial(dut, agent, config.crt_count, config.crt_chunk))
    else:
        if backend is None:
            raise ValueError("llm agent requires a backend")
        budget = config.budget_tokens
        if budget <= 0:
            note = "zero token budget: no trials were run"
        used = 0
        index = 1
        while used < budget:
            dut.reset()
            agent = LlmAgent(
                dut.plan, dut.stimulus_format, config.strategy, backend, rng
            )
            trial = run_trial(dut, agent, config, budget - used, trial_index=index)
            if trial.messages == 0 and trial.status in (BUDGET_EXHAUSTED, ABORTED):
                note = f"stopped before trial {index}: " + (
                    trial.error or "remaining budget cannot cover another call"
                )
                break
            trials.append(trial)
            used += trial.tokens
            index += 1
            if trial.status == BUDGET_EXHAUSTED:
                break
            if trial.status == ABORTED:
                note = f"trial {trial.trial} aborted: {trial.error}"
                break
    report = build_report(config, len(dut.plan), trials, note)
    if log_path is not None:
        write_log(log_path, config, len(dut.plan), trials, report)
    return report


# --- serialization -----------------------------------------------------------------

def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def header_record(config: RunConfig, plan_size: int) -> dict:
    return {
        "type": "header",
        "schema_version": SCHEMA_VERSION,
        "dut": config.dut,
        "agent": config.agent,
        "plan_size": plan_size,
        "budget_tokens": config.budget_tokens if config.agent == "llm" else 0,
        "seed": config.seed,
        "strategy": asdict(config.strategy) if config.agent == "llm" else None,
        "crt_count": config.crt_count if config.agent == "crt" else None,
    }


def report_record(report: ExperimentReport) -> dict:
    return {"type": "report", "schema_version": SCHEMA_VERSION, **asdict(report)}


def write_log(
    path, config: RunConfig, plan_size: int, trials: Sequence[TrialRecord], report
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header_record(config, plan_size)) + "\n")
        for trial in trials:
            for event in trial.events:
                fh.write(_dump(event) + "\n")
            fh.write(_dump(trial.trial_end_record()) + "\n")
        fh.write(_dump(report_record(report)) + "\n")


def report_from_log(path) -> ExperimentReport:
    """Rebuild the report from a JSONL log and verify it.

    Raises ValueError when the log's report record differs from the record
    of the report rebuilt from the header and the trial_end records: the
    fields it shares with the header, its per-trial rows, or the metrics
    recomputed from them (a corrupted or edited log)."""
    header = None
    summaries: list[TrialSummary] = []
    embedded: Optional[dict] = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "header":
                header = record
            elif kind == "trial_end":
                summaries.append(_from_record(TrialSummary, record))
            elif kind == "report":
                embedded = record
    if header is None:
        raise ValueError(f"log {path} has no header record")
    if embedded is None:
        raise ValueError(f"log {path} has no report record")
    shared = {key: header[key] for key in header.keys() & embedded.keys() - {"type"}}
    rebuilt = replace(
        _from_record(ExperimentReport, {**embedded, **shared}),
        trials=summaries,
        **compute_metrics(summaries, header["plan_size"]),
    )
    for key, value in report_record(rebuilt).items():
        if embedded.get(key) != value:
            raise ValueError(
                f"log {path} report mismatch on {key}: "
                f"logged {embedded.get(key)!r}, recomputed {value!r}"
            )
    return rebuilt


# --- human-facing reports ---------------------------------------------------------

def _fmt(value, pattern="{:.2f}") -> str:
    return "-" if value is None else pattern.format(value)


def report_csv(report: ExperimentReport) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
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
    )
    writer.writerow(
        [
            report.dut,
            report.agent,
            report.plan_size,
            len(report.trials),
            report.max_coverage,
            f"{100 * report.max_rate:.2f}",
            _fmt(report.avg_messages),
            _fmt(report.stdev_messages),
            _fmt(report.avg_cov_per_msg),
            _fmt(report.stdev_cov_per_msg),
            report.tokens_in,
            report.tokens_out,
            report.total_tokens,
        ]
    )
    return out.getvalue()


def report_text(report: ExperimentReport) -> str:
    lines = [
        f"dut:                {report.dut}",
        f"agent:              {report.agent}",
        f"plan size:          {report.plan_size}",
        f"trials:             {len(report.trials)}",
        f"max coverage:       {report.max_coverage} ({100 * report.max_rate:.2f}%)",
        f"avg msg/trial:      {_fmt(report.avg_messages)}",
        f"stdev msg/trial:    {_fmt(report.stdev_messages)}",
        f"avg cov/msg:        {_fmt(report.avg_cov_per_msg)}",
        f"stdev cov/msg:      {_fmt(report.stdev_cov_per_msg)}",
        f"tokens:             {report.total_tokens} "
        f"(in {report.tokens_in}, out {report.tokens_out})",
    ]
    if report.note:
        lines.append(f"note:               {report.note}")
    if report.trials:
        lines.append("")
        lines.append(
            f"{'trial':>5}  {'status':<16} {'coverage':>8} {'rate%':>7} "
            f"{'messages':>8} {'tokens':>8}"
        )
        for t in report.trials:
            lines.append(
                f"{t.trial:>5}  {t.status:<16} {t.coverage:>8} "
                f"{100 * t.rate:>7.2f} {t.messages:>8} {t.tokens:>8}"
            )
    return "\n".join(lines) + "\n"
