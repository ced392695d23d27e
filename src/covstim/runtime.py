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

from covstim.agents import CrtAgent, LlmAgent
from covstim.backend import BackendConfig, BackendError
from covstim.coverage import CoverageState, Difficulty
from covstim.duts import DUT_KINDS, MalformedStimulusError, make_dut
from covstim.prompting import StrategyConfig, should_restart, stalled

SCHEMA_VERSION = 1

FULL_COVERAGE = "full_coverage"
EXHAUSTED = "exhausted"
BUDGET_EXHAUSTED = "budget_exhausted"
ABORTED = "aborted"

# trials that ran to their own stopping rule; budget cuts and aborts are not
COMPLETED_STATUSES = (FULL_COVERAGE, EXHAUSTED)

DEFAULT_BUDGET_TOKENS = 10_000_000
DEFAULT_CRT_COUNT = 1_000_000
DEFAULT_CRT_CHUNK = 10_000  # stimuli per crt coverage-curve event

# the paper's stopping rule: no new bins in the last 25 responses, or fewer
# than 3 in the last 40
EXHAUST_ZERO_WINDOW = 25
EXHAUST_LOW_WINDOW = 40
EXHAUST_LOW_HITS = 3


def exhausted(deltas: Sequence[int]) -> bool:
    """The stopping rule; windows must be full before they can fire."""
    return stalled(deltas, EXHAUST_ZERO_WINDOW, 1) or stalled(
        deltas, EXHAUST_LOW_WINDOW, EXHAUST_LOW_HITS
    )


@dataclass
class RunConfig:
    dut: str
    agent: str  # "crt" | "llm"
    seed: int = 0
    budget_tokens: int = DEFAULT_BUDGET_TOKENS
    crt_count: int = DEFAULT_CRT_COUNT
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    backend: Optional[BackendConfig] = None

    def __post_init__(self) -> None:
        if self.agent not in ("crt", "llm"):
            raise ValueError(f"agent must be 'crt' or 'llm', got {self.agent!r}")
        if self.crt_count <= 0:
            raise ValueError("crt_count must be positive")

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
    """Build dataclass `cls` from the same-named keys of `record`.

    Raises ValueError naming the record type and the first missing field."""
    try:
        values = {f.name: record[f.name] for f in fields(cls)}
    except KeyError as exc:
        kind = record.get("type", cls.__name__)
        raise ValueError(f"{kind} record lacks field {exc.args[0]!r}") from None
    return cls(**values)


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
        "coverage": len(state.covered),
        "rate": state.rate(),
        "restart": restart,
        "tokens_in": tokens_in,
        "tokens_out": tokens_out,
    }


class PromptScale:
    """Running maximum of reported/estimated prompt tokens, starting at 1.

    The budget gate charges the prompt estimate times this ratio, rounded
    up, so a server that counts more prompt tokens than the chars/4
    estimate cannot push spending past the budget. The ratio is kept as an
    exact fraction: while every call reports its estimate, the gate charges
    the estimate itself.
    """

    def __init__(self) -> None:
        self.num = self.den = 1

    def scaled(self, estimate: int) -> int:
        return -(-estimate * self.num // self.den)

    def observe(self, estimate: int, reported: int) -> None:
        if estimate > 0 and reported * self.den > self.num * estimate:
            self.num, self.den = reported, estimate


def run_trial(
    dut,
    agent: LlmAgent,
    budget_remaining: int,
    trial_index: int = 1,
    prompt_scale: Optional[PromptScale] = None,
) -> TrialRecord:
    """One dialogue-driven trial against a freshly reset DUT.

    Stops on full coverage, the exhaustion rule, the budget gate (a call is
    made only when the scaled prompt estimate plus the response allowance
    still fits), or a backend error (status aborted). `prompt_scale` carries
    the reported/estimated ratio across an experiment's trials.
    """
    if prompt_scale is None:
        prompt_scale = PromptScale()
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
        if exhausted(deltas):
            status = EXHAUSTED
            break
        restarted = False
        if should_restart(
            agent.dialogue.deltas_since_restart, agent.strategy.restart, state.rate()
        ):
            agent.restart()
            restarted = True
        prepared = agent.prepare(state.uncovered())
        estimate = prepared.prompt_token_estimate
        spent = tokens_in + tokens_out
        if spent + prompt_scale.scaled(estimate) + max_tokens > budget_remaining:
            status = BUDGET_EXHAUSTED
            break
        try:
            record = agent.submit(prepared)
        except BackendError as exc:
            status = ABORTED
            error = str(exc)
            break
        messages += 1
        prompt_scale.observe(estimate, record.completion.tokens_in)
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
        coverage=len(state.covered),
        rate=state.rate(),
        messages=messages,
        tokens_in=tokens_in,
        tokens_out=tokens_out,
        events=events,
        malformed=malformed,
        error=error,
    )


def run_crt_trial(dut, agent: CrtAgent, count: int) -> TrialRecord:
    """One budget-free constrained-random trial of `count` stimuli.

    No messages are exchanged; events are coverage-curve samples, one per
    DEFAULT_CRT_CHUNK stimuli. A trial that runs out its stimulus count
    without full coverage ends exhausted (the stream is over).
    """
    state = CoverageState(dut.plan)
    covered, plan_size = state.covered, len(state.plan)
    feed, extras, next_stimulus = dut.feed, dut.extras, agent.next_stimulus
    chunk = DEFAULT_CRT_CHUNK
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
        full = len(covered) == plan_size
        if fed == chunk or i == last or full:
            events.append(
                _event(1, len(events) + 1, fed, chunk_new, state, False, 0, 0)
            )
            chunk_new = []
            fed = 0
            if full:
                status = FULL_COVERAGE
                break
    return TrialRecord(
        trial=1,
        status=status,
        coverage=len(state.covered),
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
        trials.append(run_crt_trial(dut, agent, config.crt_count))
    else:
        if backend is None:
            raise ValueError("llm agent requires a backend")
        budget = config.budget_tokens
        if budget <= 0:
            note = "zero token budget: no trials were run"
        used = 0
        index = 1
        prompt_scale = PromptScale()
        while used < budget:
            dut.reset()
            agent = LlmAgent(
                dut.plan, dut.stimulus_format, config.strategy, backend, rng
            )
            trial = run_trial(
                dut, agent, budget - used, trial_index=index, prompt_scale=prompt_scale
            )
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


_EVENT_FIELDS = ("trial", "response_idx", "new_bins", "coverage", "tokens_in", "tokens_out")

# JSON types a trial_end field may hold, by its TrialSummary annotation
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _trial_summary(record: dict, where: str) -> TrialSummary:
    """The summary a trial_end record holds; ValueError naming the record and
    its first missing or wrong-typed field (a bool is not a number)."""
    summary = _from_record(TrialSummary, record)
    for f in fields(TrialSummary):
        value = getattr(summary, f.name)
        kinds, name = _JSON_TYPES[f.type]
        if type(value) not in kinds:
            raise ValueError(
                f"{where}: trial_end record field {f.name!r} must be {name}, got {value!r}"
            )
    return summary


def _verify_events(
    path, trial: TrialSummary, events: list, plan_size: int, llm: bool, plan
) -> None:
    """Raise ValueError unless a trial's event records add up to its trial_end.

    response_idx runs 1..n (n is `messages` in a dialogue log); new_bins are
    distinct, belong to `plan` unless it is None, and their running count is
    each event's coverage, at most plan_size; the last coverage and the token
    sums are the trial_end's."""
    where = f"log {path} trial {trial.trial}"
    covered: set = set()
    tokens_in = tokens_out = 0
    for n, event in enumerate(events, 1):
        for name in _EVENT_FIELDS:
            if name not in event:
                raise ValueError(f"{where}: event {n} lacks field {name!r}")
        if (event["trial"], event["response_idx"]) != (trial.trial, n):
            raise ValueError(
                f"{where}: event {n} is numbered trial {event['trial']!r} "
                f"response {event['response_idx']!r}"
            )
        new_bins, tokens = event["new_bins"], (event["tokens_in"], event["tokens_out"])
        typed = isinstance(new_bins, list) and all(isinstance(v, str) for v in new_bins)
        if not typed or not all(isinstance(v, int) for v in tokens):
            raise ValueError(f"{where}: event {n} needs a list of bin ids and integer tokens")
        before = len(covered)
        covered.update(new_bins)
        if len(covered) != before + len(new_bins):
            raise ValueError(f"{where}: event {n} lists a bin already covered")
        if event["coverage"] != len(covered) or len(covered) > plan_size:
            raise ValueError(
                f"{where}: event {n} logs coverage {event['coverage']!r}, its new_bins "
                f"add up to {len(covered)} of plan_size {plan_size}"
            )
        stray = [b for b in new_bins if plan is not None and b not in plan]
        if stray:
            raise ValueError(
                f"{where}: event {n} lists bin {stray[0]!r}, not in the {plan.name} plan"
            )
        tokens_in += tokens[0]
        tokens_out += tokens[1]
    if llm and len(events) != trial.messages:
        raise ValueError(f"{where}: {len(events)} events for {trial.messages} messages")
    totals = (len(covered), tokens_in, tokens_out)
    if totals != (trial.coverage, trial.tokens_in, trial.tokens_out):
        raise ValueError(
            f"{where}: events add up to coverage {len(covered)}, tokens "
            f"{tokens_in}/{tokens_out}; trial_end logs {trial.coverage}, "
            f"{trial.tokens_in}/{trial.tokens_out}"
        )


def report_from_log(path) -> ExperimentReport:
    """Rebuild the report from a JSONL log and verify it.

    Raises ValueError when the log's report record differs from the record
    of the report rebuilt from the header and the trial_end records (the
    fields it shares with the header, its per-trial rows, or the metrics
    recomputed from them), when a trial_end field has the wrong JSON type,
    when a device's log disagrees with that device's plan (its size, or a bin
    it does not hold), or when a trial's events do not add up to its
    trial_end record (see `_verify_events`): a corrupted or edited log."""
    header = None
    trials: list[tuple[TrialSummary, list]] = []
    events: list[dict] = []
    embedded: Optional[dict] = None
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"log {path} line {number} is not a JSON object")
            kind = record.get("type")
            if kind == "header":
                header = record
            elif kind == "event":
                events.append(record)
            elif kind == "trial_end":
                trials.append((_trial_summary(record, f"log {path} line {number}"), events))
                events = []
            elif kind == "report":
                embedded = record
    if header is None:
        raise ValueError(f"log {path} has no header record")
    if embedded is None:
        raise ValueError(f"log {path} has no report record")
    if "plan_size" not in header:
        raise ValueError(f"log {path}: header record lacks field 'plan_size'")
    plan_size = header["plan_size"]
    if type(plan_size) is not int:
        raise ValueError(f"log {path}: header plan_size must be an integer, got {plan_size!r}")
    # a device's plan is known here; logs of other (test-only) devices get
    # the count checks alone
    plan = make_dut(header["dut"]).plan if header.get("dut") in DUT_KINDS else None
    if plan is not None and len(plan) != plan_size:
        raise ValueError(
            f"log {path}: header plan_size {plan_size}, the {plan.name} plan has {len(plan)} bins"
        )
    summaries = [trial for trial, _ in trials]
    shared = {key: header[key] for key in header.keys() & embedded.keys() - {"type"}}
    rebuilt = replace(
        _from_record(ExperimentReport, {**embedded, **shared}),
        trials=summaries,
        **compute_metrics(summaries, plan_size),
    )
    for key, value in report_record(rebuilt).items():
        if embedded.get(key) != value:
            raise ValueError(
                f"log {path} report mismatch on {key}: "
                f"logged {embedded.get(key)!r}, recomputed {value!r}"
            )
    if events:
        raise ValueError(f"log {path} has event records after the last trial_end")
    llm = header.get("agent") == "llm"
    for trial, trial_events in trials:
        _verify_events(path, trial, trial_events, plan_size, llm, plan)
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
