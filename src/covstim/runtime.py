"""Trial loop, budget accounting, experiment metrics, and JSONL logging.

An experiment runs trials until the token budget is spent. Each LLM trial is
a flat per-response loop: check the stopping rules, have the agent build
the next query (restarting its dialogue when the restart rule fires), gate
it against the remaining budget, call the backend, run the extracted
stimuli, and credit the outcome back to the agent. The crt baseline runs
one budget-free trial with a fixed stimulus count and logs coverage-curve
events in fixed-size chunks.

Serialized output (events, trial ends, report) is deterministic: sorted
keys, no wall-clock values, so a scripted run reproduces its log
byte-for-byte.
"""
from __future__ import annotations

import json
import random
import statistics
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from typing import Optional, Sequence

from covstim.agents import CrtAgent, LlmAgent
from covstim.backend import BackendConfig, BackendError, check_field_types
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


def crt_chunks(count: int) -> list[int]:
    """Stimuli per crt coverage-curve event: DEFAULT_CRT_CHUNK each, the last
    the remainder. Only a trial's last event may run fewer, and only when its
    stimuli complete the plan."""
    full, rest = divmod(count, DEFAULT_CRT_CHUNK)
    return [DEFAULT_CRT_CHUNK] * full + ([rest] if rest else [])


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
        check_field_types(self)
        if not isinstance(self.strategy, StrategyConfig):
            raise ValueError(f"strategy must be an object, got {self.strategy!r}")
        if self.backend is not None and not isinstance(self.backend, BackendConfig):
            raise ValueError(f"backend must be an object or null, got {self.backend!r}")
        if self.agent not in ("crt", "llm"):
            raise ValueError(f"agent must be 'crt' or 'llm', got {self.agent!r}")
        if self.crt_count <= 0:
            raise ValueError("crt_count must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"bad run config: expected an object, got {data!r}")
        data = dict(data)
        try:
            if isinstance(data.get("strategy"), dict):
                data["strategy"] = StrategyConfig(**data["strategy"])
            if isinstance(data.get("backend"), dict):
                data["backend"] = BackendConfig(**data["backend"])
            return cls(**data)
        except (TypeError, ValueError) as exc:
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
        return TrialSummary(**{f.name: getattr(self, f.name) for f in fields(TrialSummary)})

    def trial_end_record(self) -> dict:
        kept = (f.name for f in fields(self) if f.name != "events")
        return {"type": "trial_end", **{name: getattr(self, name) for name in kept}}


class TrialLog:
    """One trial's records, derived from its facts as they arrive.

    The trial loops feed it what each response (or crt chunk) ran and newly
    covered, and `report_from_log` feeds it the same facts read back from a
    log: either way it numbers the events, keeps the running coverage, rate
    and token sums, applies the stopping rule, and builds the TrialRecord.
    """

    def __init__(self, trial: int, plan_size: int) -> None:
        self.trial = trial
        self.plan_size = plan_size
        self.events: list[dict] = []  # JSONL-ready, in order
        self.coverage = self.tokens_in = self.tokens_out = 0

    @property
    def rate(self) -> float:
        return self.coverage / self.plan_size

    def event(
        self, stimuli: int, new_bins: list[str], restart=False, tokens_in=0, tokens_out=0
    ) -> dict:
        """Keep and return the next event; `new_bins` are the bins it newly covered."""
        self.coverage += len(new_bins)
        self.tokens_in += tokens_in
        self.tokens_out += tokens_out
        event = {
            "type": "event",
            "trial": self.trial,
            "response_idx": len(self.events) + 1,
            "stimuli": stimuli,
            "new_bins": new_bins,
            "coverage": self.coverage,
            "rate": self.rate,
            "restart": restart,
            "tokens_in": tokens_in,
            "tokens_out": tokens_out,
        }
        self.events.append(event)
        return event

    def settled(self, deltas: Sequence[int]) -> Optional[str]:
        """The stopping rule: the status of a trial that has stopped by itself,
        else None. `deltas` are its per-response new-bin counts."""
        if self.coverage == self.plan_size:
            return FULL_COVERAGE
        return EXHAUSTED if exhausted(deltas) else None

    def end(
        self, status: str, messages: int, malformed: int = 0, error: Optional[str] = None
    ) -> TrialRecord:
        return TrialRecord(
            trial=self.trial,
            status=status,
            coverage=self.coverage,
            rate=self.rate,
            messages=messages,
            tokens_in=self.tokens_in,
            tokens_out=self.tokens_out,
            events=self.events,
            malformed=malformed,
            error=error,
        )


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
    log = TrialLog(trial_index, len(plan))
    deltas = agent.dialogue.deltas  # the trial's new-bin counts; restarts keep it
    malformed = 0
    error: Optional[str] = None
    max_tokens = agent.backend.config.max_tokens
    while (status := log.settled(deltas)) is None:
        prepared = agent.prepare(state.uncovered())
        estimate = prepared.prompt_token_estimate
        spent = log.tokens_in + log.tokens_out
        if spent + prompt_scale.scaled(estimate) + max_tokens > budget_remaining:
            status = BUDGET_EXHAUSTED
            break
        try:
            record = agent.submit(prepared)
        except BackendError as exc:
            status = ABORTED
            error = str(exc)
            break
        completion = record.completion
        prompt_scale.observe(estimate, completion.tokens_in)
        stimuli = record.extraction.stimuli
        new_ids: list[str] = []
        for stimulus in stimuli:
            try:
                hit = dut.feed(stimulus)
            except MalformedStimulusError:
                malformed += 1
                continue
            new_ids.extend(state.record(hit))
        easier = sum(
            1 for b in new_ids if plan.descriptor(b).difficulty is Difficulty.EASIER
        )
        log.event(
            len(stimuli), new_ids, prepared.restarted, completion.tokens_in, completion.tokens_out
        )
        agent.credit(easier, len(new_ids) - easier, log.rate)
    return log.end(status, len(log.events), malformed, error)


def run_crt_trial(dut, agent: CrtAgent, count: int) -> TrialRecord:
    """One budget-free constrained-random trial of `count` stimuli.

    No messages are exchanged; events are coverage-curve samples, one per
    chunk of `crt_chunks(count)`. A trial that runs out its stimulus count
    without full coverage ends exhausted (the stream is over). Full
    coverage is checked only when a stimulus covers new bins.
    """
    state = CoverageState(dut.plan)
    record, is_full, feed = state.record, state.is_full, dut.feed
    stimuli = agent.stimuli(count, dut.extras)
    log = TrialLog(1, len(dut.plan))
    status = EXHAUSTED
    for size in crt_chunks(count):
        chunk_new: list[str] = []
        fed = 0
        for fed, stimulus in enumerate(islice(stimuli, size), 1):
            bins = feed(stimulus)
            if bins:
                new = record(bins)
                if new:
                    chunk_new += new
                    if is_full():
                        status = FULL_COVERAGE
                        break
        log.event(fed, chunk_new)
        if status == FULL_COVERAGE:
            break
    return log.end(status, 0)


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

# one encoder for every record: `json.dumps` with these options builds one per call
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


# JSON type checks for the logged facts that feed a TrialLog's sums or that
# the log alone cannot re-derive; a bool is not a number
_PLAN_SIZE = (lambda v: type(v) is int and v > 0, "a positive integer")
_BINS = (lambda v: type(v) is list and all(type(b) is str for b in v), "a list of bin ids")
_TOKENS = (lambda v: type(v) is int, "an integer")
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_TEXT = (lambda v: v is None or type(v) is str, "a string or null")


def _logged(record: dict, name: str, check, at: str):
    """`record[name]` once it passes `check`; `at` names the record."""
    if name not in record:
        raise ValueError(f"{at} record lacks field {name!r}")
    ok, what = check
    if not ok(record[name]):
        raise ValueError(f"{at} record field {name!r} must be {what}, got {record[name]!r}")
    return record[name]


def _match(record: dict, line: str, rebuilt: dict, at: str) -> None:
    """Raise ValueError unless `record`, logged as `line`, equals `rebuilt` as
    canonical JSON, naming the first field that differs."""
    canonical = _dump(rebuilt)
    if line == canonical or _dump(record) == canonical:
        return
    for name, value in rebuilt.items():
        if name not in record:
            raise ValueError(f"{at} record lacks field {name!r}")
        if _dump(record[name]) != _dump(value):
            raise ValueError(
                f"{at} record mismatch on {name}: logged {record[name]!r}, recomputed {value!r}"
            )
    unknown = min(record.keys() - rebuilt.keys())
    raise ValueError(f"{at} record has unknown field {unknown!r}")


def _records(path):
    """(line number, stripped line, record) for each non-blank line of a log."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"log {path} line {number} is not a JSON object")
                yield number, line, record


def report_from_log(path) -> ExperimentReport:
    """Verify a JSONL log by rebuilding it, and return its report.

    The layout must be `write_log`'s: the header, then each trial's events
    and its trial_end, then the report. Each record is rebuilt by what wrote
    it (a trial's through a TrialLog) and must equal the logged one as
    canonical JSON. A dialogue event's restart follows the header's restart
    plan, and a trial_end's status the stopping rule; a trial that did not
    stop by itself ends as logged, budget_exhausted or aborted, and no event
    follows one that did. A crt event's stimuli follow `crt_chunks`. The
    facts a log alone cannot re-derive (a dialogue event's stimuli, a
    trial_end's malformed and error, the report's note) are only
    type-checked. A device's log must also match its plan. Raises
    ValueError naming the line and the first field that differs."""
    records = _records(path)
    number, line, header = next(records, (0, "", None))
    if header is None:
        raise ValueError(f"log {path} has no header record")
    if header.get("type") != "header":
        raise ValueError(f"log {path} line {number}: the first record is not the header")
    at = f"log {path} line {number}: header"
    plan_size = _logged(header, "plan_size", _PLAN_SIZE, at)
    try:
        config = RunConfig.from_dict(
            {f.name: header[f.name] for f in fields(RunConfig) if header.get(f.name) is not None}
        )
    except ValueError as exc:
        raise ValueError(f"{at} record: {exc}") from None
    _match(header, line, header_record(config, plan_size), at)
    # a device's plan is known here; logs of other (test-only) devices get
    # the count check alone
    plan = make_dut(config.dut).plan if config.dut in DUT_KINDS else None
    if plan is not None and len(plan) != plan_size:
        raise ValueError(
            f"{at} plan_size {plan_size}, the {plan.name} plan has {len(plan)} bins"
        )
    chunks = crt_chunks(config.crt_count) if config.agent == "crt" else None
    trials: list[TrialRecord] = []
    log = TrialLog(1, plan_size)
    deltas: list[int] = []  # a dialogue trial's per-response new-bin counts
    covered: set = set()
    restart_at = 0  # where in `deltas` the dialogue last restarted
    report: Optional[ExperimentReport] = None
    for number, line, record in records:
        kind = record.get("type")
        where = f"log {path} line {number}: "
        if report is not None:
            raise ValueError(f"{where}a {kind!r} record after the report")
        if kind == "event":
            at = f"{where}trial {log.trial} event {len(log.events) + 1}"
            logged_bins = _logged(record, "new_bins", _BINS, at)
            new_bins = [b for b in dict.fromkeys(logged_bins) if b not in covered]
            stray = [b for b in new_bins if plan is not None and b not in plan]
            if stray:
                raise ValueError(
                    f"{at} record lists bin {stray[0]!r}, not in the {plan.name} plan"
                )
            covered.update(new_bins)
            if len(covered) > plan_size:
                raise ValueError(f"{at} record covers {len(covered)} bins, plan_size {plan_size}")
            stop = log.settled(deltas)
            if stop is not None:
                after = "full coverage" if stop == FULL_COVERAGE else "the exhaustion stop"
                raise ValueError(f"{at} record follows {after}")
            stimuli = _logged(record, "stimuli", _COUNT, at)
            restart = False
            if chunks is not None:
                if len(log.events) == len(chunks):
                    raise ValueError(f"{at} record is past the crt trial's {len(chunks)} chunks")
                size = chunks[len(log.events)]
                completes = new_bins and len(covered) == plan_size
                stimuli = stimuli if completes and 0 < stimuli <= size else size
            else:  # the restart rule, as LlmAgent.prepare applies it
                restart = should_restart(deltas, config.strategy.restart, log.rate, restart_at)
                if restart:
                    restart_at = len(deltas)
                deltas.append(len(new_bins))
            tokens_in = _logged(record, "tokens_in", _TOKENS, at)
            tokens_out = _logged(record, "tokens_out", _TOKENS, at)
            _match(record, line, log.event(stimuli, new_bins, restart, tokens_in, tokens_out), at)
        elif kind == "trial_end":
            at = f"{where}trial {log.trial} trial_end"
            status = log.settled(deltas)
            if status is None and chunks is not None:
                if len(log.events) < len(chunks):
                    raise ValueError(
                        f"{at} record ends the crt trial after {len(log.events)} "
                        f"of {len(chunks)} chunks"
                    )
                status = EXHAUSTED  # the stimulus stream ran out
            trial = log.end(
                record.get("status") if status is None else status,
                len(log.events) if chunks is None else 0,
                _logged(record, "malformed", _COUNT, at),
                _logged(record, "error", _TEXT, at),
            )
            _match(record, line, trial.trial_end_record(), at)
            if status is None and trial.status not in (BUDGET_EXHAUSTED, ABORTED):
                raise ValueError(
                    f"{at} record status {trial.status!r}: a trial that did not stop by "
                    f"itself ends {BUDGET_EXHAUSTED!r} or {ABORTED!r}"
                )
            trials.append(trial)
            log, deltas, covered, restart_at = TrialLog(len(trials) + 1, plan_size), [], set(), 0
        elif kind == "report":
            if log.events:
                raise ValueError(f"{where}the report follows events with no trial_end")
            at = f"{where}report"
            if chunks is not None and len(trials) != 1:
                raise ValueError(f"{at} record follows {len(trials)} crt trials, not one")
            note = _logged(record, "note", _TEXT, at)
            report = build_report(config, plan_size, trials, note)
            _match(record, line, report_record(report), at)
        else:
            raise ValueError(f"{where}unexpected record of type {kind!r}")
    if report is None:
        raise ValueError(f"log {path} has no report record")
    return report


# --- human-facing reports ---------------------------------------------------------

def _fmt(value, pattern="{:.2f}") -> str:
    return "-" if value is None else pattern.format(value)


def report_csv(report: ExperimentReport) -> str:
    import csv
    import io

    row = {
        "dut": report.dut,
        "agent": report.agent,
        "plan_size": report.plan_size,
        "trials": len(report.trials),
        "max_coverage": report.max_coverage,
        "coverage_rate_pct": f"{100 * report.max_rate:.2f}",
        "avg_msg_per_trial": _fmt(report.avg_messages),
        "stdev_msg_per_trial": _fmt(report.stdev_messages),
        "avg_cov_per_msg": _fmt(report.avg_cov_per_msg),
        "stdev_cov_per_msg": _fmt(report.stdev_cov_per_msg),
        "tokens_in": report.tokens_in,
        "tokens_out": report.tokens_out,
        "total_tokens": report.total_tokens,
    }
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(row)
    writer.writerow(row.values())
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
