"""Spans around the package's public calls, recorded from outside.

`patched(tracer)` swaps the names the harness looks up at call time for
timing wrappers and puts the originals back on exit:

- `covstim.runtime.run_trial`, `.write_log`, `.CoverageState`, `.CrtAgent`
  and `.LlmAgent` (the trial loop, log writer, coverage state and agents
  that `run_experiment` builds);
- `covstim.agents.select_context`, `.extract_stimuli` and
  `.MissedBinSampler` (what `LlmAgent.prepare`/`submit` call);
- `covstim.prompting._top_k` (what `select_context` scores the pool with,
  to count the exchanges it scans);
- `covstim.backend.requests` (to count HTTP attempts per call).

The DUT and the backend are wrapped by proxies passed to `run_experiment`.

A span is (id, parent, name, start, end, attrs). Dialogue runs get one span
per call. Constrained-random runs would need millions, so their per-call
timings are summed into one `runtime.crt_chunk` span per `CHUNK` stimuli,
whose attrs hold each layer's call count and busy time. Spans stay in
memory until the benchmark ends.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

import covstim.agents as agents_mod
import covstim.backend as backend_mod
import covstim.prompting as prompting_mod
import covstim.runtime as runtime_mod
from covstim.duts import MalformedStimulusError

CHUNK = 10_000

_now = time.perf_counter


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    attrs: Optional[dict]


class Tracer:
    """In-memory span recorder with a parent stack; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Optional[int]] = [None]
        self._next_id = 0
        self._chunk: dict[str, list] = {}
        self._chunk_start = 0.0
        self._chunk_stimuli = 0

    def enter(self) -> float:
        self._next_id += 1
        self._stack.append(self._next_id)
        return _now()

    def exit(self, name: str, start: float) -> None:
        end = _now()
        span_id = self._stack.pop()
        self.spans.append(Span(span_id, self._stack[-1], name, start, end, None))

    @contextmanager
    def span(self, name: str):
        start = self.enter()
        try:
            yield
        finally:
            self.exit(name, start)

    # --- constrained-random aggregation ---------------------------------------

    def add(self, name: str, start: float, end: float) -> None:
        """Fold one call into the open chunk instead of recording a span."""
        if not self._chunk:
            self._chunk_start = start
        slot = self._chunk.get(name)
        if slot is None:
            self._chunk[name] = [1, end - start]
        else:
            slot[0] += 1
            slot[1] += end - start

    def stimulus_done(self) -> None:
        self._chunk_stimuli += 1
        if self._chunk_stimuli == CHUNK:
            self.flush_chunk()

    def flush_chunk(self) -> None:
        if not self._chunk:
            return
        self._next_id += 1
        attrs = {name: tuple(v) for name, v in self._chunk.items()}
        attrs["stimuli"] = self._chunk_stimuli
        self.spans.append(
            Span(self._next_id, self._stack[-1], "runtime.crt_chunk",
                 self._chunk_start, _now(), attrs)
        )
        self._chunk = {}
        self._chunk_stimuli = 0


# --- proxies passed to run_experiment -----------------------------------------------

class TracedDut:
    """DUT proxy; `aggregate` selects chunk aggregation (crt) over spans."""

    def __init__(self, inner, tracer: Tracer, aggregate: bool) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.plan = inner.plan
        self.stimulus_format = inner.stimulus_format
        self.tracer = tracer
        self.aggregate = aggregate
        self._name = f"duts.{inner.kind}.feed"

    def reset(self) -> None:
        self.inner.reset()

    def extras(self) -> dict:
        return self.inner.extras()

    def feed(self, stimulus) -> list[str]:
        tracer = self.tracer
        tracer.counts["stimuli"] += 1
        if self.aggregate:
            start = _now()
            bins = self.inner.feed(stimulus)
            tracer.add(self._name, start, _now())
            tracer.stimulus_done()
            return bins
        start = tracer.enter()
        try:
            return self.inner.feed(stimulus)
        except MalformedStimulusError:
            tracer.counts["malformed"] += 1
            raise
        finally:
            tracer.exit(self._name, start)


class TracedBackend:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.config = inner.config
        self.tracer = tracer

    def complete(self, messages):
        tracer = self.tracer
        tracer.counts["backend_calls"] += 1
        start = tracer.enter()
        try:
            return self.inner.complete(messages)
        except backend_mod.BackendError:
            tracer.counts["backend_failed"] += 1
            raise
        finally:
            tracer.exit("backend.complete", start)
            tracer.counts["request_chars"] += sum(len(m["content"]) for m in messages)


class _CountingRequests:
    """Stands in for the `requests` module inside covstim.backend."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer

    def post(self, *args, **kwargs):
        self._tracer.counts["http_attempts"] += 1
        return self._real.post(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


# --- patched names ---------------------------------------------------------------

def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        start = tracer.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(name, start)

    return wrapper


def _traced_classes(tracer: Tracer, aggregate: bool):
    """Subclasses of the harness's classes whose methods time themselves."""

    class TracedCoverageState(runtime_mod.CoverageState):
        def record(self, bin_ids):
            if aggregate:
                start = _now()
                new = super().record(bin_ids)
                tracer.add("coverage.record", start, _now())
            else:
                start = tracer.enter()
                try:
                    new = super().record(bin_ids)
                finally:
                    tracer.exit("coverage.record", start)
            tracer.counts["hits"] += len(bin_ids)
            tracer.counts["new_bins"] += len(new)
            return new

        def uncovered(self):
            start = tracer.enter()
            try:
                return super().uncovered()
            finally:
                tracer.exit("coverage.uncovered", start)

    class TracedCrtAgent(runtime_mod.CrtAgent):
        def next_stimulus(self, extras):
            start = _now()
            stimulus = super().next_stimulus(extras)
            tracer.add("agents.crt_draw", start, _now())
            return stimulus

    class TracedSampler(agents_mod.MissedBinSampler):
        def sample(self, uncovered, rng):
            start = tracer.enter()
            try:
                return super().sample(uncovered, rng)
            finally:
                tracer.exit("prompting.sample", start)

    class TracedLlmAgent(runtime_mod.LlmAgent):
        def prepare(self, feedback):
            start = tracer.enter()
            try:
                return super().prepare(feedback)
            finally:
                tracer.exit("agents.prepare", start)

        def submit(self, prepared):
            start = tracer.enter()
            try:
                record = super().submit(prepared)
            finally:
                tracer.exit("agents.submit", start)
            tracer.counts["responses"] += 1
            if not record.extraction.stimuli:
                tracer.counts["unusable"] += 1
            return record

        def credit(self, easier_hits, harder_hits, rate):
            start = tracer.enter()
            try:
                return super().credit(easier_hits, harder_hits, rate)
            finally:
                tracer.exit("agents.credit", start)

    return TracedCoverageState, TracedCrtAgent, TracedSampler, TracedLlmAgent


@contextmanager
def patched(tracer: Tracer, aggregate: bool):
    """Install the timing wrappers; restore every original name on exit."""
    state_cls, crt_cls, sampler_cls, llm_cls = _traced_classes(tracer, aggregate)
    original_select = agents_mod.select_context

    def select_context(dialogue, config, rng):
        tracer.counts["prepares"] += 1
        start = tracer.enter()
        try:
            return original_select(dialogue, config, rng)
        finally:
            tracer.exit("prompting.select_context", start)

    original_top_k = prompting_mod._top_k

    def top_k(pool, *args, **kwargs):
        tracer.counts["pool_scanned"] += len(pool)
        return original_top_k(pool, *args, **kwargs)

    original_write_log = runtime_mod.write_log

    def write_log(*args, **kwargs):
        tracer.flush_chunk()
        start = tracer.enter()
        try:
            return original_write_log(*args, **kwargs)
        finally:
            tracer.exit("runtime.write_log", start)

    replacements = [
        (runtime_mod, "run_trial", _timed(tracer, "runtime.trial", runtime_mod.run_trial)),
        (runtime_mod, "write_log", write_log),
        (runtime_mod, "CoverageState", state_cls),
        (runtime_mod, "CrtAgent", crt_cls),
        (runtime_mod, "LlmAgent", llm_cls),
        (agents_mod, "select_context", select_context),
        (prompting_mod, "_top_k", top_k),
        (agents_mod, "extract_stimuli",
         _timed(tracer, "agents.extract", agents_mod.extract_stimuli)),
        (agents_mod, "MissedBinSampler", sampler_cls),
        (backend_mod, "requests", _CountingRequests(backend_mod.requests, tracer)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield tracer
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


# --- analysis -------------------------------------------------------------------

def layer_times(spans: list[Span]) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus its direct children's durations;
    for a crt chunk, minus the busy time it aggregates. Aggregated layers
    are leaves, so their self time equals their busy time.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        dur = s.end - s.start
        covered = child_time.get(s.id, 0.0)
        if s.name == "runtime.crt_chunk":
            for name, value in s.attrs.items():
                if name == "stimuli":
                    continue
                calls, busy = value
                slot = out[name]
                slot[0] += calls
                slot[1] += busy
                slot[2] += busy
                covered += busy
        slot = out[s.name]
        slot[0] += 1
        slot[1] += dur
        slot[2] += dur - covered
    return dict(out)
