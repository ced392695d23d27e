"""Measure one workload for a fixed time and check its outputs.

The harness is a single caller that waits for every reply, so each workload
is a closed loop with one client (`crt` is a batch). A run repeats rounds of
fixed-size experiments, one per input (device x variant), until its time is
up. The seed fixes every input, so each repetition of an input runs the same
work; several variants per device average out how much one script's trial
structure moves the cost.

Untraced runs (`--trace 0`) report the end-to-end metrics. A "step" is one
stimulus on `crt` and one assistant response on `chat-*`:
- setup_s: median set-up time of fresh interpreters (setup_probe.py),
  spread over the run's rounds so they sample its speed levels, each scaled
  by reference imports (calib.py);
- <device>_us: host time per step of `run_experiment` on that device, log
  write included, total over the run;
- step_us_p50 / step_us_p99: per-step latency from outside, the gap between
  consecutive `backend.complete` entries (chat-*) or consecutive DUT `feed`
  entries (crt; taken in separate rounds so the per-device numbers carry no
  proxy);
- steps_per_s: steps over `run_experiment` time, all devices;
- peak_rss_mb: maximum resident set of a fresh interpreter running one
  traffic-size round (rss_probe.py).

The probes (set-up, traffic-size round) run in child processes beside the
rounds, on the CPUs the rounds do not use, as does the stub server.
Every time is scaled to the reference speed of calib.py. Traced runs
(`--trace 1`) alternate untraced and traced rounds and report the per-layer
metrics plus the tracing overhead.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Optional

import requests

import calib
import gen
from covstim.backend import BackendError, ReplayBackend
from covstim.duts import make_dut
from covstim.runtime import ABORTED, report_from_log, run_experiment
from tracing import TracedBackend, TracedDut, Tracer, layer_times, patched
from workloads import DEVICES, REPLAY_CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 15
TRACE_SETUP_PROBES = 3
PROBE_ATTEMPTS = 2
# crt keeps every 10th per-stimulus gap, which bounds the sample memory
CRT_SAMPLE_STRIDE = 10
_now = time.perf_counter


class StampedBackend:
    """Thin proxy: stamps every `complete` entry, counts failed calls."""

    def __init__(self, inner, stamps: array) -> None:
        self.inner = inner
        self.config = inner.config
        self.stamps = stamps
        self.failed = 0

    def complete(self, messages):
        self.stamps.append(_now())
        try:
            return self.inner.complete(messages)
        except BackendError:
            self.failed += 1
            raise


class StampedDut:
    """Thin proxy: stamps every `feed` entry."""

    def __init__(self, inner, stamps: array) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.plan = inner.plan
        self.stimulus_format = inner.stimulus_format
        self.stamps = stamps

    def reset(self) -> None:
        self.inner.reset()

    def extras(self) -> dict:
        return self.inner.extras()

    def feed(self, stimulus):
        self.stamps.append(_now())
        return self.inner.feed(stimulus)


def stats_digest(report) -> str:
    """Digest of the simulated statistics: per trial status, bins covered,
    messages and tokens."""
    rows = [
        [t.status, t.coverage, t.messages, t.tokens_in, t.tokens_out]
        for t in report.trials
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _rank(q: float, n: int) -> int:
    """Nearest rank (1-based) of percentile q among n samples."""
    return max(1, math.ceil(round(q * n / 100, 6)))


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[_rank(q, len(ordered)) - 1]


def tail_level(n: int) -> float:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for level in (99.9, 99.0, 90.0):
        if n - _rank(level, n) >= 10:
            return level
    return 50.0


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path) -> None:
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.run_dir = run_dir
        self.inputs = [(d, v) for v in range(self.wl.variants) for d in DEVICES]
        self.scripts: dict[str, list] = {}
        self.endpoint = ""
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.gaps: dict[str, list[array]] = {}  # per input, per repetition
        self.reps: list[dict] = []
        self.first_log: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.tracer = Tracer()
        self.peak_rss_mb = 0.0
        self.setup: list[dict] = []
        self.side_error: Optional[BaseException] = None
        self.info: dict[str, object] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)

    # --- inputs and the stub server ---------------------------------------------

    def make_inputs(self) -> None:
        if self.wl.agent != "llm":
            return
        for device, variant in self.inputs:
            key = f"{device}.{variant}"
            script = gen.script(self.seed, variant, device, self.wl.profile,
                                self.wl.script_length)
            self.scripts[key] = script
            (self.run_dir / f"script-{key}.json").write_text(json.dumps(script),
                                                              encoding="utf-8")

    def start_stub(self) -> tuple[subprocess.Popen, str]:
        """A stub server for the scripts, off the measured CPU; returns the
        process and its endpoint."""
        args = [f"{key}={self.run_dir / f'script-{key}.json'}" for key in self.scripts]
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        _to_spare_cpus(proc)
        try:
            port = int(proc.stdout.readline())
        except ValueError:
            stop_stub(proc)
            raise RuntimeError("stub server did not report its port") from None
        return proc, f"http://127.0.0.1:{port}/v1/chat/completions"

    # --- set-up ------------------------------------------------------------------

    def probe_setup(self) -> dict:
        """One set-up probe between two reference-import probes, whose mean
        time scales its set-up time to the reference speed (calib.py)."""
        before = _child("calib.py")
        probe = _child("setup_probe.py", self.wl.name, str(self.run_dir))
        probe["import_factor"] = calib.import_factor(before, _child("calib.py"))
        return probe

    def probe_rss(self) -> None:
        """One traffic-size round in a fresh interpreter, for peak_rss_mb;
        on chat-http against a stub of its own, so the rounds' stub serves
        the rounds alone."""
        proc, endpoint = self.start_stub() if self.wl.transport == "http" else (None, "")
        try:
            out = _child("rss_probe.py", self.wl.name, str(self.seed), str(self.run_dir),
                         endpoint)
        finally:
            if proc is not None:
                stop_stub(proc)
        self.check(out["ok"], "traffic-size round: a log differs from its run")
        self.peak_rss_mb = out["peak_rss_mb"]
        self.info["traffic_raw_us"] = out["raw_us"]

    def side_probes(self, trace: bool, deadline: float) -> None:
        """Beside the rounds, in a thread whose processes run off the
        measured CPU: the traffic-size round (untraced runs), then the set-up
        probes, spread evenly over the rest of the run so they sample its
        speed levels."""
        try:
            if not trace:
                self.probe_rss()
            probes = TRACE_SETUP_PROBES if trace else SETUP_PROBES
            start = _now()
            for i in range(probes):
                time.sleep(max(0.0, start + i * (deadline - start) / probes - _now()))
                self.setup.append(self.probe_setup())
        except BaseException as exc:  # re-raised by measure()
            self.side_error = exc

    # --- one repetition ------------------------------------------------------------

    def rep(self, device: str, variant: int, mode: str) -> tuple[dict, array]:
        """One `run_experiment` on one input; mode is plain, stamped or
        traced. Returns the repetition's record and its per-step gaps (raw
        seconds)."""
        wl = self.wl
        key = f"{device}.{variant}"
        dut = make_dut(device)
        backend = None
        if wl.agent == "llm":
            backend = wl.backend(key, str(len(self.reps)), self.endpoint, self.scripts[key])
        stamps = array("d")
        if mode == "traced":
            dut = TracedDut(dut, self.tracer, aggregate=wl.agent == "crt")
            if backend is not None:
                backend = TracedBackend(backend, self.tracer)
        elif backend is not None:
            backend = StampedBackend(backend, stamps)
        elif mode == "stamped":
            dut = StampedDut(dut, stamps)
        config = wl.run_config(device, self.seed)
        log_path = self.run_dir / f"{key}.jsonl"
        failed_before = self.tracer.counts["backend_failed"]
        if mode == "traced":
            with patched(self.tracer, aggregate=wl.agent == "crt"):
                with self.tracer.span("runtime.experiment"):
                    report = run_experiment(config, backend=backend, dut=dut, log_path=log_path)
            wall = self.tracer.spans[-1].end - self.tracer.spans[-1].start
            with self.tracer.span("runtime.verify"):
                rebuilt = report_from_log(log_path)
            failed_calls = self.tracer.counts["backend_failed"] - failed_before
        else:
            start = _now()
            report = run_experiment(config, backend=backend, dut=dut, log_path=log_path)
            wall = _now() - start
            rebuilt = report_from_log(log_path)
            failed_calls = getattr(backend, "failed", 0)
        stride = CRT_SAMPLE_STRIDE if wl.agent == "crt" else 1
        gaps = array("d", (stamps[i] - stamps[i - 1] for i in range(1, len(stamps), stride)))
        data = log_path.read_bytes()
        steps = config.crt_count if wl.agent == "crt" else sum(t.messages for t in report.trials)
        record = {"device": device, "mode": mode, "wall": wall, "steps": steps,
                  "records": data.count(b"\n")}
        self._check_rep(key, report, rebuilt, data, mode)
        aborted = sum(t.status == ABORTED for t in report.trials)
        if wl.agent == "llm":
            self.attempted += steps + failed_calls + len(report.trials)
        else:
            self.attempted += len(report.trials)
        self.failed += failed_calls + aborted
        return record, gaps

    def _check_rep(self, key, report, rebuilt, data, mode) -> None:
        wl = self.wl
        where = f"{key} ({mode})"
        self.check(rebuilt.trials == report.trials, f"{where}: log trials differ from the run")
        self.check(
            (rebuilt.tokens_in, rebuilt.tokens_out, rebuilt.max_coverage)
            == (report.tokens_in, report.tokens_out, report.max_coverage),
            f"{where}: log totals differ from the run",
        )
        self.check(report.note is None, f"{where}: run stopped early: {report.note}")
        self.check(report.max_coverage <= report.plan_size, f"{where}: coverage above plan size")
        if wl.agent == "llm":
            self.check(report.max_coverage > 0, f"{where}: nothing covered")
            self.check(report.total_tokens <= wl.budget, f"{where}: tokens over budget")
            self.check(bool(report.trials), f"{where}: no trials")
        sha = hashlib.sha256(data).hexdigest()
        first = self.first_log.setdefault(key, sha)
        self.check(sha == first, f"{where}: log differs between repetitions of one input")
        self.digests.setdefault(key, stats_digest(report))

    # --- whole run ----------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        """Rounds of one repetition per input until the time is up, with the
        side probes running beside them; at least two rounds, so both modes
        of a run get samples. Each repetition is scaled by the calibrations
        on either side of it."""
        other = "traced" if trace else ("stamped" if self.wl.agent == "crt" else "plain")
        deadline = _now() + seconds
        side = threading.Thread(target=self.side_probes, args=(trace, deadline))
        side.start()
        rounds = 0
        try:
            before = calib.measure()
            calibrations = [before]
            while rounds < 2 or _now() < deadline:
                mode = other if rounds % 2 else "plain"
                for device, variant in self.inputs:
                    record, gaps = self.rep(device, variant, mode)
                    after = calib.measure()
                    factor = calib.factor(before, after)
                    record["factor"] = factor
                    self.reps.append(record)
                    if gaps:
                        self.gaps.setdefault(f"{device}.{variant}", []).append(
                            array("d", (g * factor for g in gaps)))
                    calibrations.append(after)
                    before = after
                rounds += 1
        finally:
            side.join()
        if self.side_error is not None:
            raise self.side_error
        self.info["rounds"] = rounds
        self.info["calibration_ms_median"] = 1e3 * statistics.median(calibrations)

    def differential(self) -> None:
        """chat-http only: each script through ReplayBackend must write the
        same log bytes as its HTTP run."""
        for device, variant in self.inputs:
            key = f"{device}.{variant}"
            backend = ReplayBackend(self.scripts[key], REPLAY_CONFIG)
            path = self.run_dir / f"{key}-replay.jsonl"
            run_experiment(self.wl.run_config(device, self.seed),
                           backend=backend, log_path=path)
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            self.check(sha == self.first_log[key],
                       f"{key}: HTTP log differs from the replay of its script")

    def device_digests(self) -> dict[str, str]:
        """Per device, one digest over its variants' statistics digests."""
        return {
            d: hashlib.sha256(" ".join(
                self.digests[f"{d}.{v}"] for v in range(self.wl.variants)
            ).encode()).hexdigest()[:16]
            for d in DEVICES
        }

    def check_reference(self) -> None:
        if self.seed != DEFAULT_SEED:
            return
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        expected = ref["digests"].get(self.wl.name, {})
        for device, digest in self.device_digests().items():
            self.check(
                expected.get(device) == digest,
                f"{device}: statistics digest {digest} does not match the "
                f"reference {expected.get(device)}",
            )

    # --- metrics --------------------------------------------------------------------

    def device_us(self, mode: str, scaled: bool = True) -> dict[str, tuple[float, int]]:
        """Per device: host µs per step over all `mode` repetitions (at the
        reference speed unless `scaled` is false), and the repetition count.
        A ratio of totals rather than a median of repetitions, which jumps
        between the machine's speed levels."""
        out = {}
        for device in DEVICES:
            reps = [r for r in self.reps if r["mode"] == mode and r["device"] == device]
            steps = sum(r["steps"] for r in reps)
            wall = sum(r["wall"] * (r["factor"] if scaled else 1) for r in reps)
            out[device] = (1e6 * wall / steps if steps else 0.0, len(reps))
        return out

    def step_costs(self) -> list[float]:
        """Per step of every input, the median of its gap over the input's
        repetitions (which run the same work), ascending. The median strips
        the machine's brief slowdowns from each step before the percentiles
        are taken over steps."""
        return sorted(
            statistics.median(column) for runs in self.gaps.values() for column in zip(*runs)
        )

    def end_to_end(self) -> dict:
        setup = self.setup
        plain = [r for r in self.reps if r["mode"] == "plain"]
        ordered = self.step_costs()
        n = len(ordered)
        self.info["step_reps"] = min(len(runs) for runs in self.gaps.values())
        self.info["step_tail_level"] = tail_level(n)
        self.info["raw_us"] = {d: v[0] for d, v in self.device_us("plain", False).items()}
        self.info["raw_setup_s"] = statistics.median(p["setup_s"] for p in setup)
        metrics = {"setup_s": (
            statistics.median(p["setup_s"] * p["import_factor"] for p in setup), "s",
            len(setup))}
        for device, (us, reps) in self.device_us("plain").items():
            metrics[f"{device}_us"] = (us, "us", reps)
        metrics["step_us_p50"] = (1e6 * percentile(ordered, 50), "us", n)
        metrics["step_us_p99"] = (1e6 * percentile(ordered, 99), "us", n)
        metrics["steps_per_s"] = (
            sum(r["steps"] for r in plain) / sum(r["wall"] * r["factor"] for r in plain),
            "1/s",
            len(plain),
        )
        metrics["peak_rss_mb"] = (self.peak_rss_mb, "MB", 1)
        return metrics

    def per_layer(self) -> dict:
        setup = self.setup
        lt = layer_times(self.tracer.spans)
        c = self.tracer.counts
        traced = [r for r in self.reps if r["mode"] == "traced"]
        steps = sum(r["steps"] for r in traced)
        records = sum(r["records"] for r in traced)
        # span times scaled to the reference speed by the traced repetitions' factor
        k = sum(r["wall"] * r["factor"] for r in traced) / sum(r["wall"] for r in traced)
        us, ms = 1e6 * k, 1e3 * k

        def mean(name, scale, part=1):
            calls, total, self_time = lt.get(name, (0, 0.0, 0.0))
            return scale * (total, self_time)[part - 1] / calls if calls else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def self_per(names, scale, base):
            return ratio(scale * sum(lt.get(n, (0, 0.0, 0.0))[2] for n in names), base)

        crt = self.wl.agent == "crt"
        plain_us = self.device_us("plain")
        traced_us = self.device_us("traced")
        overhead = ratio(
            sum(traced_us[d][0] for d in DEVICES), sum(plain_us[d][0] for d in DEVICES)
        ) - 1
        m = {}
        for device in DEVICES:
            m[f"duts.{device}.feed_us"] = (mean(f"duts.{device}.feed", us), "us")
        m.update({
            "duts.plan_build_ms": (
                statistics.median(p["plan_build_ms"] * p["factor"] for p in setup), "ms"),
            "duts.stimuli": (c["stimuli"], "count"),
            "duts.malformed_share": (ratio(c["malformed"], c["stimuli"]), "share"),
            "coverage.record_us": (mean("coverage.record", us), "us"),
            "coverage.uncovered_ms": (mean("coverage.uncovered", ms), "ms"),
            "coverage.hits": (c["hits"], "count"),
            "coverage.new_bin_share": (ratio(c["new_bins"], c["hits"]), "share"),
            "agents.crt_draw_us": (mean("agents.crt_draw", us), "us"),
            "agents.prepare_self_ms": (mean("agents.prepare", ms, part=2), "ms"),
            "agents.extract_ms": (mean("agents.extract", ms), "ms"),
            "agents.credit_us": (mean("agents.credit", us), "us"),
            "agents.responses": (c["responses"], "count"),
            "agents.unusable_share": (ratio(c["unusable"], c["responses"]), "share"),
            "prompting.select_context_ms": (mean("prompting.select_context", ms), "ms"),
            "prompting.pool_scanned": (ratio(c["pool_scanned"], c["prepares"]), "count"),
            "prompting.sample_ms": (mean("prompting.sample", ms), "ms"),
            "backend.complete_ms": (mean("backend.complete", ms), "ms"),
            "backend.attempts_per_call": (ratio(c["http_attempts"], c["backend_calls"]), "count"),
            "backend.request_kb": (ratio(c["request_chars"] / 1024, c["backend_calls"]), "KB"),
            "backend.failed": (c["backend_failed"], "count"),
            "runtime.crt_loop_self_us": (
                self_per(("runtime.experiment", "runtime.crt_chunk"), us, steps) if crt else 0.0,
                "us"),
            "runtime.trial_self_ms": (
                0.0 if crt else self_per(("runtime.experiment", "runtime.trial"), ms, steps),
                "ms"),
            "runtime.write_log_us_per_record": (
                ratio(us * lt.get("runtime.write_log", (0, 0.0))[1], records), "us"),
            "runtime.verify_us_per_record": (
                ratio(us * lt.get("runtime.verify", (0, 0.0))[1], records), "us"),
            "runtime.traced_steps": (steps, "count"),
            "trace.overhead_share": (overhead, "share"),
        })
        return m


def _child(script: str, *args: str):
    """Run a probe script in a fresh interpreter off the measured CPU; its
    last line is JSON. A probe that cannot start or does not exit cleanly is
    run once more, since on a shared host a child can be refused a process
    or killed from outside; its stderr is passed on to ours. A probe that
    fails every attempt, or runs out of time, fails the benchmark."""
    for attempt in range(1, PROBE_ATTEMPTS + 1):
        try:
            proc = subprocess.Popen([sys.executable, str(HERE / script), *args],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True)
        except OSError as exc:
            problem, out, err = f"could not start: {exc}", "", ""
        else:
            _to_spare_cpus(proc)
            try:
                out, err = proc.communicate(timeout=150)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
            lines = out.strip().splitlines()
            if proc.returncode == 0 and lines:
                try:
                    return json.loads(lines[-1])
                except ValueError:
                    pass
            problem = f"exit code {proc.returncode}, last line {lines[-1:]!r}"
        print(f"perfbench: probe {script} {' '.join(args)}: attempt {attempt} of "
              f"{PROBE_ATTEMPTS}: {problem}", file=sys.stderr)
        sys.stderr.write(err[-4000:])
    raise RuntimeError(f"probe {script} failed {PROBE_ATTEMPTS} times")


def stop_stub(proc: subprocess.Popen) -> None:
    """Close the server's stdin (its stop signal) and wait for it to exit."""
    try:
        proc.stdin.close()
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _affinity() -> set:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


_ALL_CPUS = _affinity()


def _to_spare_cpus(proc: subprocess.Popen) -> None:
    """Move a child to the CPUs this process is not pinned to, if any."""
    spare = _ALL_CPUS - _affinity()
    if spare:
        try:
            os.sched_setaffinity(proc.pid, spare)
        except OSError:  # already exited, or the CPUs were taken away
            pass


def pin_to_one_cpu() -> int:
    """Run this process on one CPU, so a calibration and the work it scales
    share a core; its children (stub server, probes) run on the other CPUs.
    Returns the CPU, or -1 where affinity is not available."""
    if not _ALL_CPUS:
        return -1
    cpu = max(_ALL_CPUS)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return -1
    return cpu


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "requests": requests.__version__,
        "platform": platform.platform(),
    }


def main(workload: str, seed: int, seconds: int, trace: bool) -> int:
    run_dir = HERE / "_run" / f"{workload}-{seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    bench = Bench(workload, seed, run_dir)
    bench.info["cpu"] = pin_to_one_cpu()
    try:
        bench.make_inputs()
        bench.probe_setup()  # unmeasured warm-up: bytecode caches
        stub = None
        if bench.wl.transport == "http":
            start = _now()
            stub, bench.endpoint = bench.start_stub()
            bench.info["stub_start_s"] = _now() - start
        try:
            bench.measure(seconds, trace)
            if stub is not None:
                bench.differential()
        finally:
            if stub is not None:
                stop_stub(stub)
        bench.check_reference()
        metrics = bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info = {**bench.info, "digests": bench.device_digests(), "machine": machine(),
            "failures": bench.failures}
    for name, (value, unit, *samples) in metrics.items():
        count = f"  n={samples[0]}" if samples else ""
        print(f"# {name:34s} {value:14.6f} {unit}{count}")
    print("# " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
