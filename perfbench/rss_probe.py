"""Peak memory of one traffic-size round of a workload, in a fresh interpreter.

Usage: python3 rss_probe.py WORKLOAD SEED RUN_DIR [ENDPOINT]

Runs every input of the workload once, as the benchmark's rounds do, but
`crt` at its traffic size (`Workload.traffic_count` stimuli per device, not
the repetition size: the CPU's instruction memory grows by about one entry
per stimulus). The benchmark's own samples are not in this process, so the
figure does not depend on how many rounds fit in a run. Prints one JSON
object: `peak_rss_mb` (`ru_maxrss`), `raw_us` (µs per step for each
device, not scaled: the calibration's own table would count in the peak)
and `ok` (no run stopped early and every log rebuilds to its run's report).
"""
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from covstim.runtime import report_from_log, run_experiment  # noqa: E402

from workloads import DEVICES, WORKLOADS  # noqa: E402


def main(name: str, seed: int, run_dir: str, endpoint: str) -> None:
    wl = WORKLOADS[name]
    wall = dict.fromkeys(DEVICES, 0.0)
    steps = dict.fromkeys(DEVICES, 0)
    ok = True
    for variant in range(wl.variants):
        for device in DEVICES:
            key = f"{device}.{variant}"
            config = wl.run_config(device, seed)
            backend = None
            if wl.agent == "crt":
                config.crt_count = wl.traffic_count
            else:
                with open(os.path.join(run_dir, f"script-{key}.json"), encoding="utf-8") as f:
                    backend = wl.backend(key, "rss", endpoint, json.load(f))
            log_path = os.path.join(run_dir, f"{key}-rss.jsonl")
            start = time.perf_counter()
            report = run_experiment(config, backend=backend, log_path=log_path)
            wall[device] += time.perf_counter() - start
            steps[device] += (config.crt_count if wl.agent == "crt"
                              else sum(t.messages for t in report.trials))
            ok = ok and report.note is None and (
                report_from_log(log_path).trials == report.trials)
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_us": {d: 1e6 * wall[d] / steps[d] for d in DEVICES},
        "ok": ok,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else "")
