"""Set-up cost of one workload in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD RUN_DIR

Times, from the first statement after a calibration: importing covstim (the
CLI module pulls in every layer), building each device's DUT and coverage
plan, one agent per device and the workload's backend. Prints one JSON
object with `setup_s`, `plan_build_ms` (raw seconds and milliseconds) and
`factor`, the scale of `plan_build_ms` to the reference speed (calib.py;
the benchmark scales `setup_s` by reference imports instead).
"""
import time

import calib

_before = calib.measure()
_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import covstim.cli  # noqa: E402,F401
from covstim.agents import CrtAgent, LlmAgent  # noqa: E402
from covstim.backend import ReplayBackend  # noqa: E402
from covstim.duts import make_dut  # noqa: E402

from workloads import DEVICES, WORKLOADS  # noqa: E402


def main(name: str, run_dir: str) -> None:
    wl = WORKLOADS[name]
    plans_start = time.perf_counter()
    duts = {d: make_dut(d) for d in DEVICES}
    plan_build = time.perf_counter() - plans_start
    rng = random.Random(0)
    for device, dut in duts.items():
        if wl.agent == "crt":
            CrtAgent(device, rng)
            continue
        key = f"{device}.0"
        if wl.transport == "replay":
            backend = ReplayBackend.from_file(
                os.path.join(run_dir, f"script-{key}.json"), wl.backend_config(key, "0", "")
            )
        else:
            backend = wl.backend(key, "0", "http://127.0.0.1:1/", [])
        LlmAgent(dut.plan, dut.stimulus_format, wl.strategies[device], backend, rng)
    setup = time.perf_counter() - _start
    print(json.dumps({
        "setup_s": setup,
        "plan_build_ms": 1000 * plan_build,
        "factor": calib.factor(_before, calib.measure()),
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
