"""covstim benchmark entry point.

Usage, from the root of a repository checkout:
    python3 perfbench/run.py --workload {crt,chat-http,chat-long} \
        --seed N --seconds S --trace {0,1}

Prints per-metric detail lines prefixed with '#', then one JSON object as
the last line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
an output check fails, 2 when the checkout has no covstim sources.
See bench.py for the metrics and BENCHMARK.json for the workloads.
"""
import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("crt", "chat-http", "chat-long"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "covstim", "__init__.py")):
        print(f"perfbench: no covstim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import covstim

    if os.path.dirname(os.path.dirname(os.path.abspath(covstim.__file__))) != SRC:
        print(f"perfbench: covstim imported from {covstim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
