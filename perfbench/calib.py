"""Reference-speed calibration shared by the benchmark and its set-up probe.

The machine the benchmark was built on shares its cores with other tenants,
and its speed switches between levels up to 2x apart every few seconds.
Host times are therefore reported at a reference speed: a measured time is
multiplied by REF_S over the time the calibration takes on the same core
right before and after the measurement. The calibration is the geometric
mean of three fixed loops, independent of covstim: interpreter operations
in cache (`loop`), lookups spread over a table larger than the L2 cache
(`table_loop`), and JSON, regex and sorting on small documents
(`text_loop`). On the machine above, over 150 repetitions of each of four
inputs (crt stride and cpu, chat-long stride and decoder), `loop` alone
left a 14-21% spread (IQR/median) in the scaled times, against 16-25% raw,
and it over-corrected the chat-long inputs; the mean of the three left
8-11% on all four.

Set-up time is mostly imports (module loading, shared libraries, class
creation), which follow the machine's speed levels less than `loop` does.
It is scaled instead by REF_IMPORT_S over the time a fresh interpreter takes
to import a fixed set of standard-library modules (`python3 calib.py`
prints it), right before and after the set-up probe.
"""
import importlib
import json
import math
import random
import re
import sys
import time

REF_S = 0.002
REF_IMPORT_S = 0.1
REFERENCE_MODULES = (
    "configparser", "difflib", "email.mime.multipart", "ftplib", "http.server",
    "logging.handlers", "plistlib", "pydoc", "smtplib", "sqlite3", "tarfile",
    "unittest", "uuid", "xml.dom.minidom",
)


def loop() -> int:
    """Fixed interpreter work (dict, str and int operations, calls), about
    2 ms on the reference machine; independent of covstim."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(6000):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i)) * key
    return total


_table: dict[int, int] = {}
_table_keys: list[int] = []


def table_loop() -> int:
    """12,000 lookups at random places in a 200,000-entry dict, built on the
    first call, about 2 ms."""
    if not _table:
        _table.update((i * 7919 % 1000003, i) for i in range(200_000))
        _table_keys.extend(random.Random(1).sample(sorted(_table), 12_000))
    total = 0
    for key in _table_keys:
        total += _table[key]
    return total


_DOC = {"items": [{"id": i, "name": f"item-{i}", "tags": ["a", str(i)], "v": i / 2}
                  for i in range(60)]}
_HEX = re.compile(r"0x[0-9a-f]+")
_TEXT = " ".join(f"word 0x{i:08x} other" for i in range(200))


def text_loop() -> int:
    """JSON round trips, a regex scan and sorts of short strings, about 2 ms."""
    total = 0
    for _ in range(6):
        doc = json.loads(json.dumps(_DOC))
        names = sorted((str(x["id"]) + x["name"] for x in doc["items"]), reverse=True)
        total += len(_HEX.findall(_TEXT)) + len("".join(names))
    return total


def _best_of_two(fn) -> float:
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> float:
    """One calibration: the geometric mean of the three loops' seconds, each
    the faster of two tries."""
    return math.prod(_best_of_two(fn) for fn in (loop, table_loop, text_loop)) ** (1 / 3)


def factor(before: float, after: float) -> float:
    """Scale from a raw time to the reference speed."""
    return 2 * REF_S / (before + after)


def import_factor(before: float, after: float) -> float:
    """Scale from a raw set-up time to the reference speed."""
    return 2 * REF_IMPORT_S / (before + after)


def reference_imports() -> float:
    """Seconds to import REFERENCE_MODULES; meaningful in a fresh interpreter."""
    start = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(reference_imports())
    sys.exit(0)
