"""Exact cost counts: Python calls per replayed event and per parsed trace line.

    python tests/counts.py          # re-record BENCH_counts.json for this Python

Each benchmark workload's seed-1 trace (as `perfbench/workloads.py` defines
it, `vmemsim gen` run with its arguments) is read with `traceio.read_trace`
and replayed by `engine.run` under every mode at the workload's replay
geometry.  A `sys.setprofile` hook counts the "call" events of each (one per
Python frame entered or generator resumed), keyed by the function's
`co_qualname`.  Each is counted on a second pass, after one uncounted pass,
so a cache filled on first use (the compiled parse loop, the JSON writers)
counts the same in a fresh process as in a test run.

A count does not move with the host, but it does not see work done in C
(dict, list or heap operations), so it is not a measure of speed on its
own.  Bytecode and so the counts differ between Python versions, so the
file keeps one entry per minor version; `tests/test_counts.py` re-counts
this version's entry and compares.  Standard library only.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ROOT / "BENCH_counts.json"
SEED = 1


def _workloads() -> dict:
    """`perfbench/workloads.py`'s WORKLOADS, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _calls(work) -> Counter:
    """Python function -> the "call" events `work()` makes, on its second run.

    The collector runs first and is off while counting, so no earlier
    garbage (a suspended generator, say, whose close would count) is
    collected in between.
    """
    work()
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def _per(calls: Counter, unit: str, count: int) -> dict:
    """The calls per `unit` in all and by function, with their exact totals."""
    return {
        unit + "s": count,
        "calls": sum(calls.values()),
        f"calls_per_{unit}": round(sum(calls.values()) / count, 3),
        "by_function": {name: calls[name] for name in sorted(calls)},
    }


def measure() -> dict:
    """This Python's counts: `read_trace` per line and each mode's replay per event."""
    from vmemsim import engine, traceio
    from vmemsim.cli import main
    from vmemsim.config import parse_geometry

    parse, replay = {}, {}
    with tempfile.TemporaryDirectory(prefix="vmemsim-counts-") as scratch:
        for name, workload in sorted(_workloads().items()):
            path = str(Path(scratch) / f"{name}.trace")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(workload.gen_argv(SEED, workload.events, path)) == 0
            with open(path, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            parse[name] = _per(_calls(lambda: traceio.read_trace(path)), "line", lines)
            events = traceio.read_trace(path)
            geom = parse_geometry(workload.replay_geometry)
            replay[name] = {
                mode: _per(_calls(lambda: engine.run(events, mode, geom)), "event", len(events))
                for mode in engine.MODES
            }
    return {"read_trace": parse, "replay": replay}


def version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def main() -> int:
    recorded = json.loads(COUNTS.read_text()) if COUNTS.exists() else {}
    recorded[version()] = measure()
    COUNTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for name, modes in recorded[version()]["replay"].items():
        per_event = "  ".join(f"{mode}={c['calls_per_event']}" for mode, c in modes.items())
        per_line = recorded[version()]["read_trace"][name]["calls_per_line"]
        print(f"{name}: read_trace {per_line}/line; replay per event {per_event}")
    print(f"wrote {COUNTS.relative_to(ROOT)} for Python {version()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
