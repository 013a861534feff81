"""vmemsim benchmark: drives the real CLI on three named workloads.

    python3 perfbench/run.py --workload mixed_dma --seed 1 --seconds 34 --trace 0

With `--trace 0` it cycles `vmemsim compare`, `vmemsim run --mode asmi`
and `vmemsim gen` subprocesses, one at a time, for `--seconds` seconds and
reports the medians of their throughput, peak RSS and set-up time.  Each
wall time is normalised by runs of reference.py just before and after it,
which take out the host's speed drift.  With `--trace 1` it runs the same
CLI paths in-process with spans at every layer boundary (see tracer.py)
and reports per-layer self times and counts instead.

Every output is checked (see checks.py).  A CLI invocation counts as
failed when it exits non-zero, leaves a requested output missing, prints
the wrong number of table rows, or writes output that fails the checks.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the run record (Python version, nproc, commit,
source digest, calibration-loop times, per-invocation samples and output
SHA-256s); it is also appended to .perfbench_work/runs.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import EXPECTED as REFERENCE_OUTPUT
from workloads import MODES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI = "from vmemsim.cli import console_main; console_main()"
REFERENCE = HERE / "reference.py"
INVOCATION_TIMEOUT_S = 90

#: wall seconds of reference.py on a quiet 2-core host (Python 3.11); host
#: times are reported as if the reference had taken exactly this long
REFERENCE_S = 0.25

#: traces per end-to-end run: on `pressure` the replay work of one seed's
#: trace differs from another's by about 8% (interquartile range over ten
#: seeds), more than host noise leaves in a median of its few samples
TRACES_PER_RUN = 3
TRACE_SEED_STRIDE = 0x9E3779B9

#: name -> unit; the end-to-end metrics (--trace 0)
END_TO_END = {
    "compare_eps": "1/s",
    "compare_peak_rss_mb": "MB",
    "run_asmi_eps": "1/s",
    "run_asmi_peak_rss_mb": "MB",
    "setup_s": "s",
}

_SELF_TIMES = {
    "traceio.loads_s": "traceio.loads",
    "traceio.dumps_s": "traceio.dumps",
    "workload.generate_s": "workload.generate",
    "engine.apply_self_s.asmi": "engine.apply.asmi",
    "engine.apply_self_s.baseline": "engine.apply.baseline",
    "engine.sample_s": "engine.sample",
    "promem.allocate_page_s": "promem.allocate_page",
    "promem.owned_segments_s": "promem.owned_segments",
    "promem.allocated_pages_s": "promem.allocated_pages",
    "promem.free_page_s": "promem.free_page",
    "promem.translate_s": "promem.translate",
    "promem.check_owner_s": "promem.check_owner",
    "baselines.unmap_phys_s": "baselines.unmap_phys",
    "baselines.map_page_s": "baselines.map_page",
    "baselines.tlb_lookup_s": "baselines.tlb_lookup",
    "baselines.tlb_insert_s": "baselines.tlb_insert",
    "baselines.nested_translate_s": "baselines.nested_translate",
    "baselines.shadow_translate_s": "baselines.shadow_translate",
    "baselines.shadow_update_s": "baselines.shadow_update",
    "baselines.iommu_dma_translate_s": "baselines.iommu_dma_translate",
    "report.to_dict_s": "report.to_dict",
    "report.table_s": "report.table",
    "cli.self_s": "cli.main.compare",
}
_CALLS = {
    "promem.allocate_page_calls": "promem.allocate_page",
    "promem.owned_segments_calls": "promem.owned_segments",
    "baselines.unmap_phys_calls": "baselines.unmap_phys",
}

#: name -> unit; the per-layer metrics (--trace 1)
PER_LAYER = {
    **{name: "s" for name in _SELF_TIMES},
    **{name: "count" for name in _CALLS},
    **{f"engine.replay_eps.{mode}": "1/s" for mode in MODES},
    "promem.reclaims": "count",
    "promem.pages_swapped": "count",
    "baselines.tlb_hit_ratio": "ratio",
    "baselines.tlb_lookups": "count",
    "report.json_bytes": "bytes",
    "trace.overhead_s": "s",
}


def trace_seeds(seed: int) -> list[int]:
    """`vmemsim gen` seeds of the traces one end-to-end run cycles through.

    The first is `seed` itself, so the default seed's first trace is the one
    whose reports are pinned in expected/.
    """
    return [seed + k * TRACE_SEED_STRIDE for k in range(TRACES_PER_RUN)]


class SetupFailed(Exception):
    """The workload's trace could not be made; no result can be reported."""


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: shows host drift, not a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - t0


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def base_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "calibration_s": [calibration_s() for _ in range(3)],
    }


# ---------------------------------------------------------------------------
# CLI subprocesses
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    kind: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    problems: list[str] = field(default_factory=list)
    output_ok: bool = True
    #: mean wall time of the reference runs just before and after this one
    reference_s: float | None = None

    @property
    def normalised_s(self) -> float:
        """Wall time at the host speed where reference.py takes REFERENCE_S."""
        return self.wall_s * REFERENCE_S / self.reference_s

    @property
    def ran(self) -> bool:
        """Exited 0 and wrote every output, byte-identical to the first run's."""
        return self.returncode == 0 and not self.problems

    @property
    def ok(self) -> bool:
        return self.ran and self.output_ok


def invoke(kind: str, argv: list[str], workdir: Path, command: list[str] | None = None) -> Invocation:
    """Run one `vmemsim` subprocess (or `command`); peak RSS is this child's own.

    The parent never loads traces or reports while children run: Linux
    carries the parent's RSS high-water mark into a child's ru_maxrss.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            command or [sys.executable, "-c", CLI, *argv],
            stdout=out, stderr=err, env=env, cwd=workdir,
        )
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(kind, proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text())
    if proc.returncode != 0:
        inv.problems.append(f"exit {proc.returncode}: {err_path.read_text()[-500:]}")
    return inv


def compare_table_problems(stdout: str, trace_name: str) -> list[str]:
    """The `compare` table must hold one row per mode, after header and rule."""
    rows = [tuple(line.split()[:2]) for line in stdout.splitlines()[2:] if line.strip()]
    expected = [(trace_name, mode) for mode in MODES]
    return [] if rows == expected else [f"table rows {rows} != {expected}"]


@dataclass
class Outputs:
    """Output paths of one CLI kind; the first good run's files are kept in `ref/`."""

    paths: dict[str, Path]
    reference: dict[str, str] | None = None

    def clear(self) -> None:
        for path in self.paths.values():
            path.unlink(missing_ok=True)

    def check(self, inv: Invocation) -> None:
        missing = [k for k, p in self.paths.items() if not p.exists()]
        if missing:
            inv.problems.append(f"missing outputs {missing}")
            return
        hashes = {k: sha256_file(p) for k, p in self.paths.items()}
        if self.reference is None:
            self.reference = hashes
            for path in self.reference_paths().values():
                Path(path).parent.mkdir(exist_ok=True)
            for key, path in self.paths.items():
                shutil.copyfile(path, self.reference_paths()[key])
        elif hashes != self.reference:
            inv.problems.append("outputs differ from the first run's bytes")

    def reference_paths(self) -> dict[str, str]:
        return {k: str(p.parent / "ref" / p.name) for k, p in self.paths.items()}


def time_reference(workdir: Path) -> float:
    inv = invoke("reference", [], workdir, [sys.executable, str(REFERENCE)])
    if not inv.ran or inv.stdout.strip() != REFERENCE_OUTPUT:
        raise SetupFailed(f"reference.py failed: {inv.problems or inv.stdout!r}")
    return inv.wall_s


def measure(args, workload: Workload, workdir: Path) -> tuple[dict, list[Invocation], dict]:
    """Cycle through gen, compare and run subprocesses for `args.seconds`.

    Each CLI run is bracketed by runs of reference.py, so its wall time can
    be scaled by the host's speed at that moment.  `gen` repeats through
    the run rather than back to back, so `setup_s` samples the same host
    conditions as the other metrics.  Successive cycles replay
    TRACES_PER_RUN different traces of the workload, so a median does not
    hang on how much work one seed's trace happens to hold.
    """
    events = workload.length(args.smoke)
    seeds = trace_seeds(args.seed)
    gen_out = [Outputs({"trace": workdir / f"{workload.name}-{k}.trace"}) for k in range(len(seeds))]
    compare_out = [Outputs({x: workdir / f"cmp{k}.{x}" for x in ("json", "csv", "util")}) for k in range(len(seeds))]
    run_out = [Outputs({x: workdir / f"run{k}.{x}" for x in ("json", "csv")}) for k in range(len(seeds))]
    invocations: list[Invocation] = []
    last_reference = time_reference(workdir)

    def timed(kind: str, argv: list[str]) -> Invocation:
        nonlocal last_reference
        inv = invoke(kind, argv, workdir)
        after = time_reference(workdir)
        inv.reference_s = (last_reference + after) / 2
        last_reference = after
        invocations.append(inv)
        return inv

    def gen(k: int) -> Invocation:
        out = gen_out[k]
        out.clear()
        inv = timed("gen", workload.gen_argv(seeds[k], events, out.paths["trace"].name))
        if inv.returncode == 0:
            out.check(inv)
        return inv

    t_start = time.perf_counter()
    for k in range(len(seeds)):
        first = gen(k)
        if gen_out[k].reference is None:
            raise SetupFailed("; ".join(first.problems) or "gen wrote no trace")
    traces = [out.reference_paths()["trace"] for out in gen_out]

    cycle = 0
    while True:
        t_cycle = time.perf_counter()
        k = cycle % len(seeds)
        trace_name = Path(traces[k]).stem
        compare_out[k].clear()
        p = compare_out[k].paths
        inv = timed("compare", workload.compare_argv(traces[k], p["csv"].name, p["util"].name, p["json"].name))
        if inv.returncode == 0:
            inv.problems += compare_table_problems(inv.stdout, trace_name)
            compare_out[k].check(inv)

        run_out[k].clear()
        p = run_out[k].paths
        inv = timed("run", workload.run_argv(traces[k], p["csv"].name, p["json"].name))
        if inv.returncode == 0:
            if not inv.stdout.startswith(f"trace {trace_name}: {events} events under asmi"):
                inv.problems.append("run summary does not name the trace, length and mode")
            run_out[k].check(inv)

        gen(k)
        cycle += 1
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) > args.seconds:
            break

    # Loading reports grows this process; every measured child has ended.
    problems: list[str] = []
    replayed = range(min(cycle, len(seeds)))
    if any(compare_out[k].reference is None or run_out[k].reference is None for k in replayed):
        problems.append("a trace had no successful compare or run invocation")
    else:
        import checks

        for k in replayed:
            problems += checks.check_outputs(
                workload, seeds[k], events, traces[k],
                compare_out[k].reference_paths(), run_out[k].reference_paths(),
            )[0]
    if problems:
        for inv in invocations:
            inv.output_ok = inv.kind == "gen"

    # Timings come from every invocation that ran; a failed output check
    # is counted in `failed` and `correct`, not hidden by a missing metric.
    def median_of(kind: str, value) -> float | None:
        values = [value(i) for i in invocations if i.kind == kind and i.ran]
        return statistics.median(values) if values else None

    metrics = {
        "compare_eps": median_of("compare", lambda i: events * len(MODES) / i.normalised_s),
        "compare_peak_rss_mb": median_of("compare", lambda i: i.peak_rss_mb),
        "run_asmi_eps": median_of("run", lambda i: events / i.normalised_s),
        "run_asmi_peak_rss_mb": median_of("run", lambda i: i.peak_rss_mb),
        "setup_s": median_of("gen", lambda i: i.normalised_s),
    }
    record = {
        "events": events,
        "trace_seeds": seeds,
        "raw_medians": {
            "compare_eps": median_of("compare", lambda i: events * len(MODES) / i.wall_s),
            "run_asmi_eps": median_of("run", lambda i: events / i.wall_s),
            "setup_s": median_of("gen", lambda i: i.wall_s),
        },
        "trace_sha256": [out.reference["trace"] for out in gen_out],
        "outputs_sha256": [
            {"compare": compare_out[k].reference, "run": run_out[k].reference} for k in replayed
        ],
        "problems": problems,
    }
    return metrics, invocations, record


# ---------------------------------------------------------------------------
# traced in-process run
# ---------------------------------------------------------------------------


def layer_metrics(totals: dict, replay_s: dict[str, float], events: int, reports: dict, json_bytes: int) -> dict:
    import checks

    def get(span: str, key: str) -> int:
        return totals.get(span, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for name, span in _SELF_TIMES.items():
        metrics[name] = get(span, "self_ns") / 1e9
    for name, span in _CALLS.items():
        metrics[name] = get(span, "calls")
    for mode in MODES:
        metrics[f"engine.replay_eps.{mode}"] = events / replay_s[mode]
    traced_replay_s = sum(get(f"engine.run.{mode}", "total_ns") for mode in MODES) / 1e9
    ratio, lookups = checks.tlb_hit_ratio(reports)
    metrics.update({
        "promem.reclaims": len(reports["asmi"]["ledgers"]["reclaims"]),
        "promem.pages_swapped": reports["asmi"]["counters"]["pages_swapped"],
        "baselines.tlb_hit_ratio": ratio,
        "baselines.tlb_lookups": lookups,
        "report.json_bytes": json_bytes,
        "trace.overhead_s": traced_replay_s - sum(replay_s.values()),
    })
    return metrics


def traced(args, workload: Workload, workdir: Path) -> tuple[dict, list[Invocation], dict]:
    sys.path.insert(0, str(SRC))
    try:
        from vmemsim import cli, engine
        from vmemsim.config import parse_geometry
        from vmemsim.traceio import read_trace
    except ImportError as exc:
        raise SetupFailed(f"cannot import vmemsim from {SRC}: {exc}") from None
    import checks
    from tracer import Tracer, instrument

    events = workload.length(args.smoke)
    geom = parse_geometry(workload.replay_geometry)
    trace = workdir / f"{workload.name}.trace"
    out = Outputs({k: workdir / f"cmp.{k}" for k in ("json", "csv", "util")})
    p = out.paths
    invocations: list[Invocation] = []
    reps: list[dict] = []
    tracer = Tracer()
    problems: list[str] | None = None
    reports: dict[str, dict] = {}

    def cli_main(kind: str, argv: list[str]) -> Invocation:
        stdout = workdir / "stdout.txt"
        t0 = time.perf_counter()
        with instrument(tracer), open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
            rc = cli.main(argv)
        inv = Invocation(kind, rc, time.perf_counter() - t0, 0.0, stdout.read_text())
        if rc != 0:
            inv.problems.append(f"exit {rc}")
        invocations.append(inv)
        return inv

    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        first_span = len(tracer)
        gen = cli_main("gen", workload.gen_argv(args.seed, events, str(trace)))
        if not gen.ran or not trace.exists():
            raise SetupFailed("; ".join(gen.problems) or "gen wrote no trace")

        trace_events = read_trace(str(trace))
        replay_s = {}
        for mode in MODES:
            t0 = time.perf_counter()
            report = engine.run(trace_events, mode, geom)
            replay_s[mode] = time.perf_counter() - t0
            reports.setdefault(mode, json.loads(report.to_json()))
        del trace_events

        out.clear()
        cmp = cli_main("compare", workload.compare_argv(str(trace), str(p["csv"]), str(p["util"]), str(p["json"])))
        if cmp.returncode == 0:
            cmp.problems += compare_table_problems(cmp.stdout, trace.stem)
            out.check(cmp)
        totals = tracer.totals(since=first_span)
        if problems is None and cmp.ran:
            problems, _ = checks.check_outputs(
                workload, args.seed, events, trace, out.reference_paths(),
                engine_reports=reports,
                unmap_phys_calls=totals.get("baselines.unmap_phys", {}).get("calls", 0),
            )
        if cmp.ran:
            reps.append(layer_metrics(totals, replay_s, events, reports, p["json"].stat().st_size))
        now = time.perf_counter()
        if not reps or now - t_start + (now - t_rep) > args.seconds:
            break

    problems = problems if problems is not None else ["no compare invocation succeeded"]
    if problems:
        for inv in invocations:
            inv.output_ok = inv.kind == "gen"
    tracer.write(WORK / f"spans-{workload.name}.bin")
    metrics = {
        name: statistics.median(rep[name] for rep in reps) if reps else None
        for name in PER_LAYER
    }
    record = {"events": events, "reps": len(reps), "spans": len(tracer), "problems": problems}
    return metrics, invocations, record


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny traces, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = base_record(args)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        if args.trace:
            metrics, invocations, detail = traced(args, workload, workdir)
            units = PER_LAYER
        else:
            metrics, invocations, detail = measure(args, workload, workdir)
            units = END_TO_END
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not inv.ok for inv in invocations)
    record.update(detail)
    record["calibration_s"] += [calibration_s() for _ in range(3)]
    record["fail_ratio"] = failed / len(invocations)
    record["invocations"] = [
        {"kind": i.kind, "wall_s": i.wall_s, "reference_s": i.reference_s,
         "peak_rss_mb": i.peak_rss_mb, "problems": i.problems, "output_ok": i.output_ok}
        for i in invocations
    ]
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))

    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        print(f"error: no successful samples for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and not detail["problems"],
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
