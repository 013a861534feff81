"""Output checks for the benchmark's CLI runs.

`check_outputs` replays the trace in-process and compares the CLI's JSON
with `engine.run(...).to_dict()`, checks invariants that hold for any
seed, pins the values that exist today for the default seed, and checks
that each full-length workload still exercises the layers it was chosen
for.  Only the fields pinned in `expected/` are compared, so keys that
later reports add are ignored.

Regenerate the pinned values after a deliberate change of the reports:

    python3 perfbench/checks.py record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from vmemsim import cli, engine  # noqa: E402
from vmemsim.config import parse_geometry  # noqa: E402
from vmemsim.traceio import read_trace  # noqa: E402

from workloads import DEFAULT_SEED, MODES, VTLB_MODES, WORKLOADS, Workload  # noqa: E402

BASELINE_MODES = tuple(m for m in MODES if m != "asmi")
MIN_TLB_HIT_RATIO = 0.9
DMA_KINDS = (engine.EventKind.DMA, engine.EventKind.DMA_RAW)


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def tlb_hit_ratio(reports: dict[str, dict], modes=VTLB_MODES) -> tuple[float, int]:
    """Hits over lookups summed across `modes`; returns (ratio, lookups)."""
    hits = sum(reports[m]["counters"]["tlb_hits"] for m in modes)
    lookups = hits + sum(reports[m]["counters"]["tlb_misses"] for m in modes)
    return (hits / lookups if lookups else 0.0), lookups


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------


def _ledger_digest(records: list[dict], keys: list[str]) -> str:
    projected = [{k: r.get(k) for k in keys} for r in records]
    return hashlib.sha256(_canonical(projected).encode()).hexdigest()


def pinned_fields(report: dict) -> dict:
    """The report fields that exist today, in the form they are pinned."""
    ledgers = {}
    for name, records in report["ledgers"].items():
        keys = sorted(records[0]) if records else []
        ledgers[name] = {
            "count": len(records),
            "keys": keys,
            "sha256": _ledger_digest(records, keys),
        }
    return {
        "total_cycles": report["total_cycles"],
        "cycles_by_kind": report["cycles_by_kind"],
        "counters": report["counters"],
        "ledgers": ledgers,
        "final_segments": report["final_segments"],
        "final_pages": report["final_pages"],
    }


def compare_pinned(label: str, expected: dict, report: dict) -> list[str]:
    problems = []
    if report["total_cycles"] != expected["total_cycles"]:
        problems.append(
            f"{label}: total_cycles {report['total_cycles']} != {expected['total_cycles']}"
        )
    for group in ("cycles_by_kind", "counters"):
        for key, value in expected[group].items():
            got = report[group].get(key)
            if got != value:
                problems.append(f"{label}: {group}.{key} {got} != {value}")
    for name, pin in expected["ledgers"].items():
        records = report["ledgers"].get(name)
        if records is None:
            problems.append(f"{label}: ledger {name} is missing")
        elif len(records) != pin["count"] or _ledger_digest(records, pin["keys"]) != pin["sha256"]:
            problems.append(f"{label}: ledger {name} differs from the pinned records")
    for census in ("final_segments", "final_pages"):
        if report[census] != expected[census]:
            problems.append(f"{label}: {census} {report[census]} != {expected[census]}")
    return problems


def _expected_for(workload: Workload, events: int) -> dict | None:
    path = EXPECTED_DIR / f"{workload.name}.json"
    if not path.exists():
        return None
    pinned = json.loads(path.read_text(encoding="utf-8"))
    return pinned["by_events"].get(str(events))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def invariant_problems(reports: dict[str, dict], dma_seqs: set[int]) -> list[str]:
    """Properties that hold for every seed; `dma_seqs` are the trace's DMA events.

    Every DMA op must be accounted for exactly once.  The baselines count a
    range, remap or page-mode failure as blocked.  `asmi` counts as blocked
    only what its ownership check stopped, each with an isolation fault (the
    README's criterion 1); a range or unassigned-device failure goes to its
    `dma_faults` ledger instead.
    """
    problems = []
    asmi = reports["asmi"]
    if asmi["ledgers"]["violations"]:
        problems.append(f"asmi let {len(asmi['ledgers']['violations'])} violations through")
    for mode, rep in reports.items():
        c = rep["counters"]
        unblocked_faults = len(rep["ledgers"]["dma_faults"]) if mode == "asmi" else 0
        if c["dma_ops"] != c["dma_completed"] + c["dma_blocked"] + unblocked_faults:
            problems.append(f"{mode}: DMA ops are not all completed, blocked or faulted")
    dma_isolation_faults = sum(f["seq"] in dma_seqs for f in asmi["ledgers"]["isolation_faults"])
    if asmi["counters"]["dma_blocked"] != dma_isolation_faults:
        problems.append(
            f"asmi: dma_blocked {asmi['counters']['dma_blocked']} != "
            f"{dma_isolation_faults} isolation faults on DMA events"
        )
    return problems


def self_check(name: str, reports: dict[str, dict], unmap_phys_calls: int | None = None) -> list[str]:
    """Guards that a full-length workload still stresses what it was chosen for."""
    problems = []
    if name == "pressure":
        if not reports["asmi"]["ledgers"]["reclaims"]:
            problems.append("pressure: asmi never reclaimed")
        for mode in BASELINE_MODES:
            if reports[mode]["counters"]["pages_swapped"] <= 0:
                problems.append(f"pressure: {mode} swapped no pages")
    elif name == "read_hot":
        for mode, rep in reports.items():
            if rep["counters"]["frees"] or rep["counters"]["dma_ops"]:
                problems.append(f"read_hot: {mode} has frees or DMA ops")
        for mode in VTLB_MODES:
            ratio, _ = tlb_hit_ratio(reports, (mode,))
            if ratio < MIN_TLB_HIT_RATIO:
                problems.append(f"read_hot: {mode} TLB hit ratio {ratio:.3f} < {MIN_TLB_HIT_RATIO}")
    elif name == "mixed_dma":
        for mode, rep in reports.items():
            if rep["counters"]["dma_ops"] <= 0:
                problems.append(f"mixed_dma: {mode} has no DMA ops")
        # Every VM gets a DMA domain in the preamble, so each baseline free
        # reaches unmap_phys; the traced run counts the calls directly.
        for mode in BASELINE_MODES:
            if reports[mode]["counters"]["frees"] <= 0:
                problems.append(f"mixed_dma: {mode} freed nothing, so unmap_phys is never called")
        if unmap_phys_calls is not None and unmap_phys_calls <= 0:
            problems.append("mixed_dma: unmap_phys was never called")
    return problems


def replay(workload: Workload, trace_events: list) -> dict[str, dict]:
    """`engine.run(...).to_dict()` by mode, as it reads back from JSON."""
    geom = parse_geometry(workload.replay_geometry)
    return {
        mode: json.loads(_canonical(engine.run(trace_events, mode, geom).to_dict()))
        for mode in MODES
    }


def load_compare_json(path: str | Path, trace_name: str) -> dict[str, dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {mode: payload.get(f"{trace_name}/{mode}") for mode in MODES}


def _csv_rows(path: str | Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check_outputs(
    workload: Workload,
    seed: int,
    events: int,
    trace: str | Path,
    compare_out: dict[str, str],
    run_out: dict[str, str] | None = None,
    engine_reports: dict[str, dict] | None = None,
    unmap_phys_calls: int | None = None,
) -> tuple[list[str], dict[str, dict]]:
    """Check one `compare` (and optionally one `run`) against the engine.

    `compare_out` and `run_out` map "json", "csv" (and "util") to paths.
    `engine_reports` holds `engine.run(...).to_dict()` by mode when the
    caller has already replayed the trace in-process.  Returns the
    problems found and the compare reports by mode.
    """
    problems: list[str] = []
    trace_name = Path(trace).stem
    reports = load_compare_json(compare_out["json"], trace_name)
    missing = [m for m, rep in reports.items() if rep is None]
    if missing:
        return [f"compare JSON lacks modes {missing}"], reports
    if _csv_rows(compare_out["csv"]) != len(MODES):
        problems.append("compare CSV does not hold one row per mode")
    if _csv_rows(compare_out["util"]) <= 0:
        problems.append("compare utilization CSV is empty")

    trace_events = read_trace(str(trace))
    dma_seqs = {ev.seq for ev in trace_events if ev.kind in DMA_KINDS}
    if engine_reports is None:
        engine_reports = replay(workload, trace_events)
    del trace_events
    for mode in MODES:
        if reports[mode]["events"] != events:
            problems.append(f"{mode} replayed {reports[mode]['events']} events, expected {events}")
        if reports[mode] != engine_reports[mode]:
            problems.append(f"compare JSON for {mode} differs from engine.run")
    if run_out is not None:
        run_report = json.loads(Path(run_out["json"]).read_text(encoding="utf-8"))
        if run_report != reports["asmi"]:
            problems.append("run --mode asmi JSON differs from the asmi report")
        if _csv_rows(run_out["csv"]) != 1:
            problems.append("run CSV does not hold one row")

    problems += invariant_problems(reports, dma_seqs)
    if seed == DEFAULT_SEED:
        expected = _expected_for(workload, events)
        if expected is None:
            problems.append(f"no pinned values for {workload.name} at {events} events")
        else:
            for mode in MODES:
                problems += compare_pinned(f"{workload.name}/{mode}", expected[mode], reports[mode])
    if events == workload.events:
        problems += self_check(workload.name, reports, unmap_phys_calls)
    return problems, reports


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def record_expected() -> None:
    """Pin today's reports for the default seed at full and smoke length."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS.values():
            by_events = {}
            for events in (workload.events, workload.smoke_events):
                path = str(Path(tmp) / f"{workload.name}.trace")
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(workload.gen_argv(DEFAULT_SEED, events, path)) != 0:
                        raise SystemExit(f"gen failed for {workload.name}")
                by_events[str(events)] = {
                    mode: pinned_fields(report)
                    for mode, report in replay(workload, read_trace(path)).items()
                }
            out = EXPECTED_DIR / f"{workload.name}.json"
            payload = {"seed": DEFAULT_SEED, "by_events": by_events}
            out.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: python3 perfbench/checks.py record")
    record_expected()
