"""The benchmark's own tests: a smoke run of every workload, and its parts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracer import Tracer, instrument, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace, section):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    for trace in ("0", "1"):
        out = _bench("--workload", "mixed_dma", "--seed", "1", "--seconds", "1", "--trace", trace, cwd=tmp_path)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_pinned_values_cover_full_and_smoke_lengths():
    for workload in WORKLOADS.values():
        for events in (workload.events, workload.smoke_events):
            assert checks._expected_for(workload, events) is not None


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    tracer.wrap("outer", lambda: (inner(), inner()))()
    totals = tracer.totals()
    tracer.write(tmp_path / "spans.bin")
    spans = read_spans(tmp_path / "spans.bin")
    assert len(spans) == len(tracer) == 3
    outer = next(s for s in spans if s[0] == "outer")
    inner = [s for s in spans if s[0] == "inner"]
    assert [s[3] for s in inner] == [0, 0]
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_ns"] == (outer[2] - outer[1]) - sum(e - s for _, s, e, _ in inner)


def test_instrument_patches_names_where_they_are_looked_up():
    from vmemsim import cli, engine
    from vmemsim.config import parse_demand, parse_geometry
    from vmemsim.workload import WorkloadSpec, generate

    geom = parse_geometry("4096x4x16")
    spec = WorkloadSpec(seed=3, vm_count=2, events=200, demand=parse_demand("8:0.2:0.5", 2))
    trace = generate(spec, geom)
    original = engine.nested_translate
    tracer = Tracer()
    with instrument(tracer):
        assert engine.nested_translate is not original
        assert cli.run is engine.run
        cli.compare(trace, ["nested"], geom)
    assert engine.nested_translate is original
    names = set(tracer.totals())
    assert {"engine.compare", "engine.run.nested", "engine.apply.baseline"} <= names
    assert "baselines.nested_translate" in names


def test_checks_flag_broken_reports():
    # three DMA events: 5 completes, 6 is blocked by the ownership check,
    # 7 targets a page outside the pool
    report = {
        "total_cycles": 10,
        "cycles_by_kind": {"read": 10},
        "counters": {"dma_ops": 3, "dma_completed": 1, "dma_blocked": 1},
        "ledgers": {
            "violations": [],
            "isolation_faults": [{"seq": 2}, {"seq": 6}],
            "dma_faults": [{"seq": 7, "reason": "range"}],
        },
        "final_segments": {},
        "final_pages": {"0": 1},
    }
    dma_seqs = {5, 6, 7}
    pinned = checks.pinned_fields(report)
    grown = json.loads(json.dumps(report))
    grown["counters"]["added_later"] = 7
    assert checks.compare_pinned("x", pinned, grown) == []
    assert checks.invariant_problems({"asmi": grown}, dma_seqs) == []
    # a baseline counts the range failure as blocked
    assert checks.invariant_problems({"asmi": grown, "nested": report}, dma_seqs) == [
        "nested: DMA ops are not all completed, blocked or faulted"
    ]
    grown["counters"]["dma_completed"] = 2
    assert checks.compare_pinned("x", pinned, grown)
    assert checks.invariant_problems({"asmi": grown}, dma_seqs)
    grown["counters"]["dma_completed"] = 0
    grown["counters"]["dma_blocked"] = 2
    assert checks.invariant_problems({"asmi": grown}, dma_seqs) == [
        "asmi: dma_blocked 2 != 1 isolation faults on DMA events"
    ]
    grown["ledgers"]["violations"].append({"seq": 1})
    assert len(checks.invariant_problems({"asmi": grown}, dma_seqs)) == 2


def test_self_check_flags_a_hollowed_out_workload():
    counters = {"frees": 1, "dma_ops": 0, "tlb_hits": 95, "tlb_misses": 5, "pages_swapped": 0}
    reports = {m: {"counters": counters, "ledgers": {"reclaims": []}} for m in checks.MODES}
    assert checks.self_check("read_hot", reports) == [f"read_hot: {m} has frees or DMA ops" for m in checks.MODES]
    assert len(checks.self_check("pressure", reports)) == 1 + len(checks.BASELINE_MODES)
    assert checks.self_check("mixed_dma", reports, unmap_phys_calls=0)
