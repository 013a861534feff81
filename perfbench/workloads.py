"""The benchmark's named workloads and the CLI arguments that drive them.

Each workload is one `vmemsim gen` trace replayed by `vmemsim compare`
(all five modes) and by `vmemsim run --mode asmi`.  The trace is a pure
function of the workload and the seed, so the same seed gives the same
inputs.  Lengths are kept short (one `compare` takes about a second on a
2-core host, two on `pressure`) so that a run holds many samples: on a
shared host single invocations of identical work vary by about 30%.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("asmi", "nested", "nested_shadow", "iommu", "hyperwall")

#: modes that translate through the virtual TLB (nested_shadow walks a
#: shadow table instead)
VTLB_MODES = ("nested", "iommu", "hyperwall")

#: seed whose outputs are pinned in perfbench/expected/
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    events: int
    smoke_events: int
    vms: int
    demand: str
    dma_rate: float
    switch_rate: float
    gen_geometry: str
    replay_geometry: str

    def length(self, smoke: bool) -> int:
        return self.smoke_events if smoke else self.events

    def gen_argv(self, seed: int, events: int, out: str) -> list[str]:
        return [
            "gen",
            "--geometry", self.gen_geometry,
            "--seed", str(seed),
            "--vms", str(self.vms),
            "--events", str(events),
            "--demand", self.demand,
            "--dma-rate", str(self.dma_rate),
            "--switch-rate", str(self.switch_rate),
            "--out", out,
        ]

    def compare_argv(self, trace: str, csv: str, util: str, json_out: str) -> list[str]:
        return [
            "compare",
            "--geometry", self.replay_geometry,
            "--trace", trace,
            "--out", csv,
            "--util-out", util,
            "--json-out", json_out,
        ]

    def run_argv(self, trace: str, csv: str, json_out: str) -> list[str]:
        return [
            "run",
            "--mode", "asmi",
            "--geometry", self.replay_geometry,
            "--trace", trace,
            "--json-out", json_out,
            "--out", csv,
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mixed_dma",
            why=(
                "the paper's headline mix: frees and per-VM DMA domains make every "
                "baseline pay unmap_phys while asmi stays on its 64-segment fast path"
            ),
            events=12_000,
            smoke_events=600,
            vms=3,
            demand="2000:0.2:0.5",
            dma_rate=0.1,
            switch_rate=0.05,
            gen_geometry="4096x512x64",
            replay_geometry="4096x512x64",
        ),
        # `generate` rejects overcommitted working sets, so the trace is made
        # on a 4-page-segment pool and replayed on half of it: the public-API
        # way to make every mode reclaim.  At 4096 segments asmi's O(tseg)
        # scans dominate; no other workload exercises that axis.
        Workload(
            name="pressure",
            why=(
                "a 4096-segment pool replayed at half the size it was generated for, "
                "so every mode reclaims and asmi's per-segment scans dominate"
            ),
            events=11_000,
            smoke_events=400,
            vms=7,
            demand="2000:0.2:0.5",
            dma_rate=0.05,
            switch_rate=0.05,
            gen_geometry="4096x4x4096",
            replay_geometry="4096x2x4096",
        ),
        # Nothing frees, remaps, reclaims or scans: this is the bypass
        # workload for unmap_phys and ProMem fixes, where the prediction is
        # no change.
        Workload(
            name="read_hot",
            why=(
                "translation only: reads and writes to resident pages with a high TLB "
                "hit ratio, and no frees, DMA, reclaim or segment scans"
            ),
            events=25_000,
            smoke_events=600,
            vms=3,
            demand="48:0.0:0.9",
            dma_rate=0.0,
            switch_rate=0.01,
            gen_geometry="4096x512x64",
            replay_geometry="4096x512x64",
        ),
    )
}
