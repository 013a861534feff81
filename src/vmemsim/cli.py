"""Command line front end.

Exit codes: 0 success, 1 simulation/config/trace error, 2 usage error
(argparse).  All outputs are deterministic for identical inputs: JSON is
key-sorted, CSV columns are fixed, and tables derive from report fields
only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .baselines import ASID_POLICY, DEFAULT_WALK_LEVELS, FLUSH_POLICY
from .config import (
    load_config,
    parse_cost_overrides,
    parse_demand,
    parse_geometry,
)
from .core import Geometry
from .engine import (
    MODES,
    NO_DMA,
    RAW_DMA,
    ComparisonReport,
    CostModel,
    Counters,
    MetricsReport,
    RunOptions,
    canonical_mode,
    compare,
    run,
)
from .errors import ConfigError, SimError
from .traceio import dumps, read_trace, validate, write_trace
from .workload import (
    WorkloadSpec,
    attack_cross_vm_dma,
    attack_hyperwall_starvation,
    attack_malicious_hypervisor,
    generate,
)

ATTACKS = {
    "cross_vm_dma": attack_cross_vm_dma,
    "malicious_hypervisor": attack_malicious_hypervisor,
    "hyperwall_starvation": attack_hyperwall_starvation,
}


# ---------------------------------------------------------------------------
# settings merge: flag > config > default
# ---------------------------------------------------------------------------


def _load_cfg(args) -> dict[str, str]:
    path = getattr(args, "config", None)
    return load_config(path) if path else {}


def _pick(args, cfg: dict[str, str], key: str, default, cast):
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(f"{key} = {value!r} is not a valid {cast.__name__}") from None


def _geometry(args, cfg) -> Geometry:
    token = getattr(args, "geometry", None) or cfg.get("geometry")
    return parse_geometry(token) if token else Geometry()


def _cost(args, cfg) -> CostModel:
    pairs = [f"{k[len('cost.'):]}={v}" for k, v in cfg.items() if k.startswith("cost.")]
    pairs += getattr(args, "cost", None) or []
    overrides = parse_cost_overrides(pairs)
    try:
        return CostModel().with_overrides(overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _options(args, cfg) -> RunOptions:
    return RunOptions(
        sample_interval=_pick(args, cfg, "sample_interval", 100, int),
        check_invariants=bool(getattr(args, "check_invariants", False)),
        tlb_policy=_pick(args, cfg, "tlb_policy", ASID_POLICY, str),
        tlb_entries=_pick(args, cfg, "tlb_entries", 64, int),
        walk_levels=_pick(args, cfg, "iommu_levels", DEFAULT_WALK_LEVELS, int),
        dma_policy=_pick(args, cfg, "dma_policy", RAW_DMA, str),
    )


def _out_path(args, cfg, key: str) -> str | None:
    return getattr(args, key, None) or cfg.get(key)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

_COUNTER_NAMES = tuple(f.name for f in dataclass_fields(Counters))

CSV_COLUMNS = (
    "trace",
    "mode",
    "events",
    "total_cycles",
    *_COUNTER_NAMES,
    "isolation_faults",
    "violations",
    "dma_faults",
    "denials",
    "memory_full",
    "reclaims",
    "mean_seg_util",
    "mean_page_util",
)

UTIL_COLUMNS = ("trace", "mode", "event_index", "owner", "segments", "pages")


def _csv_row(name: str, report: MetricsReport, geom: Geometry) -> list:
    row = [name, report.mode, report.events, report.total_cycles]
    row += [getattr(report.counters, n) for n in _COUNTER_NAMES]
    row += [
        len(report.isolation_faults),
        len(report.violations),
        len(report.dma_faults),
        len(report.denials),
        len(report.memory_full),
        len(report.reclaims),
        f"{report.mean_segment_utilization(geom):.6f}",
        f"{report.mean_page_utilization(geom):.6f}",
    ]
    return row


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _util_rows(name: str, report: MetricsReport) -> list[list]:
    return [
        [name, report.mode, u.event_index, u.owner, u.segments, u.pages]
        for u in report.utilization
    ]


def _summary(name: str, report: MetricsReport, geom: Geometry, verbosity: int) -> str:
    lines = [
        f"trace {name}: {report.events} events under {report.mode}",
        f"  cycles {report.total_cycles}",
        "  faults isolation={} violations={} dma={} denials={} memory_full={} reclaims={}".format(
            len(report.isolation_faults),
            len(report.violations),
            len(report.dma_faults),
            len(report.denials),
            len(report.memory_full),
            len(report.reclaims),
        ),
        "  utilization segments={:.4f} pages={:.4f}".format(
            report.mean_segment_utilization(geom),
            report.mean_page_utilization(geom),
        ),
    ]
    if verbosity >= 1:
        counters = "  ".join(
            f"{n}={getattr(report.counters, n)}"
            for n in _COUNTER_NAMES
            if getattr(report.counters, n)
        )
        lines.append(f"  counters {counters or '(all zero)'}")
    if verbosity >= 2:
        for label, records in sorted(report.ledger_dict().items()):
            for record in records:
                lines.append(f"  {label[:-1] if label.endswith('s') else label}: {record}")
    return "\n".join(lines)


def _trace_name(path: str) -> str:
    return Path(path).stem


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    geom = _geometry(args, cfg)
    cost = _cost(args, cfg)
    opts = _options(args, cfg)
    trace_path = getattr(args, "trace", None) or cfg.get("trace")
    if not trace_path:
        raise ConfigError("run needs --trace or a `trace` config entry")
    mode = getattr(args, "mode", None) or cfg.get("mode") or "asmi"
    events = read_trace(trace_path)
    report = run(events, mode, geom, cost, opts)
    name = _trace_name(trace_path)
    json_out = _out_path(args, cfg, "json_out")
    if json_out:
        Path(json_out).write_text(report.to_json() + "\n", encoding="utf-8")
    out = _out_path(args, cfg, "out")
    if out:
        _write_csv(out, CSV_COLUMNS, [_csv_row(name, report, geom)])
    util_out = _out_path(args, cfg, "util_out")
    if util_out:
        _write_csv(util_out, UTIL_COLUMNS, _util_rows(name, report))
    verbosity = _pick(args, cfg, "verbosity", 1, int) + getattr(args, "verbose", 0)
    print(_summary(name, report, geom, verbosity))
    return 0


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    geom = _geometry(args, cfg)
    cost = _cost(args, cfg)
    opts = _options(args, cfg)
    paths = list(getattr(args, "trace", None) or [])
    if not paths and cfg.get("trace"):
        paths = [cfg["trace"]]
    if not paths:
        raise ConfigError("compare needs at least one --trace")
    modes_token = getattr(args, "modes", None) or cfg.get("modes") or ",".join(MODES)
    modes = [canonical_mode(m) for m in modes_token.split(",") if m.strip()]
    named = [(_trace_name(p), read_trace(p)) for p in paths]
    result: ComparisonReport = compare(named, modes, geom, cost, opts)
    print(result.to_table())
    out = _out_path(args, cfg, "out")
    if out:
        rows = [
            _csv_row(name, result.reports[(name, mode)], geom)
            for name, _ in named
            for mode in modes
        ]
        _write_csv(out, CSV_COLUMNS, rows)
    util_out = _out_path(args, cfg, "util_out")
    if util_out:
        rows = []
        for name, _ in named:
            for mode in modes:
                rows += _util_rows(name, result.reports[(name, mode)])
        _write_csv(util_out, UTIL_COLUMNS, rows)
    json_out = _out_path(args, cfg, "json_out")
    if json_out:
        import json as _json

        payload = {
            f"{name}/{mode}": result.reports[(name, mode)].to_dict()
            for name, _ in named
            for mode in modes
        }
        Path(json_out).write_text(
            _json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    return 0


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    geom = _geometry(args, cfg)

    def wl(key: str, flag: str, default, cast):
        value = getattr(args, flag, None)
        if value is None:
            value = cfg.get(f"workload.{key}")
        if value is None:
            return default
        return cast(value)

    vm_count = wl("vm_count", "vms", None, int)
    events = wl("events", "events", None, int)
    if vm_count is None or events is None:
        raise ConfigError("gen needs --vms and --events (or workload.* config keys)")
    seed = _pick(args, cfg, "seed", 1, int)
    demand_token = wl("demand", "demand", None, str)
    if vm_count > 0 and demand_token is None:
        raise ConfigError("gen needs --demand (or workload.demand)")
    demand = parse_demand(demand_token, vm_count) if vm_count > 0 else ()
    spec = WorkloadSpec(
        seed=seed,
        vm_count=vm_count,
        events=events,
        demand=demand,
        dma_rate=wl("dma_rate", "dma_rate", 0.0, float),
        switch_rate=wl("switch_rate", "switch_rate", 0.0, float),
    )
    trace = generate(spec, geom)
    out = _out_path(args, cfg, "out")
    if out:
        write_trace(out, trace)
        print(f"wrote {len(trace)} events to {out}")
    else:
        sys.stdout.write(dumps(trace))
    return 0


def cmd_attack(args) -> int:
    cfg = _load_cfg(args)
    geom = _geometry(args, cfg)
    trace = ATTACKS[args.name](geom)
    out = _out_path(args, cfg, "out")
    if out:
        write_trace(out, trace)
        print(f"wrote {len(trace)} events to {out}")
    else:
        sys.stdout.write(dumps(trace))
    return 0


def cmd_validate(args) -> int:
    events = read_trace(args.trace)
    validate(events)
    print(f"{args.trace}: {len(events)} events ok")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument("--config", help="flat key = value settings file")
    engine_opts.add_argument("--geometry", help="PAGExPAGES_PER_SEGxSEGS, e.g. 4096x512x64")
    engine_opts.add_argument(
        "--cost", action="append", metavar="KEY=CYCLES", help="override one cost parameter"
    )
    engine_opts.add_argument("--sample-interval", dest="sample_interval", type=int)
    engine_opts.add_argument(
        "--tlb-policy", dest="tlb_policy", choices=(FLUSH_POLICY, ASID_POLICY)
    )
    engine_opts.add_argument("--tlb-entries", dest="tlb_entries", type=int)
    engine_opts.add_argument("--iommu-levels", dest="iommu_levels", type=int)
    engine_opts.add_argument("--dma-policy", dest="dma_policy", choices=(RAW_DMA, NO_DMA))
    engine_opts.add_argument(
        "--check-invariants", dest="check_invariants", action="store_true"
    )
    engine_opts.add_argument("-v", "--verbose", action="count", default=0)

    gen_opts = argparse.ArgumentParser(add_help=False)
    gen_opts.add_argument("--config")
    gen_opts.add_argument("--geometry")
    gen_opts.add_argument("--out")

    parser = argparse.ArgumentParser(
        prog="vmemsim",
        description="trace-driven simulator for memory virtualization designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[engine_opts], help="replay one trace in one mode")
    p_run.add_argument("--trace")
    p_run.add_argument("--mode")
    p_run.add_argument("--out", help="CSV metrics row")
    p_run.add_argument("--util-out", dest="util_out", help="long-format utilization CSV")
    p_run.add_argument("--json-out", dest="json_out", help="full report as JSON")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", parents=[engine_opts], help="replay traces across modes"
    )
    p_cmp.add_argument("--trace", action="append", help="repeatable")
    p_cmp.add_argument("--modes", help="comma-separated; default all")
    p_cmp.add_argument("--out", help="CSV metrics table")
    p_cmp.add_argument("--util-out", dest="util_out")
    p_cmp.add_argument("--json-out", dest="json_out")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen", parents=[gen_opts], help="generate a seeded workload trace")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--vms", type=int)
    p_gen.add_argument("--events", type=int)
    p_gen.add_argument("--demand", help="ws:churn:locality[,...]; one triple fans out")
    p_gen.add_argument("--dma-rate", dest="dma_rate", type=float)
    p_gen.add_argument("--switch-rate", dest="switch_rate", type=float)
    p_gen.set_defaults(func=cmd_gen)

    p_atk = sub.add_parser("attack", parents=[gen_opts], help="emit a scripted attack trace")
    p_atk.add_argument("name", choices=sorted(ATTACKS))
    p_atk.set_defaults(func=cmd_attack)

    p_val = sub.add_parser("validate", help="parse and statically check a trace file")
    p_val.add_argument("--trace", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
