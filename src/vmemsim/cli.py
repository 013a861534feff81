"""Command line front end.

Exit codes: 0 success, 1 simulation/config/trace error, 2 usage error
(argparse).  All outputs are deterministic for identical inputs: JSON is
key-sorted, CSV columns are fixed, and tables derive from report fields
only.

Each command imports only the modules it runs: `run` and `compare` load
the replay engine, `gen` and `attack` the trace generators, and
`validate` neither.  The prices and the report's column names come from
`core`, so reading a `cost.*` key or naming a CSV column loads no engine.
The engine's `run` and `compare`, and `generate`, are looked up when a
command calls them, so a name patched in its defining module is the one
called.
"""

from __future__ import annotations

import argparse
import os.path
import sys
from typing import TYPE_CHECKING

from .baselines import ASID_POLICY, FLUSH_POLICY, NO_DMA, RAW_DMA
from .config import (
    load_config,
    parse_cost_overrides,
    parse_demand,
    parse_geometry,
)
from .core import COUNTER_NAMES, LEDGERS, CostModel, Geometry
from .errors import ConfigError, SimError
from .traceio import (
    dumps,
    open_trace,
    parse_lines,
    read_blocks,
    read_trace,
    validate,
    write_trace,
)

if TYPE_CHECKING:
    from .engine import MetricsReport, RunOptions

#: `attack NAME` runs `workload.attack_NAME`
ATTACKS = ("cross_vm_dma", "hyperwall_starvation", "malicious_hypervisor")


# ---------------------------------------------------------------------------
# settings merge: flag > config > default
# ---------------------------------------------------------------------------


def _load_cfg(args) -> dict[str, str]:
    path = getattr(args, "config", None)
    return {} if path is None else load_config(path)


def _pick(args, cfg: dict[str, str], key: str, default, cast, flag: str | None = None):
    """The `flag` (default: `key`) argument, else config entry `key`, else default."""
    value = getattr(args, flag or key, None)
    if value is None:
        value = cfg.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(f"{key} = {value!r} is not a valid {cast.__name__}") from None


def _geometry(args, cfg) -> Geometry:
    return _pick(args, cfg, "geometry", Geometry(), parse_geometry)


def _cost(args, cfg) -> CostModel:
    pairs = [f"{k[len('cost.'):]}={v}" for k, v in cfg.items() if k.startswith("cost.")]
    pairs += getattr(args, "cost", None) or []
    overrides = parse_cost_overrides(pairs)
    try:
        return CostModel().with_overrides(overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _options(args, cfg) -> RunOptions:
    """Run options from the settings a flag or config entry gives; the rest default."""
    from .engine import RunOptions

    picked = {
        "sample_interval": _pick(args, cfg, "sample_interval", None, int),
        "tlb_policy": _pick(args, cfg, "tlb_policy", None, str),
        "tlb_entries": _pick(args, cfg, "tlb_entries", None, int),
        "walk_levels": _pick(args, cfg, "iommu_levels", None, int),
        "dma_policy": _pick(args, cfg, "dma_policy", None, str),
    }
    return RunOptions(check_invariants=bool(getattr(args, "check_invariants", False)),
                      **{name: value for name, value in picked.items() if value is not None})


def _settings(args) -> tuple[dict[str, str], Geometry, CostModel, RunOptions]:
    """The config entries, geometry, cost model and run options of run/compare."""
    cfg = _load_cfg(args)
    return cfg, _geometry(args, cfg), _cost(args, cfg), _options(args, cfg)


def _out_path(args, cfg, key: str) -> str | None:
    return _pick(args, cfg, key, None, str)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

#: the columns of the --out CSV: trace, mode, totals, counters, ledgers, utilization
CSV_COLUMNS = ("trace", "mode", "events", "total_cycles", *COUNTER_NAMES, *LEDGERS,
               "mean_seg_util", "mean_page_util")
UTIL_COLUMNS = ("trace", "mode", "event_index", "owner", "segments", "pages")


def __getattr__(name: str):
    """The engine's `run` and `compare`, looked up on each use.

    Only `run` and `compare` load the engine.  Nothing is cached, so
    `cli.run is engine.run` holds while `engine.run` is patched.
    """
    if name in ("run", "compare"):
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _csv_row(name: str, report: MetricsReport, geom: Geometry) -> list:
    return [
        name, report.mode, report.events, report.total_cycles,
        *(getattr(report.counters, n) for n in COUNTER_NAMES),
        *report.ledger_counts().values(),
        f"{report.mean_segment_utilization(geom):.6f}",
        f"{report.mean_page_utilization(geom):.6f}",
    ]


def _write_csv(path: str, header, rows) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(args, cfg, reports: dict[tuple[str, str], MetricsReport], geom: Geometry,
                   json_parts) -> None:
    """Write the --out CSV, --util-out CSV and --json-out file that are asked for.

    Each file is written a row or a piece at a time, as it is made, so no
    file's whole text is ever held.  `json_parts()` yields the pieces of the
    JSON document; it is called only for --json-out.
    """
    out = _out_path(args, cfg, "out")
    if out is not None:
        _write_csv(out, CSV_COLUMNS, (_csv_row(name, rep, geom) for (name, _), rep in reports.items()))
    util_out = _out_path(args, cfg, "util_out")
    if util_out is not None:
        rows = (
            [name, rep.mode, u.event_index, u.owner, u.segments, u.pages]
            for (name, _), rep in reports.items()
            for u in rep.utilization
        )
        _write_csv(util_out, UTIL_COLUMNS, rows)
    json_out = _out_path(args, cfg, "json_out")
    if json_out is not None:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.writelines(json_parts())
            fh.write("\n")


def _summary(name: str, report: MetricsReport, geom: Geometry, verbosity: int) -> str:
    lines = [
        f"trace {name}: {report.events} events under {report.mode}",
        f"  cycles {report.total_cycles}",
        "  faults isolation={} violations={} dma={} denials={} memory_full={} reclaims={}".format(
            *report.ledger_counts().values()
        ),
        "  utilization segments={:.4f} pages={:.4f}".format(
            report.mean_segment_utilization(geom),
            report.mean_page_utilization(geom),
        ),
    ]
    if verbosity >= 1:
        counters = "  ".join(
            f"{n}={getattr(report.counters, n)}"
            for n in COUNTER_NAMES
            if getattr(report.counters, n)
        )
        lines.append(f"  counters {counters or '(all zero)'}")
    if verbosity >= 2:
        for label, records in sorted(report.ledger_dict().items()):
            for record in records:
                lines.append(f"  {label[:-1] if label.endswith('s') else label}: {record}")
    return "\n".join(lines)


def _trace_name(path: str) -> str:
    """The last component of `path`, less its last suffix, by `PurePath.stem`'s rules.

    A trailing "/" is stripped, and a leading or trailing dot stays in the name.
    """
    name = os.path.basename(path.rstrip("/"))
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    from .engine import run

    cfg, geom, cost, opts = _settings(args)
    trace_path = _pick(args, cfg, "trace", None, str)
    if trace_path is None:
        raise ConfigError("run needs --trace or a `trace` config entry")
    mode = _pick(args, cfg, "mode", "asmi", str)
    with open_trace(trace_path) as fh:
        report = run(parse_lines(read_blocks(fh)), mode, geom, cost, opts)   # replays as it parses
    name = _trace_name(trace_path)
    _write_outputs(args, cfg, {(name, report.mode): report}, geom, lambda: [report.to_json()])
    verbosity = _pick(args, cfg, "verbosity", 1, int) + getattr(args, "verbose", 0)
    print(_summary(name, report, geom, verbosity))
    return 0


def cmd_compare(args) -> int:
    from .engine import MODES, canonical_mode, compare

    cfg, geom, cost, opts = _settings(args)
    paths = list(getattr(args, "trace", None) or [])
    if not paths and cfg.get("trace"):
        paths = [cfg["trace"]]
    if not paths:
        raise ConfigError("compare needs at least one --trace")
    modes_token = _pick(args, cfg, "modes", ",".join(MODES), str)
    modes = [canonical_mode(m) for m in modes_token.split(",") if m.strip()]
    if not modes:
        raise ConfigError("compare needs at least one mode")
    traces = [(_trace_name(p), read_trace(p)) for p in paths]
    result = compare(traces, modes, geom, cost, opts)
    del traces  # not needed to write the outputs
    print(result.to_table())

    def json_parts():
        """The key-sorted object of every report by `trace/mode`, one report's text at a time."""
        import json

        keyed = {f"{name}/{mode}": rep for (name, mode), rep in result.reports.items()}
        yield "{"
        for i, key in enumerate(sorted(keyed)):
            yield f"{',' if i else ''}{json.dumps(key)}:{keyed[key].to_json()}"
        yield "}"

    _write_outputs(args, cfg, result.reports, geom, json_parts)
    return 0


def _emit_trace(args, cfg, trace) -> int:
    """Write a gen/attack trace to --out, or to stdout without one."""
    out = _out_path(args, cfg, "out")
    if out is not None:
        write_trace(out, trace)
        print(f"wrote {len(trace)} events to {out}")
    else:
        sys.stdout.write(dumps(trace))
    return 0


def cmd_gen(args) -> int:
    from .workload import WorkloadSpec, generate

    cfg = _load_cfg(args)
    geom = _geometry(args, cfg)
    vm_count = _pick(args, cfg, "workload.vm_count", None, int, flag="vms")
    events = _pick(args, cfg, "workload.events", None, int, flag="events")
    if vm_count is None or events is None:
        raise ConfigError("gen needs --vms and --events (or workload.* config keys)")
    seed = _pick(args, cfg, "seed", 1, int)
    demand_token = _pick(args, cfg, "workload.demand", None, str, flag="demand")
    if vm_count > 0 and demand_token is None:
        raise ConfigError("gen needs --demand (or workload.demand)")
    demand = parse_demand(demand_token, vm_count) if vm_count > 0 else ()
    spec = WorkloadSpec(
        seed=seed,
        vm_count=vm_count,
        events=events,
        demand=demand,
        dma_rate=_pick(args, cfg, "workload.dma_rate", 0.0, float, flag="dma_rate"),
        switch_rate=_pick(args, cfg, "workload.switch_rate", 0.0, float, flag="switch_rate"),
    )
    return _emit_trace(args, cfg, generate(spec, geom))


def cmd_attack(args) -> int:
    from . import workload

    cfg = _load_cfg(args)
    attack = getattr(workload, f"attack_{args.name}")
    return _emit_trace(args, cfg, attack(_geometry(args, cfg)))


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
    p_atk.add_argument("name", choices=ATTACKS)
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
