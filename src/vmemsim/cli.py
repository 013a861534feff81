"""Command line front end.

Exit codes: 0 success, 1 simulation/config/trace error, 2 usage error
(argparse).  All outputs are deterministic for identical inputs: JSON is
key-sorted, CSV columns are fixed, and tables derive from report fields
only.

Each command imports only the modules it runs: `run` and `compare` load
the replay engine, `gen` and `attack` the trace generators, and
`validate` neither; `run --mode asmi` loads no page-pool baselines.  The
prices, the policy names and the report's column names come from `core`,
so reading a `cost.*` key, declaring a flag or naming a CSV column loads
no engine.  The engine's `run` and `compare`, and `generate`, are looked
up when a command calls them, so a name patched in its defining module is
the one called.

Each command's flags are declared once, in `COMMANDS`.  `main` reads a
well-formed command line straight from that table and imports no
`argparse`; anything else (`-h`, an unknown or abbreviated flag,
`--flag=value`, a value that starts with `-`, a bad number or choice, a
missing value) goes to the `argparse` parser `build_parser` makes from the
same table, which prints the help and every usage error.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .config import (
    load_config,
    parse_cost_overrides,
    parse_demand,
    parse_geometry,
)
from .core import (
    ASID_POLICY,
    COUNTER_NAMES,
    FLUSH_POLICY,
    LEDGERS,
    NO_DMA,
    RAW_DMA,
    CostModel,
    Geometry,
)
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
    import argparse

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


#: output setting -> the newline mode its file is opened with
_OUTPUTS = {"out": "", "util_out": "", "json_out": None}


@contextmanager
def _open_outputs(args, cfg, inputs: list[str]):
    """The --out, --util-out and --json-out files asked for, open for writing, by setting.

    They are opened before any trace is read, so an unwritable path fails
    before the replay, and a path that names an input trace or another
    output is an error before any is opened.  If the command fails while
    they are open, each is removed again: a failed run leaves no partial
    output behind.
    """
    paths = {key: path for key in _OUTPUTS if (path := _out_path(args, cfg, key)) is not None}
    seen = {os.path.realpath(path): "trace" for path in inputs}
    for key, path in paths.items():
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{key} names the same file as {seen[real]}: {path!r}")
        seen[real] = key
    files = {}
    try:
        for key, path in paths.items():
            files[key] = open(path, "w", encoding="utf-8", newline=_OUTPUTS[key])
        yield files
    except BaseException:
        for fh in files.values():
            fh.close()
            if os.path.isfile(fh.name):  # a device such as /dev/null stays
                os.remove(fh.name)
        raise
    for fh in files.values():
        fh.close()


def _write_csv(fh, header, rows) -> None:
    import csv

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_outputs(files, reports: dict[tuple[str, str], MetricsReport], geom: Geometry,
                   json_parts) -> None:
    """Write the reports into the open output files of `_open_outputs`.

    Each file is written a row or a piece at a time, as it is made, so no
    file's whole text is ever held.  `json_parts()` yields the pieces of the
    JSON document; it is called only for --json-out.
    """
    if "out" in files:
        rows = (_csv_row(name, rep, geom) for (name, _), rep in reports.items())
        _write_csv(files["out"], CSV_COLUMNS, rows)
    if "util_out" in files:
        rows = (
            [name, rep.mode, u.event_index, u.owner, u.segments, u.pages]
            for (name, _), rep in reports.items()
            for u in rep.utilization
        )
        _write_csv(files["util_out"], UTIL_COLUMNS, rows)
    if "json_out" in files:
        files["json_out"].writelines(json_parts())
        files["json_out"].write("\n")


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
    name = _trace_name(trace_path)
    with _open_outputs(args, cfg, [trace_path]) as files:
        with open_trace(trace_path) as fh:  # replays as it parses
            report = run(parse_lines(read_blocks(fh)), mode, geom, cost, opts)
        _write_outputs(files, {(name, report.mode): report}, geom, lambda: [report.to_json()])
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

    def json_parts():
        """The key-sorted object of every report by `trace/mode`, one report's text at a time."""
        import json

        keyed = {f"{name}/{mode}": rep for (name, mode), rep in result.reports.items()}
        yield "{"
        for i, key in enumerate(sorted(keyed)):
            yield f"{',' if i else ''}{json.dumps(key)}:{keyed[key].to_json()}"
        yield "}"

    with _open_outputs(args, cfg, paths) as files:
        traces = [(_trace_name(p), read_trace(p)) for p in paths]
        result = compare(traces, modes, geom, cost, opts)
        del traces  # not needed to write the outputs
        print(result.to_table())
        _write_outputs(files, result.reports, geom, json_parts)
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
# flags: one table, read by the fast path and by argparse
# ---------------------------------------------------------------------------

# Each flag is (option strings, argparse keywords).  Its destination is its
# last option string, as argparse derives it: --util-out sets `util_out`.
_ENGINE_FLAGS = (
    (("--config",), {"help": "flat key = value settings file"}),
    (("--geometry",), {"help": "PAGExPAGES_PER_SEGxSEGS, e.g. 4096x512x64"}),
    (("--cost",), {"action": "append", "metavar": "KEY=CYCLES",
                   "help": "override one cost parameter"}),
    (("--sample-interval",), {"type": int}),
    (("--tlb-policy",), {"choices": (FLUSH_POLICY, ASID_POLICY)}),
    (("--tlb-entries",), {"type": int}),
    (("--iommu-levels",), {"type": int}),
    (("--dma-policy",), {"choices": (RAW_DMA, NO_DMA)}),
    (("--check-invariants",), {"action": "store_true", "default": False}),
    (("-v", "--verbose"), {"action": "count", "default": 0}),
)
_GEN_FLAGS = ((("--config",), {}), (("--geometry",), {}), (("--out",), {}))

#: command -> (its help line, its flags in help order, the function it runs)
COMMANDS = {
    "run": ("replay one trace in one mode", (
        *_ENGINE_FLAGS,
        (("--trace",), {}),
        (("--mode",), {}),
        (("--out",), {"help": "CSV metrics row"}),
        (("--util-out",), {"help": "long-format utilization CSV"}),
        (("--json-out",), {"help": "full report as JSON"}),
    ), cmd_run),
    "compare": ("replay traces across modes", (
        *_ENGINE_FLAGS,
        (("--trace",), {"action": "append", "help": "repeatable"}),
        (("--modes",), {"help": "comma-separated; default all"}),
        (("--out",), {"help": "CSV metrics table"}),
        (("--util-out",), {}),
        (("--json-out",), {}),
    ), cmd_compare),
    "gen": ("generate a seeded workload trace", (
        *_GEN_FLAGS,
        (("--seed",), {"type": int}),
        (("--vms",), {"type": int}),
        (("--events",), {"type": int}),
        (("--demand",), {"help": "ws:churn:locality[,...]; one triple fans out"}),
        (("--dma-rate",), {"type": float}),
        (("--switch-rate",), {"type": float}),
    ), cmd_gen),
    "attack": ("emit a scripted attack trace", (
        *_GEN_FLAGS,
        (("name",), {"choices": ATTACKS}),
    ), cmd_attack),
    "validate": ("parse and statically check a trace file", (
        (("--trace",), {"required": True}),
    ), cmd_validate),
}


def _dest(names: tuple[str, ...]) -> str:
    return names[-1].lstrip("-").replace("-", "_")


def fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` makes of a well-formed `argv`.

    A well-formed command line is a command, then each flag by its full
    name with its value as the next argument, and a command's positional
    where it has one.  For anything else this returns None, and argparse
    reads it.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, flags, func = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals = {}, []
    for names, kw in flags:
        if names[0].startswith("-"):
            options.update(dict.fromkeys(names, (_dest(names), kw)))
            values[_dest(names)] = kw.get("default")
        else:
            positionals.append((_dest(names), kw))
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, kw = options[token]
            action = kw.get("action")
            if action == "count":
                values[dest] += 1
                continue
            if action == "store_true":
                values[dest] = True
                continue
            value = next(tokens, "-")  # a missing value reads as "-"
            if value.startswith("-"):  # which, like a negative number, argparse must judge
                return None
        elif positionals and not token.startswith("-"):
            (dest, kw), value = positionals.pop(0), token
        else:
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        values[dest] = [*(values[dest] or ()), value] if kw.get("action") == "append" else value
    if positionals or any(kw.get("required") and values[dest] is None
                          for dest, kw in options.values()):
        return None
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS: it prints the help and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="vmemsim",
        description="trace-driven simulator for memory virtualization designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags, func) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for names, kw in flags:
            p.add_argument(*names, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = fast_args(sys.argv[1:] if argv is None else list(argv))
    if args is None:
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
