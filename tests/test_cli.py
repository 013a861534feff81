"""End-to-end command line flows driven through main(argv)."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings, strategies as st

import vmemsim
from vmemsim import cli, traceio
from vmemsim.cli import (
    COMMANDS,
    CSV_COLUMNS,
    UTIL_COLUMNS,
    _trace_name,
    build_parser,
    fast_args,
    main,
)
from vmemsim.core import Geometry
from vmemsim.engine import MODES, compare
from vmemsim.traceio import read_trace
from vmemsim.workload import WorkloadSpec, generate

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    return main(list(argv))


@pytest.mark.parametrize("path", ["a/x.trace", "a/x.trace/", ".trace", "foo.", "a.b.trace", "x",
                                  "a.trace", "run.t", "a.t"])
def test_trace_name_is_the_path_stem(path):
    assert _trace_name(path) == PurePosixPath(path).stem


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "noise.trace"
    rc = run_cli(
        "gen",
        "--geometry", "256x4x16",
        "--seed", "5",
        "--vms", "2",
        "--events", "300",
        "--demand", "4:0.2:0.5",
        "--dma-rate", "0.05",
        "--switch-rate", "0.05",
        "--out", str(path),
    )
    assert rc == 0
    return path


def test_gen_validate_run_pipeline(tmp_path, trace_file, capsys):
    assert run_cli("validate", "--trace", str(trace_file)) == 0
    assert "300 events ok" in capsys.readouterr().out

    json_out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    util_out = tmp_path / "util.csv"
    rc = run_cli(
        "run",
        "--geometry", "256x4x16",
        "--trace", str(trace_file),
        "--mode", "asmi",
        "--json-out", str(json_out),
        "--out", str(csv_out),
        "--util-out", str(util_out),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace noise: 300 events under asmi" in out

    report = json.loads(json_out.read_text())
    assert report["mode"] == "asmi"
    assert report["events"] == 300

    header, row = csv_out.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert row.split(",")[:3] == ["noise", "asmi", "300"]

    util_lines = util_out.read_text().splitlines()
    assert util_lines[0] == ",".join(UTIL_COLUMNS)
    assert len(util_lines) > 1


def test_run_prints_the_counters_line_and_no_ledger_at_its_default_verbosity(trace_file, capsys):
    assert run_cli("run", "--geometry", "256x4x16", "--trace", str(trace_file)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "trace", "cycles", "faults", "utilization", "counters"]
    assert "isolation=12 " in lines[2]   # records a higher verbosity would print
    assert lines[4].startswith("  counters cpu_accesses=")


def config_run(tmp_path, trace_file, capsys, *lines):
    """The lines `run` prints for `trace_file` with a config file holding `lines`."""
    conf = tmp_path / "sim.conf"
    conf.write_text("".join(f"{line}\n" for line in ("geometry = 256x4x16", *lines)))
    assert run_cli("run", "--config", str(conf), "--trace", str(trace_file)) == 0
    return capsys.readouterr().out.splitlines()


def test_verbosity_2_in_a_config_prints_the_ledger_records(tmp_path, trace_file, capsys):
    lines = config_run(tmp_path, trace_file, capsys, "verbosity = 2")
    assert lines[4].startswith("  counters cpu_accesses=")
    records = [line for line in lines[5:] if line.startswith("  isolation_fault: {")]
    assert len(records) == 12 == len(lines[5:])    # the 12 the faults line counts
    assert run_cli("run", "-v", "--geometry", "256x4x16", "--trace", str(trace_file)) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_verbosity_0_in_a_config_leaves_out_the_counters_line(tmp_path, trace_file, capsys):
    lines = config_run(tmp_path, trace_file, capsys, "verbosity = 0")
    assert [line.split()[0] for line in lines] == ["trace", "cycles", "faults", "utilization"]
    assert config_run(tmp_path, trace_file, capsys)[:4] == lines


def test_a_trace_with_a_byte_order_mark_reads_as_the_trace_without(tmp_path, capsys):
    plain = FIXTURES / "cross_vm_dma.trace"
    marked = tmp_path / plain.name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        assert run_cli("run", "--geometry", "256x4x8", "--trace", str(path)) == 0
        assert run_cli("validate", "--trace", str(path)) == 0
        outputs.append(capsys.readouterr().out.replace(str(path), "TRACE"))
    assert outputs[0] == outputs[1]
    assert "TRACE: 14 events ok" in outputs[0]
    assert read_trace(str(marked)) == read_trace(str(plain))


def test_gen_without_a_seed_uses_seed_1(tmp_path):
    argv = ["gen", "--geometry", "256x4x16", "--vms", "2", "--events", "300",
            "--demand", "4:0.2:0.5", "--dma-rate", "0.05"]
    assert run_cli(*argv, "--out", str(tmp_path / "default.trace")) == 0
    assert run_cli(*argv, "--seed", "1", "--out", str(tmp_path / "one.trace")) == 0
    assert run_cli(*argv, "--seed", "2", "--out", str(tmp_path / "two.trace")) == 0
    default = (tmp_path / "default.trace").read_bytes()
    assert default == (tmp_path / "one.trace").read_bytes()
    assert default != (tmp_path / "two.trace").read_bytes()


def test_gen_with_no_vms_needs_no_demand(tmp_path):
    out = tmp_path / "none.trace"
    assert run_cli("gen", "--geometry", "256x4x16", "--vms", "0", "--events", "5",
                   "--out", str(out)) == 0
    spec = WorkloadSpec(seed=1, vm_count=0, events=5, demand=())
    assert out.read_text() == traceio.dumps(generate(spec, Geometry(256, 4, 16)))


def test_outputs_are_deterministic(tmp_path, trace_file):
    outs = []
    for tag in ("a", "b"):
        json_out = tmp_path / f"{tag}.json"
        csv_out = tmp_path / f"{tag}.csv"
        rc = run_cli(
            "run",
            "--geometry", "256x4x16",
            "--trace", str(trace_file),
            "--mode", "nested",
            "--json-out", str(json_out),
            "--out", str(csv_out),
        )
        assert rc == 0
        outs.append((json_out.read_bytes(), csv_out.read_bytes()))
    assert outs[0] == outs[1]


def test_gen_is_deterministic(tmp_path, trace_file):
    again = tmp_path / "again.trace"
    run_cli(
        "gen",
        "--geometry", "256x4x16",
        "--seed", "5",
        "--vms", "2",
        "--events", "300",
        "--demand", "4:0.2:0.5",
        "--dma-rate", "0.05",
        "--switch-rate", "0.05",
        "--out", str(again),
    )
    assert again.read_bytes() == trace_file.read_bytes()


def test_compare_table_and_csv(tmp_path, trace_file, capsys):
    csv_out = tmp_path / "cmp.csv"
    rc = run_cli(
        "compare",
        "--geometry", "256x4x16",
        "--trace", str(trace_file),
        "--modes", "asmi,nested+shadow,iommu",
        "--out", str(csv_out),
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert "nested_shadow" in table          # alias resolves in output
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 4                   # header + one row per mode
    assert [line.split(",")[1] for line in lines[1:]] == ["asmi", "nested_shadow", "iommu"]


@pytest.mark.parametrize("mode", MODES)
def test_run_and_compare_write_the_same_rows(tmp_path, trace_file, mode):
    common = ["--geometry", "256x4x16", "--trace", str(trace_file), "--sample-interval", "40"]
    outs, reports = {}, {}
    for command, mode_flag in (("run", "--mode"), ("compare", "--modes")):
        csv_out, util_out = tmp_path / f"{command}.csv", tmp_path / f"{command}.util"
        json_out = tmp_path / f"{command}.json"
        rc = run_cli(command, *common, mode_flag, mode, "--out", str(csv_out),
                     "--util-out", str(util_out), "--json-out", str(json_out))
        assert rc == 0
        outs[command] = (csv_out.read_bytes(), util_out.read_bytes())
        reports[command] = json.loads(json_out.read_text())
    assert outs["run"] == outs["compare"]
    assert len(outs["run"][1].splitlines()) > 2
    # compare keys each report by <trace>/<mode>; run writes the report itself
    assert reports["compare"] == {f"noise/{mode}": reports["run"]}


def test_compare_rejects_two_traces_with_one_name(tmp_path, capsys):
    fixture = (FIXTURES / "cross_vm_dma.trace").read_text()
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "x.trace"
        path.write_text(fixture)
        paths += ["--trace", str(path)]
    csv_out = tmp_path / "cmp.csv"
    rc = run_cli("compare", "--geometry", "256x4x8", *paths, "--modes", "asmi",
                 "--out", str(csv_out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err and "asmi" in err, err
    assert not csv_out.exists()


def test_compare_rejects_a_modes_flag_naming_no_mode(tmp_path, capsys):
    csv_out = tmp_path / "cmp.csv"
    for modes in (",", " , ,"):
        rc = run_cli("compare", "--geometry", "256x4x8", "--trace",
                     str(FIXTURES / "cross_vm_dma.trace"), "--modes", modes, "--out", str(csv_out))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: compare needs at least one mode\n"
        assert captured.out == ""
        assert not csv_out.exists()


def test_compare_rejects_a_modes_config_entry_naming_no_mode(tmp_path, capsys):
    conf = tmp_path / "cmp.conf"
    json_out = tmp_path / "cmp.json"
    conf.write_text(
        "geometry = 256x4x8\n"
        f"trace = {FIXTURES / 'cross_vm_dma.trace'}\n"
        "modes = ,\n"
        f"json_out = {json_out}\n"
    )
    assert run_cli("compare", "--config", str(conf)) == 1
    assert capsys.readouterr().err == "error: compare needs at least one mode\n"
    assert not json_out.exists()
    # a flag that names a mode wins over the empty entry
    assert run_cli("compare", "--config", str(conf), "--modes", "asmi") == 0
    assert set(json.loads(json_out.read_text())) == {"cross_vm_dma/asmi"}


@pytest.mark.parametrize("modes", [None, "iommu,asmi"])
def test_compare_json_is_the_key_sorted_object_of_every_report(tmp_path, capsys, modes):
    # stems that sort apart from their argument order, one of them escaped in JSON
    paths = []
    for stem, fixture in zip(["zeta", 'q"\u00e9', "alpha"], sorted(FIXTURES.glob("*.trace"))):
        paths.append(tmp_path / f"{stem}.trace")
        paths[-1].write_bytes(fixture.read_bytes())
    json_out = tmp_path / "cmp.json"
    argv = ["compare", "--geometry", "256x4x8", "--json-out", str(json_out)]
    argv += [arg for path in paths for arg in ("--trace", str(path))]
    assert run_cli(*argv, *(["--modes", modes] if modes else [])) == 0
    result = compare([(path.stem, read_trace(str(path))) for path in paths],
                     modes.split(",") if modes else MODES, Geometry(256, 4, 8))
    payload = {f"{name}/{mode}": rep.to_dict() for (name, mode), rep in result.reports.items()}
    want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert json_out.read_bytes() == want.encode()
    assert '"q\\"\\u00e9/asmi"' in want and len(payload) == 3 * (2 if modes else len(MODES))


def test_util_out_quotes_a_trace_stem_as_the_csv_module_does(tmp_path):
    path = tmp_path / 'a,"b.trace'
    path.write_bytes((FIXTURES / "cross_vm_dma.trace").read_bytes())
    util_out = tmp_path / "util.csv"
    argv = ["compare", "--geometry", "256x4x8", "--trace", str(path), "--util-out", str(util_out)]
    assert run_cli(*argv) == 0
    result = compare([('a,"b', read_trace(str(path)))], MODES, Geometry(256, 4, 8))
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(UTIL_COLUMNS)
    writer.writerows([name, mode, *u] for (name, mode), rep in result.reports.items()
                     for u in rep.utilization)
    assert util_out.read_bytes() == want.getvalue().encode()
    assert '\n"a,""b",asmi,' in want.getvalue()


def test_attack_subcommand(tmp_path, capsys):
    path = tmp_path / "atk.trace"
    rc = run_cli("attack", "cross_vm_dma", "--geometry", "256x4x8", "--out", str(path))
    assert rc == 0
    assert capsys.readouterr().out.startswith("wrote 14 events")
    events = read_trace(str(path))
    assert len(events) == 14
    # without --out the trace goes to stdout
    rc = run_cli("attack", "cross_vm_dma", "--geometry", "256x4x8")
    assert rc == 0
    assert capsys.readouterr().out.startswith("# vmemsim trace\n")


def test_cost_override_changes_cycles(tmp_path, trace_file):
    reports = {}
    for tag, extra in {"base": [], "pricey": ["--cost", "pt_walk_level=100"]}.items():
        json_out = tmp_path / f"{tag}.json"
        rc = run_cli(
            "run",
            "--geometry", "256x4x16",
            "--trace", str(trace_file),
            "--mode", "nested",
            "--json-out", str(json_out),
            *extra,
        )
        assert rc == 0
        reports[tag] = json.loads(json_out.read_text())
    assert reports["pricey"]["total_cycles"] > reports["base"]["total_cycles"]


def test_config_file_supplies_settings(tmp_path, trace_file, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text(
        "geometry = 256x4x16\n"
        f"trace = {trace_file}\n"
        "mode = hyperwall\n"
        "sample_interval = 50\n"
    )
    assert run_cli("run", "--config", str(conf)) == 0
    assert "under hyperwall" in capsys.readouterr().out
    # flags win over config
    assert run_cli("run", "--config", str(conf), "--mode", "asmi") == 0
    assert "under asmi" in capsys.readouterr().out


def test_error_exit_codes(tmp_path, capsys):
    assert run_cli("run", "--trace", str(tmp_path / "missing.trace")) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.trace"
    bad.write_text("1 warp 0\n")
    assert run_cli("validate", "--trace", str(bad)) == 1

    # a byte that is not UTF-8, past the first read buffer so run has started replaying
    latin = tmp_path / "latin.trace"
    padding = b"# padding\n" * 2000
    latin.write_bytes((FIXTURES / "cross_vm_dma.trace").read_bytes() + padding + b"# caf\xe9\n")
    capsys.readouterr()
    for argv in (["run", "--geometry", "256x4x8"], ["compare", "--geometry", "256x4x8"],
                 ["validate"]):
        assert run_cli(*argv, "--trace", str(latin)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {latin}: not UTF-8 text"), err

    conf = tmp_path / "bad.conf"
    conf.write_text("colour = red\n")
    assert run_cli("run", "--config", str(conf)) == 1

    capsys.readouterr()
    good = FIXTURES / "cross_vm_dma.trace"
    for entry in ("sample_interval = abc", "iommu_levels = 2.5", "tlb_entries = -5",
                  "sample_interval = 0", "iommu_levels = 0"):
        conf.write_text(f"trace = {good}\n{entry}\n")
        assert run_cli("run", "--config", str(conf)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry.split()[0] in err, err

    workload = {"vm_count": "1", "events": "10", "demand": "4:0.2:0.5"}
    for key, value in (("events", "abc"), ("dma_rate", "lots")):
        entries = {**workload, key: value}
        conf.write_text("".join(f"workload.{k} = {v}\n" for k, v in entries.items()))
        assert run_cli("gen", "--config", str(conf)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: workload.{key} = '{value}' is not a valid "), err
    conf.write_text("".join(f"workload.{k} = {v}\n" for k, v in workload.items()))
    assert run_cli("gen", "--config", str(conf)) == 0     # the same file, well formed
    capsys.readouterr()
    assert run_cli("run", "--trace", str(good), "--sample-interval", "-3") == 1
    assert capsys.readouterr().err.startswith("error: ")

    for flags in (["--cost", "tlb_hit=-1"], ["--iommu-levels", "0"]):
        for mode in MODES:
            assert run_cli("run", "--trace", str(good), "--mode", mode, *flags) == 1
            assert capsys.readouterr().err.startswith("error: ")

    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--no-such-flag")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run_cli()                            # a subcommand is required


def test_a_byte_that_is_not_utf8_in_a_later_block_names_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(traceio, "BLOCK_SIZE", 1024)
    latin = tmp_path / "late.trace"
    padding = b"# padding\n" * 2000                 # about 20 blocks before the bad byte
    latin.write_bytes((FIXTURES / "cross_vm_dma.trace").read_bytes() + padding + b"# caf\xe9\n")
    for argv in (["run", "--geometry", "256x4x8"], ["compare", "--geometry", "256x4x8"],
                 ["validate"]):
        assert run_cli(*argv, "--trace", str(latin)) == 1
        assert capsys.readouterr().err == f"error: {latin}: not UTF-8 text (bytes e9)\n"


def test_run_without_trace_is_an_error(capsys):
    assert run_cli("run", "--mode", "asmi") == 1
    assert "run needs --trace" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["compare"], "compare needs at least one --trace"),
    (["gen", "--vms", "2"], "gen needs --vms and --events"),
    (["gen", "--vms", "2", "--events", "10"], "gen needs --demand"),
    (["gen", "--vms", "1", "--events", "10"], "gen needs --demand"),
])
def test_a_missing_required_setting_is_an_error(capsys, argv, message):
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_compare_of_a_header_only_trace_reports_zeros(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("# vmemsim trace\n")
    assert run_cli("compare", "--trace", str(empty)) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["empty", mode, *["0"] * 7, "0.0000", "0.0000"] for mode in MODES]


@pytest.mark.parametrize("mode", MODES)
def test_malformed_trace_names_its_seq_in_every_mode(tmp_path, capsys, mode):
    # run replays each event as it parses it, so the error at seq 2 wins over line 5's
    bad = tmp_path / "exit_first.trace"
    bad.write_text("# vmemsim trace\n1 create_vm 0 1\n2 exit 0\n3 alloc 0 1\n4 read 0 xyz\n")
    assert run_cli("run", "--trace", str(bad), "--mode", mode) == 1
    cause = ("exit while hypervisor is current on cpu 0" if mode == "asmi"
             else "exit requires a guest to be current")
    assert capsys.readouterr().err == f"error: event seq 2: {cause}\n"
    assert run_cli("compare", "--trace", str(bad), "--modes", mode) == 1
    assert capsys.readouterr().err == "error: line 5: field vaddr must be an integer, got 'xyz'\n"


@pytest.mark.parametrize("sampling", [(), ("--sample-interval", "1000000")])
def test_run_memory_does_not_grow_with_trace_length(tmp_path, capsys, sampling):
    # a sample interval longer than the trace holds no more events than the default
    peaks = []
    for events in (2_000, 20_000):
        path = tmp_path / f"{events}.trace"
        assert run_cli("gen", "--geometry", "256x4x16", "--seed", "3", "--vms", "2",
                       "--events", str(events), "--demand", "4:0.2:0.5",
                       "--out", str(path)) == 0
        tracemalloc.start()
        try:
            assert run_cli("run", "--geometry", "256x4x16", "--trace", str(path),
                           *sampling) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_run_reports_a_malformed_last_line_and_writes_nothing(tmp_path, capsys):
    lines = (FIXTURES / "cross_vm_dma.trace").read_text().splitlines()
    bad = tmp_path / "tail.trace"
    bad.write_text("\n".join(lines + ["99 read 0 xyz"]) + "\n")
    csv_out, json_out = tmp_path / "run.csv", tmp_path / "run.json"
    assert run_cli("run", "--geometry", "256x4x8", "--trace", str(bad),
                   "--out", str(csv_out), "--json-out", str(json_out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: line {len(lines) + 1}: field vaddr must be an integer, got 'xyz'\n"
    assert not csv_out.exists() and not json_out.exists()


def test_run_reports_the_first_problem_in_file_order(tmp_path, capsys):
    bad = tmp_path / "both.trace"
    bad.write_text("1 create_vm 0 1\n2 exit 0\nbroken\n")
    assert run_cli("run", "--trace", str(bad)) == 1
    assert capsys.readouterr().err.startswith("error: event seq 2: ")
    # validate and compare parse the whole file before any replay
    for argv in (["validate"], ["compare"]):
        assert run_cli(*argv, "--trace", str(bad)) == 1
        assert capsys.readouterr().err.startswith("error: line 3: ")


def test_module_runs_as_a_script():
    env = dict(os.environ, PYTHONPATH=str(Path(vmemsim.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "vmemsim.cli", "validate",
         "--trace", str(FIXTURES / "cross_vm_dma.trace")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "14 events ok" in done.stdout


GEN_ARGS = ("--geometry", "256x4x16", "--seed", "5", "--vms", "2", "--events", "300",
            "--demand", "4:0.2:0.5")


# an empty flag value is the value given, not a missing flag: no fallback to the
# config file or the default, and no silently skipped output file
EMPTY_FLAGS = [
    ("run", "--mode", "error: unknown mode ''"),
    ("run", "--geometry", "error: geometry must be PAGExPAGES_PER_SEGxSEGS, got ''"),
    ("run", "--out", "error: "),
    ("run", "--util-out", "error: "),
    ("run", "--json-out", "error: "),
    ("run", "--trace", "error: "),
    ("run", "--config", "error: cannot read config "),
    ("compare", "--modes", "error: compare needs at least one mode"),
    ("compare", "--geometry", "error: geometry must be PAGExPAGES_PER_SEGxSEGS, got ''"),
    ("compare", "--out", "error: "),
    ("compare", "--json-out", "error: "),
    ("gen", "--geometry", "error: geometry must be PAGExPAGES_PER_SEGxSEGS, got ''"),
    ("gen", "--out", "error: "),
]


@pytest.mark.parametrize("command, flag, message", EMPTY_FLAGS,
                         ids=[f"{command} {flag}" for command, flag, _ in EMPTY_FLAGS])
def test_an_empty_flag_value_is_an_error(tmp_path, capsys, command, flag, message):
    conf = tmp_path / "settings.conf"
    conf.write_text("mode = nested\nmodes = asmi\ngeometry = 256x4x8\n")
    if command == "gen":
        argv = ["gen", *GEN_ARGS]
    else:
        argv = [command, "--config", str(conf), "--trace", str(FIXTURES / "cross_vm_dma.trace")]
    assert run_cli(*argv, flag, "") == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["settings.conf"]


# which package modules (and whether argparse and json) each command loads, in a
# fresh interpreter: -E -S keep environment and site hooks out, -B writes no bytecode
# into the package; {tmp}/cost.conf sets a price, which gen and attack read
# without the engine
NO_ENGINE = ("argparse", "vmemsim.engine", "vmemsim.promem", "vmemsim.baselines")


@pytest.mark.parametrize("argv, absent, present", [
    (["gen", *GEN_ARGS, "--out", "{tmp}/noise.trace"], NO_ENGINE, ()),
    (["gen", *GEN_ARGS, "--config", "{tmp}/cost.conf", "--out", "{tmp}/noise.trace"],
     NO_ENGINE, ()),
    (["attack", "cross_vm_dma"], NO_ENGINE, ()),
    (["attack", "cross_vm_dma", "--config", "{tmp}/cost.conf"], NO_ENGINE, ()),
    (["validate", "--trace", str(FIXTURES / "cross_vm_dma.trace")],
     (*NO_ENGINE, "vmemsim.workload"), ()),
    (["run", "--geometry", "256x4x8", "--trace", str(FIXTURES / "cross_vm_dma.trace")],
     ("argparse", "vmemsim.baselines", "vmemsim.workload"), ("vmemsim.engine",)),
    (["run", "--mode", "asmi", "--geometry", "256x4x8",
      "--trace", str(FIXTURES / "cross_vm_dma.trace")],
     ("argparse", "json", "vmemsim.baselines", "vmemsim.workload"), ("vmemsim.engine",)),
    (["run", "--mode", "nested", "--geometry", "256x4x8",
      "--trace", str(FIXTURES / "cross_vm_dma.trace")],
     ("argparse", "vmemsim.workload"), ("vmemsim.baselines",)),
    (["compare", "--geometry", "256x4x8", "--trace", str(FIXTURES / "cross_vm_dma.trace")],
     ("argparse", "vmemsim.workload"), ("vmemsim.baselines",)),
], ids=["gen", "gen --config", "attack", "attack --config", "validate", "run", "run asmi",
        "run nested", "compare"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, absent, present):
    (tmp_path / "cost.conf").write_text("cost.tlb_hit = 3\n")
    root = str(Path(vmemsim.__file__).resolve().parents[1])
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        f"import sys; sys.path.insert(0, {root!r}); from vmemsim.cli import main; "
        f"rc = main({argv!r}); "
        "print(rc, sorted(m for m in sys.modules "
        "if m.startswith('vmemsim') or m in ('argparse', 'json')), file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-E", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=120)
    rc, loaded = done.stderr.strip().split(" ", 1)
    assert rc == "0", done.stderr
    assert "vmemsim.cli" in loaded
    assert [name for name in absent if repr(name) in loaded] == []
    assert [name for name in present if repr(name) not in loaded] == []


# ---------------------------------------------------------------------------
# the fast path reads what argparse reads, and leaves argparse everything else
# ---------------------------------------------------------------------------


def argparse_args(argv):
    """argparse's namespace of `argv` as a dict, or None where it exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


VALUES = st.text(alphabet="abx/._0123456789", max_size=6)  # a value that cannot read as a flag


@st.composite
def well_formed_argvs(draw):
    """A command, then flags of its table in any order, with valid values, and its positional."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command][1]
    groups = []
    for names, kw in draw(st.lists(st.sampled_from(flags), max_size=8)):
        if not names[0].startswith("-"):
            continue
        group = [draw(st.sampled_from(names))]
        if kw.get("action") not in ("count", "store_true"):
            if "choices" in kw:
                group.append(draw(st.sampled_from(kw["choices"])))
            elif kw.get("type") is int:
                group.append(str(draw(st.integers(0, 10 ** 6))))
            elif kw.get("type") is float:
                group.append(repr(draw(st.floats(0, 1))))
            else:
                group.append(draw(VALUES))
        groups.append(group)
    for names, kw in flags:
        if not names[0].startswith("-"):
            groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(kw["choices"]))])
        elif kw.get("required"):
            groups.append([names[0], draw(VALUES)])
    return [command, *(token for group in groups for token in group)]


OPTION_STRINGS = sorted({name for _, flags, _ in COMMANDS.values()
                         for names, _ in flags for name in names if name.startswith("-")})
# tokens argparse reads otherwise than as a full flag name or a plain value
ODD_TOKENS = ["-h", "--help", "--geom", "--tr", "--geometry=256x4x8", "-vv", "--", "-3", "-x",
              "", "x", "3", "0.5", "lru", "flush", "raw", "cross_vm_dma", "nope", "run", "gen"]


@settings(max_examples=300, deadline=None)
@given(well_formed_argvs())
def test_the_fast_path_reads_a_well_formed_command_as_argparse_does(argv):
    fast = fast_args(argv)
    assert fast is not None, argv
    assert vars(fast) == argparse_args(argv)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([*COMMANDS, "frob", "-h"]),
       st.lists(st.sampled_from(OPTION_STRINGS + ODD_TOKENS), max_size=6))
def test_the_fast_path_accepts_nothing_argparse_would_not_read_alike(command, tokens):
    argv = [command, *tokens]
    fast = fast_args(argv)
    if fast is not None:
        assert vars(fast) == argparse_args(argv), argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["run", "--help"], ["run", "--bogus"], ["run", "--trace"],
    ["gen", "--seed", "x"], ["run", "--tlb-policy", "lru"], ["run", "--geometry=256x4x8"],
    ["run", "--geom", "256x4x8"], ["run", "--sample-interval", "-3"], ["attack"],
    ["attack", "nope"], ["validate"], ["run", "-vv"], ["run", "x"],
])
def test_each_malformed_or_help_argv_goes_to_argparse(argv):
    assert fast_args(argv) is None


def test_main_reads_sys_argv_without_argparse(monkeypatch, capsys):
    def no_parser():
        raise AssertionError("argparse built for a well-formed command line")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setattr(sys, "argv", ["vmemsim", "validate", "--trace",
                                      str(FIXTURES / "cross_vm_dma.trace")])
    assert main() == 0
    assert "14 events ok" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run and compare open their output files before any replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("bad", ["--out", "--util-out", "--json-out"])
def test_an_unwritable_output_fails_before_the_replay(tmp_path, capsys, command, bad):
    outputs = {flag: str(tmp_path / f"out{flag}") for flag in ("--out", "--util-out", "--json-out")}
    outputs[bad] = str(tmp_path / "missing" / "x.csv")
    argv = [command, "--geometry", "256x4x8", "--trace", str(FIXTURES / "cross_vm_dma.trace")]
    assert run_cli(*argv, *(token for pair in outputs.items() for token in pair)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: {outputs[bad]!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_failed_replay_leaves_no_output_file(tmp_path, capsys, command):
    bad = tmp_path / "exit_first.trace"
    bad.write_text("# vmemsim trace\n1 create_vm 0 1\n2 exit 0\n")
    kept = tmp_path / "kept.csv"
    kept.write_text("an older run's rows\n")
    assert run_cli(command, "--trace", str(bad), "--out", str(kept),
                   "--util-out", str(tmp_path / "util.csv"),
                   "--json-out", str(tmp_path / "report.json")) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: event seq 2: "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exit_first.trace"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_output_that_names_the_trace_or_another_output_is_an_error(tmp_path, capsys, command):
    trace = tmp_path / "in.trace"
    trace.write_bytes((FIXTURES / "cross_vm_dma.trace").read_bytes())
    argv = [command, "--geometry", "256x4x8", "--trace", str(trace)]
    assert run_cli(*argv, "--json-out", str(tmp_path / "." / "in.trace")) == 1
    assert capsys.readouterr().err.startswith("error: json_out names the same file as trace: ")
    assert trace.read_bytes() == (FIXTURES / "cross_vm_dma.trace").read_bytes()
    same = str(tmp_path / "out.csv")
    assert run_cli(*argv, "--out", same, "--util-out", same) == 1
    assert capsys.readouterr() == ("", f"error: util_out names the same file as out: {same!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.trace"]
