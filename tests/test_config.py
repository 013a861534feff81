"""Config file parsing and the small value parsers the CLI shares."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vmemsim
from vmemsim import config
from vmemsim.cli import main

from vmemsim.config import (
    load_config,
    parse_config_text,
    parse_cost_overrides,
    parse_demand,
    parse_geometry,
)
from vmemsim.core import Geometry
from vmemsim.errors import ConfigError
from vmemsim.workload import DemandProfile

GOOD = """\
# simulation shape
geometry = 4096x512x64
mode     = asmi
seed     = 7

workload.vm_count = 3
workload.demand   = 8:0.1:0.6
cost.mpt_check    = 9
"""


def test_parse_config_text():
    settings = parse_config_text(GOOD)
    assert settings == {
        "geometry": "4096x512x64",
        "mode": "asmi",
        "seed": "7",
        "workload.vm_count": "3",
        "workload.demand": "8:0.1:0.6",
        "cost.mpt_check": "9",
    }


@pytest.mark.parametrize(
    "text,needle",
    [
        ("colour = red", "unknown key 'colour'"),
        ("cost.bribe = 4", "unknown cost key 'cost.bribe'"),
        ("workload.tempo = 4", "unknown workload key 'workload.tempo'"),
        ("seed = 1\nseed = 2", "line 2: duplicate key 'seed'"),
        ("seed =", "has no value"),
        ("just some words", "expected `key = value`"),
    ],
)
def test_parse_config_rejections(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert needle in str(exc.value)


def test_keys_are_case_insensitive():
    assert parse_config_text("SEED = 4") == {"seed": "4"}


def test_load_config(tmp_path):
    path = tmp_path / "sim.conf"
    path.write_text(GOOD)
    assert load_config(str(path)) == parse_config_text(GOOD)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.conf"))


def latin_config(tmp_path):
    """A config file whose comment holds a byte that is not UTF-8."""
    path = tmp_path / "bad.conf"
    path.write_bytes(b"geometry = 256x4x8\n# caf\xe9\n")
    return path


def test_load_config_names_a_file_that_is_not_utf8(tmp_path):
    path = latin_config(tmp_path)
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: not UTF-8 text (bytes e9)"


def test_a_config_with_a_byte_order_mark_reads_its_first_key(tmp_path):
    path = tmp_path / "bom.conf"
    path.write_bytes(b"\xef\xbb\xbfgeometry = 256x4x8\nseed = 3\n")
    assert load_config(str(path)) == {"geometry": "256x4x8", "seed": "3"}
    path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode())
    assert load_config(str(path)) == parse_config_text(GOOD)


@pytest.mark.parametrize("command", ["run", "compare", "gen", "attack cross_vm_dma"])
def test_a_config_that_is_not_utf8_is_an_error_line(tmp_path, capsys, command):
    path = latin_config(tmp_path)
    assert main([*command.split(), "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: not UTF-8 text (bytes e9)\n"
    assert captured.out == ""


def test_a_config_that_is_not_utf8_ends_the_process_without_a_traceback(tmp_path):
    path = latin_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(vmemsim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "vmemsim.cli", "run", "--config", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {path}: not UTF-8 text (bytes e9)\n"


def test_parse_geometry():
    geom = parse_geometry("4096x512x64")
    assert geom == Geometry(4096, 512, 64)
    assert parse_geometry("256 x 4 x 8") == Geometry(256, 4, 8)
    for bad in ("4096x512", "4096x512x64x2", "axbxc", "100x4x8"):
        with pytest.raises(ConfigError):
            parse_geometry(bad)


def test_parse_geometry_reports_only_a_geometry_error_as_a_config_error(monkeypatch):
    def broken(*args):
        raise TypeError("a programming error")

    monkeypatch.setattr(config, "Geometry", broken)
    with pytest.raises(TypeError, match="a programming error"):
        parse_geometry("4096x512x64")


def test_parse_demand_fan_out():
    one = parse_demand("8:0.1:0.6", 3)
    assert one == (DemandProfile(8, 0.1, 0.6),) * 3
    two = parse_demand("8:0.1:0.6, 2:0.0:0.9", 2)
    assert two[1] == DemandProfile(2, 0.0, 0.9)
    with pytest.raises(ConfigError):
        parse_demand("8:0.1:0.6,2:0.0:0.9", 3)      # 2 triples, 3 VMs
    with pytest.raises(ConfigError):
        parse_demand("8:0.1", 1)
    with pytest.raises(ConfigError):
        parse_demand("ws:0.1:0.6", 1)


def test_parse_cost_overrides():
    assert parse_cost_overrides(["mpt_check=9", "tlb_hit = 2"]) == {
        "mpt_check": 9,
        "tlb_hit": 2,
    }
    assert parse_cost_overrides([]) == {}
    for bad in (["mpt_check"], ["warp_speed=9"], ["mpt_check=fast"]):
        with pytest.raises(ConfigError):
            parse_cost_overrides(bad)
