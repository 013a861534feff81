"""Flat `key = value` configuration files.

Full-line comments start with `#`; blank lines are ignored.  Unknown keys
are rejected so a typo cannot silently fall back to a default.  Values
stay strings here; the CLI casts them when it merges config with flags.
A `cost.*` key is checked against `CostModel`'s fields, which `core`
defines, so reading one loads no engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import CostModel, Geometry
from .errors import ConfigError

if TYPE_CHECKING:
    from .workload import DemandProfile

TOP_LEVEL_KEYS = frozenset(
    {
        "geometry",
        "mode",
        "modes",
        "seed",
        "sample_interval",
        "tlb_policy",
        "tlb_entries",
        "iommu_levels",
        "dma_policy",
        "trace",
        "out",
        "util_out",
        "json_out",
        "verbosity",
    }
)

WORKLOAD_KEYS = frozenset({"vm_count", "events", "demand", "dma_rate", "switch_rate"})


def parse_config_text(text: str) -> dict[str, str]:
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key.startswith("cost."):
            if key[len("cost."):] not in CostModel._fields:
                raise ConfigError(f"line {lineno}: unknown cost key {key!r}")
        elif key.startswith("workload."):
            if key[len("workload."):] not in WORKLOAD_KEYS:
                raise ConfigError(f"line {lineno}: unknown workload key {key!r}")
        elif key not in TOP_LEVEL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        if key in settings:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        settings[key] = value
    return settings


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise ConfigError(f"{path}: not UTF-8 text (bytes {bad.hex(' ')})") from None


def parse_geometry(token: str) -> Geometry:
    """`page_size x pages_per_segment x total_segments`, e.g. 4096x512x64."""
    parts = token.lower().replace(" ", "").split("x")
    if len(parts) != 3:
        raise ConfigError(f"geometry must be PAGExPAGES_PER_SEGxSEGS, got {token!r}")
    try:
        page, pps, tseg = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"geometry components must be integers, got {token!r}") from None
    try:
        return Geometry(page, pps, tseg)
    except Exception as exc:
        raise ConfigError(str(exc)) from None


def parse_demand(token: str, vm_count: int) -> tuple[DemandProfile, ...]:
    """`ws:churn:locality[,ws:churn:locality...]`; one triple fans out to all VMs."""
    from .workload import DemandProfile

    profiles = []
    for part in token.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ConfigError(f"demand triple must be ws:churn:locality, got {part!r}")
        try:
            profiles.append(DemandProfile(int(bits[0]), float(bits[1]), float(bits[2])))
        except ValueError:
            raise ConfigError(f"bad demand triple {part!r}") from None
    if len(profiles) == 1 and vm_count > 1:
        profiles = profiles * vm_count
    if len(profiles) != vm_count:
        raise ConfigError(
            f"demand lists {len(profiles)} profiles for {vm_count} VMs"
        )
    return tuple(profiles)


def parse_cost_overrides(pairs: list[str]) -> dict[str, int]:
    """`key=value` items from --cost flags or cost.* config keys."""
    overrides: dict[str, int] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or key not in CostModel._fields:
            raise ConfigError(f"cost override must be KEY=CYCLES with a known key, got {pair!r}")
        try:
            overrides[key] = int(value.strip())
        except ValueError:
            raise ConfigError(f"cost override {pair!r} needs an integer value") from None
    return overrides
