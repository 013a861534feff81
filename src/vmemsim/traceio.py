"""Plain-text trace format.

One event per line: `seq kind cpu field...` with fields in the fixed
order EVENT_FIELDS defines for the kind.  Integers are decimal, the DMA
direction field is `r` or `w`, and hw_set takes a protection-mode token
(hyp_only, hyp_dma, hyp_denied, locked).  Blank lines and lines starting
with `#` are ignored.  Round-trips are exact.
"""

from __future__ import annotations

from .baselines import DmaRequest, PageMode
from .engine import EVENT_FIELDS, EventKind, TraceEvent
from .errors import OutOfRangeError, TraceFormatError

_KIND_BY_TOKEN = {kind.value: kind for kind in EventKind}
_MODE_TOKENS = {mode.value for mode in PageMode}


def format_event(ev: TraceEvent) -> str:
    parts = [str(ev.seq), ev.kind.value, str(ev.cpu)]
    for name in EVENT_FIELDS[ev.kind]:
        value = getattr(ev, name)
        if value is None:
            raise TraceFormatError(f"event seq {ev.seq}: missing field {name!r}")
        if name == "write":
            parts.append("w" if value else "r")
        else:
            parts.append(str(value))
    return " ".join(parts)


def parse_line(line: str, lineno: int = 0) -> TraceEvent | None:
    """Parse one line; returns None for blanks and comments."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    tokens = text.split()
    if len(tokens) < 3:
        raise TraceFormatError(f"line {lineno}: expected `seq kind cpu ...`")
    kind = _KIND_BY_TOKEN.get(tokens[1])
    if kind is None:
        raise TraceFormatError(f"line {lineno}: unknown event kind {tokens[1]!r}")
    names = EVENT_FIELDS[kind]
    if len(tokens) != 3 + len(names):
        raise TraceFormatError(
            f"line {lineno}: {kind.value} takes {len(names)} fields "
            f"({' '.join(names) or 'none'}), got {len(tokens) - 3}"
        )
    fields: dict[str, object] = {}
    try:
        fields["seq"] = int(tokens[0])
        fields["cpu"] = int(tokens[2])
    except ValueError:
        raise TraceFormatError(f"line {lineno}: seq and cpu must be integers") from None
    for name, token in zip(names, tokens[3:]):
        if name == "write":
            if token not in ("r", "w"):
                raise TraceFormatError(f"line {lineno}: direction must be `r` or `w`")
            fields[name] = token == "w"
        elif name == "mode":
            if token not in _MODE_TOKENS:
                raise TraceFormatError(
                    f"line {lineno}: unknown protection mode {token!r}; "
                    f"known: {', '.join(sorted(_MODE_TOKENS))}"
                )
            fields[name] = token
        else:
            try:
                fields[name] = int(token)
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: field {name} must be an integer, got {token!r}"
                ) from None
    return TraceEvent(kind=kind, **fields)


def dumps(events: list[TraceEvent]) -> str:
    lines = ["# vmemsim trace"]
    lines += [format_event(ev) for ev in events]
    return "\n".join(lines) + "\n"


def loads(text: str) -> list[TraceEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = parse_line(line, lineno)
        if ev is not None:
            events.append(ev)
    return events


def write_trace(path: str, events: list[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(events))


def read_trace(path: str) -> list[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def validate(events: list[TraceEvent]) -> None:
    """Static checks an engine run would also catch, minus mode semantics."""
    last_seq = None
    for ev in events:
        if last_seq is not None and ev.seq <= last_seq:
            raise TraceFormatError(
                f"event seq {ev.seq} is not greater than its predecessor {last_seq}"
            )
        last_seq = ev.seq
        if ev.cpu < 0:
            raise TraceFormatError(f"event seq {ev.seq}: cpu must be >= 0")
        for name in EVENT_FIELDS[ev.kind]:
            value = getattr(ev, name)
            if value is None:
                raise TraceFormatError(f"event seq {ev.seq}: missing field {name!r}")
            if isinstance(value, int) and not isinstance(value, bool) and value < 0:
                raise TraceFormatError(
                    f"event seq {ev.seq}: field {name} must be >= 0, got {value}"
                )
        if "bus" in EVENT_FIELDS[ev.kind]:
            try:
                DmaRequest(ev.bus, ev.device, ev.function, 0, False)
            except OutOfRangeError as exc:
                raise TraceFormatError(f"event seq {ev.seq}: {exc}") from None
