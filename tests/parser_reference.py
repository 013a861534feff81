"""Reference trace-line parser and writer: the field-by-field loops, kept to check the fast ones.

`parse_line` here checks each rule of the format in turn and fills
TraceEvent's arguments one field at a time.  `vmemsim.traceio` builds a
well-formed line's event in one call to a builder compiled per kind
instead, and must return the same event, or raise the same
TraceFormatError, for every line (its parse loop, `_events`) and every whole text
(`loads`).  Likewise `format_event` here writes a line one field at a
time, and `vmemsim.traceio.dumps`, one call to a formatter compiled per
kind, must write the same line or raise the same error for every event.
This module imports nothing from `vmemsim.traceio`.
"""

from __future__ import annotations

from vmemsim.errors import TraceFormatError
from vmemsim.events import EVENT_FIELDS, FIELD_ORDER, PAGE_MODES, TraceEvent

_MODE_TOKENS = set(PAGE_MODES)


def _direction(token: str) -> bool:
    if token == "w":
        return True
    if token == "r":
        return False
    raise ValueError("direction must be `r` or `w`")


def _mode(token: str) -> str:
    if token not in _MODE_TOKENS:
        raise ValueError(
            f"unknown protection mode {token!r}; known: {', '.join(sorted(_MODE_TOKENS))}"
        )
    return token


_CONVERTERS = {"write": _direction, "mode": _mode}

#: TraceEvent's constructor arguments, in positional order
_ARGUMENTS = FIELD_ORDER
_SEQ, _KIND, _CPU = (_ARGUMENTS.index(name) for name in ("seq", "kind", "cpu"))

#: kind token -> (kind, field names, ((argument position, field name, converter), ...))
_PARSE_TABLE = {
    kind: (
        kind,
        names,
        tuple((_ARGUMENTS.index(name), name, _CONVERTERS.get(name, int)) for name in names),
    )
    for kind, names in EVENT_FIELDS.items()
}


def parse_line(line: str, lineno: int = 0) -> TraceEvent | None:
    """Parse one line; returns None for blanks and comments."""
    tokens = line.split()
    if not tokens or tokens[0].startswith("#"):
        return None
    if len(tokens) < 3:
        raise TraceFormatError(f"line {lineno}: expected `seq kind cpu ...`")
    entry = _PARSE_TABLE.get(tokens[1])
    if entry is None:
        raise TraceFormatError(f"line {lineno}: unknown event kind {tokens[1]!r}")
    kind, names, slots = entry
    if len(tokens) != 3 + len(names):
        raise TraceFormatError(
            f"line {lineno}: {kind} takes {len(names)} fields "
            f"({' '.join(names) or 'none'}), got {len(tokens) - 3}"
        )
    args = [None] * len(_ARGUMENTS)
    try:
        args[_SEQ] = int(tokens[0])
        args[_CPU] = int(tokens[2])
    except ValueError:
        raise TraceFormatError(f"line {lineno}: seq and cpu must be integers") from None
    args[_KIND] = kind
    for (position, name, convert), token in zip(slots, tokens[3:]):
        try:
            args[position] = convert(token)
        except ValueError as exc:
            reason = f"field {name} must be an integer, got {token!r}" if convert is int else str(exc)
            raise TraceFormatError(f"line {lineno}: {reason}") from None
    return TraceEvent(*args)


def loads(text: str) -> list[TraceEvent]:
    """Every event of `text`, numbered by `str.splitlines` lines."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = parse_line(line, lineno)
        if ev is not None:
            events.append(ev)
    return events


def format_event(ev: TraceEvent) -> str:
    """The line of `ev`: `seq kind cpu` and each of the kind's fields, in order."""
    parts = [str(ev.seq), ev.kind, str(ev.cpu)]
    for name in EVENT_FIELDS[ev.kind]:
        value = getattr(ev, name)
        if value is None:
            raise TraceFormatError(f"event seq {ev.seq}: missing field {name!r}")
        if name == "write":
            parts.append("w" if value else "r")
        else:
            parts.append(str(value))
    return " ".join(parts)
