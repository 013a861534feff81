"""Plain-text trace format.

One event per line: `seq kind cpu field...` with fields in the fixed
order EVENT_FIELDS defines for the kind.  Integers are decimal, the DMA
direction field is `r` or `w`, and hw_set takes a protection-mode token
(hyp_only, hyp_dma, hyp_denied, locked).  Blank lines and lines starting
with `#` are ignored.  Round-trips are exact.

`parse_lines` turns text into events lazily, so a caller that replays
a file as it reads it (`vmemsim run`) holds one event at a time; `loads`
collects them into a list.  Trace files are UTF-8 text, read by
`read_blocks` in blocks of BLOCK_SIZE characters, each cut after its last
newline, so `run` and `read_trace` hold one block's text and lines at a
time, never the whole file's.

Both directions take one step per well-formed line.  The parse loop
splits a line, looks up its kind and calls a builder compiled per kind,
which makes the kind's event layout (`events.LAYOUT_OF`) in one frame; a
formatter compiled per kind writes a line in one call.  `dumps` still
joins the whole trace into one string, so `vmemsim gen` holds every line
in memory.

The event kinds, their fields, `TraceEvent`, `PageMode` and
`DmaRequest`'s bounds come from `events`, which imports neither the
engine nor the baselines, so `vmemsim gen`, `attack` and `validate` never
load them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain
from typing import TextIO

from .errors import OutOfRangeError, TraceFormatError
from .events import EVENT_FIELDS, LAYOUT_OF, DmaRequest, EventKind, PageMode, TraceEvent

_MODE_TOKENS = {mode.value for mode in PageMode}


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


def _builder(kind: EventKind, names: tuple[str, ...]):
    """The function that builds the event of a well-formed `kind` line from its tokens.

    It is compiled once, as `def build(t)` that makes an instance of the
    kind's layout with `object.__new__` and stores `int(t[0])`, `kind`,
    `int(t[2])` and each field's converted token in its slot, so a line
    costs one frame and no loop over fields.
    """
    source = "def build(t):\n    ev = new(layout)\n"
    for i, name in enumerate(("seq", "kind", "cpu") + names):
        value = "kind" if name == "kind" else f"{_CONVERTERS.get(name, int).__name__}(t[{i}])"
        source += f"    ev.{name} = {value}\n"
    source += "    return ev\n"
    scope = {"new": object.__new__, "layout": LAYOUT_OF[kind], "kind": kind,
             "_direction": _direction, "_mode": _mode}
    exec(source, scope)
    return scope["build"]


#: kind token -> (tokens per line, builder, field names)
_PARSE_TABLE = {
    kind.value: (3 + len(names), _builder(kind, names), names)
    for kind, names in EVENT_FIELDS.items()
}


def _missing(ev: TraceEvent) -> None:
    """Raise the TraceFormatError that names `ev`'s first required field left None."""
    name = next(name for name in EVENT_FIELDS[ev.kind] if getattr(ev, name) is None)
    raise TraceFormatError(f"event seq {ev.seq}: missing field {name!r}")


def _formatter(kind: EventKind, names: tuple[str, ...]):
    """The function that writes the line of a `kind` event.

    It is compiled once, as `def fmt(ev)` that checks each field against
    None and returns `f"{ev.seq!s} kind {ev.cpu!s} {ev.vm!s} ..."`, with
    `write` spelled `r` or `w`, so a line costs one call and no loop over
    fields.
    """
    parts = ["{ev.seq!s}", kind.value, "{ev.cpu!s}"]
    parts += ["{'w' if ev.write else 'r'}" if name == "write" else f"{{ev.{name}!s}}"
              for name in names]
    source = "def fmt(ev):\n"
    if names:
        source += f"    if {' or '.join(f'ev.{name} is None' for name in names)}:\n"
        source += "        _missing(ev)\n"
    source += f'    return f"{" ".join(parts)}"\n'
    scope = {"_missing": _missing}
    exec(source, scope)
    return scope["fmt"]


#: kind token -> the function that writes a line of that kind; looked up by
#: the member's `_value_` attribute, which costs no Enum hash or property call
_FORMAT_TABLE = {kind.value: _formatter(kind, names) for kind, names in EVENT_FIELDS.items()}


def _diagnose(tokens: list[str], lineno: int) -> None:
    """None for a blank or comment line; else raise the line's TraceFormatError.

    The parser sends here only the lines its one-step build rejects; the
    checks run in the order their errors take precedence.
    """
    if not tokens or tokens[0].startswith("#"):
        return None
    if len(tokens) < 3:
        raise TraceFormatError(f"line {lineno}: expected `seq kind cpu ...`")
    entry = _PARSE_TABLE.get(tokens[1])
    if entry is None:
        raise TraceFormatError(f"line {lineno}: unknown event kind {tokens[1]!r}")
    width, _, names = entry
    if len(tokens) != width:
        raise TraceFormatError(
            f"line {lineno}: {tokens[1]} takes {len(names)} fields "
            f"({' '.join(names) or 'none'}), got {len(tokens) - 3}"
        )
    try:
        int(tokens[0]), int(tokens[2])
    except ValueError:
        raise TraceFormatError(f"line {lineno}: seq and cpu must be integers") from None
    for name, token in zip(names, tokens[3:]):
        convert = _CONVERTERS.get(name, int)
        try:
            convert(token)
        except ValueError as exc:
            reason = f"field {name} must be an integer, got {token!r}" if convert is int else str(exc)
            raise TraceFormatError(f"line {lineno}: {reason}") from None
    raise AssertionError(f"line {lineno} is well-formed but did not build")


def parse_lines(chunks: Iterable[str]) -> Iterator[TraceEvent]:
    """The events of the text in `chunks`, parsed one at a time as they are read.

    Each chunk is whole lines: all of a trace's text, one line of its file
    or one block of `read_blocks`.  Lines split where `str.splitlines`
    splits and are numbered from 1, so a file read in pieces parses exactly
    as its whole text does.
    """
    return _events(chain.from_iterable(map(str.splitlines, chunks)), 1)


def _events(lines: Iterable[str], lineno: int) -> Iterator[TraceEvent]:
    """The events of `lines`, the first numbered `lineno`: the parser's one fast path.

    A well-formed line costs one split, one table lookup, one width check
    and its builder's frame, all inline here; only a line the build
    rejects goes to `_diagnose`.
    """
    table = _PARSE_TABLE
    for lineno, line in enumerate(lines, lineno):
        tokens = line.split()
        try:
            width, build, _ = table[tokens[1]]
            ev = build(tokens) if len(tokens) == width else None
        except (IndexError, KeyError, ValueError):
            ev = None
        if ev is None:
            _diagnose(tokens, lineno)
        else:
            yield ev


def dumps(events: list[TraceEvent]) -> str:
    lines = ["# vmemsim trace"]
    lines += [_FORMAT_TABLE[ev.kind._value_](ev) for ev in events]
    return "\n".join(lines) + "\n"


def loads(text: str) -> list[TraceEvent]:
    return list(parse_lines([text]))


#: characters `read_blocks` reads at a time
BLOCK_SIZE = 1 << 16


def read_blocks(fh: TextIO) -> Iterator[str]:
    """The text of `fh` in blocks of whole lines, each cut after its last newline.

    A cut after a newline is a line break wherever `str.splitlines` would
    also split, so `parse_lines` numbers and splits the lines of the blocks
    as it would the whole text.  A line longer than a block is joined up
    from the blocks it spans; the text after the file's last newline comes
    last.
    """
    head: list[str] = []        # the start of a line that runs past the blocks read so far
    while block := fh.read(BLOCK_SIZE):
        cut = block.rfind("\n") + 1
        if cut:
            head.append(block[:cut])
            yield "".join(head)
            head = [block[cut:]]
        else:
            head.append(block)
    tail = "".join(head)
    if tail:
        yield tail


@contextmanager
def open_trace(path: str) -> Iterator[TextIO]:
    """The trace file at `path`, open as UTF-8 text until the block ends.

    A byte that is not UTF-8, met while the block reads the file, raises
    TraceFormatError naming `path`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.end]
            raise TraceFormatError(f"{path}: not UTF-8 text (bytes {bad.hex(' ')})") from None


def write_trace(path: str, events: list[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(events))


def read_trace(path: str) -> list[TraceEvent]:
    with open_trace(path) as fh:
        return list(parse_lines(read_blocks(fh)))


def validate(events: list[TraceEvent]) -> None:
    """Static checks of a trace, minus mode semantics, stricter than a replay:
    `run` accepts a negative cpu, gpt_write vpage or target, or pswitch vasid.
    """
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
