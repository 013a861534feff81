"""Plain-text trace format.

One event per line: `seq kind cpu field...` with fields in the fixed
order EVENT_FIELDS defines for the kind.  Integers are decimal, the DMA
direction field is `r` or `w`, and hw_set takes a protection-mode token
(hyp_only, hyp_dma, hyp_denied, locked).  Blank lines and lines starting
with `#` are ignored.  Round-trips are exact.

`parse_lines` turns text into events one block of lines at a time, so a
caller that replays a file as it reads it (`vmemsim run`) holds one
block's events at a time; `loads` collects them into a list.  Trace
files are UTF-8 text, read by `read_blocks` in blocks of BLOCK_SIZE
characters, each cut after its last newline, so `run` and `read_trace`
hold one block's text and lines at a time, never the whole file's.

Both directions take one step per well-formed line.  One parse loop,
compiled from EVENT_FIELDS, turns a block's lines into a list of events,
with each kind's build inline: a well-formed line opens no Python frame
(but `hw_set`'s mode check), and no generator is resumed per event.  A
formatter compiled per kind writes a line in one call.  Each is compiled
on its first use, so `gen` and `attack` compile no parse loop, and `run`,
`compare` and `validate` no formatter.  `dumps` still joins the whole
trace into one string, so `vmemsim gen` holds every line in memory.

The event kinds, their fields, `TraceEvent`, the protection modes and
`DmaRequest`'s bounds come from `events`, which imports neither the
engine nor the baselines, so `vmemsim gen`, `attack` and `validate` never
load them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from functools import cache
from itertools import chain
from typing import TextIO

from .errors import OutOfRangeError, TraceFormatError
from .events import EVENT_FIELDS, LAYOUT_OF, PAGE_MODES, DmaRequest, TraceEvent


#: a DMA direction token -> its `write` value
_DIRECTIONS = {"w": True, "r": False}


def _direction(token: str) -> bool:
    if token not in _DIRECTIONS:
        raise ValueError("direction must be `r` or `w`")
    return _DIRECTIONS[token]


def _mode(token: str) -> str:
    if token not in PAGE_MODES:
        raise ValueError(
            f"unknown protection mode {token!r}; known: {', '.join(sorted(PAGE_MODES))}"
        )
    return token


_CONVERTERS = {"write": _direction, "mode": _mode}


#: the kinds the parse loop tries first, the most frequent in generated traces first
_FIRST_KINDS = ("read", "write", "alloc", "dma", "free", "enter", "exit")

#: the fields that name a processor or a vm: a trace holds few of their
#: values, so the parse loop looks a token 0..255 up in a dict, about a
#: quarter of the time `int` takes to parse it
_SMALL_FIELDS = ("cpu", "vm")


@cache
def _compile_parser():
    """The parse loop, compiled from EVENT_FIELDS on the first parse.

    It is `def parse(blocks, lineno)`, which yields the list of events of
    each list of lines in `blocks`, the first line numbered `lineno`.  A
    well-formed line costs one split, a test per kind tried (`_FIRST_KINDS`
    first) and its build inline: an unpack of its tokens, which checks its
    width, then its layout made by `object.__new__` and a store per slot
    (`cpu` and `vm` read from a table of the tokens 0..255 when they are
    one of them, through `int` otherwise).  A blank or comment line is
    skipped.  Any other line the build rejects goes to `_diagnose` after
    the events above it in its block are yielded, so a replay meets them
    before the line's error.
    """
    source = """\
def parse(blocks, lineno):
    for lines in blocks:
        events = []
        append = events.append
        for line in lines:
            t = line.split()
            try:
                k = t[1]
"""
    kinds = [*_FIRST_KINDS, *(kind for kind in EVENT_FIELDS if kind not in _FIRST_KINDS)]
    for i, kind in enumerate(kinds):
        names = ("seq", "_", "cpu") + EVENT_FIELDS[kind]
        source += f"                {'elif' if i else 'if'} k == {kind!r}:\n"
        source += f"                    {', '.join(names)} = t\n"
        source += f"                    ev = new(layout_{kind})\n"
        source += f"                    ev.kind = {kind!r}\n"
        for name in ("seq", "cpu") + EVENT_FIELDS[kind]:
            value = {"write": "_DIRECTIONS[write]", "mode": "_mode(mode)"}.get(name, f"int({name})")
            if name in _SMALL_FIELDS:
                source += f"                    x = small({name})\n"
                value = f"int({name}) if x is None else x"
            source += f"                    ev.{name} = {value}\n"
    # an earlier line of the block that splits alike would have failed alike,
    # so a rejected line is the first of its text in its block
    source += """\
                else:
                    raise KeyError(k)
                append(ev)
            except (IndexError, KeyError, ValueError):
                if t and not t[0].startswith("#"):
                    yield events
                    _diagnose(t, lineno + lines.index(line))
        lineno += len(lines)
        yield events
"""
    scope = {f"layout_{kind}": layout for kind, layout in LAYOUT_OF.items()}
    scope.update(new=object.__new__, small={str(i): i for i in range(256)}.get,
                 _DIRECTIONS=_DIRECTIONS, _mode=_mode, _diagnose=_diagnose)
    exec(source, scope)
    return scope["parse"]


def _missing(ev: TraceEvent) -> None:
    """Raise the TraceFormatError that names `ev`'s first required field left None."""
    name = next(name for name in EVENT_FIELDS[ev.kind] if getattr(ev, name) is None)
    raise TraceFormatError(f"event seq {ev.seq}: missing field {name!r}")


def _formatter(kind: str, names: tuple[str, ...]):
    """The function that writes the line of a `kind` event.

    It is compiled once, as `def fmt(ev)` that checks each field against
    None and returns `f"{ev.seq!s} kind {ev.cpu!s} {ev.vm!s} ..."`, with
    `write` spelled `r` or `w`, so a line costs one call and no loop over
    fields.
    """
    parts = ["{ev.seq!s}", kind, "{ev.cpu!s}"]
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


@cache
def _compile_formatters() -> dict:
    """Kind token -> the function that writes a line of that kind, built on the first `dumps`."""
    return {kind: _formatter(kind, names) for kind, names in EVENT_FIELDS.items()}


def _diagnose(tokens: list[str], lineno: int) -> None:
    """Raise the TraceFormatError of a line that is neither blank nor a comment.

    The parse loop sends here only the lines its one-step build rejects;
    the checks run in the order their errors take precedence.
    """
    if len(tokens) < 3:
        raise TraceFormatError(f"line {lineno}: expected `seq kind cpu ...`")
    names = EVENT_FIELDS.get(tokens[1])
    if names is None:
        raise TraceFormatError(f"line {lineno}: unknown event kind {tokens[1]!r}")
    if len(tokens) != 3 + len(names):
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
    """The events of the text in `chunks`, parsed one chunk at a time as they are read.

    Each chunk is whole lines: all of a trace's text, one line of its file
    or one block of `read_blocks`.  Lines split where `str.splitlines`
    splits and are numbered from 1, so a file read in pieces parses exactly
    as its whole text does.  The events of a chunk's lines above a
    malformed one come out before its error.
    """
    return chain.from_iterable(_compile_parser()(map(str.splitlines, chunks), 1))


def dumps(events: list[TraceEvent]) -> str:
    table = _compile_formatters()
    lines = ["# vmemsim trace"]
    lines += [table[ev.kind](ev) for ev in events]
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
    last.  A byte-order mark (U+FEFF) before the first line is dropped.
    """
    head: list[str] = []        # the start of a line that runs past the blocks read so far
    block = fh.read(BLOCK_SIZE)
    if block[:1] == "\ufeff":
        block = block[1:] or fh.read(BLOCK_SIZE)
    while block:
        cut = block.rfind("\n") + 1
        if cut:
            head.append(block[:cut])
            yield "".join(head)
            head = [block[cut:]]
        else:
            head.append(block)
        block = fh.read(BLOCK_SIZE)
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
    events: list[TraceEvent] = []
    with open_trace(path) as fh:
        for block in _compile_parser()(map(str.splitlines, read_blocks(fh)), 1):
            events += block
    return events


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
        try:
            if "bus" in EVENT_FIELDS[ev.kind]:
                DmaRequest(ev.bus, ev.device, ev.function, 0, False)
            if "mode" in EVENT_FIELDS[ev.kind]:
                _mode(ev.mode)
        except (OutOfRangeError, ValueError) as exc:
            raise TraceFormatError(f"event seq {ev.seq}: {exc}") from None
