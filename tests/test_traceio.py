"""Text trace format round-trips and error reporting."""

import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parser_reference
from vmemsim.core import Geometry
from vmemsim.events import EVENT_FIELDS, FIELD_ORDER, PAGE_MODES, EventKind, TraceEvent
from vmemsim import traceio
from vmemsim.errors import TraceFormatError
from vmemsim.traceio import (
    dumps,
    loads,
    open_trace,
    parse_lines,
    read_blocks,
    read_trace,
    validate,
    write_trace,
)
from vmemsim.workload import DemandProfile, WorkloadSpec, attack_cross_vm_dma, generate

TINY = Geometry(256, 4, 8)


def format_line(ev):
    """The line `dumps` writes for `ev` after its header, without the newline."""
    return dumps([ev]).split("\n")[1]


def test_format_covers_every_kind():
    samples = [
        TraceEvent(seq=1, kind=EventKind.CREATE_VM, vm=1),
        TraceEvent(seq=2, kind=EventKind.DESTROY_VM, vm=1),
        TraceEvent(seq=3, kind=EventKind.ENTER, cpu=2, vm=1),
        TraceEvent(seq=4, kind=EventKind.EXIT, cpu=2),
        TraceEvent(seq=5, kind=EventKind.ALLOC, vm=1),
        TraceEvent(seq=6, kind=EventKind.FREE, vm=1, vaddr=0x100),
        TraceEvent(seq=7, kind=EventKind.READ, vaddr=42),
        TraceEvent(seq=8, kind=EventKind.WRITE, cpu=1, vaddr=42),
        TraceEvent(seq=9, kind=EventKind.GPT_WRITE, vm=1, vpage=3, target=7),
        TraceEvent(seq=10, kind=EventKind.RMAP_WRITE, vm=1, ppage=3, phys=9),
        TraceEvent(seq=11, kind=EventKind.DMA, bus=0, device=1, function=0, dva=256, write=True),
        TraceEvent(seq=12, kind=EventKind.DMA_RAW, vm=1, page=0, write=False),
        TraceEvent(seq=13, kind=EventKind.DOMAIN_ASSIGN, domain=1, vm=1, bus=0, device=1, function=0),
        TraceEvent(seq=14, kind=EventKind.HW_SET, page=5, mode="locked"),
        TraceEvent(seq=15, kind=EventKind.PSWITCH, cpu=1, vasid=3),
    ]
    text = dumps(samples)
    assert loads(text) == samples


def test_dumps_round_trips_real_traces():
    spec = WorkloadSpec(
        seed=9,
        vm_count=2,
        events=250,
        demand=(DemandProfile(3), DemandProfile(3)),
        dma_rate=0.1,
        switch_rate=0.1,
    )
    for trace in (generate(spec, TINY), attack_cross_vm_dma(TINY)):
        assert loads(dumps(trace)) == trace
        # a second dump of the parse is byte-identical
        assert dumps(loads(dumps(trace))) == dumps(trace)


def test_write_and_read_trace(tmp_path):
    trace = attack_cross_vm_dma(TINY)
    path = tmp_path / "attack.trace"
    write_trace(str(path), trace)
    assert read_trace(str(path)) == trace
    assert path.read_text().startswith("# vmemsim trace\n")


def test_comments_and_blanks_are_skipped():
    text = "# header\n\n  \n1 create_vm 0 1\n# trailing\n"
    events = loads(text)
    assert len(events) == 1
    assert events[0].kind == EventKind.CREATE_VM


def test_direction_tokens():
    [ev] = loads("4 dma 0 0 1 0 512 r")
    assert ev.write is False
    assert format_line(ev).endswith(" r")
    assert loads("5 dma 0 0 1 0 512 w")[0].write is True


@pytest.mark.parametrize(
    "line,lineno,needle",
    [
        ("1 warp 0", 3, "line 3: unknown event kind 'warp'"),
        ("1 alloc 0", 7, "line 7: alloc takes 1 fields"),
        ("1 alloc zero 1", 2, "line 2: seq and cpu must be integers"),
        ("1 read 0 xyz", 9, "line 9: field vaddr must be an integer"),
        ("1 dma 0 0 1 0 512 x", 5, "line 5: direction must be `r` or `w`"),
        ("1 hw_set 0 5 open", 6, "line 6: unknown protection mode 'open'"),
        ("oops", 8, "line 8: expected `seq kind cpu ...`"),
    ],
)
def test_parse_errors_name_the_line(line, lineno, needle):
    with pytest.raises(TraceFormatError) as exc:
        loads("\n" * (lineno - 1) + line)
    assert needle in str(exc.value)


def test_loads_reports_real_line_numbers():
    text = "# ok\n1 create_vm 0 1\nbroken line here\n"
    with pytest.raises(TraceFormatError) as exc:
        loads(text)
    assert "line 3" in str(exc.value)


def test_a_file_parses_alike_line_by_line_and_whole(tmp_path):
    path = tmp_path / "odd.trace"
    path.write_bytes(b"# t\r\n1 create_vm 0 1\x0c2 create_vm 0 2\n\n3 alloc 0 1\x1cbroken")

    def parse(chunks):
        events = []
        with pytest.raises(TraceFormatError) as exc:
            events.extend(parse_lines(chunks))
        return events, str(exc.value)

    with open_trace(str(path)) as fh:
        streamed = parse(fh)
    with open_trace(str(path)) as fh:
        whole = parse([fh.read()])
    assert streamed == whole
    assert [ev.seq for ev in streamed[0]] == [1, 2, 3]
    assert streamed[1] == "line 6: expected `seq kind cpu ...`"


def sample_fields(kind):
    """Each field of `kind`, set to a value a line can carry."""
    return {name: True if name == "write" else "locked" if name == "mode" else 1
            for name in EVENT_FIELDS[kind]}


def test_dumps_requires_fields():
    for kind, names in EVENT_FIELDS.items():
        for name in names:
            ev = TraceEvent(seq=4, kind=kind, **{**sample_fields(kind), name: None})
            needle = f"^event seq 4: missing field '{name}'$"
            with pytest.raises(TraceFormatError, match=needle):
                dumps([ev])


def test_validate_rejects_bad_sequences():
    a = TraceEvent(seq=1, kind=EventKind.CREATE_VM, vm=1)
    b = TraceEvent(seq=1, kind=EventKind.ALLOC, vm=1)
    with pytest.raises(TraceFormatError):
        validate([a, b])
    with pytest.raises(TraceFormatError):
        validate([TraceEvent(seq=2, kind=EventKind.ENTER, cpu=-1, vm=1)])
    with pytest.raises(TraceFormatError):
        validate([TraceEvent(seq=2, kind=EventKind.READ)])           # missing vaddr
    with pytest.raises(TraceFormatError):
        validate([TraceEvent(seq=2, kind=EventKind.READ, vaddr=-4)])
    validate([a, TraceEvent(seq=5, kind=EventKind.ALLOC, vm=1)])


def test_validate_rejects_device_coordinates_out_of_range():
    dma = {"kind": EventKind.DMA, "dva": 0, "write": True}
    assign = {"kind": EventKind.DOMAIN_ASSIGN, "domain": 1, "vm": 1}
    for fields in (dma, assign):
        validate([TraceEvent(seq=1, bus=255, device=31, function=7, **fields)])
        for coords, needle in (((256, 0, 0), "bus 256"), ((0, 32, 0), "device 32"),
                               ((0, 0, 8), "function 8")):
            bus, device, function = coords
            with pytest.raises(TraceFormatError, match=f"event seq 3: {needle} outside"):
                validate([TraceEvent(seq=3, bus=bus, device=device, function=function, **fields)])


def test_validate_rejects_an_unknown_protection_mode():
    for mode in PAGE_MODES:
        validate([TraceEvent(1, EventKind.HW_SET, page=0, mode=mode)])
    with pytest.raises(TraceFormatError) as info:
        validate([TraceEvent(4, EventKind.HW_SET, page=0, mode="bogus")])
    assert str(info.value) == (
        "event seq 4: unknown protection mode 'bogus'; "
        "known: hyp_denied, hyp_dma, hyp_only, locked"
    )


# ---------------------------------------------------------------------------
# the one-step parser against the field-by-field reference
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
KIND_TOKENS = list(EVENT_FIELDS)
# spellings int() accepts (sign, underscore, a non-ASCII digit) and ones it rejects
INT_TOKENS = ["0", "7", "+7", "0_1", "-3", "\u0663", "4096"]
NOT_INT_TOKENS = ["x", "1.5", "0x1", "_1", "1__0", "7-"]
FIELD_TOKENS = INT_TOKENS + NOT_INT_TOKENS + ["r", "w", "x"] + list(PAGE_MODES)
TOKENS = KIND_TOKENS + ["warp", "#", "#read", "#1"] + FIELD_TOKENS
SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c"]


@st.composite
def trace_lines(draw):
    """Any 0-9 tokens, or `seq kind cpu` and about as many fields as the kind takes.

    The second shape draws mostly tokens its fields accept, so that many
    lines parse and the rest fail on one rule at a time.
    """
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=9))
    else:
        kind = draw(st.sampled_from(list(EVENT_FIELDS)))
        names = EVENT_FIELDS[kind][:len(EVENT_FIELDS[kind]) + draw(st.sampled_from([0, 0, -1]))]
        names += ("vm",) * draw(st.sampled_from([0, 0, 0, 1]))
        good = {"write": ["r", "w"], "mode": list(PAGE_MODES)}
        number = st.sampled_from(INT_TOKENS * 6 + NOT_INT_TOKENS + ["#"])
        tokens = [draw(number), draw(st.sampled_from([kind] * 9 + ["warp"])), draw(number)]
        tokens += [draw(st.sampled_from(good.get(name, INT_TOKENS) * 6 + FIELD_TOKENS))
                   for name in names]
    edge = st.sampled_from(["", *SEPARATORS])
    gaps = max(len(tokens) - 1, 0)
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=gaps, max_size=gaps))
    return draw(edge) + "".join(t + s for t, s in zip(tokens, [*seps, ""])) + draw(edge)


def _outcome(parse, line):
    try:
        return parse(line, 5)
    except TraceFormatError as exc:
        return f"TraceFormatError: {exc}"


def _parse_one(line, lineno):
    """The parse loop on the one line `line`, numbered `lineno`: its event, or None.

    A line may hold separators `loads` would split it at, so it goes to
    the loop whole.
    """
    return next(traceio._events((line,), lineno), None)


@settings(max_examples=600, deadline=None)
@given(trace_lines())
def test_parse_line_matches_the_reference(line):
    assert _outcome(_parse_one, line) == _outcome(parser_reference.parse_line, line)


def test_loads_matches_the_reference_on_real_traces():
    spec = WorkloadSpec(
        seed=1, vm_count=3, events=25_000, demand=(DemandProfile(48, 0.0, 0.9),) * 3,
        switch_rate=0.01,
    )
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.trace"))]
    texts.append(dumps(generate(spec, Geometry(4096, 512, 64))))
    for text in texts:
        assert loads(text) == parser_reference.loads(text)


# every separator `str.splitlines` breaks a line at
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@st.composite
def trace_texts(draw):
    """Lines of any shape, most longer than a 7-character block, joined by any line
    break, with or without a final one."""
    lines = draw(st.lists(trace_lines(), max_size=8))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text[:-len(breaks[-1])] if lines and draw(st.booleans()) else text


def _parse_outcome(parse):
    try:
        return parse()
    except TraceFormatError as exc:
        return f"TraceFormatError: {exc}"


@settings(max_examples=400, deadline=None)
@given(trace_texts(), st.integers(1, 7))
def test_blocks_parse_as_the_whole_text_does(text, block_size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "BLOCK_SIZE", block_size)
        blocks = list(read_blocks(io.StringIO(text)))
    assert "".join(blocks) == text
    assert all(block.endswith("\n") for block in blocks[:-1])
    streamed = _parse_outcome(lambda: list(parse_lines(blocks)))
    assert streamed == _parse_outcome(lambda: loads(text))


def test_read_trace_holds_little_beyond_its_events(tmp_path):
    path = tmp_path / "long.trace"
    spec = WorkloadSpec(seed=3, vm_count=2, events=20_000, demand=(DemandProfile(4, 0.2, 0.5),) * 2)
    write_trace(str(path), generate(spec, Geometry(256, 4, 16)))
    tracemalloc.start()
    try:
        events = read_trace(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 19_000
    assert peak - kept < 1 << 20, (peak, kept)


# ---------------------------------------------------------------------------
# the compiled formatters against the field-by-field reference
# ---------------------------------------------------------------------------

ARGUMENT_NAMES = list(FIELD_ORDER)[3:]
MODE_TOKENS = list(PAGE_MODES)


def field_values(name):
    """Values a parsed line can give field `name`."""
    if name == "write":
        return st.booleans()
    if name == "mode":
        return st.sampled_from(MODE_TOKENS)
    return st.integers(-(2**70), 2**70)


@st.composite
def well_formed_events(draw):
    """An event as a parsed line gives it: every field of its kind set, all others None."""
    kind = draw(st.sampled_from(list(EVENT_FIELDS)))
    fields = {name: draw(field_values(name)) for name in EVENT_FIELDS[kind]}
    return TraceEvent(draw(st.integers(-5, 2**64)), kind, draw(st.integers(-5, 2**64)), **fields)


@st.composite
def any_events(draw):
    """An event whose fields, its kind's or not, may hold None or a value of another type."""
    kind = draw(st.sampled_from(list(EVENT_FIELDS)))
    value = st.one_of(st.none(), st.integers(-9, 2**64), st.booleans(),
                      st.sampled_from(MODE_TOKENS + ["", "x y"]))
    fields = {name: draw(value) for name in ARGUMENT_NAMES if draw(st.booleans())}
    for name in EVENT_FIELDS[kind]:
        if draw(st.integers(0, 3)):
            fields[name] = draw(field_values(name))
    return TraceEvent(draw(st.integers(-5, 2**64)), kind, draw(value), **fields)


def _format_outcome(write, ev):
    try:
        return write(ev)
    except TraceFormatError as exc:
        return f"TraceFormatError: {exc}"


@settings(max_examples=250, deadline=None)
@given(any_events())
def test_a_written_line_matches_the_reference(ev):
    assert _format_outcome(format_line, ev) == _format_outcome(parser_reference.format_event, ev)


@settings(max_examples=300, deadline=None)
@given(well_formed_events())
def test_a_written_line_parses_back(ev):
    assert loads(format_line(ev)) == [ev]


def test_dumps_matches_the_reference_on_every_kind():
    events = [TraceEvent(seq, kind, 2, **sample_fields(kind))
              for seq, kind in enumerate(EVENT_FIELDS, start=1)]
    assert dumps(events).splitlines() == [
        "# vmemsim trace", *(parser_reference.format_event(ev) for ev in events)
    ]


# ---------------------------------------------------------------------------
# whole texts: the inlined parse loop against the line-by-line reference
# ---------------------------------------------------------------------------

BLANK_AND_COMMENT_LINES = ["", " ", "\t", "#", "# vmemsim trace", "#1 read 0 5", "  # 2 exit 0"]


@st.composite
def mixed_texts(draw):
    """Well-formed, malformed, blank and comment lines, mostly LF or CRLF terminated."""
    line = st.one_of(well_formed_events().map(format_line), trace_lines(),
                     st.sampled_from(BLANK_AND_COMMENT_LINES))
    lines = draw(st.lists(line, max_size=12))
    brk = st.sampled_from(["\n"] * 4 + ["\r\n"] * 4 + LINE_BREAKS)
    text = "".join(line + draw(brk) for line in lines)
    return text + draw(st.sampled_from(["", "", "1 create_vm 0 1", "1 warp 0"]))


@settings(max_examples=400, deadline=None)
@given(mixed_texts(), st.integers(1, 64))
def test_a_whole_text_parses_as_the_reference_does(text, block_size):
    want = _parse_outcome(lambda: parser_reference.loads(text))
    assert _parse_outcome(lambda: loads(text)) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "BLOCK_SIZE", block_size)
        assert _parse_outcome(lambda: list(parse_lines(read_blocks(io.StringIO(text))))) == want
