"""The compiled parse loop: widths, block boundaries, where a line's error falls, line ends.

Each test takes milliseconds, so `tests/mutate.py` runs this file against
every mutant.
"""

import io

import pytest

from vmemsim import traceio
from vmemsim.cli import main
from vmemsim.errors import TraceFormatError
from vmemsim.events import EVENT_FIELDS
from vmemsim.traceio import loads, parse_lines, read_blocks, read_trace

#: one well-formed line of each kind
LINES = {
    kind: " ".join(["7", kind, "0", *("w" if name == "write" else "locked" if name == "mode"
                                     else "1" for name in names)])
    for kind, names in EVENT_FIELDS.items()
}


def _events_and_error(chunks):
    """The events `parse_lines` gives before its error, and the error's text."""
    events = []
    with pytest.raises(TraceFormatError) as info:
        events.extend(parse_lines(chunks))
    return events, str(info.value)


@pytest.mark.parametrize("kind", EVENT_FIELDS)
def test_a_line_one_token_off_its_width_names_the_width(kind):
    names = EVENT_FIELDS[kind]
    [ev] = loads(LINES[kind])
    assert ev.kind == kind and ev.seq == 7
    fields = f"({' '.join(names) or 'none'})"
    for line, got in ((LINES[kind] + " 1", len(names) + 1),
                      (LINES[kind].rsplit(" ", 1)[0], len(names) - 1)):
        if got < 0:
            continue   # `exit` less a token is `7 exit`, too short for seq, kind and cpu
        with pytest.raises(TraceFormatError) as info:
            loads(f"# header\n{line}\n")
        assert str(info.value) == f"line 2: {kind} takes {len(names)} fields {fields}, got {got}"


@pytest.mark.parametrize("token", ["0", "255", "256", "007", "+3", "1_0", "\u0663"])
def test_a_cpu_or_vm_token_reads_as_int_reads_it(token):
    [create, alloc] = loads(f"1 create_vm {token} {token}\n2 alloc {token} {token}\n")
    assert (create.cpu, create.vm, alloc.cpu, alloc.vm) == (int(token),) * 4


def _trace_with_a_bad_line(tmp_path, before):
    """A trace file whose malformed line follows `before` in one block of 40
    characters, not the first; the file's path and the malformed line's number."""
    lines = ["# vmemsim trace", "1 create_vm 0 1", *(f"{seq} alloc 0 1" for seq in range(2, 7)),
             "7 enter 0 1", before, "9 read 0 xyz", "10 exit 0"]
    text = "".join(line + "\n" for line in lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "BLOCK_SIZE", 40)
        blocks = list(read_blocks(io.StringIO(text)))
    [late] = [i for i, block in enumerate(blocks) if "xyz" in block]
    assert late > 0 and f"{before}\n9 read 0 xyz\n" in blocks[late]
    path = tmp_path / "late.trace"
    path.write_text(text)
    return path, lines.index("9 read 0 xyz") + 1


@pytest.mark.parametrize("mode", ["asmi", "nested"])
def test_run_replays_the_events_above_a_malformed_line_in_a_later_block(
        tmp_path, capsys, monkeypatch, mode):
    monkeypatch.setattr(traceio, "BLOCK_SIZE", 40)
    # the line above the malformed one is replayed first, and its error wins
    path, _ = _trace_with_a_bad_line(tmp_path, "8 destroy_vm 0 1")
    assert main(["run", "--trace", str(path), "--mode", mode]) == 1
    cause = ("vm 1 is current on a processor" if mode == "asmi"
             else "vm 1 cannot be destroyed now")
    assert capsys.readouterr().err == f"error: event seq 8: {cause}\n"
    # with nothing wrong above it, the malformed line's own error names its line
    path, lineno = _trace_with_a_bad_line(tmp_path, "8 write 0 0".ljust(16))  # blocks alike
    assert main(["run", "--trace", str(path), "--mode", mode]) == 1
    assert capsys.readouterr().err == (
        f"error: line {lineno}: field vaddr must be an integer, got 'xyz'\n")
    assert main(["validate", "--trace", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: line {lineno}: field vaddr must be an integer, got 'xyz'\n")


def test_comment_and_blank_lines_inside_a_block_are_skipped():
    text = ("1 create_vm 0 1\n\n# a note\n   \n2 alloc 0 1\n#3 read 0 5\n\t# 3 exit 0\n"
            "3 alloc 0 1\n4 read 0 x\n5 alloc 0 1\n")
    events, error = _events_and_error([text])
    assert [(ev.seq, ev.kind) for ev in events] == [(1, "create_vm"), (2, "alloc"), (3, "alloc")]
    assert error == "line 9: field vaddr must be an integer, got 'x'"
    # the same lines split across chunks, a comment ending one and a blank line starting the next
    chunks = ["1 create_vm 0 1\n\n# a note\n", "   \n2 alloc 0 1\n#3 read 0 5\n",
              "\t# 3 exit 0\n3 alloc 0 1\n4 read 0 x\n5 alloc 0 1\n"]
    assert _events_and_error(chunks) == (events, error)


def test_crlf_line_ends_parse_as_lf_ones(tmp_path):
    lf = "".join(line + "\n" for line in ["# vmemsim trace", *LINES.values()])
    crlf = lf.replace("\n", "\r\n")
    assert loads(crlf) == loads(lf)
    assert [ev.kind for ev in loads(crlf)] == list(EVENT_FIELDS)
    path = tmp_path / "crlf.trace"
    path.write_bytes(crlf.encode())
    assert read_trace(str(path)) == loads(lf)
    bad = "1 create_vm 0 1\r\n\r\n2 alloc 0 one\r\n"
    assert _events_and_error([bad]) == _events_and_error([bad.replace("\r\n", "\n")])
    assert _events_and_error([bad])[1] == "line 3: field vm must be an integer, got 'one'"
