"""The committed call counts: re-counted here, they must match BENCH_counts.json.

A change that moves a count re-records the file with `python tests/counts.py`
and states the change.  Only the running Python's entry is checked.
"""

import json

import pytest

import counts


def test_call_counts_match_the_committed_file():
    recorded = json.loads(counts.COUNTS.read_text())
    if counts.version() not in recorded:
        pytest.skip(f"BENCH_counts.json has no entry for Python {counts.version()}")
    want, got = _flat(recorded[counts.version()]), _flat(counts.measure())
    assert {key: (want.get(key), got.get(key)) for key in want.keys() | got.keys()
            if want.get(key) != got.get(key)} == {}


def _flat(tree, path=()):
    """Each leaf of `tree`, a dict of dicts, by the path of keys to it."""
    if not isinstance(tree, dict):
        return {path: tree}
    return {key: leaf for name, sub in tree.items() for key, leaf in _flat(sub, (*path, name)).items()}
