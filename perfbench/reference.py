"""Fixed reference work that the benchmark times next to every CLI run.

On a shared host the speed of the whole machine drifts by up to 1.7x
over tens of seconds, so raw wall times of identical runs spread by 30%.
This program does work of the same kind as vmemsim (interpreter start,
frozen dataclasses, dict and list updates, text formatting and parsing,
and ownership scans over a 4096-entry table, which suffer from cache
contention as ProMem's scans do).  It never changes and imports nothing
from the repository, so its wall time measures the host's current speed.
run.py scales each CLI wall time by this program's wall time measured
right before and after it.

Changing this file changes every normalised metric: leave it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

EVENTS = 60_000
SEGMENTS = 4096
SCANS = 120
EXPECTED = "5141 60000 61440"


@dataclass(frozen=True)
class Event:
    seq: int
    kind: str
    key: int


class Machine:
    def __init__(self) -> None:
        self.table: dict[int, int] = {}
        self.free = list(range(4096))
        self.hits = 0

    def apply(self, ev: Event) -> None:
        if ev.kind == "alloc":
            if self.free:
                self.table[ev.key] = self.free.pop()
        elif ev.kind == "free":
            page = self.table.pop(ev.key, None)
            if page is not None:
                self.free.append(page)
        else:
            self.hits += self.table.get(ev.key, 0) & 1


def main() -> str:
    x = 88172645463325252
    events = []
    for seq in range(EVENTS):
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        events.append(Event(seq, ("alloc", "free", "read", "read")[x & 3], (x >> 8) % 3000))
    machine = Machine()
    for ev in events:
        machine.apply(ev)
    text = "\n".join(f"{e.seq} {e.kind} {e.key}" for e in events)
    parsed = [line.split() for line in text.splitlines()]
    owner = {s: s % 8 for s in range(SEGMENTS)}
    owned = sum(len(sorted(s for s, o in owner.items() if o == i % 8)) for i in range(SCANS))
    return f"{machine.hits} {len(parsed)} {owned}"


if __name__ == "__main__":
    print(main())
