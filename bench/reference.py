"""A fixed pure-Python load that measures the host's speed at the moment.

On a shared host the speed of one CPU drifts by tens of percent within
minutes, so the same pass can take 2.8 s or 4.8 s.  The benchmark times this
load before and after every pass and reports the pass time divided by the
mean of the two: the pass cost in units of this load, which stays put while
the host's speed moves.  The load mixes the kinds of work crystal_grid does:
frozen-dataclass construction with validation, tuple building, dict traffic
and mod-p row elimination.

Keep this code frozen: changing it changes the unit of every ``*_ref``
metric, and the baseline would have to be measured again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    coords: tuple
    tag: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(x) for x in self.coords))
        if min(self.coords) < 0:
            raise ValueError("negative coordinate")


def _step(p: _Point, i: int):
    if p.coords[i] > 3:
        return None
    return _Point(tuple(x + (1 if k == i else 0) for k, x in enumerate(p.coords)), p.tag)


def _rank_mod(rows, p: int = 32003) -> int:
    work = [list(r) for r in rows]
    m, n, r = len(work), len(work[0]), 0
    for c in range(n):
        piv = next((i for i in range(r, m) if work[i][c] % p), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r]
        inv = pow(lead[c], p - 2, p)
        for i in range(r + 1, m):
            f = work[i][c] * inv % p
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], lead)]
        r += 1
    return r


def _load(rounds: int = 40) -> int:
    seen = {}
    total = 0
    for k in range(rounds):
        for d in range(256):
            p = _Point((d & 3, d >> 2 & 3, d >> 4 & 3, d >> 6 & 3), (k, d))
            for i in range(4):
                q = _step(p, i)
                if q is not None:
                    seen[q.coords] = seen.get(q.coords, 0) + 1
        rows = [[(k * 7 + i * 13 + j * 17) % 32003 for j in range(6)] for i in range(6)]
        total += _rank_mod(rows)
    return total + len(seen)


def seconds() -> float:
    """Wall time of one run of the load: 0.14 s to 0.35 s on the 2-CPU Xeon VM of the baseline."""
    start = time.perf_counter()
    _load()
    return time.perf_counter() - start
