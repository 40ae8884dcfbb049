"""Calibration loop that measures how fast the machine runs right now.

On a shared machine the speed of one core drifts by up to 2x within minutes
as neighbours load it, and cutofflab's passes slow down in step.  Every timed
interval is therefore paired with a run of this fixed, standard-library-only
loop (before and after each pass; just after start-up for set-up time) and
reported scaled to the reference speed:

    reported_s = wall_s * REFERENCE_S / calibration_s

The loop imitates what cutofflab spends its time on (exact Fraction
arithmetic and comparisons, bisect over cumulative masses, small frozen
dataclasses validated on construction, dict lookups) without importing it, so
a change to the program never changes the yardstick.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass
from fractions import Fraction

#: Seconds the loop takes on the reference box (2-core shared VM, CPython
#: 3.11) when its core is uncontended; reported times are in these units.
REFERENCE_S = 0.16
DRAWS = 12000


@dataclass(frozen=True)
class _Example:
    point: int
    label: Fraction

    def __post_init__(self):
        if not 0 <= self.label <= 1:
            raise ValueError("label out of range")


def calibrate() -> float:
    """Wall seconds for one run of the fixed loop."""
    start = time.perf_counter()
    rng = random.Random(12345)
    cumulative = [Fraction(k, 61) for k in range(1, 62)]
    seen: dict[int, Fraction] = {}
    total = Fraction(0)
    for _ in range(DRAWS):
        u = Fraction(rng.getrandbits(64), 1 << 64)
        idx = bisect.bisect_right(cumulative, u)
        example = _Example(idx, Fraction(idx % 5, 5))
        seen.setdefault(example.point, example.label)
        if abs(example.label - Fraction(1, 2)) > Fraction(1, 3):
            total += cumulative[idx % 61] / 7
    return time.perf_counter() - start


def scale(seconds: float, calibration_s: float) -> float:
    """Wall seconds converted to reference seconds."""
    return seconds * REFERENCE_S / calibration_s
