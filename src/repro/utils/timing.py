"""Wall-clock measurement helpers.

Only *host-side* work (e.g. the bit-width assignment solve) is measured
with real wall clocks; simulated device time comes from
:class:`repro.cluster.perfmodel.PerfModel` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Stopwatch"]


@dataclass
class Stopwatch:
    """Accumulating stopwatch with named laps.

    Examples
    --------
    >>> sw = Stopwatch()
    >>> with sw.lap("solve"):
    ...     _ = sum(range(100))
    >>> sw.total("solve") >= 0.0
    True
    """

    laps: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def lap(self, name: str) -> "_LapContext":
        return _LapContext(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.laps[name] = self.laps.get(name, 0.0) + float(seconds)
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self.laps.get(name, 0.0)

    def mean(self, name: str) -> float:
        n = self.counts.get(name, 0)
        return self.laps.get(name, 0.0) / n if n else 0.0

    def reset(self) -> None:
        self.laps.clear()
        self.counts.clear()


class _LapContext:
    def __init__(self, watch: Stopwatch, name: str) -> None:
        self._watch = watch
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_LapContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._watch.add(self._name, time.perf_counter() - self._start)
