"""Statistics, counters and resource readings shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_GRID = (99.0, 95.0, 90.0, 85.0, 75.0, 67.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int, preferred: float) -> float:
    """``preferred`` if ``count`` leaves ``TAIL_MIN_BEYOND`` samples
    beyond it, else the highest grid percentile that does (50 at least).

    Each workload fixes its preferred tail so that a faster program,
    which collects more samples, is not read at a higher percentile.
    """
    for pct in TAIL_GRID:
        if pct > preferred:
            continue
        if count * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


@dataclass
class Timing:
    """One timing metric family: median, tail, and how it was read.

    Both are nearest-rank percentiles, so a tail that falls back to the
    50th percentile equals the median.
    """

    p50_ms: float
    tail_ms: float
    tail_pct: float
    count: int

    @classmethod
    def of(cls, seconds: Sequence[float], preferred_tail: float) -> "Timing":
        if not seconds:
            raise ValueError("no samples to summarise")
        pct = tail_percentile(len(seconds), preferred_tail)
        return cls(
            p50_ms=1000.0 * percentile(seconds, 50.0),
            tail_ms=1000.0 * percentile(seconds, pct),
            tail_pct=pct,
            count=len(seconds),
        )


#: Seconds one calibration sample takes on the reference machine: a
#: shared 2-vCPU Xeon host in its fast state (it spends minutes at a
#: time about 1.6x slower, when a neighbour loads the core).
CALIBRATION_REF_S = 0.0003


def calibration_sample() -> float:
    """Seconds of one run of a fixed pure-Python loop (dict reads and
    writes, like the program's own inner loops)."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - started


def calibration_burst(count: int = 3) -> float:
    """The median of a burst of calibration samples after its first,
    which runs with cold caches after other work or a sleep."""
    samples = [calibration_sample() for _ in range(count)]
    return statistics.median(samples[1:])


def host_speed(samples: Sequence[float]) -> float:
    """How fast the host ran around some calibration samples, as a
    share of the reference speed (1.0 = reference, 0.6 = 1.6x slower).

    The host's speed changes by tens of per cent for seconds to minutes
    at a time, which moves every timing of a pure-Python program alike.
    Calibration samples taken between the program's operations measure
    that speed; a duration times the speed around it is the duration at
    the reference speed, the program's own cost.
    """
    return CALIBRATION_REF_S / statistics.median(samples)


def local_speeds(samples: Sequence[float], reach: int = 4) -> List[float]:
    """Host speed at each of a run of calibration samples: the median of
    the samples within ``reach`` of it, so a brief hiccup in one sample
    does not rescale its neighbour operation."""
    return [
        host_speed(samples[max(0, k - reach):k + reach + 1])
        for k in range(len(samples))
    ]


def per_position_median(repeats: Sequence[Sequence[Optional[float]]]) -> List[float]:
    """Per-position median over repeats of one fixed operation sequence.

    ``repeats[r][k]`` is operation ``k``'s figure in repeat ``r`` (None
    when it failed there).  Positions no repeat completed are left out.
    """
    width = max((len(r) for r in repeats), default=0)
    out: List[float] = []
    for k in range(width):
        seen = [r[k] for r in repeats if k < len(r) and r[k] is not None]
        if seen:
            out.append(statistics.median(seen))
    return out


def wilson_upper(failed: int, attempted: int, z: float = 1.96) -> float:
    """95% upper confidence bound of a failure proportion (Wilson).

    Never 0 for a finite sample: a run that attempted more operations
    without a failure proves a smaller failure rate.
    """
    if attempted <= 0:
        return 1.0
    p = failed / attempted
    denom = 1.0 + z * z / attempted
    centre = p + z * z / (2 * attempted)
    margin = z * math.sqrt(p * (1 - p) / attempted + z * z / (4 * attempted ** 2))
    return min(1.0, (centre + margin) / denom)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- registry readings -------------------------------------------------------


@dataclass
class Reading:
    """Counter values and histogram (sum, count) pairs of a registry."""

    values: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = field(
        default_factory=dict
    )
    sums: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Tuple[float, int]] = field(
        default_factory=dict
    )

    @classmethod
    def take(cls, registry) -> "Reading":
        reading = cls()
        for family in registry.collect():
            if not family.name.startswith("repro_"):
                continue
            for sample in family.samples:
                key = (family.name, tuple(sorted(sample.labels.items())))
                if family.kind == "histogram":
                    reading.sums[key] = (sample.sum, sample.count)
                else:
                    reading.values[key] = sample.value
        return reading

    def minus(self, earlier: "Reading") -> "Reading":
        """Counter and histogram deltas since ``earlier`` (gauges too)."""
        delta = Reading()
        for key, value in self.values.items():
            delta.values[key] = value - earlier.values.get(key, 0.0)
        for key, (total, count) in self.sums.items():
            before_total, before_count = earlier.sums.get(key, (0.0, 0))
            delta.sums[key] = (total - before_total, count - before_count)
        return delta

    def without(self, others: Iterable["Reading"]) -> "Reading":
        """This delta with other deltas taken out of it."""
        reading = self
        for other in others:
            reading = reading.minus(other)
        return reading

    def total(self, name: str, **labels: str) -> float:
        """Sum of a counter family's children matching ``labels``."""
        return sum(
            value
            for (family, labelset), value in self.values.items()
            if family == name and _matches(labelset, labels)
        )

    def hist(self, name: str, **labels: str) -> Tuple[float, int]:
        """(sum, count) of a histogram family's matching children."""
        total, count = 0.0, 0
        for (family, labelset), (value, n) in self.sums.items():
            if family == name and _matches(labelset, labels):
                total += value
                count += n
        return total, count

    def by_label(self, name: str, label: str) -> Dict[str, Tuple[float, int]]:
        """Histogram (sum, count) per value of one label."""
        out: Dict[str, Tuple[float, int]] = {}
        for (family, labelset), (value, n) in self.sums.items():
            if family != name:
                continue
            which = dict(labelset).get(label, "")
            total, count = out.get(which, (0.0, 0))
            out[which] = (total + value, count + n)
        return out


def _matches(labelset: Iterable[Tuple[str, str]], wanted: Mapping[str, str]) -> bool:
    present = dict(labelset)
    return all(present.get(k) == v for k, v in wanted.items())


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


def mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None
