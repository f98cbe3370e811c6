"""What every workload returns, and the loop shapes they share."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import Reading, calibration_sample, host_speed
from tracing import Tracer


@dataclass
class Outcome:
    """The raw measurements of one workload run.

    Timing lists hold seconds, one entry per operation of the workload's
    repeated schedule (the median of its repeats, each rescaled to the
    reference host speed; see ``measure.host_speed``), or one per
    request where a schedule does not repeat.  ``tails`` fixes each family's preferred tail percentile.
    ``distinct_ops`` counts the schedule's operations and the outputs
    compared against the oracle: the basis of ``failed_ratio``, which
    does not then grow with how often a fast machine repeated them.
    ``layers`` is filled by the traced run only.
    """

    setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    distinct_ops: int = 0
    jobs_per_s: float = 0.0
    job_s: List[float] = field(default_factory=list)
    req_s: List[float] = field(default_factory=list)
    enact_s: List[float] = field(default_factory=list)
    delta_s: List[float] = field(default_factory=list)
    max_rate_rps: float = 0.0
    tails: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)


#: Calibration samples taken on each side of a timed set-up build.
BUILD_CALIBRATION = 9


def timed_build(build: Callable[[], Any]) -> Tuple[Any, float]:
    """(what ``build`` returns, its seconds at the reference host speed).

    The build starts from a collected heap; the host's speed is measured
    by calibration samples on both sides of it.
    """
    gc.collect()
    samples = [calibration_sample() for _ in range(BUILD_CALIBRATION)]
    started = time.perf_counter()
    built = build()
    seconds = time.perf_counter() - started
    samples += [calibration_sample() for _ in range(BUILD_CALIBRATION)]
    return built, seconds * host_speed(samples)


def spare_seed(seed: int, number: int) -> int:
    """The seed of set-up build ``number``: the run's own for the kept
    build (0), others derived from it for the spares."""
    return seed if number == 0 else seed * 1000 + number


class SetupClock:
    """Set-up builds, timed one by one and spread over a run.

    The machine's speed drifts over seconds, so builds made back to back
    at the start of a run would all sample one moment.  A run instead
    keeps one build and makes ``spares`` more (timed, then discarded) at
    marks spread over its measured phase; ``setup_s`` is the median of
    all timed builds.  An untimed warm-up build first pays one-time
    imports and caches, and every build starts from a collected heap.
    ``build`` gets the build's number: 0 for the kept build (and the
    warm-up), 1, 2, ... for the spares, so a workload can vary the
    spares' seeded content and report the set-up cost of several inputs.
    The ``repro_*`` counter deltas of the spare builds are kept in
    ``spare_readings`` so the workload can take them out of its phase.
    """

    def __init__(
        self,
        build: Callable[[int], Any],
        discard: Callable[[Any], None],
        spares: int,
        registry: Any,
        warm_up: bool = True,
    ) -> None:
        self.build = build
        self.discard = discard
        self.spares = spares
        self.registry = registry
        self.warm_up = warm_up
        self.seconds: List[float] = []
        self.spare_readings: List[Reading] = []

    def _timed(self, number: int) -> Any:
        built, seconds = timed_build(lambda: self.build(number))
        self.seconds.append(seconds)
        return built

    def first(self) -> Any:
        """The build the run keeps (after the warm-up, if any)."""
        if self.warm_up:
            self.discard(self.build(0))
        return self._timed(0)

    def spare(self) -> None:
        """One more timed build, discarded at once."""
        before = Reading.take(self.registry)
        self.discard(self._timed(len(self.spare_readings) + 1))
        gc.collect()
        self.spare_readings.append(Reading.take(self.registry).minus(before))

    def at(self, share: float) -> None:
        """Make the spare builds due once ``share`` of the phase is done."""
        while len(self.spare_readings) < self.spares and share >= (
            (len(self.spare_readings) + 1) / (self.spares + 1)
        ):
            self.spare()

    def finish(self) -> None:
        """Make the spare builds still owed."""
        while len(self.spare_readings) < self.spares:
            self.spare()


def alternate_rounds(
    run_round: Callable[[], Any],
    seconds: float,
    tracer: Optional[Tracer],
    between: Callable[[float], None] = lambda share: None,
) -> List[Tuple[bool, float, Any]]:
    """Run rounds until ``seconds`` of round wall time have passed.

    Untraced runs (``tracer is None``) run every round bare.  A traced
    run alternates bare and traced rounds (bare first) and stops only
    once it has at least one of each, so the two can be compared.
    ``between`` is called after each round, off the clock, with the
    share of ``seconds`` done.  Returns ``(traced, wall_s, result)`` per
    round.
    """
    rounds: List[Tuple[bool, float, Any]] = []
    total = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            result = run_round()
        finally:
            wall = time.perf_counter() - started
            if traced:
                tracer.uninstall()
        rounds.append((traced, wall, result))
        total += wall
        between(total / seconds)
        enough = total >= seconds
        if tracer is not None:
            enough = enough and len(rounds) >= 2 and len(rounds) % 2 == 0
        if enough:
            return rounds
