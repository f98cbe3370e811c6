"""The ``stream-deltas`` workload.

A :class:`~repro.stream.engine.StreamEngine` over the feed-backed
Sec. 5.1 deployment (``build_stream_scenario``) tracks a thousand
items.  After a bootstrap record introduces them (set-up), one client
sends small records in a closed loop: evidence upserts for a handful of
tracked items, now and then a retraction or a threshold edit.  Each
record is absorbed incrementally — keyed ``lookup_all`` memo reads, not
the Data Enrichment column sweep — so a fix to that sweep should leave
this workload flat.  The run is a series of passes, each replaying the
same records on a fresh build of the same seed.

Oracle: at sampled records the incremental result must be byte-equal
(``wire.encode_result``) to ``full_recompute()``; the checks run with
the clock stopped and the shims paused, and the ``repro_*`` counter
deltas they cause are taken out of the measured phase.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from layers import per_layer_metrics
from measure import (
    Reading,
    calibration_burst,
    host_speed,
    local_speeds,
    mean,
    per_position_median,
)
from tracing import Tracer
from workload import Outcome, timed_build

#: Alternative filter conditions a threshold edit switches between.
CONDITIONS = ("ScoreClass in q:high", "ScoreClass in q:high, q:mid")


@dataclass(frozen=True)
class StreamSize:
    items: int
    upserts: int
    retract_every: int
    threshold_every: int
    checks: int
    #: Records of one pass; every pass replays them on a fresh build.
    records: int


FULL = StreamSize(items=1000, upserts=5, retract_every=7, threshold_every=25, checks=3, records=140)
SMOKE = StreamSize(items=40, upserts=3, retract_every=3, threshold_every=5, checks=2, records=6)


class Feed:
    """The seeded record generator (the program sees only its records)."""

    def __init__(self, seed: int, size: StreamSize) -> None:
        from repro.stream.scenario import FEED_EVIDENCE

        self.rng = random.Random(seed)
        self.size = size
        self.columns = list(FEED_EVIDENCE)
        self.items = [f"http://example.org/bench/stream/item-{i:05d}" for i in range(size.items)]
        self.seq = 0
        self.condition = 0

    def _row(self) -> Dict[str, Any]:
        from repro.rdf import Q

        rng = self.rng
        return {
            Q.Coverage: round(rng.uniform(0.05, 0.9), 4),
            Q.HitRatio: round(rng.uniform(0.1, 0.95), 4),
            Q.Masses: rng.randint(5, 40),
            Q.PeptidesCount: rng.randint(2, 25),
        }

    def _record(self, **delta: Any):
        from repro.stream.delta import Delta
        from repro.stream.source import StreamRecord

        self.seq += 1
        return StreamRecord(seq=self.seq, timestamp=float(self.seq), delta=Delta(**delta))

    def bootstrap(self):
        return self._record(upserts={item: self._row() for item in self.items})

    def next(self):
        rng, size = self.rng, self.size
        step = self.seq + 1
        if step % size.threshold_every == 0:
            self.condition = 1 - self.condition
            return self._record(thresholds={"filter top k score": CONDITIONS[self.condition]})
        touched = rng.sample(self.items, size.upserts)
        if step % size.retract_every == 0:
            victim = rng.choice(self.items)
            column = rng.choice(self.columns)
            return self._record(
                upserts={item: self._row() for item in touched if item != victim},
                retractions=[(victim, column)],
            )
        return self._record(upserts={item: self._row() for item in touched})


@dataclass
class _Deployment:
    engine: Any
    enactor: Any
    stats: Any
    feed: Feed


def _deploy(seed: int, size: StreamSize) -> _Deployment:
    from repro.stream.engine import StreamEngine, StreamStats
    from repro.stream.incremental import IncrementalEnactor
    from repro.stream.scenario import build_stream_scenario
    from repro.stream.windows import CusumDetector, EwmaDetector, RollingWindows

    scenario = build_stream_scenario()
    enactor = IncrementalEnactor(scenario.view, feed=scenario.table)
    engine = StreamEngine(
        enactor,
        windows=RollingWindows(size=20.0, slide=10.0),
        detectors=[EwmaDetector(), CusumDetector()],
        name="perfbench",
    )
    feed = Feed(seed, size)
    stats = StreamStats()
    engine.process(feed.bootstrap(), stats)
    return _Deployment(engine, enactor, stats, feed)


def _encoded(result: Any) -> bytes:
    from repro.serving import wire

    return wire.dumps(wire.encode_result(result))


def check_step(enactor: Any, incremental_result: Any) -> bool:
    """True when the incremental result equals the batch oracle's."""
    return _encoded(incremental_result) == _encoded(enactor.full_recompute())


def run(seed: int, seconds: float, tracer: Optional[Tracer], size: StreamSize) -> Outcome:
    from repro.observability import get_registry
    from repro.stream.source import StreamRecord

    registry = get_registry()
    outcome = Outcome(tails={"job": 95.0, "req": 95.0, "enact": 95.0, "delta": 95.0})
    # Every pass replays the same records on a fresh deployment of the
    # same seed, so each family is read per record position as the median
    # over the bare passes of its times at the reference host speed, which
    # a burst of calibration samples after every record measures.  Each pass's
    # build is a timed set-up build; an untimed warm-up build first pays
    # one-time imports and caches.
    build_readings: List[Reading] = []

    def build(in_phase: bool) -> _Deployment:
        before = Reading.take(registry)
        dep, seconds = timed_build(lambda: _deploy(seed, size))
        outcome.setup_s.append(seconds)
        if in_phase:
            build_readings.append(Reading.take(registry).minus(before))
        return dep

    before_setup = Reading.take(registry)
    _deploy(seed, size)
    dep = build(in_phase=False)
    setup_reading = Reading.take(registry).minus(before_setup)

    # Each record arrives as a JSON line, as the program's file source
    # reads it.  Oracle checks sample records of the first pass, outside
    # the clock, and their counter deltas are taken out of the phase.
    check_at = {k * size.records // size.checks for k in range(size.checks)}
    passes: List[tuple] = []
    speeds: List[float] = []
    measured = 0.0
    checks_done = 0
    touched = 0
    traced_records = 0
    oracle_readings: List[Reading] = []
    phase_start = Reading.take(registry)
    if tracer is not None:
        tracer.reset()
    while True:
        if passes:
            dep = build(in_phase=True)
        traced = tracer is not None and len(passes) % 2 == 1
        raw: List[Optional[tuple]] = []
        calibration: List[float] = []
        pass_wall = 0.0
        if traced:
            tracer.install()
        try:
            for position in range(size.records):
                line = json.dumps(dep.feed.next().to_document())
                received = time.perf_counter()
                record = StreamRecord.from_document(json.loads(line))
                parsed = time.perf_counter()
                step = dep.engine.process(record, dep.stats)
                done = time.perf_counter()
                pass_wall += done - received
                outcome.attempted += 1
                calibration.append(calibration_burst())
                if step is None:
                    outcome.failed += 1
                    raw.append(None)
                    continue
                applied = step.outcome.report.seconds
                raw.append((done - received, done - parsed, applied))
                if traced:
                    traced_records += 1
                    touched += len(record.delta.touched_items())
                if not passes and position in check_at:
                    before = Reading.take(registry)
                    paused = tracer.paused() if tracer is not None else nullcontext()
                    with paused:
                        if not check_step(dep.enactor, step.outcome.result):
                            outcome.mismatches += 1
                    oracle_readings.append(Reading.take(registry).minus(before))
                    checks_done += 1
        finally:
            if traced:
                tracer.uninstall()
        # Each record's times at the host speed measured around it.
        per: Dict[str, List[Optional[float]]] = {
            name: [] for name in ("job", "req", "enact", "delta")
        }
        for times, speed in zip(raw, local_speeds(calibration)):
            if times is None:
                for values in per.values():
                    values.append(None)
                continue
            line_s, process_s, apply_s = (t * speed for t in times)
            per["req"].append(line_s)
            per["delta"].append(process_s)
            per["job"].append(apply_s)
            per["enact"].append(process_s - apply_s)
        speeds.append(host_speed(calibration))
        passes.append((traced, pass_wall, per))
        measured += pass_wall
        enough = measured >= seconds and len(passes) >= 2
        if tracer is not None:
            enough = enough and len(passes) % 2 == 0
        if enough:
            break
    phase = Reading.take(registry).minus(phase_start).without(
        oracle_readings + build_readings
    )
    outcome.attempted += checks_done
    outcome.failed += outcome.mismatches
    outcome.distinct_ops = size.records + checks_done

    bare = [per for traced, _, per in passes if not traced]
    typical = {name: per_position_median([per[name] for per in bare]) for name in bare[0]}
    outcome.job_s, outcome.req_s = typical["job"], typical["req"]
    outcome.enact_s, outcome.delta_s = typical["enact"], typical["delta"]
    # One client sends records one after another, so a pass's wall is the
    # sum of its records' times; the highest rate the enactor sustains
    # when never idle counts only the apply seconds.
    outcome.jobs_per_s = len(typical["req"]) / sum(typical["req"])
    outcome.max_rate_rps = len(typical["job"]) / sum(typical["job"])
    outcome.detail.update(
        records=outcome.attempted, passes=len(passes), items=len(dep.enactor.items),
        oracle_checks=checks_done,
        host_speed_by_pass=[round(speed, 3) for speed in speeds],
    )

    if tracer is not None:
        traced_walls = [wall for t, wall, _ in passes if t]
        bare_walls = [wall for t, wall, _ in passes if not t]
        store_triples = sum(len(store) for store in dep.enactor.framework.repositories)
        outcome.layers = per_layer_metrics(
            tracer.snapshot(),
            traced_records,
            sum(traced_walls),
            phase,
            outcome.attempted - checks_done,
            setup_reading,
            Reading.take(registry).minus(before_setup),
            {
                "stream.items_touched": touched / traced_records if traced_records else 0.0,
                "annotation.repo_triples": float(store_triples),
                "bench.trace_overhead_ratio": mean(traced_walls) / mean(bare_walls),
            },
        )
    return outcome
