"""The ``batch-growing`` workload.

The paper's Sec. 5.1 view over Imprint identifications runs through
``framework.runtime()`` (thread backend, one worker, serial enactment)
with zero service latency, in rounds: each round is one ``submit_many``
call (which clears the transient annotation cache once) followed by
waiting for every job.  Every job of a round brings new spots, so the
cache repository grows through the round and the Data Enrichment
sweep, which reads the whole evidence column, costs more per job.
Every round enacts the same jobs in the same order, so each job's
figures are read as the median over the rounds of its times rescaled
to the reference host speed (``measure.host_speed``), measured by
calibration samples on each side of the round.

Oracle: every job of the first round is re-enacted by the serial
``Enactor`` on a fresh framework and the two ``wire.encode_result``
documents must be byte-equal.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from layers import per_layer_metrics, rows_per_item_by_quarter
from measure import Reading, calibration_sample, host_speed, mean, per_position_median
from tracing import Tracer
from workload import Outcome, SetupClock, alternate_rounds, spare_seed

PROTEINS = 200
#: Items per job.  Jobs are cut from the scenario's identifications in
#: spot order at one size, so a seed changes what a job holds but not
#: how much.
JOB_ITEMS = 8
#: Calibration samples taken between two rounds.
ROUND_CALIBRATION = 15
#: A round is steady when the host speeds on its two sides differ by at
#: most this share; at least ``MIN_STEADY`` steady bare rounds are needed
#: to leave the others out.
SPEED_CHANGE = 0.1
MIN_STEADY = 5
#: The view's processors that write and read back a job's evidence.
ANNOTATION_STAGE = ("ImprintOutputAnnotator", "DataEnrichment")


@dataclass(frozen=True)
class BatchSize:
    """Scenario and round shape of the batch workload."""

    spots: int
    jobs: int
    #: Set-up builds beyond the kept one, spread over the run.
    spares: int = 6


FULL = BatchSize(spots=80, jobs=72)
SMOKE = BatchSize(spots=6, jobs=3, spares=1)


@dataclass
class _Deployment:
    framework: Any
    view: Any
    runtime: Any
    datasets: List[list]
    scenario: Any
    results: Any
    scenario_s: float


def _deploy(seed: int, size: BatchSize) -> _Deployment:
    from repro.core.ispider import example_quality_view_xml, setup_framework
    from repro.proteomics import ProteomicsScenario
    from repro.proteomics.results import ImprintResultSet

    started = time.perf_counter()
    scenario = ProteomicsScenario.generate(
        seed=seed, n_proteins=PROTEINS, n_spots=size.spots
    )
    runs = scenario.identify_all()
    scenario_s = time.perf_counter() - started
    results = ImprintResultSet(runs)
    framework, holder = setup_framework(scenario)
    holder.set(results)
    view = framework.quality_view(example_quality_view_xml())
    view.compile()
    runtime = framework.runtime(
        backend="thread", workers=1, parallel_enactment=False, queue_size=0
    )
    items = [item for run in runs for item in results.items_of_run(run.run_id)]
    if len(items) < size.jobs * JOB_ITEMS:
        raise RuntimeError(
            f"seed {seed}: {len(items)} identifications, need {size.jobs * JOB_ITEMS}"
        )
    datasets = [items[k * JOB_ITEMS:(k + 1) * JOB_ITEMS] for k in range(size.jobs)]
    return _Deployment(framework, view, runtime, datasets, scenario, results, scenario_s)


def encoded(result: Any) -> bytes:
    """The canonical bytes two enactments are compared by."""
    from repro.serving import wire

    return wire.dumps(wire.encode_result(result))


def reference_documents(dep: _Deployment) -> List[bytes]:
    """Expected bytes per dataset, from the serial enactor."""
    from repro.core.ispider import example_quality_view_xml, setup_framework

    framework, holder = setup_framework(dep.scenario)
    holder.set(dep.results)
    view = framework.quality_view(example_quality_view_xml())
    return [encoded(view.run(dataset)) for dataset in dep.datasets]


def compare(expected: List[bytes], observed: List[bytes]) -> int:
    """Number of positions where the observed bytes differ."""
    if len(expected) != len(observed):
        return max(len(expected), len(observed))
    return sum(1 for want, got in zip(expected, observed) if want != got)


def run(seed: int, seconds: float, tracer: Optional[Tracer], size: BatchSize) -> Outcome:
    from repro.observability import get_registry

    registry = get_registry()

    def discard(dep: _Deployment) -> None:
        dep.runtime.shutdown(drain=True)

    before_setup = Reading.take(registry)
    clock = SetupClock(
        lambda number: _deploy(spare_seed(seed, number), size), discard, size.spares, registry
    )
    dep = clock.first()
    setup_reading = Reading.take(registry).minus(before_setup)
    outcome = Outcome(setup_s=clock.seconds, tails={"job": 95.0, "req": 95.0, "enact": 95.0, "delta": 95.0})

    first_round: List[bytes] = []

    def one_round():
        started = time.perf_counter()
        batch = dep.runtime.submit_many(dep.view, dep.datasets)
        batch.wait()
        rows = []
        for handle in batch:
            error = handle.exception()
            metrics = handle.metrics
            rows.append((
                error is None,
                metrics.run_seconds or 0.0,
                metrics.queue_wait or 0.0,
                dict(metrics.processor_seconds),
                (metrics.finished_at or started) - started,
            ))
        if not first_round:
            first_round.extend(
                encoded(handle.result()) if handle.exception() is None else b""
                for handle in batch
            )
        return rows

    # Calibration samples just before and just after every round measure
    # the host's speed around it (a spare build may come in between).
    before: List[List[float]] = []
    after: List[List[float]] = []

    def calibration() -> List[float]:
        return [calibration_sample() for _ in range(ROUND_CALIBRATION)]

    def between(share: float) -> None:
        after.append(calibration())
        clock.at(share)
        before.append(calibration())

    phase_start = Reading.take(registry)
    if tracer is not None:
        tracer.reset()
    before.append(calibration())
    rounds = alternate_rounds(one_round, seconds, tracer, between)
    dead_letters = len(dep.runtime.dead_letters)
    phase = Reading.take(registry).minus(phase_start).without(clock.spare_readings)
    clock.finish()
    dep.runtime.shutdown(drain=True)

    speeds = [host_speed(before[k] + after[k]) for k in range(len(rounds))]
    # A round across which the host's speed changed (the samples on its
    # two sides disagree) cannot be rescaled by one speed; such rounds are
    # left out of the medians while enough steady rounds remain.
    steady = [
        abs(host_speed(before[k]) / host_speed(after[k]) - 1.0)
        <= SPEED_CHANGE
        for k in range(len(rounds))
    ]
    if sum(1 for (traced, _, _), ok in zip(rounds, steady) if ok and not traced) < MIN_STEADY:
        steady = [True] * len(rounds)
    bare = [r for r in rounds if not r[0]]
    traced_rounds = [r for r in rounds if r[0]]
    # Each family is read per job position as the median over the bare
    # rounds of its times at the reference host speed.
    families: Dict[str, List[List[Optional[float]]]] = {
        name: [] for name in ("job", "req", "enact", "delta", "gap")
    }
    for (traced, _wall, rows), speed, kept in zip(rounds, speeds, steady):
        if traced:
            continue
        per: Dict[str, List[Optional[float]]] = {name: [] for name in families}
        previous = 0.0
        for ok, run_s, wait_s, fired, finished in rows:
            outcome.attempted += 1
            if not ok:
                outcome.failed += 1
                for name in per:
                    per[name].append(None)
                continue
            per["job"].append(run_s * speed)
            per["req"].append((wait_s + run_s) * speed)
            # The enactment trace's firings, and those of its annotation
            # stage, which writes the new items' evidence and reads it
            # back (Data Enrichment).
            per["enact"].append(sum(fired.values()) * speed)
            per["delta"].append(
                sum(fired.get(name, 0.0) for name in ANNOTATION_STAGE) * speed
            )
            per["gap"].append((finished - previous) * speed)
            previous = finished
        if kept:
            for name, values in per.items():
                families[name].append(values)
    typical = {name: per_position_median(repeats) for name, repeats in families.items()}
    outcome.job_s, outcome.req_s = typical["job"], typical["req"]
    outcome.enact_s, outcome.delta_s = typical["enact"], typical["delta"]
    # One worker finishes jobs in order: a round's wall is the sum of the
    # gaps between completions, and the highest rate the worker sustains
    # when never idle is jobs over its busy (run) seconds.
    outcome.jobs_per_s = len(typical["gap"]) / sum(typical["gap"])
    outcome.max_rate_rps = len(typical["job"]) / sum(typical["job"])
    # Every failed job is also dead-lettered (no job retries): count once.
    outcome.failed = max(outcome.failed, dead_letters)

    expected = reference_documents(dep)
    outcome.mismatches = compare(expected, first_round)
    outcome.attempted += len(expected)
    outcome.failed += outcome.mismatches
    outcome.distinct_ops = len(dep.datasets) + len(expected)
    outcome.detail.update(
        rounds=len(rounds),
        jobs_per_round=len(dep.datasets),
        items=sum(len(d) for d in dep.datasets),
        scenario_s=dep.scenario_s,
        host_speed_median=statistics.median(speeds),
        steady_rounds=f"{sum(steady)} of {len(rounds)}",
    )

    if tracer is not None:
        snap = tracer.snapshot()
        traced_ops = sum(len(r[2]) for r in traced_rounds)
        traced_wall = sum(r[1] for r in traced_rounds)
        extra = {
            "proteomics.scenario_s": dep.scenario_s,
            "annotation.repo_triples": float(
                sum(len(store) for store in dep.framework.repositories)
            ),
            "bench.trace_overhead_ratio": (
                mean([r[1] for r in traced_rounds]) / mean([r[1] for r in bare])
            ),
        }
        extra.update(
            rows_per_item_by_quarter(snap["log"], len(dep.datasets), len(traced_rounds))
        )
        outcome.layers = per_layer_metrics(
            snap,
            traced_ops,
            traced_wall,
            phase,
            sum(len(r[2]) for r in rounds),
            setup_reading,
            Reading.take(registry).minus(before_setup),
            extra,
        )
    return outcome

