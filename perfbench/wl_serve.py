"""The ``serve-durable`` workload.

An in-process :class:`~repro.serving.QualityViewServer` on a loopback
port over durable **paged** stores (``storage_sync="batch"``).  Set-up
bulk-loads the ``evidence`` annotation repository to a few times the
paged engine's default 1024-block cache: "hot" items carry the Imprint
evidence the view reads, "cold" items carry other evidence classes, and
the two are interleaved so the view's reads touch blocks all over the
store.  Two views are registered over HTTP:

* ``qv-read`` has no annotator; its enactments over pre-loaded datasets
  only read ``evidence``;
* ``qv-write`` annotates the items of never-seen spots, in datasets of
  one size, into a second durable repository, ``incoming``, and reads
  them back: WAL appends and commits.  Keeping its writes out of
  ``evidence`` keeps the read path the same size through the run.

Load comes from one process as an open loop over at most two
connections at a time: requests are due on a fixed schedule, each is
timed from its due time, and the generator's lateness is reported.  The
mix keeps the proportions of the repository's multi-tenant serving
benchmark (E18, ``benchmarks/bench_serving.py``): per 10 enactments,
20 job-status polls and 5 ``/healthz`` checks.  Enactments
(``wait: true``) go on one lane, one connection each; polls and health
checks go on the other lane, over one kept-alive connection, as a
monitoring client sends them.  The server writes a response's headers
and body separately, so a kept-alive request that follows its
predecessor within the client's delayed-ACK time (about 40 ms) stalls
for that long; at the nominal rate the polls are further apart, and
in the sweep the stall is what first limits the check lane.  A main
phase runs at the nominal rate; a sweep then offers rising fixed rates
until one fails, and ``max_rate_rps`` is the highest rate whose
enactment tail met the latency limit with no growing backlog.

Oracle: sampled enactment bodies must be byte-equal to a direct
enactment of the same view over the same items, after the load stops.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from layers import per_layer_metrics
from measure import Reading, calibration_burst, host_speed, mean, percentile
from tracing import Tracer
from workload import Outcome, SetupClock, spare_seed

#: Items per enactment dataset, read or write.
DATASET_ITEMS = 8
#: Enactment latency limit for ``max_rate_rps``: the tail must stay under
#: it at ``LIMIT_PCT``.
LIMIT_MS = 250.0
LIMIT_PCT = 75.0
#: One cycle of the request mix (repeated in order).  Enactments, job
#: polls and health checks stand 2 : 4 : 1 as in E18's per-tenant mix
#: (10 : 20 : 5).  E18 has no read/write distinction; here the two
#: enactments of a cycle are one read and one write, an equal split.
#: The order is synthetic.  A check that arrives while an enactment runs
#: waits for the interpreter lock (about 13 ms instead of 1-2 ms), so a
#: fixed order makes the same check overlap the read in every cycle.
MIX = ("read", "health", "write", "poll", "poll", "poll", "poll")


@dataclass(frozen=True)
class ServeSize:
    hot_items: int
    cold_items: int
    spots: int
    rate: float
    #: Share of the run at the nominal rate; the rest is the sweep.
    main_share: float
    #: Sweep: first step rate, growth factor per step, requests per step.
    sweep_from: float
    sweep_factor: float
    step_requests: int
    checks: int
    #: Set-up builds beyond the kept one: one before it, the rest after
    #: the load, so the builds span the run.
    spares: int = 2


FULL = ServeSize(
    hot_items=200, cold_items=24000, spots=80, rate=12.0, main_share=0.75,
    sweep_from=24.0, sweep_factor=1.12, step_requests=35, checks=20,
)
SMOKE = ServeSize(
    hot_items=40, cold_items=100, spots=6, rate=8.0, main_share=0.6,
    sweep_from=12.0, sweep_factor=1.5, step_requests=7, checks=4, spares=0,
)

HOT_TYPES = ("Coverage", "HitRatio", "PeptidesCount", "Masses")
COLD_TYPES = ("EvidenceCode", "ELDP", "JournalImpactFactor")


def preload_triples(seed: int, size: ServeSize) -> Tuple[list, List[str]]:
    """The seeded repository content and the hot item URIs."""
    from repro.rdf import Literal, Q, RDF, URIRef

    rng = random.Random(seed)
    contains = Q["contains-evidence"]
    order = [("hot", i) for i in range(size.hot_items)] + [
        ("cold", i) for i in range(size.cold_items)
    ]
    rng.shuffle(order)
    triples = []
    hot: List[str] = []
    node = 0
    for kind, index in order:
        item = URIRef(f"urn:lsid:perfbench.org:{kind}:{index:06d}")
        if kind == "hot":
            hot.append(str(item))
        for type_name in HOT_TYPES if kind == "hot" else COLD_TYPES:
            evidence = URIRef(f"http://qurator.org/annotation/evidence/pre{node}")
            node += 1
            if type_name in ("Coverage", "HitRatio"):
                value = Literal(round(rng.uniform(0.05, 0.9), 4))
            else:
                value = Literal(rng.randint(2, 30))
            triples.append((item, contains, evidence))
            triples.append((evidence, RDF.type, Q[type_name]))
            triples.append((evidence, Q.value, value))
    hot.sort()
    return triples, hot


def view_xml(write: bool) -> str:
    """The Sec. 5.1 view over a durable repository: ``incoming`` for the
    annotating view, ``evidence`` for the read-only one."""
    from repro.core.ispider import example_quality_view_xml

    repository = "incoming" if write else "evidence"
    xml = example_quality_view_xml().replace(
        'repositoryRef="cache" persistent="false"',
        f'repositoryRef="{repository}" persistent="true"',
    ).replace('repositoryRef="cache"', f'repositoryRef="{repository}"')
    if not write:
        start = xml.index("<Annotator")
        end = xml.index("</Annotator>") + len("</Annotator>")
        xml = xml[:start] + xml[end:]
    return xml


@dataclass
class _Deployment:
    root: str
    framework: Any
    runtime: Any
    server: Any
    datasets: Dict[str, List[Any]]
    scenario_s: float


def _deploy(seed: int, size: ServeSize, triples: list, hot: List[str], root: str) -> _Deployment:
    from repro.core.ispider import setup_framework
    from repro.proteomics import ProteomicsScenario
    from repro.proteomics.results import ImprintResultSet
    from repro.rdf import URIRef
    from repro.serving import QualityViewServer, ServingConfig
    from repro.storage import bulk_load_triples

    started = time.perf_counter()
    scenario = ProteomicsScenario.generate(seed=seed, n_proteins=200, n_spots=size.spots)
    runs = scenario.identify_all()
    scenario_s = time.perf_counter() - started
    results = ImprintResultSet(runs)
    bulk_load_triples(triples, os.path.join(root, "annotations", "evidence"), engine="paged")
    framework, holder = setup_framework(scenario)
    holder.set(results)
    datasets: Dict[str, List[Any]] = {
        f"hot-{k:04d}": [URIRef(item) for item in hot[k * DATASET_ITEMS:(k + 1) * DATASET_ITEMS]]
        for k in range(len(hot) // DATASET_ITEMS)
    }
    # Never-seen items for the annotating view, in chunks of one size so
    # that the seed's spot sizes do not change what a write costs.
    fresh = [item for run in runs for item in results.items_of_run(run.run_id)]
    for k in range(len(fresh) // DATASET_ITEMS):
        datasets[f"new-{k:04d}"] = fresh[k * DATASET_ITEMS:(k + 1) * DATASET_ITEMS]
    runtime = framework.runtime(backend="thread", workers=1, queue_size=64)
    config = ServingConfig(
        port=0, quota_rate=10_000.0, quota_burst=10_000.0,
        storage_dir=root, storage_sync="batch",
    )
    server = QualityViewServer(framework, runtime, config=config, datasets=datasets)
    framework.create_repository("incoming", persistent=True)
    server.serve_in_background()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        for name, write in (("qv-read", False), ("qv-write", True)):
            connection.request(
                "PUT", f"/views/{name}", view_xml(write).encode("utf-8"),
                {"Content-Type": "application/xml"},
            )
            response = connection.getresponse()
            body = response.read()
            if response.status not in (200, 201):
                raise RuntimeError(f"registering {name}: {response.status} {body[:200]!r}")
    finally:
        connection.close()
    return _Deployment(root, framework, runtime, server, datasets, scenario_s)


def _discard(dep: _Deployment) -> None:
    dep.server.close(shutdown_runtime=True)
    shutil.rmtree(dep.root, ignore_errors=True)


@dataclass
class Sample:
    """One request of the open loop."""

    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    target: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


class OpenLoop:
    """Fixed-rate request schedule on two lanes: enactments, one
    connection each, and polls and health checks over one kept-alive
    connection."""

    def __init__(self, port: int, datasets: Dict[str, List[Any]], seed: int) -> None:
        self.port = port
        self.reads = sorted(name for name in datasets if name.startswith("hot-"))
        self.writes = sorted(name for name in datasets if name.startswith("new-"))
        random.Random(seed).shuffle(self.reads)
        self.next_read = 0
        self.next_write = 0
        self.counter = 0
        self.jobs: List[str] = []
        self.jobs_lock = threading.Lock()
        #: (taken at, seconds) of the calibration samples the enactment
        #: lane takes just before each enactment is due.
        self.calibration: List[Tuple[float, float]] = []

    def speed_at(self, moment: float) -> float:
        """Host speed from the calibration samples nearest ``moment``."""
        times = [taken for taken, _ in self.calibration]
        k = bisect.bisect_left(times, moment)
        near = self.calibration[max(0, k - SPEED_REACH):k + SPEED_REACH]
        return host_speed([seconds for _, seconds in near])

    def _request(self, sample: Sample) -> Tuple[str, str, bytes]:
        if sample.kind in ("read", "write"):
            if sample.kind == "read":
                name = self.reads[self.next_read % len(self.reads)]
                self.next_read += 1
                view = "qv-read"
            else:
                name = self.writes[self.next_write % len(self.writes)]
                self.next_write += 1
                view = "qv-write"
            sample.target = name
            body = json.dumps({"dataset": name, "wait": True}).encode("utf-8")
            return "POST", f"/views/{view}/enact", body
        if sample.kind == "poll":
            return "GET", "", b""  # resolved at send time
        return "GET", "/healthz", b""

    def _poll_path(self, sample: Sample) -> str:
        """The latest enactment's job, or ``/healthz`` before the first."""
        with self.jobs_lock:
            job = self.jobs[-1] if self.jobs else None
        if job is None:
            sample.kind = "health"
            return "/healthz"
        return f"/jobs/{job}"

    def run(self, rate: float, seconds: float) -> List[Sample]:
        """Offer ``rate`` requests/s for ``seconds``; wait for all."""
        count = max(2, int(round(rate * seconds)))
        start = time.perf_counter() + 0.05
        samples = [
            Sample(kind=MIX[(self.counter + i) % len(MIX)], due=start + i / rate)
            for i in range(count)
        ]
        self.counter += count
        # Dataset choice follows due order, not connection timing.
        prepared = [(sample, self._request(sample)) for sample in samples]
        lanes = (
            [p for p in prepared if p[0].kind in ("read", "write")],
            [p for p in prepared if p[0].kind not in ("read", "write")],
        )
        threads = [
            threading.Thread(target=self._connection, args=(lane, keep))
            for lane, keep in zip(lanes, (False, True))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples

    def _connection(self, work: List[Tuple[Sample, Tuple[str, str, bytes]]], keep: bool) -> None:
        """Send one lane's requests at their due times; ``keep`` reuses
        one connection for the whole lane."""
        kept = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120) if keep else None
        try:
            for sample, (method, path, body) in work:
                if not keep and sample.due - time.perf_counter() > CALIBRATION_LEAD_S:
                    # The server is idle this close before an enactment
                    # is due; measure the host's speed then.
                    time.sleep(sample.due - time.perf_counter() - CALIBRATION_LEAD_S)
                    seconds = calibration_burst(CALIBRATION_BURST)
                    self.calibration.append((time.perf_counter(), seconds))
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if not path:
                    path = self._poll_path(sample)
                sample.sent = time.perf_counter()
                headers = {} if keep else {"Connection": "close"}
                if body:
                    headers["Content-Type"] = "application/json"
                connection = kept or http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=120
                )
                try:
                    connection.request(method, path, body, headers)
                    response = connection.getresponse()
                    sample.body = response.read()
                finally:
                    if not keep:
                        connection.close()
                sample.done = time.perf_counter()
                sample.status = response.status
                if sample.kind in ("read", "write") and response.status == 200:
                    job = json.loads(sample.body)["job"]["job_id"]
                    with self.jobs_lock:
                        self.jobs.append(str(job))
        finally:
            if kept is not None:
                kept.close()


#: The enactment lane takes a burst of calibration samples this long
#: before each enactment is due; a request's host speed is read from the
#: bursts nearest its due time, up to this many on each side.
CALIBRATION_LEAD_S = 0.008
CALIBRATION_BURST = 5
SPEED_REACH = 8

#: A kept-alive response slower than this counts as stalled.
STALL_MS = 30.0


def keepalive_stall_ratio(port: int, requests: int = 40) -> float:
    """Share of back-to-back ``/healthz`` requests on one kept-alive
    connection that take longer than ``STALL_MS`` (a healthy answer
    takes about a millisecond)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    stalled = 0
    try:
        for _ in range(requests):
            started = time.perf_counter()
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            if 1000.0 * (time.perf_counter() - started) > STALL_MS:
                stalled += 1
    finally:
        connection.close()
    return stalled / requests


#: A step's backlog grows when the generator's lateness rises, from the
#: first quarter of the step to the last, by more than this share of the
#: step's length.
BACKLOG_SHARE = 0.1


def step_load(samples: List[Sample], seconds: float) -> Tuple[float, float]:
    """(enactment tail ms, load score) of one fixed-rate step.

    The score is the larger of tail ÷ limit and lateness growth ÷ the
    backlog allowance, infinite on any non-2xx answer: the step meets
    the latency limit with no growing backlog exactly when it is ≤ 1.
    """
    enacts = [s.latency for s in samples if s.kind in ("read", "write")]
    if not enacts or any(not 200 <= s.status < 300 for s in samples):
        return float("inf"), float("inf")
    tail = 1000.0 * percentile(enacts, LIMIT_PCT)
    quarter = max(1, len(samples) // 4)
    growth = (
        mean([s.lateness for s in samples[-quarter:]])
        - mean([s.lateness for s in samples[:quarter]])
    )
    return tail, max(tail / LIMIT_MS, growth / (BACKLOG_SHARE * seconds))


def max_rate(steps: List[Tuple[float, float]]) -> float:
    """Highest rate meeting the limit, from (rate, load score) steps.

    A step passes when its score is ≤ 1.  Between the highest passing
    rate and the next, failing one the crossing of 1 is interpolated on
    the scores, so the figure moves smoothly instead of jumping between
    the fixed rates; an infinite score puts it at the passing rate.
    With no passing step the lowest rate is halved; with no failing
    step the highest rate is reported.
    """
    steps = sorted(steps)
    passing = [(r, score) for r, score in steps if score <= 1.0]
    if not passing:
        return steps[0][0] / 2
    best_rate, best_score = passing[-1]
    failing = [(r, score) for r, score in steps if r > best_rate and score > 1.0]
    if not failing:
        return best_rate
    fail_rate, fail_score = failing[0]
    if fail_score == float("inf"):
        return best_rate
    share = (1.0 - best_score) / (fail_score - best_score)
    return best_rate + share * (fail_rate - best_rate)


def direct_documents(dep: _Deployment, samples: List[Sample], checks: int) -> Tuple[int, int]:
    """(checked, mismatched) enactment bodies against direct enactment."""
    from repro.serving import wire

    views = {
        "read": dep.framework.quality_view(view_xml(False)),
        "write": dep.framework.quality_view(view_xml(True)),
    }
    picked: List[Sample] = []
    for kind in ("read", "write"):
        matching = [s for s in samples if s.kind == kind and s.status == 200]
        stride = max(1, len(matching) // max(1, checks // 2))
        picked.extend(matching[::stride][: max(1, checks // 2)])
    mismatched = 0
    for sample in picked:
        served = wire.dumps(json.loads(sample.body)["result"])
        items = dep.datasets[sample.target]
        direct = views[sample.kind].run(items, clear_cache=False)
        if wire.dumps(wire.encode_result(direct)) != served:
            mismatched += 1
    return len(picked), mismatched


def run(seed: int, seconds: float, tracer: Optional[Tracer], size: ServeSize, workdir) -> Outcome:
    from repro.observability import get_registry

    # New durable stores (the view registry's) use the paged engine too;
    # the annotation store is paged because set-up bulk-loads it so.
    previous_engine = os.environ.get("REPRO_STORAGE_BACKEND")
    os.environ["REPRO_STORAGE_BACKEND"] = "paged"
    registry = get_registry()
    triples, hot = preload_triples(seed, size)
    counter = iter(range(1_000_000))
    before_setup = Reading.take(registry)
    clock = SetupClock(
        lambda number: _deploy(
            spare_seed(seed, number), size, triples, hot, str(workdir / f"setup-{next(counter)}")
        ),
        _discard,
        size.spares,
        registry,
        warm_up=False,
    )
    if size.spares:
        clock.spare()
    dep = clock.first()
    setup_reading = Reading.take(registry).minus(before_setup)
    backend = dep.framework.repositories.repository("evidence").graph.backend
    store = backend.describe()
    outcome = Outcome(
        setup_s=clock.seconds,
        tails={"job": 67.0, "req": 95.0, "enact": 67.0, "delta": 67.0},
    )
    loop = OpenLoop(dep.server.port, dep.datasets, seed)
    main_s = seconds * size.main_share
    sweep_s = seconds - main_s
    try:
        phase_start = Reading.take(registry)
        if tracer is not None:
            tracer.reset()
        bare_main = loop.run(size.rate, main_s)
        traced_main: List[Sample] = []
        traced_wall = 0.0
        stall_ratio = 0.0
        if tracer is not None:
            tracer.install()
            started = time.perf_counter()
            try:
                traced_main = loop.run(size.rate, main_s)
            finally:
                traced_wall = time.perf_counter() - started
                tracer.uninstall()
            stall_ratio = keepalive_stall_ratio(dep.server.port)
        sweep: List[Tuple[float, List[Sample], Tuple[float, float]]] = [
            (size.rate, bare_main, step_load(bare_main, main_s))
        ]
        # Rising steps of a fixed request count until one fails or the
        # sweep's share of the run is spent.
        rate, swept = size.sweep_from, 0.0
        while swept < sweep_s:
            step_s = size.step_requests / rate
            samples = loop.run(rate, step_s)
            sweep.append((rate, samples, step_load(samples, step_s)))
            swept += step_s
            if sweep[-1][2][1] > 1.0:
                break
            rate = round(rate * size.sweep_factor, 1)
        phase = Reading.take(registry).minus(phase_start)
        everything = traced_main + [s for _, step, _ in sweep for s in step]
        checked, mismatched = direct_documents(dep, bare_main, size.checks)
        clock.finish()
    finally:
        _discard(dep)
        if previous_engine is None:
            os.environ.pop("REPRO_STORAGE_BACKEND", None)
        else:
            os.environ["REPRO_STORAGE_BACKEND"] = previous_engine

    non2xx = sum(1 for s in everything if not 200 <= s.status < 300)
    outcome.attempted = len(everything) + checked
    # The main phase's schedule is fixed; the sweep's length is not.
    outcome.distinct_ops = len(bare_main) + checked
    outcome.failed = non2xx + mismatched
    outcome.mismatches = mismatched
    enacts = [s for s in bare_main if s.kind in ("read", "write") and s.status == 200]
    reads = [s for s in enacts if s.kind == "read"]
    # Every time is rescaled to the reference host speed around its
    # request's due time.
    speed = {id(s): loop.speed_at(s.due) for s in bare_main}
    run_s = {
        id(s): json.loads(s.body)["job"]["run_ms"] / 1000.0 * speed[id(s)] for s in enacts
    }
    # The offered rate fixes how many enactments complete, so the
    # throughput figure is the server's: enactments per second of its
    # single worker's busy (job run) time.
    outcome.jobs_per_s = len(enacts) / sum(run_s.values())
    outcome.req_s = [s.latency * speed[id(s)] for s in bare_main]
    outcome.enact_s = [s.latency * speed[id(s)] for s in reads]
    outcome.job_s = [run_s[id(s)] for s in reads]
    outcome.delta_s = [s.latency * speed[id(s)] for s in enacts if s.kind == "write"]
    outcome.max_rate_rps = max_rate([(rate, score) for rate, _, (_, score) in sweep])
    lag = [s.lateness for s in bare_main]
    outcome.detail.update(
        store_triples=store["triples"],
        store_blocks=round(store["segment_bytes"] / 4096),
        cache_blocks=store["page_cache"]["capacity_blocks"],
        requests=len(everything),
        sweep_tail_ms_score=[
            (rate, round(tail, 1), round(score, 2)) for rate, _, (tail, score) in sweep
        ],
        generator_lag_ms_p50=1000.0 * statistics.median(lag),
        host_speed_median=statistics.median(speed.values()),
        oracle_checks=checked,
    )

    if tracer is not None:
        traced_enacts = [s.latency for s in traced_main if s.kind == "read"]
        outcome.layers = per_layer_metrics(
            tracer.snapshot(),
            len(traced_main),
            traced_wall,
            phase,
            len(everything),
            setup_reading,
            Reading.take(registry).minus(before_setup),
            {
                "proteomics.scenario_s": dep.scenario_s,
                "annotation.repo_triples": float(store["triples"]),
                "serving.non2xx": float(non2xx),
                "serving.keepalive_stall_ratio": stall_ratio,
                "serving.wire_bytes_out": mean([len(s.body) for s in traced_main]),
                "bench.generator_lag_ms": 1000.0 * statistics.median(lag),
                "bench.trace_overhead_ratio": (
                    statistics.median(traced_enacts) / statistics.median(outcome.enact_s)
                ),
            },
        )
    return outcome
