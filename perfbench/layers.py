"""Per-layer metrics from the tracer's timers and ``repro_*`` counters.

Timer-derived numbers cover the traced rounds only and are divided by
the operations those rounds ran; counter-derived numbers cover the
whole measured phase and are divided by its operations (counters cost
the same traced or not).  Set-up numbers come from the set-up's own
counter delta.  Every metric of the catalogue is present; a layer the
workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from catalog import LAYER_NAMES, PER_LAYER, PROCESSORS
from measure import Reading, ratio


def per_layer_metrics(
    snap: Dict[str, Any],
    traced_ops: int,
    traced_wall: float,
    phase: Reading,
    phase_ops: int,
    setup: Reading,
    whole: Reading,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of the catalogue, by name."""
    incl = snap.get("incl_s", {})
    key_self = snap.get("key_self_s", {})
    calls = snap.get("calls", {})
    rows = snap.get("rows", {})
    self_s = snap.get("self_s", {})

    def ms_per_op(seconds: float) -> float:
        return 1000.0 * ratio(seconds, traced_ops)

    def per_op(count: float) -> float:
        return ratio(count, traced_ops)

    def phase_per_op(count: float) -> float:
        return ratio(count, phase_ops)

    def hit_ratio(name: str, hit_label: Dict[str, str], miss_name: str = "", miss_label=None) -> float:
        hits = phase.total(name, **hit_label)
        misses = phase.total(miss_name or name, **(miss_label or {}))
        return ratio(hits, hits + misses)

    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in LAYER_NAMES:
        out[f"layer.{layer}.self_ms"] = ms_per_op(self_s.get(layer, 0.0))
    out["bench.layer_coverage"] = ratio(
        sum(self_s.get(layer, 0.0) for layer in LAYER_NAMES), traced_wall
    )

    # annotation
    out["annotation.enrich_ms"] = ms_per_op(incl.get("annotation.enrich", 0.0))
    out["annotation.enrich_rows_per_item"] = ratio(
        rows.get("rdf.query@annotation.lookup_batch", 0),
        rows.get("annotation.lookup_batch", 0),
    )
    lookups = "repro_annotation_store_lookups_total"
    out["annotation.lookup_hit_ratio"] = hit_ratio(
        lookups, {"result": "hit"}, lookups, {"result": "miss"}
    )

    # rdf
    out["rdf.query_ms"] = ms_per_op(incl.get("rdf.query", 0.0))
    out["rdf.queries"] = per_op(calls.get("rdf.query", 0))
    out["rdf.rows_returned"] = per_op(rows.get("rdf.query", 0))
    out["rdf.plan_cache_hit_ratio"] = hit_ratio(
        "repro_rdf_plan_cache_hits_total", {},
        "repro_rdf_plan_cache_misses_total", {},
    )

    # storage
    out["storage.probe_calls"] = per_op(calls.get("storage.probe", 0))
    out["storage.probe_rows"] = per_op(rows.get("storage.probe", 0))
    out["storage.page_hit_ratio"] = hit_ratio(
        "repro_storage_page_hits_total", {},
        "repro_storage_page_misses_total", {},
    )
    out["storage.page_evictions"] = phase_per_op(
        phase.total("repro_storage_page_evictions_total")
    )
    out["storage.wal_bytes"] = phase_per_op(phase.total("repro_storage_wal_bytes_total"))
    out["storage.wal_fsyncs"] = phase_per_op(phase.total("repro_storage_wal_fsyncs_total"))
    out["storage.checkpoints"] = phase.total("repro_storage_checkpoints_total")
    open_s, opens = setup.hist("repro_storage_open_seconds")
    out["storage.open_ms"] = 1000.0 * ratio(open_s, opens)
    bulk_s, _ = setup.hist("repro_storage_bulk_load_seconds")
    out["storage.bulk_load_triples_per_s"] = ratio(
        setup.total("repro_storage_bulk_load_triples_total"), bulk_s
    )

    # runtime
    wait_s, waits = phase.hist("repro_runtime_job_queue_wait_seconds")
    run_s, jobs = phase.hist("repro_runtime_job_run_seconds")
    out["runtime.queue_wait_ms"] = 1000.0 * ratio(wait_s, waits)
    out["runtime.job_run_ms"] = 1000.0 * ratio(run_s, jobs)
    out["runtime.admission_rejects"] = phase.total(
        "repro_runtime_jobs_total", outcome="rejected"
    ) + phase.total("repro_serving_quota_rejections_total")

    # serving
    out["serving.dispatch_self_ms"] = ms_per_op(key_self.get("serving.dispatch", 0.0))
    out["serving.wire_encode_ms"] = ms_per_op(incl.get("serving.wire_encode", 0.0))
    out["serving.wire_decode_ms"] = ms_per_op(incl.get("serving.wire_decode", 0.0))
    out["serving.plan_cache_hit_ratio"] = hit_ratio(
        "repro_serving_plan_cache_hits_total", {},
        "repro_serving_plan_cache_misses_total", {},
    )

    # workflow, qa, process
    out["workflow.enact_ms"] = ms_per_op(incl.get("workflow.enact", 0.0))
    out["workflow.firings"] = phase_per_op(
        phase.total("repro_workflow_processor_firings_total")
    )
    fired = phase.by_label("repro_workflow_processor_fire_seconds", "processor")
    for processor, suffix in PROCESSORS:
        seconds, _ = fired.get(processor, (0.0, 0))
        out[f"workflow.fire_ms.{suffix}"] = 1000.0 * phase_per_op(seconds)
    out["qa.fire_ms"] = ms_per_op(incl.get("qa.fire", 0.0))
    out["process.action_ms"] = ms_per_op(incl.get("process.action", 0.0))

    # qv (set-up and phase together: views compile in set-up)
    pass_s, _ = whole.hist("repro_qv_compile_pass_seconds")
    compiles = whole.total("repro_qv_compile_runs_total")
    out["qv.compile_ms"] = 1000.0 * ratio(pass_s, compiles)
    out["qv.compiles"] = compiles

    # stream
    out["stream.apply_ms"] = ms_per_op(incl.get("stream.apply", 0.0))
    out["stream.window_ms"] = ms_per_op(
        incl.get("stream.process", 0.0) - incl.get("stream.apply", 0.0)
    ) if incl.get("stream.process") else 0.0
    out["stream.processors_fired"] = phase_per_op(
        phase.total("repro_stream_processors_fired_total")
    )
    out["stream.memo_hit_ratio"] = hit_ratio(
        "repro_stream_memo_hits_total", {}, "repro_stream_memo_misses_total", {}
    )
    out["stream.reannotated_items"] = phase_per_op(
        phase.total("repro_stream_reannotated_items_total")
    )
    out["stream.apply_lookup_batch_calls"] = calls.get(
        "annotation.lookup_batch@stream.apply", 0
    )

    out.update(extra or {})
    return out


def rows_per_item_by_quarter(log: List[tuple], jobs_per_round: int, rounds: int) -> Dict[str, float]:
    """Rows per item over the first and last quarter of each round.

    ``log`` holds one (rows, items) entry per batch lookup, in call
    order; each round's jobs make the same number of lookups.
    """
    if not log or not jobs_per_round or not rounds:
        return {}
    per_job = len(log) // (jobs_per_round * rounds)
    if per_job == 0:
        return {}
    quarter = max(1, jobs_per_round // 4)
    first = [0, 0]
    last = [0, 0]
    for r in range(rounds):
        base = r * jobs_per_round * per_job
        for job in range(jobs_per_round):
            entries = log[base + job * per_job: base + (job + 1) * per_job]
            target = first if job < quarter else last if job >= jobs_per_round - quarter else None
            if target is None:
                continue
            for got, asked in entries:
                target[0] += got
                target[1] += asked
    return {
        "annotation.enrich_rows_per_item.q1": ratio(first[0], first[1]),
        "annotation.enrich_rows_per_item.q4": ratio(last[0], last[1]),
    }
