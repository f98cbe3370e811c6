"""The benchmark's declared workloads and metrics.

``BENCHMARK.json`` at the repository root is this catalogue written
out (``python3 perfbench/catalog.py > BENCHMARK.json``); the tests
check that the two agree and that every run prints exactly these
metrics with these units.
"""

from __future__ import annotations

import json
import sys

RUN_SECONDS = 25

#: (name, why).  The why carries as much provenance as one line of at
#: most 200 characters holds: rationale; loop and rate; sizes; flush
#: policy; nproc; seed.  perfbench/README.md spells each out in full.
WORKLOADS = [
    (
        "batch-growing",
        "Fig.7 batch where each job brings new spots so the DE sweep grows; "
        "closed loop, rounds of 72 jobs x 8 new items, 1 thread worker; "
        "memory store, no flush; nproc 2; seed->scenario",
    ),
    (
        "serve-durable",
        "HTTP server, paged store ~2.5x its 1024-block cache, sync=batch; "
        "open loop 12 rps, 2 conns, E18 mix 2 enact:4 poll:1 health; steps "
        "x1.12 from 24 rps, limit p75 enact 250ms; nproc 2; seed->data",
    ),
    (
        "stream-deltas",
        "StreamEngine over 1000 tracked items; closed loop 1 client, passes "
        "of 140 records (5-item upserts, retractions, threshold edits); "
        "memory memo store, no flush; nproc 2; seed->feed",
    ),
]

#: (name, unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_ms_p50", "ms", "lower", 0.25),
    ("job_ms_tail", "ms", "lower", 0.25),
    ("req_ms_p50", "ms", "lower", 0.25),
    ("req_ms_tail", "ms", "lower", 0.25),
    ("enact_ms_p50", "ms", "lower", 0.25),
    ("enact_ms_tail", "ms", "lower", 0.25),
    ("max_rate_rps", "1/s", "higher", 0.25),
    ("delta_ms_p50", "ms", "lower", 0.25),
    ("delta_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("failed_ratio", "ratio", "lower", 0.25),
]

#: The processors of the Sec. 5.1 view, as metric-name suffixes.
PROCESSORS = [
    ("ImprintOutputAnnotator", "ImprintOutputAnnotator"),
    ("DataEnrichment", "DataEnrichment"),
    ("HR MC score", "HR_MC_score"),
    ("HR score", "HR_score"),
    ("PIScoreClassifier", "PIScoreClassifier"),
    ("ConsolidateAssertions", "ConsolidateAssertions"),
    ("filter top k score", "filter_top_k_score"),
]

LAYER_NAMES = (
    "serving", "runtime", "workflow", "qv", "annotation", "rdf",
    "storage", "qa", "process", "stream", "proteomics",
)

#: (name, unit, better).  "op" is the workload's operation: a job, an
#: HTTP request, or a stream record.
PER_LAYER = (
    [(f"layer.{layer}.self_ms", "ms/op", "lower") for layer in LAYER_NAMES]
    + [
        ("bench.layer_coverage", "ratio", "higher"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
        ("bench.generator_lag_ms", "ms", "lower"),
        ("annotation.enrich_ms", "ms/op", "lower"),
        ("annotation.enrich_rows_per_item", "rows/item", "lower"),
        ("annotation.enrich_rows_per_item.q1", "rows/item", "lower"),
        ("annotation.enrich_rows_per_item.q4", "rows/item", "lower"),
        ("annotation.lookup_hit_ratio", "ratio", "higher"),
        ("annotation.repo_triples", "count", "lower"),
        ("rdf.query_ms", "ms/op", "lower"),
        ("rdf.queries", "1/op", "lower"),
        ("rdf.rows_returned", "1/op", "lower"),
        ("rdf.plan_cache_hit_ratio", "ratio", "higher"),
        ("storage.probe_calls", "1/op", "lower"),
        ("storage.probe_rows", "1/op", "lower"),
        ("storage.page_hit_ratio", "ratio", "higher"),
        ("storage.page_evictions", "1/op", "lower"),
        ("storage.wal_bytes", "bytes/op", "lower"),
        ("storage.wal_fsyncs", "1/op", "lower"),
        ("storage.checkpoints", "count", "lower"),
        ("storage.open_ms", "ms", "lower"),
        ("storage.bulk_load_triples_per_s", "1/s", "higher"),
        ("runtime.queue_wait_ms", "ms", "lower"),
        ("runtime.job_run_ms", "ms", "lower"),
        ("runtime.admission_rejects", "count", "lower"),
        ("serving.dispatch_self_ms", "ms/op", "lower"),
        ("serving.wire_encode_ms", "ms/op", "lower"),
        ("serving.wire_decode_ms", "ms/op", "lower"),
        ("serving.wire_bytes_out", "bytes/op", "lower"),
        ("serving.plan_cache_hit_ratio", "ratio", "higher"),
        ("serving.non2xx", "count", "lower"),
        ("serving.keepalive_stall_ratio", "ratio", "lower"),
        ("workflow.enact_ms", "ms/op", "lower"),
        ("workflow.firings", "1/op", "lower"),
    ]
    + [(f"workflow.fire_ms.{suffix}", "ms/op", "lower") for _, suffix in PROCESSORS]
    + [
        ("qa.fire_ms", "ms/op", "lower"),
        ("process.action_ms", "ms/op", "lower"),
        ("qv.compile_ms", "ms", "lower"),
        ("qv.compiles", "count", "lower"),
        ("stream.apply_ms", "ms/op", "lower"),
        ("stream.window_ms", "ms/op", "lower"),
        ("stream.items_touched", "1/op", "lower"),
        ("stream.processors_fired", "1/op", "lower"),
        ("stream.memo_hit_ratio", "ratio", "higher"),
        ("stream.reannotated_items", "1/op", "lower"),
        ("stream.apply_lookup_batch_calls", "count", "lower"),
        ("proteomics.scenario_s", "s", "lower"),
    ]
)


def benchmark_json() -> dict:
    """The machine-readable description of this benchmark."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
