"""The benchmark's own checks, on smoke sizes of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

1. every catalogue metric is printed with its unit, traced and not,
   and no two end-to-end metrics of a workload read the same samples;
2. each workload's oracle flags a deliberately corrupted result, and
   the command then exits non-zero;
3. the traced rollup names every layer, and the workloads together
   put time on every layer of the measured phase.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import run as bench_run  # noqa: E402

WORKLOADS = [name for name, _ in catalog.WORKLOADS]
SMOKE_SECONDS = "0.5"


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    # The serving smoke run needs a little longer to offer every request
    # kind at least once.
    seconds = "2" if workload == "serve-durable" else SMOKE_SECONDS
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    """(workload, trace) -> (returncode, parsed last line, stderr)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.stdout.strip(), proc.stderr
            last = proc.stdout.strip().splitlines()[-1]
            out[(workload, trace)] = (proc.returncode, json.loads(last), proc.stderr)
    return out


def test_benchmark_json_matches_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()
    assert set(WORKLOADS) == set(bench_run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(results, workload, trace):
    code, document, stderr = results[(workload, trace)]
    assert code == 0, stderr
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True and document["failed"] == 0
    assert document["attempted"] >= 1
    declared = catalog.PER_LAYER if trace else catalog.END_TO_END
    units = {entry[0]: entry[1] for entry in declared}
    assert {name: m["unit"] for name, m in document["metrics"].items()} == units
    for name, metric in document["metrics"].items():
        assert isinstance(metric["value"], float)
        assert f"{name}: " in stderr
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_families_read_distinct_samples(results, workload):
    # No end-to-end metric is a copy of another on the same workload.
    metrics = results[(workload, 0)][1]["metrics"]
    medians = {
        family: metrics[f"{family}_ms_p50"]["value"]
        for family in ("job", "req", "enact", "delta")
    }
    assert len(set(medians.values())) == len(medians), medians
    assert metrics["jobs_per_s"]["value"] != metrics["max_rate_rps"]["value"]


def test_rescaling_and_position_medians():
    import measure

    # A host at half the reference speed doubles a duration; rescaling
    # takes it back to the reference.
    slow = [2 * measure.CALIBRATION_REF_S] * 3
    assert measure.host_speed(slow) == 0.5
    assert measure.local_speeds(slow, reach=1) == [0.5, 0.5, 0.5]
    # Each position's median over repeats; failed repeats (None) are
    # skipped and a position no repeat completed is left out.
    repeats = [[1.0, None, 5.0], [3.0, None], [2.0, None, 7.0]]
    assert measure.per_position_median(repeats) == [2.0, 6.0]


def test_traced_rollup_names_every_layer(results):
    busy = set()
    for workload in WORKLOADS:
        metrics = results[(workload, 1)][1]["metrics"]
        for layer in catalog.LAYER_NAMES:
            value = metrics[f"layer.{layer}.self_ms"]["value"]
            if value > 0:
                busy.add(layer)
        assert metrics["proteomics.scenario_s"]["value"] >= 0
    # Compilation and scenario generation happen in set-up; their layers
    # are read from set-up counters and direct timing instead.
    assert busy >= set(catalog.LAYER_NAMES) - {"qv", "proteomics"}
    growing = results[("batch-growing", 1)][1]["metrics"]
    assert growing["qv.compiles"]["value"] > 0
    assert growing["proteomics.scenario_s"]["value"] > 0
    stream = results[("stream-deltas", 1)][1]["metrics"]
    assert stream["stream.apply_lookup_batch_calls"]["value"] == 0


def _corrupt(document: bytes) -> bytes:
    return document.replace(b'"surviving":[', b'"surviving":["urn:corrupt",', 1)


def test_batch_oracle_flags_corruption(monkeypatch):
    import wl_batch

    original = wl_batch.reference_documents

    def corrupted(dep):
        docs = original(dep)
        return [_corrupt(docs[0])] + docs[1:]

    monkeypatch.setattr(wl_batch, "reference_documents", corrupted)
    outcome = wl_batch.run(3, 0.2, None, wl_batch.SMOKE)
    assert outcome.mismatches == 1


def test_stream_oracle_flags_corruption(monkeypatch):
    import wl_stream

    original = wl_stream._encoded
    calls = {"n": 0}

    def corrupted(result):
        calls["n"] += 1
        document = original(result)
        # The first encoding of each check is the incremental result.
        return _corrupt(document) if calls["n"] == 1 else document

    monkeypatch.setattr(wl_stream, "_encoded", corrupted)
    outcome = wl_stream.run(3, 0.2, None, wl_stream.SMOKE)
    assert outcome.mismatches == 1


def test_serve_oracle_flags_corruption(monkeypatch, tmp_path):
    import wl_serve

    original = wl_serve.direct_documents

    def corrupted(dep, samples, checks):
        for sample in samples:
            if sample.kind == "read" and sample.status == 200:
                sample.body = _corrupt(sample.body)
                break
        return original(dep, samples, checks)

    monkeypatch.setattr(wl_serve, "direct_documents", corrupted)
    outcome = wl_serve.run(3, 1.0, None, wl_serve.SMOKE, tmp_path)
    assert outcome.mismatches == 1


def test_mismatch_exits_nonzero(monkeypatch, capsys):
    import wl_stream

    monkeypatch.setattr(wl_stream, "check_step", lambda enactor, result: False)
    code = bench_run.main(
        ["--workload", "stream-deltas", "--seconds", "0.2", "--smoke"]
    )
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("batch-growing", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
