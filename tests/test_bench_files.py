"""Every BENCH_*.json record of a measured change has the shape readers rely on.

Each file names the change, the command and the machine, the claimed
workload and metric, and per workload the seeds, whether every answer was
correct, the failed operations and the metrics. Metric and workload names
must be the ones BENCHMARK.json declares, so a record cannot drift from the
benchmark it reports on.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_shape(path):
    record = json.loads(path.read_text())
    for key in ("change", "command", "machine"):
        assert isinstance(record.get(key), str) and record[key], key
    claimed = record["claimed"]
    assert claimed["workload"] in record["workloads"]
    assert claimed["metric"] in METRICS
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for name, workload in record["workloads"].items():
        for key in ("seeds", "all_correct", "failed_operations", "metrics"):
            assert key in workload, f"{name}: missing {key!r}"
        assert workload["seeds"], name
        assert isinstance(workload["all_correct"], bool), name
        assert isinstance(workload["failed_operations"], int), name
        assert set(workload["metrics"]) <= METRICS, f"{name}: {set(workload['metrics']) - METRICS}"
