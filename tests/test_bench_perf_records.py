"""E18 writes ``BENCH_perf.json`` by merging records, op by op."""

import json
import os

from benchmarks.bench_perf_scaling import merge_perf_records


def _record(op, seconds):
    return {"op": op, "n": 10, "seconds": seconds}


def test_partial_run_keeps_the_other_sections_records(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    document = {
        "seed": 1,
        "cpu_cores": 64,
        "records": [_record("a", 1.0), _record("b", 2.0), _record("c", 3.0)],
    }
    path.write_text(json.dumps(document), encoding="utf-8")

    merge_perf_records(path, [_record("b", 0.5), _record("d", 4.0)])

    merged = json.loads(path.read_text(encoding="utf-8"))
    assert merged["records"] == [
        _record("a", 1.0),
        _record("b", 0.5),
        _record("c", 3.0),
        _record("d", 4.0),
    ]
    assert merged["cpu_cores"] == (os.cpu_count() or 1)


def test_first_run_writes_its_records(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    merge_perf_records(path, [_record("a", 1.0)])
    assert json.loads(path.read_text(encoding="utf-8"))["records"] == [
        _record("a", 1.0)
    ]
