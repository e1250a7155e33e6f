"""Self-tests for the benchmark, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import spans  # noqa: E402
from repro.service import OwnerStore, RiskEngine, mutate_store  # noqa: E402

#: The wrapped layers' self times of one op (its ``op`` root span left
#: out) must cover its externally timed latency within this share plus
#: :data:`SUM_SLACK_S`; what is left is the time in no wrapped layer.
SUM_TOLERANCE = 0.05
SUM_SLACK_S = 0.0005


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cold-score", "served-mix", "routed-mix"])
def test_every_metric_name_and_unit_is_printed(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_same_seed_same_script_other_seed_other_script():
    def script(seed):
        population = inputs.make_population(seed, inputs.TINY_SHAPE)
        return inputs.make_script(population, seed)

    assert script(5) == script(5)
    assert script(5) != script(6)


def test_every_pass_of_edits_restores_the_graph():
    population = inputs.make_population(4, inputs.TINY_SHAPE)
    script = inputs.make_script(population, 4)
    graph = population.graph
    before = (
        {user: graph.friends(user) for user in graph.users()},
        {user: graph.profile(user) for user in graph.users()},
    )
    store = OwnerStore.from_population(population)
    edits = [unit for phases in script.passes for unit in phases[0]]
    assert len(script.passes) > 1
    for unit in edits:
        if isinstance(unit, inputs.Mutate):
            body = json.loads(unit.body)
            mutate_store(store, body["op"], body)
    after = (
        {user: graph.friends(user) for user in graph.users()},
        {user: graph.profile(user) for user in graph.users()},
    )
    assert after == before


def test_traced_self_times_sum_to_op_latency():
    population = inputs.make_population(2, inputs.TINY_SHAPE)
    engine = RiskEngine(OwnerStore.from_population(population), seed=2)
    tracer = spans.Tracer()
    measured = []
    with spans.instrument(tracer):
        for op, owner in enumerate(engine.store.owner_ids() * 2):
            start = time.perf_counter()
            with tracer.op(op):
                engine.invalidate(owner)
                engine.score(owner)
            measured.append(time.perf_counter() - start)
    names = {span.name for span in tracer.spans}
    assert {"engine.score", "replay", "ns", "squeezer", "pool.run",
            "harmonic.predict", "digest"} <= names
    for op, latency in enumerate(measured):
        own = [span for span in tracer.spans if span.op == op]
        assert all(span.self_time >= -1e-9 for span in own)
        layers = sum(span.self_time for span in own if span.name != "op")
        assert layers <= latency
        assert latency - layers <= SUM_TOLERANCE * latency + SUM_SLACK_S


def test_instrument_restores_every_patched_function():
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute, _, _ in spans._targets()
    ]
    with spans.instrument(spans.Tracer()):
        pass
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("cold-score", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
