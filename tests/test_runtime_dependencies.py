"""numpy is the only runtime dependency.

A fresh interpreter refuses to import ``networkx`` and ``scipy`` (a
``sys.meta_path`` finder raises on them) and still imports the package
and the router and serves one cold score, which runs the batched ``NS``
kernel and the harmonic solve's LAPACK ``dposv``.  Nothing is
installed or uninstalled.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import json
import sys

REFUSED = {"networkx", "scipy"}


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, Refuse())

import repro
import repro.service.router
from repro.classifier import harmonic
from repro.service import OwnerStore, RiskEngine
from repro.similarity import network
from repro.synth import EgoNetConfig, generate_study_population

kernel_calls = []
kernel = network.batched_mutual_stats


def counted(*args):
    kernel_calls.append(len(args[2]))
    return kernel(*args)


network.batched_mutual_stats = counted
population = generate_study_population(
    num_owners=1,
    ego_config=EgoNetConfig(num_friends=10, num_strangers=40),
    seed=5,
)
store = OwnerStore.from_population(population)
record = RiskEngine(store, seed=5).score(store.owner_ids()[0])
resolved_by_score = harmonic._dposv.cache_info().currsize == 1
print(json.dumps({
    "source": record.source,
    "kernel_calls": kernel_calls,
    "dposv": resolved_by_score and harmonic._dposv() is not None,
    "loaded": sorted(
        name for name in sys.modules if name.partition(".")[0] in REFUSED
    ),
}))
"""


def test_scores_with_networkx_and_scipy_refused():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["source"] == "cold"
    # the stranger set went through the batched kernel
    assert report["kernel_calls"] and max(report["kernel_calls"]) >= 8
    # the score's harmonic solve resolved numpy's dposv
    assert report["dposv"]
    assert report["loaded"] == []
