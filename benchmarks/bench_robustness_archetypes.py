"""E22 — robustness: owner risk-attitude archetypes.

The paper's premise is that "risk attitude has been found to be very
subjective" (Section II) — so the learner must adapt to each owner rather
than assume one judgment function.  This bench runs the pipeline over
cohorts of qualitatively different owner archetypes (paranoid, relaxed,
heterophile, balanced) and checks the learner tracks each of them.
"""

import pytest

from repro.experiments.headline import headline_metrics
from repro.experiments.report import render_table
from repro.experiments.study import run_study
from repro.faults import FaultPlan
from repro.synth import EgoNetConfig, generate_study_population
from repro.synth.owners import ARCHETYPES
from repro.types import RiskLabel

from .conftest import SEED, write_artifact

#: The deployment-shaped fault mix from the resilience acceptance
#: scenario: one in five oracle queries abstains, one in ten fetches
#: fails transiently, and one in ten profile attributes is lost.
FAULT_PLAN = FaultPlan(
    oracle_abstain_rate=0.2,
    fetch_failure_rate=0.1,
    unreachable_rate=0.02,
    attribute_drop_rate=0.1,
)

_RESULTS: dict[str, tuple] = {}


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_robustness_archetypes(benchmark, archetype):
    population = generate_study_population(
        num_owners=3,
        ego_config=EgoNetConfig(num_friends=35, num_strangers=200),
        seed=SEED,
        archetype=archetype,
    )
    study = benchmark.pedantic(
        run_study,
        args=(population,),
        kwargs={"seed": SEED},
        rounds=1,
        iterations=1,
    )
    metrics = headline_metrics(study)

    label_counts = {label: 0 for label in RiskLabel}
    for owner in population.owners:
        for label, count in owner.label_distribution().items():
            label_counts[label] += count
    total = sum(label_counts.values())

    # --- archetype sanity: the families really differ ---
    very_risky_share = label_counts[RiskLabel.VERY_RISKY] / total
    not_risky_share = label_counts[RiskLabel.NOT_RISKY] / total
    if archetype == "paranoid":
        assert very_risky_share > 0.4
    if archetype == "relaxed":
        assert not_risky_share > 0.5
        assert very_risky_share < 0.1

    # --- the learner adapts to every family ---
    assert metrics.holdout_accuracy > 0.6

    _RESULTS[archetype] = (metrics, very_risky_share, not_risky_share)
    if len(_RESULTS) == len(ARCHETYPES):
        _write_archetype_artifact()


def _write_archetype_artifact():
    rows = [
        (
            name,
            f"{nr_share:.0%}",
            f"{vr_share:.0%}",
            f"{metric.exact_match_accuracy:.1%}",
            f"{metric.holdout_accuracy:.1%}",
        )
        for name, (metric, vr_share, nr_share) in _RESULTS.items()
    ]
    write_artifact(
        "robustness_archetypes",
        "Robustness — owner attitude archetypes\n"
        + render_table(
            (
                "archetype",
                "not-risky share",
                "very-risky share",
                "validated acc",
                "holdout acc",
            ),
            rows,
        ),
    )


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_robustness_archetypes_faulted(benchmark, archetype):
    """Every archetype survives the deployment-shaped fault mix.

    Same cohorts as above, but each owner's oracle and profile source run
    behind a deterministic :class:`~repro.faults.FaultInjector` plus the
    resilience layer (retry + graceful degradation).  The study must
    complete degraded-but-nonempty and still track the owner.
    """
    population = generate_study_population(
        num_owners=3,
        ego_config=EgoNetConfig(num_friends=35, num_strangers=200),
        seed=SEED,
        archetype=archetype,
    )
    study = benchmark.pedantic(
        run_study,
        args=(population,),
        kwargs={"seed": SEED, "fault_plan": FAULT_PLAN},
        rounds=1,
        iterations=1,
    )
    metrics = headline_metrics(study)

    # degraded, not destroyed: faults were really injected ...
    assert study.degraded
    assert study.total_abstentions > 0
    # ... yet every owner still produced labels and the learner adapted.
    assert all(run.result.final_labels() for run in study.runs)
    assert metrics.holdout_accuracy > 0.55
