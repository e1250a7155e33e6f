"""Seeded benchmark inputs: the cohorts and the served op script.

Everything here is a pure function of the seed, so two runs with one
seed drive the program with identical inputs, and the program only ever
receives what this module generated.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.io.serialization import profile_to_dict
from repro.synth.graphs import EgoNetConfig
from repro.synth.population import StudyPopulation, generate_study_population

#: Every registered risk measure; served reads cycle through all three.
MEASURES = ("stranger", "friendship", "neighborhood")


@dataclass(frozen=True)
class Shape:
    """Cohort size: owners, strangers per owner, friends per owner."""

    owners: int
    strangers: int
    friends: int = 30


#: cold-score: kernel-bound cold computes.
COLD_SHAPE = Shape(owners=8, strangers=1000)
#: served-mix / routed-mix: cached reads, delta replays and writes.
SERVED_SHAPE = Shape(owners=8, strangers=300)
#: Self-test scale for both.
TINY_SHAPE = Shape(owners=3, strangers=40, friends=10)

#: Pass variants of the served script; pass ``i`` runs variant ``i % 6``.
VARIANTS = 6
#: Cached reads before each forward edit of a pass.
READS_PER_EDIT = 8


@dataclass(frozen=True)
class Read:
    """``GET /score?owner=&measure=`` (``RiskEngine.score`` in-process)."""

    owner: int
    measure: str


@dataclass(frozen=True)
class Mutate:
    """``POST /mutate`` followed by a fresh ``/score`` of ``owner``.

    ``body`` is the exact JSON document sent; ``kind`` names the edit
    class (``ss-edge`` stranger-stranger, ``fs-edge`` friend-stranger,
    ``profile`` stranger profile), for reporting only.
    """

    kind: str
    owner: int
    body: str


#: One pass: phases run in order with a barrier between them (both
#: client connections finish a phase before either starts the next).
Pass = tuple[tuple[Read | Mutate, ...], ...]


@dataclass(frozen=True)
class OpScript:
    """The served workload: pass ``i`` of a run is ``passes[i % len]``.

    Phase 0 of a pass is cached reads with the forward edits spread
    among them, then every reverse edit; phase 1 is a sweep that reads
    every ``(owner, measure)`` pair once.  The reverses restore the
    starting graph, so every sweep returns the starting digests.  The
    variants edit different users, so a run averages over many edits.
    """

    passes: tuple[Pass, ...]

    def pass_at(self, index: int) -> Pass:
        return self.passes[index % len(self.passes)]


def make_population(seed: int, shape: Shape) -> StudyPopulation:
    """The seeded cohort of ``shape``."""
    return generate_study_population(
        num_owners=shape.owners,
        ego_config=EgoNetConfig(
            num_friends=shape.friends, num_strangers=shape.strangers
        ),
        seed=seed,
    )


def make_script(population: StudyPopulation, seed: int) -> OpScript:
    """The served op script for ``population``, derived from ``seed``."""
    rng = random.Random(f"perfbench-script-{seed}")
    return OpScript(
        passes=tuple(_make_pass(population, rng) for _ in range(VARIANTS))
    )


def _make_pass(population: StudyPopulation, rng: random.Random) -> Pass:
    """One pass: an edit of each kind for every owner, reads, a sweep.

    Every owner gets one edit of each kind, owners in a seeded order, so
    the mix of cheap and cascading replays does not hang on the seed;
    ``READS_PER_EDIT`` reads of seeded, still-cached pairs precede each
    forward edit.  Every edit touches users no other edit of the pass
    touches, so a forward and its reverse commute with everything between
    them.  The reverses follow the last forward, in the same order: each
    sits many units after its forward and the unit before the first
    reverse is an edit, so with two closed-loop connections a reverse
    never overlaps its own forward and no read recomputes between two
    reverses.
    """
    graph = population.graph
    owners = [owner.user_id for owner in population.owners]
    pairs = [(owner, measure) for owner in owners for measure in MEASURES]
    used: set[int] = set()

    def fresh(candidates) -> int:
        user = rng.choice(sorted(set(candidates) - used))
        used.add(user)
        return user

    def edge(owner: int, kind: str) -> tuple[Mutate, Mutate]:
        handle = population.handles[owner]
        while True:
            a = fresh(handle.friends if kind == "fs-edge" else handle.strangers)
            b = fresh(handle.strangers)
            if not graph.are_friends(a, b):
                break
        add = {"op": "add_friendship", "a": a, "b": b}
        remove = {"op": "remove_friendship", "a": a, "b": b}
        return _mutate(kind, owner, add), _mutate(kind, owner, remove)

    def profile(owner: int) -> tuple[Mutate, Mutate]:
        strangers = population.handles[owner].strangers
        while True:
            original = profile_to_dict(graph.profile(fresh(strangers)))
            if not original["attributes"]:
                continue
            attribute = rng.choice(sorted(original["attributes"]))
            values = sorted(
                {
                    profile_to_dict(graph.profile(other))["attributes"].get(
                        attribute
                    )
                    for other in strangers
                }
                - {None, original["attributes"][attribute]}
            )
            if values:
                break
        edited = json.loads(json.dumps(original))
        edited["attributes"][attribute] = rng.choice(values)
        update = {"op": "update_profile", "profile": edited}
        restore = {"op": "update_profile", "profile": original}
        return _mutate("profile", owner, update), _mutate(
            "profile", owner, restore
        )

    edits = []
    for owner in rng.sample(owners, len(owners)):
        mine = [edge(owner, "ss-edge"), edge(owner, "fs-edge"), profile(owner)]
        edits += rng.sample(mine, len(mine))
    phase: list[Read | Mutate] = []
    # reads only pick pairs still cached: an edited owner's follow-up
    # refreshes its stranger score, its other measures stay stale until
    # the sweep recomputes them on the restored graph
    cached = list(pairs)
    for forward, _ in edits:
        phase += [Read(*rng.choice(cached)) for _ in range(READS_PER_EDIT)]
        phase.append(forward)
        cached = [
            (owner, measure)
            for owner, measure in cached
            if owner != forward.owner or measure == "stranger"
        ]
    phase += [reverse for _, reverse in edits]
    sweep = [Read(owner, measure) for owner, measure in pairs]
    rng.shuffle(sweep)
    return (tuple(phase), tuple(sweep))


def _mutate(kind: str, owner: int, body: dict) -> Mutate:
    return Mutate(
        kind=kind,
        owner=owner,
        body=json.dumps(body, sort_keys=True, separators=(",", ":")),
    )
