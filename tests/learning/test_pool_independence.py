"""Every pool is its own active-learning process.

Each pool samples from an RNG derived from the session seed and its
pool id, so a pool's outcome depends on its own inputs only: changing
one pool's inputs re-runs that pool and leaves every other pool's
result bit-identical, cold or warm.
"""

from __future__ import annotations

import pytest

from repro.experiments import plan_owner_session
from repro.graph.profile import Profile
from repro.learning.replay import replay_session
from repro.service import OwnerStore
from repro.synth import EgoNetConfig, generate_study_population
from repro.types import ProfileAttribute

SEED = 31


def _population():
    return generate_study_population(
        num_owners=2,
        ego_config=EgoNetConfig(num_friends=15, num_strangers=60),
        seed=SEED,
    )


def _session(graph, owner, index):
    return plan_owner_session(owner, index, seed=SEED).build_session(graph)


def _members(result):
    return set(result.owner_labels) | set(result.predicted_labels)


def _move_hometowns(graph, members):
    """Give ``members`` new hometowns: the pool's profiles, and so its
    classifier's edge weights, change, while its membership does not
    (Squeezer clusters on gender, locale and last name)."""
    for member in members:
        profile = graph.profile(member)
        attributes = dict(profile.attributes)
        attributes[ProfileAttribute.HOMETOWN] = f"Elsewhere {member}"
        graph.add_user(
            Profile(
                user_id=member,
                attributes=attributes,
                privacy=dict(profile.privacy),
            )
        )


@pytest.mark.parametrize("index", [0, 1])
def test_perturbing_one_pool_leaves_every_other_pool_bit_identical(index):
    population = _population()
    owner = population.owners[index]
    cold = _session(population.graph, owner, index).run()
    moved = 0
    for target in cold.pool_results:
        perturbed = _population()
        _move_hometowns(perturbed.graph, _members(target))
        rerun = _session(perturbed.graph, owner, index).run()
        assert [pool.pool_id for pool in rerun.pool_results] == [
            pool.pool_id for pool in cold.pool_results
        ]
        for before, after in zip(cold.pool_results, rerun.pool_results):
            if before.pool_id == target.pool_id:
                moved += before != after
            else:
                assert after == before, (target.pool_id, before.pool_id)
    # the perturbation really changed some pools' outcomes
    assert moved


def test_warm_replay_reruns_exactly_the_pools_whose_fingerprint_changed():
    population = _population()
    store = OwnerStore.from_population(population)
    reruns = []
    for index, owner in enumerate(population.owners):
        cold = replay_session(_session(store.graph, owner, index))
        version = store.get(owner.user_id).version
        # one NS-moving edge: a friend befriends a stranger
        handle = population.handles[owner.user_id]
        friend = sorted(handle.friends)[0]
        stranger = next(
            s
            for s in sorted(handle.strangers)
            if s not in store.graph.friends(friend)
        )
        store.add_friendship(friend, stranger)
        dirty = store.dirty_between(owner.user_id, version)
        assert dirty.ns and not dirty.full

        warm = replay_session(
            _session(store.graph, owner, index), cold.state, dirty
        )
        changed = {
            pool_id
            for pool_id, record in warm.state.pools.items()
            if pool_id not in cold.state.pools
            or cold.state.pools[pool_id].fingerprint != record.fingerprint
        }
        assert warm.stats.pools_rerun == len(changed)
        assert warm.stats.pools_reused == len(warm.state.pools) - len(changed)
        for pool_id, record in warm.state.pools.items():
            if pool_id not in changed:
                assert record.result == cold.state.pools[pool_id].result
        # and the warm result is the cold one on the mutated graph
        recomputed = _session(store.graph, owner, index).run()
        assert warm.result == recomputed
        reruns.append((len(changed), len(warm.state.pools)))
    # the edges moved some pools, and left others alone
    assert any(rerun for rerun, _ in reruns)
    assert all(rerun < total for rerun, total in reruns)


@pytest.mark.parametrize("index", [0, 1])
def test_a_pool_outcome_does_not_depend_on_its_position(index):
    """Dropping the first NS group's strangers moves every later pool
    forward in the run order; each keeps its id and its outcome."""
    population = _population()
    owner = population.owners[index]
    session = _session(population.graph, owner, index)
    cold = session.run()
    first_group = cold.pool_results[0].nsg_index
    dropped = set().union(
        *(
            _members(pool)
            for pool in cold.pool_results
            if pool.nsg_index == first_group
        )
    )
    subset = session.run(strangers=session.ego.strangers - dropped)
    kept = [
        pool for pool in cold.pool_results if pool.nsg_index != first_group
    ]
    assert list(subset.pool_results) == kept
