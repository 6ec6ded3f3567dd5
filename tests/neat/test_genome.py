"""Unit and property tests for the NEAT genome."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, creates_cycle
from repro.neat.innovation import InnovationTracker

from tests.conftest import evolved_genome


def _has_cycle(connections) -> bool:
    """Reference cycle check over connection keys."""
    adjacency = {}
    for a, b in connections:
        adjacency.setdefault(a, []).append(b)

    visiting, done = set(), set()

    def dfs(node):
        if node in done:
            return False
        if node in visiting:
            return True
        visiting.add(node)
        for nxt in adjacency.get(node, ()):
            if dfs(nxt):
                return True
        visiting.discard(node)
        done.add(node)
        return False

    return any(dfs(n) for n in list(adjacency))


class TestCreatesCycle:
    def test_self_loop(self):
        assert creates_cycle([], (1, 1))

    def test_simple_cycle(self):
        assert creates_cycle([(1, 2), (2, 3)], (3, 1))

    def test_no_cycle(self):
        assert not creates_cycle([(1, 2), (2, 3)], (1, 3))

    def test_diamond_is_fine(self):
        conns = [(1, 2), (1, 3), (2, 4), (3, 4)]
        assert not creates_cycle(conns, (1, 4))

    def test_back_edge_deep(self):
        conns = [(1, 2), (2, 3), (3, 4), (4, 5)]
        assert creates_cycle(conns, (5, 2))


class TestInitialGenome:
    def test_full_connectivity(self, small_config, tracker, rng):
        genome = Genome.initial(0, small_config, tracker, rng)
        expected = small_config.num_inputs * small_config.num_outputs
        assert len(genome.connections) == expected
        assert set(genome.nodes) == set(small_config.output_keys)

    def test_partial_connectivity(self, tracker, rng):
        cfg = NEATConfig(
            num_inputs=10, num_outputs=10, initial_connection_fraction=0.3
        )
        tracker = InnovationTracker(10)
        genome = Genome.initial(0, cfg, tracker, rng)
        assert 0 < len(genome.connections) < 100

    def test_size_counts_inputs(self, small_config, tracker, rng):
        genome = Genome.initial(0, small_config, tracker, rng)
        nodes, conns = genome.size(small_config)
        assert nodes == small_config.num_inputs + small_config.num_outputs
        assert conns == len(genome.connections)


class TestStructuralMutation:
    def test_add_node_splits_connection(self, small_config, tracker, rng):
        genome = Genome.initial(0, small_config, tracker, rng)
        before = genome.num_enabled_connections
        assert genome.mutate_add_node(small_config, tracker, rng)
        # one disabled, two added
        assert genome.num_enabled_connections == before + 1
        assert genome.num_hidden(small_config) == 1
        # the split preserves function: in-half weight 1, out-half old weight
        disabled = [c for c in genome.connections.values() if not c.enabled]
        assert len(disabled) == 1
        old = disabled[0]
        new_node = [k for k in genome.nodes if k >= small_config.num_outputs][0]
        assert genome.connections[(old.in_node, new_node)].weight == 1.0
        assert (
            genome.connections[(new_node, old.out_node)].weight == old.weight
        )

    def test_add_node_on_empty_genome(self, small_config, tracker, rng):
        genome = Genome(key=0)
        assert not genome.mutate_add_node(small_config, tracker, rng)

    def test_add_connection_no_duplicates(self, small_config, tracker, rng):
        genome = Genome.initial(0, small_config, tracker, rng)
        # fully connected input->output; only output->output links remain
        added = genome.mutate_add_connection(small_config, tracker, rng)
        if added:
            keys = list(genome.connections)
            assert len(keys) == len(set(keys))

    def test_delete_connection(self, small_config, tracker, rng):
        genome = Genome.initial(0, small_config, tracker, rng)
        n = len(genome.connections)
        assert genome.mutate_delete_connection(rng)
        assert len(genome.connections) == n - 1

    def test_delete_node_removes_incident_connections(
        self, small_config, tracker, rng
    ):
        genome = Genome.initial(0, small_config, tracker, rng)
        genome.mutate_add_node(small_config, tracker, rng)
        hidden = [k for k in genome.nodes if k >= small_config.num_outputs]
        assert genome.mutate_delete_node(small_config, rng)
        assert not any(
            hidden[0] in key for key in genome.connections
        )

    def test_delete_node_never_removes_outputs(
        self, small_config, tracker, rng
    ):
        genome = Genome.initial(0, small_config, tracker, rng)
        assert not genome.mutate_delete_node(small_config, rng)
        assert set(small_config.output_keys) <= set(genome.nodes)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 30))
    def test_mutation_never_creates_cycles(self, seed, steps):
        cfg = NEATConfig(num_inputs=3, num_outputs=2)
        tracker = InnovationTracker(cfg.num_outputs)
        rng = np.random.default_rng(seed)
        genome = Genome.initial(0, cfg, tracker, rng)
        for _ in range(steps):
            genome.mutate(cfg, tracker, rng)
            assert not _has_cycle(genome.connections.keys())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mutation_preserves_output_nodes(self, seed):
        cfg = NEATConfig(num_inputs=3, num_outputs=2)
        tracker = InnovationTracker(cfg.num_outputs)
        rng = np.random.default_rng(seed)
        genome = Genome.initial(0, cfg, tracker, rng)
        for _ in range(20):
            genome.mutate(cfg, tracker, rng)
        assert set(cfg.output_keys) <= set(genome.nodes)


class TestDistance:
    def test_identity_is_zero(self, small_config, tracker, rng):
        genome = evolved_genome(small_config, tracker, rng)
        assert genome.distance(genome, small_config) == 0.0

    def test_symmetry(self, small_config, tracker, rng):
        a = evolved_genome(small_config, tracker, rng, key=0)
        b = evolved_genome(small_config, tracker, rng, key=1)
        d_ab = a.distance(b, small_config)
        d_ba = b.distance(a, small_config)
        assert d_ab == pytest.approx(d_ba)

    def test_structural_difference_increases_distance(
        self, small_config, tracker, rng
    ):
        a = Genome.initial(0, small_config, tracker, rng)
        b = a.copy(new_key=1)
        base = a.distance(b, small_config)
        for _ in range(5):
            b.mutate_add_node(small_config, tracker, rng)
        assert a.distance(b, small_config) > base

    def test_empty_genomes(self, small_config):
        a, b = Genome(key=0), Genome(key=1)
        assert a.distance(b, small_config) == 0.0


class TestSerialization:
    def test_round_trip(self, small_config, tracker, rng):
        genome = evolved_genome(small_config, tracker, rng)
        genome.fitness = 12.5
        clone = Genome.from_dict(genome.to_dict())
        assert clone.fitness == 12.5
        assert set(clone.nodes) == set(genome.nodes)
        assert set(clone.connections) == set(genome.connections)
        for key, conn in genome.connections.items():
            other = clone.connections[key]
            assert other.weight == conn.weight
            assert other.enabled == conn.enabled
            assert other.innovation == conn.innovation

    def test_copy_is_deep(self, small_config, tracker, rng):
        genome = Genome.initial(0, small_config, tracker, rng)
        clone = genome.copy(new_key=9)
        first = next(iter(clone.connections.values()))
        first.weight = 99.0
        assert genome.connections[first.key].weight != 99.0
        assert clone.key == 9


class TestStructuralHash:
    def _genome(self, seed=0, mutations=8):
        cfg = NEATConfig(num_inputs=3, num_outputs=2)
        tracker = InnovationTracker(cfg.num_outputs)
        rng = np.random.default_rng(seed)
        return evolved_genome(cfg, tracker, rng, mutations=mutations)

    def test_copy_hashes_identically(self):
        genome = self._genome()
        assert genome.copy().structural_hash() == genome.structural_hash()

    def test_key_and_fitness_ignored(self):
        """Elites re-keyed across generations must hash identically."""
        genome = self._genome()
        clone = genome.copy(new_key=genome.key + 100)
        clone.fitness = 123.0
        assert clone.structural_hash() == genome.structural_hash()

    def test_innovation_numbers_ignored(self):
        genome = self._genome()
        clone = genome.copy()
        for conn in clone.connections.values():
            conn.innovation += 1000
        assert clone.structural_hash() == genome.structural_hash()

    def test_weight_change_changes_hash(self):
        genome = self._genome()
        clone = genome.copy()
        conn = next(iter(clone.connections.values()))
        conn.weight += 1e-12  # even one ulp-scale nudge must be visible
        assert clone.structural_hash() != genome.structural_hash()

    def test_bias_change_changes_hash(self):
        genome = self._genome()
        clone = genome.copy()
        clone.nodes[0].bias += 0.5
        assert clone.structural_hash() != genome.structural_hash()

    def test_enabled_flag_changes_hash(self):
        genome = self._genome()
        clone = genome.copy()
        conn = next(iter(clone.connections.values()))
        conn.enabled = not conn.enabled
        assert clone.structural_hash() != genome.structural_hash()

    def test_activation_change_changes_hash(self):
        genome = self._genome()
        clone = genome.copy()
        clone.nodes[0].activation = "sigmoid"
        assert clone.structural_hash() != genome.structural_hash()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_distinct_topologies_hash_distinctly(self, seed):
        a = self._genome(seed=seed)
        b = self._genome(seed=seed + 1)

        def structure(genome):
            snapshot = genome.to_dict()
            for conn in snapshot["connections"]:
                del conn["innovation"]  # not part of the decoded network
            del snapshot["key"]
            del snapshot["fitness"]
            return snapshot

        if structure(a) == structure(b):
            assert a.structural_hash() == b.structural_hash()
        else:
            assert a.structural_hash() != b.structural_hash()
