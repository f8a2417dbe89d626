"""Topology feature extraction, incl. hypothesis invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.searchspace.canonical import live_edges
from repro.searchspace.features import cell_graph, effective_paths, extract_features
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CANDIDATE_OPS, EDGES, NUM_EDGES

ops_strategy = st.tuples(*[st.sampled_from(CANDIDATE_OPS) for _ in range(NUM_EDGES)])


class TestKnownTopologies:
    def test_all_none_disconnected(self):
        f = extract_features(Genotype(("none",) * 6))
        assert not f.is_connected
        assert f.num_paths == 0
        assert f.max_conv_depth == 0

    def test_all_skip_connected(self):
        f = extract_features(Genotype(("skip_connect",) * 6))
        assert f.is_connected
        assert f.num_paths == 4  # 0->3, 0->1->3, 0->2->3, 0->1->2->3
        assert f.conv_count == 0
        assert f.has_direct_skip

    def test_all_conv3x3(self):
        f = extract_features(Genotype(("nor_conv_3x3",) * 6))
        assert f.max_conv_depth == 3
        assert f.min_conv_depth == 1
        assert f.num_conv3x3 == 6

    def test_single_direct_conv(self):
        ops = ["none"] * 6
        ops[3] = "nor_conv_3x3"  # edge 0->3
        f = extract_features(Genotype(tuple(ops)))
        assert f.is_connected
        assert f.num_paths == 1
        assert f.max_conv_depth == 1 == f.min_conv_depth

    def test_pool_on_all_paths(self):
        ops = ["none"] * 6
        ops[3] = "avg_pool_3x3"
        f = extract_features(Genotype(tuple(ops)))
        assert f.pool_on_all_paths

    def test_pool_not_on_all_paths_with_skip_alternative(self):
        ops = ["none"] * 6
        ops[3] = "avg_pool_3x3"
        ops[0] = "skip_connect"   # 0->1
        ops[4] = "skip_connect"   # 1->3
        f = extract_features(Genotype(tuple(ops)))
        assert not f.pool_on_all_paths

    def test_blocked_path_not_connected(self):
        # Only edge 0->1 alive: node 3 unreachable.
        ops = ["none"] * 6
        ops[0] = "nor_conv_3x3"
        f = extract_features(Genotype(tuple(ops)))
        assert not f.is_connected


class TestGraphHelpers:
    def test_cell_graph_drops_none_edges(self):
        ops = ["none"] * 6
        ops[3] = "skip_connect"
        graph = cell_graph(Genotype(tuple(ops)))
        assert graph.number_of_edges() == 1
        assert graph.has_edge(0, 3)

    def test_effective_paths_op_sequences(self):
        ops = ["none"] * 6
        ops[0] = "nor_conv_1x1"   # 0->1
        ops[4] = "nor_conv_3x3"   # 1->3
        paths = effective_paths(Genotype(tuple(ops)))
        assert paths == [("nor_conv_1x1", "nor_conv_3x3")]


def _networkx_reference(genotype):
    """Paths and live edges computed with networkx on :func:`cell_graph`."""
    import networkx as nx

    graph = cell_graph(genotype)
    paths = [tuple(graph.edges[u, v]["op"] for u, v in zip(path, path[1:]))
             for path in nx.all_simple_paths(graph, source=0, target=3)]
    from_input = nx.descendants(graph, 0) | {0}
    to_output = nx.ancestors(graph, 3) | {3}
    live = {idx for idx, (src, dst) in enumerate(EDGES)
            if genotype.ops[idx] != "none"
            and src in from_input and dst in to_output}
    return paths, live


def test_direct_walks_match_networkx_on_whole_space():
    """The direct DAG walks agree with networkx on all 15,625 cells:
    the same paths in the same order, the same live-edge sets."""
    count = 0
    for genotype in Genotype.all_genotypes():
        paths, live = _networkx_reference(genotype)
        assert effective_paths(genotype) == paths, genotype
        assert live_edges(genotype) == live, genotype
        count += 1
    assert count == 15625


class TestInvariants:
    @given(ops_strategy)
    @settings(max_examples=80, deadline=None)
    def test_counts_sum_to_edges(self, ops):
        f = extract_features(Genotype(ops))
        total = (f.num_conv3x3 + f.num_conv1x1 + f.num_skip
                 + f.num_pool + f.num_none)
        assert total == NUM_EDGES
        assert f.effective_edges == NUM_EDGES - f.num_none

    @given(ops_strategy)
    @settings(max_examples=80, deadline=None)
    def test_depth_bounds(self, ops):
        f = extract_features(Genotype(ops))
        assert 0 <= f.min_conv_depth <= f.mean_conv_depth <= f.max_conv_depth <= 3
        assert 0 <= f.num_paths <= 4

    @given(ops_strategy)
    @settings(max_examples=80, deadline=None)
    def test_connectivity_consistency(self, ops):
        f = extract_features(Genotype(ops))
        assert f.is_connected == (f.num_paths > 0)
        if f.has_direct_skip:
            assert f.is_connected
