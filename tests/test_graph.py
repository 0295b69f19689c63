import numpy as np
import pytest

from snipe import CausalGraph, dependency_index, gen_erdos_renyi, in_neighborhood, load_graph, save_graph

from _util import graph_from_neighbors


def test_zero_edge_probability_leaves_only_self_loops():
    g = gen_erdos_renyi(5, 0.0, self_loops=True, seed=42)
    for i in range(5):
        assert g.in_neighborhood(i).tolist() == [i]


def test_certain_edges_give_complete_graph():
    g = gen_erdos_renyi(5, 1.0, self_loops=True, seed=0)
    for i in range(5):
        assert g.in_neighborhood(i).tolist() == [0, 1, 2, 3, 4]
    assert g.d_in == g.d_out == 5


def test_expected_degree_matches_edge_probability():
    # Binomial(n-1, 10/n) mean is ~10; the empirical mean over 10^4 nodes
    # concentrates far inside [9.5, 10.5]
    n = 10000
    g = gen_erdos_renyi(n, 10.0 / n, self_loops=False, seed=7)
    assert 9.5 <= g.in_degrees.mean() <= 10.5


def test_in_neighborhood_examples():
    g = graph_from_neighbors([[0], [0, 1, 2], []])
    assert in_neighborhood(g, 0).tolist() == [0]
    assert in_neighborhood(g, 1).tolist() == [0, 1, 2]
    assert in_neighborhood(g, 2).tolist() == []
    with pytest.raises(IndexError):
        in_neighborhood(g, 3)
    with pytest.raises(IndexError):
        in_neighborhood(g, -1)


def test_degree_fields():
    g = graph_from_neighbors([[0, 1], [1], [0, 1, 2]])
    assert g.in_degrees.tolist() == [2, 1, 3]
    assert g.d_in == 3
    # node 1 appears in all three neighborhoods
    assert g.out_degrees.tolist() == [2, 3, 1]
    assert g.d_out == 3
    assert g.d_max == 3


def test_construction_validates_neighbor_lists():
    with pytest.raises(ValueError):
        CausalGraph([np.array([0, 5], dtype=np.int64)])
    with pytest.raises(ValueError):
        CausalGraph([np.array([1, 0], dtype=np.int64), np.array([], dtype=np.int64)])
    with pytest.raises(ValueError):
        CausalGraph([np.array([0, 0], dtype=np.int64)])


def test_dependency_index_isolated_self_loops():
    g = graph_from_neighbors([[0], [1], [2]])
    m = dependency_index(g)
    for i in range(3):
        assert m[i].tolist() == [i]


def test_dependency_index_shared_in_neighbor():
    # nodes 1 and 2 both have in-neighbor 0
    g = graph_from_neighbors([[0], [0, 1], [0, 2]])
    m = dependency_index(g)
    assert 2 in m[1].tolist() and 1 in m[2].tolist()
    assert m[0].tolist() == [0, 1, 2]


def test_dependency_index_complete_graph():
    g = gen_erdos_renyi(6, 1.0, self_loops=True, seed=0)
    m = dependency_index(g)
    for i in range(6):
        assert m[i].tolist() == list(range(6))


def test_dependency_index_matches_bruteforce():
    rng = np.random.default_rng(3)
    g = gen_erdos_renyi(200, 0.02, self_loops=bool(rng.integers(2)), seed=11)
    m = dependency_index(g)
    sets = [set(g.in_neighborhood(i).tolist()) for i in range(g.n)]
    for i in range(g.n):
        brute = [j for j in range(g.n) if sets[i] & sets[j]]
        assert m[i].tolist() == brute
        assert len(brute) <= g.d_in * g.d_out
        for j in brute:  # symmetry
            assert i in m[j]


def test_generation_is_deterministic():
    a = gen_erdos_renyi(60, 0.1, self_loops=True, seed=123)
    b = gen_erdos_renyi(60, 0.1, self_loops=True, seed=123)
    c = gen_erdos_renyi(60, 0.1, self_loops=True, seed=124)
    assert a.edges() == b.edges()
    assert a.edges() != c.edges()


def test_self_loop_flagging():
    g = gen_erdos_renyi(10, 0.2, self_loops=True, seed=1)
    assert g.has_self_loop.all() and g.self_loops
    g2 = gen_erdos_renyi(10, 0.2, self_loops=False, seed=1)
    assert not g2.has_self_loop.any()


def test_graph_file_roundtrip(tmp_path):
    g = gen_erdos_renyi(20, 0.15, self_loops=True, seed=5)
    path = tmp_path / "graph.json"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.n == g.n
    assert g2.edges() == g.edges()
    assert g2.self_loops == g.self_loops


def test_graph_loader_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "self_loops": false, "edges": [[0, 5]]}')
    with pytest.raises(ValueError):
        load_graph(path)
    path.write_text('{"n": 2, "self_loops": false, "edges": [[0, 1], [0, 1]]}')
    with pytest.raises(ValueError):
        load_graph(path)
    path.write_text('{"n": 0, "self_loops": false, "edges": []}')
    with pytest.raises(ValueError):
        load_graph(path)
