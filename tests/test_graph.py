import numpy as np
import pytest

from snipe import CausalGraph, gen_erdos_renyi, load_graph, save_graph
from snipe.variance import _shared_index

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
    assert g.in_neighborhood(0).tolist() == [0]
    assert g.in_neighborhood(1).tolist() == [0, 1, 2]
    assert g.in_neighborhood(2).tolist() == []
    with pytest.raises(IndexError):
        g.in_neighborhood(3)
    with pytest.raises(IndexError):
        g.in_neighborhood(-1)


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


def _shared_index_matches_bruteforce(g):
    """The conservative-variance cache against set arithmetic: the pattern of
    A A^T is M_i, its entries are |N_i & N_j|, K_i is the brute-force sum,
    and each cached pair sharing two or more in-neighbors lists exactly the
    intersection. Returns the rows M_i."""
    k_node, pair_i, pair_j, shared = _shared_index(g)
    c = (g.in_csr() @ g.in_csr().T).toarray()
    sets = [set(g.in_neighborhood(i).tolist()) for i in range(g.n)]
    rows = []
    for i in range(g.n):
        brute = [j for j in range(g.n) if sets[i] & sets[j]]
        assert np.flatnonzero(c[i]).tolist() == brute
        assert [c[i, j] for j in range(g.n)] == [len(sets[i] & sets[j]) for j in range(g.n)]
        k_i = sum(2.0 ** len(sets[j]) - 2.0 ** len(sets[j] - sets[i]) for j in brute)
        assert k_node[i] == k_i
        rows.append(brute)
    multi = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if len(sets[i] & sets[j]) >= 2]
    assert sorted(zip(pair_i.tolist(), pair_j.tolist())) == multi
    for row, (i, j) in enumerate(zip(pair_i.tolist(), pair_j.tolist())):
        got = shared.indices[shared.indptr[row] : shared.indptr[row + 1]].tolist()
        assert got == sorted(sets[i] & sets[j])
    return rows


def test_shared_index_isolated_self_loops():
    g = graph_from_neighbors([[0], [1], [2]])
    assert _shared_index_matches_bruteforce(g) == [[0], [1], [2]]
    assert _shared_index(g)[3].shape[0] == 0


def test_shared_index_shared_in_neighbor():
    # nodes 1 and 2 both have in-neighbor 0, and no pair shares two
    g = graph_from_neighbors([[0], [0, 1], [0, 2]])
    assert _shared_index_matches_bruteforce(g) == [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
    assert _shared_index(g)[1].size == 0


def test_shared_index_complete_graph():
    g = gen_erdos_renyi(6, 1.0, self_loops=True, seed=0)
    assert _shared_index_matches_bruteforce(g) == [list(range(6))] * 6
    shared = _shared_index(g)[3]
    assert shared.shape[0] == 15 and np.diff(shared.indptr).max() == 6


def test_shared_index_matches_bruteforce():
    rng = np.random.default_rng(3)
    g = gen_erdos_renyi(200, 0.02, self_loops=bool(rng.integers(2)), seed=11)
    rows = _shared_index_matches_bruteforce(g)
    for i, brute in enumerate(rows):
        assert len(brute) <= g.d_in * g.d_out
        for j in brute:  # symmetry
            assert i in rows[j]


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


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": true, "edges": []}', "n must"),
        ('{"n": 2.0, "edges": []}', "n must"),
        ('{"n": 2, "edges": [[0.0, 1]]}', "edge"),
        ('{"n": 2, "edges": [[0, 1.5]]}', "edge"),
        ('{"n": 2, "edges": [[0, true]]}', "edge"),
        ('{"n": 2, "edges": [[0, 1, 7]]}', "edge"),
        ('{"n": 2, "edges": [[0]]}', "edge"),
        ('{"n": 2, "edges": ["01"]}', "edge"),
    ],
)
def test_graph_loader_rejects_non_integer_fields(tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=field):
        load_graph(path)


@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", "top level"),
        ('[{"n": 2, "edges": []}]', "top level"),
        ('{"n": 2, "edges": 5}', "edges"),
    ],
)
def test_graph_loader_rejects_bad_containers(tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=field):
        load_graph(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "self_loops": "no", "edges": [[0, 1]]}',
        '{"n": 2, "self_loops": 1, "edges": [[0, 0], [1, 1]]}',
        '{"n": 2, "self_loops": null, "edges": [[0, 1]]}',
        '{"n": 2, "self_loops": true, "edges": [[0, 1]]}',
        '{"n": 2, "self_loops": false, "edges": [[0, 0], [1, 0], [1, 1]]}',
    ],
)
def test_graph_loader_rejects_bad_self_loops(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="self_loops"):
        load_graph(path)


def test_graph_self_loops_follows_the_edges(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"n": 2, "edges": [[0, 0], [1, 1]]}')
    assert load_graph(path).self_loops
    path.write_text('{"n": 2, "self_loops": false, "edges": [[0, 0], [0, 1]]}')
    assert not load_graph(path).self_loops


def test_neighbor_arrays_are_the_adjacency_matrix():
    # the scipy matrix is the one store: nb_flat and nb_off are its arrays
    for g in (gen_erdos_renyi(60, 0.1, seed=3), graph_from_neighbors([[], [0], []]), graph_from_neighbors([[]])):
        a = g.in_csr()
        assert g.nb_flat is a.indices and g.nb_off is a.indptr
        assert a.shape == (g.n, g.n) and np.array_equal(a.data, np.ones(g.nb_flat.size))
        for i in range(g.n):
            assert np.array_equal(g.in_neighborhood(i), a.indices[a.indptr[i] : a.indptr[i + 1]])
