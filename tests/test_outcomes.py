import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipe import (
    DegenerateModelError,
    OutcomesModel,
    evaluate,
    gen_erdos_renyi,
    gen_experiment_model,
    ground_truth,
    load_model,
    save_model,
    uniform_design,
    sample,
)

from _util import expand_power, experiment_model_reference, graph_from_neighbors, random_graph, random_model, small_graphs


def test_evaluate_zero_model():
    g = graph_from_neighbors([[0], [0, 1]])
    m = OutcomesModel(1, [{}, {}], g)
    for z in ([0, 0], [1, 0], [1, 1]):
        assert np.all(evaluate(m, np.array(z)) == 0.0)


def test_evaluate_direct_substitution():
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{(): 1.0, (0,): 2.0}], g)
    assert evaluate(m, np.array([1]))[0] == pytest.approx(3.0)
    assert evaluate(m, np.array([0]))[0] == pytest.approx(1.0)


def test_evaluate_hand_polynomial():
    # 1 + z_a + z_b + 4 z_a z_b at z_a = z_b = 1 gives 7
    g = graph_from_neighbors([[0, 1, 2], [1], [2]])
    m = OutcomesModel(2, [{(): 1.0, (1,): 1.0, (2,): 1.0, (1, 2): 4.0}, {}, {}], g)
    assert evaluate(m, np.array([0, 1, 1]))[0] == pytest.approx(7.0)
    assert evaluate(m, np.array([1, 0, 1]))[0] == pytest.approx(2.0)


def test_evaluate_batch_matches_single():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 15, 0.3)
    m = random_model(rng, g, 2)
    Z = (rng.random((8, 15)) < 0.4).astype(np.int64)
    batch = evaluate(m, Z)
    for r in range(8):
        assert np.allclose(batch[r], evaluate(m, Z[r]), atol=1e-14)


def test_evaluate_length_mismatch():
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{}], g)
    with pytest.raises(ValueError):
        evaluate(m, np.array([0, 1]))


@pytest.mark.parametrize("z", [[2, 0], [0.5, 1.5]])
def test_evaluate_rejects_non_binary(z):
    # each input brings term {0, 1}'s treated count to its size, 2, without
    # both members being treated; the polynomial itself gives 0 here
    g = graph_from_neighbors([[0, 1], [1]])
    m = OutcomesModel(2, [{(0, 1): 5.0}, {}], g)
    with pytest.raises(ValueError, match="treatments must be 0 or 1"):
        evaluate(m, np.array(z))
    with pytest.raises(ValueError, match="treatments must be 0 or 1"):
        evaluate(m, np.array([z, [1, 1]]))


def _literal_outcomes(m, z):
    """Y_i(z) = fsum over S of c[S] * prod_{j in S} z_j, term by term."""
    return np.array(
        [math.fsum(c * math.prod(int(z[j]) for j in S) for S, c in tmap.items()) for tmap in m.terms]
    )


def _random_terms(rng, g, beta):
    """Random signed coefficients on random subsets of each in-neighborhood;
    about one node in five gets an empty map, one in five only a constant."""
    terms = []
    for i in range(g.n):
        nb = g.in_neighborhood(i).tolist()
        kind = rng.integers(5)
        tmap = {} if kind == 0 else {(): float(rng.normal())}
        if kind >= 2 and nb:
            for _ in range(int(rng.integers(1, 8))):
                k = int(rng.integers(1, min(beta, len(nb)) + 1))
                S = tuple(sorted(rng.choice(nb, size=k, replace=False).tolist()))
                tmap[S] = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
        terms.append(tmap)
    return terms


def _evaluate_cases():
    rng = np.random.default_rng(31)
    cases = []
    for beta in (1, 2, 3):
        g = random_graph(rng, 12, 0.35)
        cases.append(pytest.param(OutcomesModel(beta, _random_terms(rng, g, beta), g), id=f"random-beta{beta}"))
        cases.append(pytest.param(random_model(rng, g, beta), id=f"benchmark-beta{beta}"))
    g = graph_from_neighbors([[0, 1, 2], [], [0, 2], [3]])  # node 1: no in-neighbors
    cases += [
        pytest.param(OutcomesModel(2, [{(0, 2): -1.5, (1,): 2.0}, {(): 4.0}, {}, {}], g), id="empty-segments"),
        pytest.param(OutcomesModel(1, [{(): 1.0}, {}, {(): -2.5}, {}], g), id="no-nonempty-terms"),
        pytest.param(OutcomesModel(1, [{(1,): 1.0}, {}, {(0,): -2.5}, {}], g), id="no-constants"),
        pytest.param(OutcomesModel(2, [{(0,): 1.0}, {(): 3.0}, {(0, 2): 2.0}, {(): 1.0}], g), id="constant-only-node"),
        pytest.param(OutcomesModel(1, [{(): 0.5, (0,): -2.0}], graph_from_neighbors([[0]])), id="n1"),
        pytest.param(OutcomesModel(1, [{(): 0.5}], graph_from_neighbors([[]])), id="n1-no-in-neighbors"),
    ]
    return cases


@pytest.mark.parametrize("m", _evaluate_cases())
def test_evaluate_matches_literal_polynomial(m):
    rng = np.random.default_rng(32)
    n = m.n
    Z = (rng.random((24, n)) < 0.5).astype(np.int64)
    Z[0], Z[1] = 0, 1
    abs_sum = np.array([math.fsum(abs(c) for c in tmap.values()) for tmap in m.terms])
    for z in Z:
        y = evaluate(m, z)
        assert y.shape == (n,)
        assert np.all(np.abs(y - _literal_outcomes(m, z)) <= 1e-13 * abs_sum)
    batch = evaluate(m, Z)
    assert batch.shape == Z.shape
    assert np.array_equal(batch, np.stack([evaluate(m, z) for z in Z]))
    assert np.array_equal(evaluate(m, Z.astype(bool)), batch)


def test_model_validates_subsets():
    g = graph_from_neighbors([[0], [1]])
    for maps in (1, 3):
        with pytest.raises(ValueError, match="need one term map per node"):
            OutcomesModel(1, [{} for _ in range(maps)], g)
    with pytest.raises(ValueError):
        OutcomesModel(1, [{(1,): 1.0}, {}], g)  # 1 not in N_0
    with pytest.raises(ValueError):
        OutcomesModel(1, [{(0, 1): 1.0}, {}], g)  # exceeds beta
    with pytest.raises(ValueError):
        OutcomesModel(1, [{(0, 0): 1.0}, {}], g)  # duplicate entry


def test_expand_power_identity():
    assert expand_power({3: 2.5}, 1) == {(3,): 2.5}
    assert expand_power({0: 1.0, 4: -1.0}, 1) == {(0,): 1.0, (4,): -1.0}


def test_expand_power_square():
    # (z_a + z_b)^2 = z_a + z_b + 2 z_a z_b over binary z
    out = expand_power({0: 1.0, 1: 1.0}, 2)
    assert out == {(0,): pytest.approx(1.0), (1,): pytest.approx(1.0), (0, 1): pytest.approx(2.0)}


def test_expand_power_idempotence():
    assert expand_power({2: 1.0}, 3) == {(2,): pytest.approx(1.0)}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_expand_power_matches_direct_evaluation(weights, ell, seed):
    nodes = list(range(len(weights)))
    wmap = dict(zip(nodes, weights))
    expansion = expand_power(wmap, ell)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        z = rng.integers(0, 2, len(weights))
        direct = float(sum(w * z[j] for j, w in wmap.items())) ** ell
        via_map = sum(c * np.prod(z[list(s)]) for s, c in expansion.items())
        assert abs(direct - via_map) <= 1e-12 * max(1.0, abs(direct))


def test_gen_model_r_zero_is_sutva():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 30, 0.3)
    m = gen_experiment_model(g, 1, 0.0, seed=4)
    for i, tmap in enumerate(m.terms):
        for subset, coeff in tmap.items():
            if subset and subset != (i,):
                assert coeff == 0.0
        assert 0.0 <= tmap[(i,)] <= 1.0
        assert 0.0 <= tmap[()] <= 1.0


def test_gen_model_single_node_idempotent_square():
    # with N_i = {i} the normalized square is (a z / a)^2 = z, adding +1 to
    # the singleton coefficient
    g = graph_from_neighbors([[0]])
    m = gen_experiment_model(g, 2, 0.0, seed=9)
    direct = m.terms[0][(0,)]
    base = m.terms[0][()]
    assert 1.0 <= direct <= 2.0  # U[0,1] draw plus exactly 1.0
    y1 = evaluate(m, np.array([1]))[0]
    assert y1 == pytest.approx(base + direct)


def test_gen_model_two_node_multinomial_expansion():
    # quadratic term with normalized weights (w0, w1) contributes w0^2 to
    # {0}, w1^2 to {1}, and the cross term 2 w0 w1 to {0, 1}; the linear
    # weights are recovered by replaying the generator's draws
    g = graph_from_neighbors([[0, 1], [1]])
    m = gen_experiment_model(g, 2, 1.0, seed=14)
    rng = np.random.default_rng(14)
    c_base = rng.random(2)
    c_self = rng.random(2)
    v = rng.random(2)
    # node 1's only non-self out-neighbor is node 0, so its influence v[1]
    # arrives whole: linear weights on node 0 are (c_self[0], v[1])
    lin = np.array([c_self[0], v[1]])
    w = lin / lin.sum()
    assert m.terms[0][()] == pytest.approx(c_base[0])
    assert m.terms[0][(0,)] == pytest.approx(lin[0] + w[0] ** 2)
    assert m.terms[0][(1,)] == pytest.approx(lin[1] + w[1] ** 2)
    assert m.terms[0][(0, 1)] == pytest.approx(2.0 * w[0] * w[1])


def test_gen_model_degenerate_normalization_raises():
    g = graph_from_neighbors([[0]])
    for beta in (2, 3):
        with pytest.raises(DegenerateModelError, match="^node 0: zero total linear weight"):
            gen_experiment_model(g, beta, 1.0, seed=0, scale=0.0)
    # no normalization needed for beta = 1, so zero scale is fine there
    m = gen_experiment_model(g, 1, 1.0, seed=0, scale=0.0)
    assert ground_truth(m).tte == 0.0


def test_gen_model_requires_self_loops():
    g = graph_from_neighbors([[1], [0]])
    with pytest.raises(ValueError):
        gen_experiment_model(g, 1, 1.0, seed=0)


def test_gen_model_influence_split_normalization():
    # each unit's total outgoing influence (sum of received coefficients
    # over its non-self out-neighbors) equals its drawn v_j; reconstruct
    # the identity sum_i w_ij = v_j by regenerating the draws
    rng_check = np.random.default_rng(21)
    g = random_graph(rng_check, 40, 0.2)
    m = gen_experiment_model(g, 1, 2.0, seed=33)
    rng = np.random.default_rng(33)
    _ = rng.random(g.n)  # baseline draws
    _ = rng.random(g.n)  # self-effect draws
    v = rng.random(g.n) * 2.0
    received = np.zeros(g.n)
    for i, tmap in enumerate(m.terms):
        for subset, coeff in tmap.items():
            if len(subset) == 1 and subset[0] != i:
                received[subset[0]] += coeff
    for j in range(g.n):
        out_nonself = sum(
            1 for i in range(g.n) if i != j and j in g.in_neighborhood(i).tolist()
        )
        if out_nonself:
            assert received[j] == pytest.approx(v[j], rel=1e-9)


def test_ground_truth_zero_model():
    g = graph_from_neighbors([[0], [1]])
    m = gen_experiment_model(g, 1, 0.0, seed=0, scale=0.0)
    gt = ground_truth(m)
    assert gt.tte == 0.0 and gt.ate == 0.0 and gt.y_max == 0.0
    assert all(v == 0.0 for v in gt.te_alpha.values())


def test_ground_truth_single_node():
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{(): 1.0, (0,): 2.0}], g)
    gt = ground_truth(m)
    assert gt.tte == pytest.approx(2.0)
    assert gt.ate == pytest.approx(2.0)
    assert gt.te_alpha[1] == pytest.approx(2.0)
    assert gt.y_max == pytest.approx(3.0)


def test_ground_truth_two_node_hand_sum():
    # node 0: 1 + z1 + 3 z1 z2 ; node 1: z2  ->  tte = (1 + 3 + 1)/2
    g = graph_from_neighbors([[1, 2], [2], []])
    m = OutcomesModel(
        2,
        [{(): 1.0, (1,): 1.0, (1, 2): 3.0}, {(): 0.0, (2,): 1.0}, {}],
        g,
    )
    gt = ground_truth(m)
    assert gt.tte == pytest.approx(5.0 / 3.0)  # averaged over n = 3 nodes
    assert gt.te_alpha[2] == pytest.approx(1.0)
    assert gt.te_alpha[1] == pytest.approx(2.0 / 3.0)


def test_tte_definitions_agree_on_random_models():
    # contrast of all-treated vs none-treated outcomes must equal the sum
    # of non-empty coefficients, for many random models
    rng = np.random.default_rng(8)
    for _ in range(500):
        n = int(rng.integers(2, 14))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        m = random_model(rng, g, int(rng.integers(1, 4)), r=float(rng.uniform(0, 3)))
        gt = ground_truth(m)
        contrast = float(
            np.mean(evaluate(m, np.ones(n, dtype=np.int64)) - evaluate(m, np.zeros(n, dtype=np.int64)))
        )
        assert abs(gt.tte - contrast) <= 1e-10


def test_outcomes_bounded_by_y_max():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 25, 0.3)
    m = random_model(rng, g, 3, r=2.0)
    gt = ground_truth(m)
    d = uniform_design(25, 0.35)
    for k in range(200):
        z = sample(d, k)
        assert np.all(np.abs(evaluate(m, z)) <= gt.y_max + 1e-12)


def test_te_alpha_decomposition():
    rng = np.random.default_rng(16)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 12)), 0.4)
        m = random_model(rng, g, int(rng.integers(1, 4)))
        gt = ground_truth(m)
        assert abs(sum(gt.te_alpha.values()) - gt.tte) <= 1e-12


def test_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    g = random_graph(rng, 12, 0.4)
    m = random_model(rng, g, 2)
    path = tmp_path / "model.json"
    save_model(m, path)
    m2 = load_model(path, g)
    assert m2.beta == m.beta
    for a, b in zip(m.terms, m2.terms):
        assert set(a) == set(b)
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=0.0)


def test_model_loader_revalidates_against_graph(tmp_path):
    g = graph_from_neighbors([[0], [1]])
    path = tmp_path / "model.json"
    path.write_text('{"beta": 1, "nodes": [{"i": 0, "terms": [{"subset": [1], "coeff": 1.0}]}]}')
    with pytest.raises(ValueError):
        load_model(path, g)
    path.write_text('{"beta": 1, "nodes": [{"i": 0, "terms": [{"subset": [0, 1], "coeff": 1.0}]}]}')
    with pytest.raises(ValueError):
        load_model(path, g)


def _model_arrays(m):
    inc = m.incidence
    arrays = [m.const, m.coeffs, m.sizes, inc.indices, inc.indptr, inc.data, m.node_off]
    assert [a.dtype.kind for a in arrays] == ["f", "f", "i", "i", "i", "f", "i"]
    return arrays + [np.array(inc.shape)]


def _literal_ground_truth(m, terms):
    """tte, ate, te_alpha and y_max as math.fsum of the literal input dicts."""
    n = m.n
    nonempty = [(S, c) for tmap in terms for S, c in tmap.items() if S]
    tte = math.fsum(c for _, c in nonempty) / n
    ate = math.fsum(tmap.get((i,), 0.0) for i, tmap in enumerate(terms)) / n
    te = {a: math.fsum(c for S, c in nonempty if len(S) == a) / n for a in range(1, m.beta + 1)}
    y_max = max(math.fsum(abs(c) for c in tmap.values()) for tmap in terms)
    return tte, ate, te, y_max


def _ground_truth_cases():
    rng = np.random.default_rng(41)
    cases = []
    for k in range(12):
        beta = 1 + k % 3
        g = random_graph(rng, int(rng.integers(2, 20)), float(rng.uniform(0.1, 0.6)))
        terms = _random_terms(rng, g, beta) if k % 2 else list(random_model(rng, g, beta, r=3.0).terms)
        cases.append(pytest.param(beta, terms, g, id=f"random-{k}"))
    return cases


@pytest.mark.parametrize("beta,terms,g", _ground_truth_cases())
def test_ground_truth_is_fsum_of_literal_coefficients(beta, terms, g):
    m = OutcomesModel(beta, terms, g)
    gt = ground_truth(m)
    assert (gt.tte, gt.ate, gt.te_alpha, gt.y_max) == _literal_ground_truth(m, terms)
    assert gt.direct.dtype == np.float64
    assert gt.direct.tolist() == [tmap.get((i,), 0.0) for i, tmap in enumerate(terms)]


def test_ground_truth_is_fsum_at_benchmark_scale():
    # at n=5000, beta=2 a running sum over the ~330k coefficients is off in
    # the last bits of tte; math.fsum over the arrays is exactly rounded
    g = gen_erdos_renyi(5000, 10 / 5000, self_loops=True, seed=1)
    m = gen_experiment_model(g, 2, 2.0, seed=5, scale=5.0)
    gt = ground_truth(m)
    terms = experiment_model_reference(g, 2, 2.0, 5, scale=5.0)
    assert (gt.tte, gt.ate, gt.te_alpha, gt.y_max) == _literal_ground_truth(m, terms)


@pytest.mark.parametrize("beta", [1, 2])
def test_gen_model_equals_dict_reference_at_benchmark_scale(beta):
    g = gen_erdos_renyi(5000, 10 / 5000, self_loops=True, seed=1)
    m = gen_experiment_model(g, beta, 2.0, seed=5, scale=5.0)
    ref = OutcomesModel(beta, experiment_model_reference(g, beta, 2.0, 5, scale=5.0), g)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(_model_arrays(m), _model_arrays(ref)))


@settings(max_examples=150, deadline=None)
@given(
    g=small_graphs(),
    beta=st.integers(1, 4),
    r=st.sampled_from([0.0, 0.5, 2.0, 7.0]),
    scale=st.sampled_from([0.0, 1.0, 5.0, -2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gen_model_equals_dict_reference(g, beta, r, scale, seed):
    # the generator needs self-loops: add one to every row, keeping n=1,
    # the hub and the rows that held nothing else
    g = graph_from_neighbors([set(g.in_neighborhood(i).tolist()) | {i} for i in range(g.n)])
    try:
        terms = experiment_model_reference(g, beta, r, seed, scale=scale)
    except DegenerateModelError as err:
        with pytest.raises(DegenerateModelError, match=f"^{re.escape(str(err))}$"):
            gen_experiment_model(g, beta, r, seed, scale=scale)
        return
    m, ref = gen_experiment_model(g, beta, r, seed, scale=scale), OutcomesModel(beta, terms, g)
    # beyond beta=2 the powers are summed in another order: the coefficients
    # agree within 1e-15 of each node's sum of |c|, every other array exactly
    arrays = zip(_model_arrays(m), _model_arrays(ref))
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in arrays if beta <= 2 or a is not m.coeffs)
    owner = np.repeat(np.arange(g.n), np.diff(ref.node_off))
    norm = np.abs(ref.const) + np.bincount(owner, np.abs(ref.coeffs), g.n)
    assert np.all(np.abs(m.coeffs - ref.coeffs) <= 1e-15 * norm[owner])


@pytest.mark.parametrize("r, scale, name", [(math.nan, 1.0, "r"), (math.inf, 1.0, "r"), (1.0, math.inf, "scale"),
                                            (1.0, math.nan, "scale")])
def test_gen_model_rejects_non_finite_r_and_scale_before_any_draw(r, scale, name):
    g = graph_from_neighbors([[0, 1], [1]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        gen_experiment_model(g, 2, r, rng, scale=scale)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m", _evaluate_cases())
def test_model_rebuilt_from_its_terms_is_identical(m):
    m2 = OutcomesModel(m.beta, m.terms, m.graph)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(_model_arrays(m), _model_arrays(m2)))
    Z = (np.random.default_rng(33).random((16, m.n)) < 0.5).astype(np.int64)
    assert np.array_equal(evaluate(m, Z), evaluate(m2, Z))
    assert np.array_equal(np.stack([evaluate(m, z) for z in Z]), np.stack([evaluate(m2, z) for z in Z]))


@pytest.mark.parametrize("n, p_edge, beta, m", [(16, 0.3, 3, 8192), (5000, 10 / 5000, 2, 24)])
def test_batched_evaluate_is_c_ordered_and_equals_single_calls(n, p_edge, beta, m):
    # a sparse product sums each row in sequence; a batch must come back as
    # C-ordered rows that each equal the single call bit for bit
    g = gen_erdos_renyi(n, p_edge, self_loops=True, seed=3)
    model = gen_experiment_model(g, beta, 2.0, seed=4)
    Z = (np.random.default_rng(35).random((m, n)) < 0.4).astype(np.int64)
    batch = evaluate(model, Z)
    assert batch.dtype == np.float64 and batch.shape == (m, n) and batch.flags.c_contiguous
    assert np.array_equal(batch, np.stack([evaluate(model, z) for z in Z]))


def test_terms_view_reads_the_input_back():
    rng = np.random.default_rng(43)
    g = random_graph(rng, 14, 0.4)
    terms = _random_terms(rng, g, 3)
    # insertion order does not matter: each node's terms are stored by
    # size, then lexicographically
    shuffled = [dict(reversed(list(tmap.items()))) for tmap in terms]
    m = OutcomesModel(3, shuffled, g)
    assert all(np.array_equal(a, b) for a, b in zip(_model_arrays(m), _model_arrays(OutcomesModel(3, terms, g))))
    assert len(m.terms) == g.n
    for i, tmap in enumerate(m.terms):
        assert tmap == {(): 0.0, **terms[i]}  # a node without a constant reads back 0.0
        assert list(tmap) == sorted(tmap, key=lambda S: (len(S), S))
    m.terms[0][()] = 99.0  # a fresh dict: the model is unchanged
    assert m.terms[0][()] == terms[0].get((), 0.0)


def test_store_orders_shuffled_terms_by_owner_size_subset():
    # each node holds every prefix of a 9-member subset plus random subsets,
    # given in shuffled order; the store keeps them by owner, then size,
    # then lexicographically
    rng = np.random.default_rng(44)
    n = 300
    nbrs = [sorted(rng.choice(n, 12, replace=False).tolist()) for _ in range(n)]
    g = graph_from_neighbors(nbrs)
    terms = []
    for i in range(n):
        chain = sorted(rng.choice(nbrs[i], 9, replace=False).tolist())
        keys = {tuple(chain[:k]) for k in range(10)}
        keys |= {tuple(sorted(rng.choice(nbrs[i], k, replace=False).tolist())) for k in rng.integers(1, 10, 6)}
        keys = list(keys)
        rng.shuffle(keys)
        terms.append({S: float(rng.normal()) for S in keys})
    m = OutcomesModel(9, terms, g)
    expected = sorted((i, len(S), S) for i, tmap in enumerate(terms) for S in tmap if S)
    owner = np.repeat(np.arange(n), np.diff(m.node_off)).tolist()
    ind, ptr = m.incidence.indices.tolist(), m.incidence.indptr.tolist()
    subsets = [tuple(ind[a:b]) for a, b in zip(ptr, ptr[1:])]
    assert list(zip(owner, map(len, subsets), subsets)) == expected
    assert m.sizes.tolist() == [k for _, k, _ in expected]
    assert m.coeffs.tolist() == [terms[i][S] for i, _, S in expected]
    assert m.const.tolist() == [tmap[()] for tmap in terms]


def test_build_peak_memory_is_bounded_by_the_arrays_it_returns():
    # each temporary of the build is freed once used, so the traced peak
    # stays within 3.25 times the bytes of the arrays the model keeps
    g = gen_erdos_renyi(2000, 10 / 2000, self_loops=True, seed=1)
    gen_experiment_model(g, 2, 2.0, seed=3, scale=5.0)  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        m = gen_experiment_model(g, 2, 2.0, seed=3, scale=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mats = [getattr(M, a) for M in (m.incidence, m.coeff_matrix) for a in ("data", "indices", "indptr")]
    arrays = [m.const, m.coeffs, m.sizes, m.node_off, *mats]
    # coeff_matrix.data is the coeffs array itself: count each buffer once
    kept = sum(a.nbytes for k, a in enumerate(arrays) if not any(np.shares_memory(a, b) for b in arrays[:k]))
    assert peak <= 3.25 * kept, f"peak {peak} B is {peak / kept:.2f}x the {kept} B kept"


_TINY = 2.0**-53


@pytest.mark.parametrize("heavy", [0, 4])
@pytest.mark.parametrize(
    "top, rival",
    [
        # float sums tie at 1.0; the exact sums differ in the last bit
        ([1.0, _TINY, _TINY], [1.0]),
        # the top node's float sum is one ulp below the rival's, yet its
        # exact sum is the larger
        ([1.0, _TINY, _TINY, _TINY, _TINY], [1.0, _TINY + 2.0**-60]),
    ],
)
def test_y_max_tells_float_sum_ties_apart_by_their_exact_sums(heavy, top, rival):
    # terms sum in subset order, so each list adds up left to right
    g = graph_from_neighbors([range(5)] * 5)
    terms = [{(j,): c for j, c in enumerate(rival)} for _ in range(5)]
    terms[heavy] = {(j,): c for j, c in enumerate(top)}
    m = OutcomesModel(1, terms, g)
    assert sum(top) <= sum(rival) and math.fsum(top) > math.fsum(rival)
    assert m.y_max() == math.fsum(top) == 1.0 + (len(top) - 1) * _TINY


@pytest.mark.parametrize(
    "tmap,match",
    [
        ({(): float("nan")}, "non-finite"),
        ({(0,): float("inf")}, "non-finite"),
        ({(0,): -float("inf")}, "non-finite"),
        ({(0.7,): 1.0}, "non-integer"),
        ({(0, 1.5): 1.0}, "non-integer"),
        ({(float("nan"),): 1.0}, "non-integer"),
        ({("a",): 1.0}, "could not convert"),
        ({(-1,): 1.0}, "in-neighborhood"),
        ({(2,): 1.0}, "in-neighborhood"),
        ({(float("inf"),): 1.0}, "in-neighborhood"),
        ({(1, 0): 1.0}, "sorted"),
        ({(0, 1, 1): 1.0}, "sorted"),
    ],
)
def test_model_rejects_bad_terms(tmap, match):
    g = graph_from_neighbors([[0, 1], [1]])
    with pytest.raises(ValueError, match=match):
        OutcomesModel(3, [tmap, {}], g)


@pytest.mark.parametrize("ids", [[-1], [2], [1.5], ["0"], [True], [0, 1, 0]])
def test_model_loader_rejects_bad_node_ids(tmp_path, ids):
    g = graph_from_neighbors([[0], [1]])
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"beta": 1, "nodes": [{"i": i, "terms": []} for i in ids]}))
    with pytest.raises(ValueError, match=f"node id {ids[-1]!r}"):
        load_model(path, g)


@pytest.mark.parametrize(
    "entry",
    [
        '{"subset": [], "coeff": NaN}',
        '{"subset": [0], "coeff": Infinity}',
        '{"subset": [0], "coeff": -Infinity}',
        '{"subset": [0.7], "coeff": 1.0}',
        '{"subset": [NaN], "coeff": 1.0}',
    ],
)
def test_model_loader_rejects_non_finite_and_non_integral(tmp_path, entry):
    g = graph_from_neighbors([[0], [1]])
    path = tmp_path / "model.json"
    path.write_text('{"beta": 1, "nodes": [{"i": 0, "terms": [%s]}]}' % entry)
    with pytest.raises(ValueError, match="non-finite|non-integer"):
        load_model(path, g)


def test_model_file_matches_its_literal_terms(tmp_path):
    rng = np.random.default_rng(44)
    g = random_graph(rng, 10, 0.4)
    m = random_model(rng, g, 2)
    path = tmp_path / "model.json"
    save_model(m, path)
    nodes = json.loads(path.read_text())["nodes"]
    assert [node["i"] for node in nodes] == list(range(g.n))
    for node, tmap in zip(nodes, m.terms):
        assert [(tuple(t["subset"]), t["coeff"]) for t in node["terms"]] == sorted(
            tmap.items(), key=lambda kv: (len(kv[0]), kv[0])
        )


@pytest.mark.parametrize(
    "beta, entries, field",
    [
        ("1.7", '{"subset": [0], "coeff": 1.0}', "beta"),
        ("true", '{"subset": [0], "coeff": 1.0}', "beta"),
        ('"2"', '{"subset": [0], "coeff": 1.0}', "beta"),
        ("2", '{"subset": "01", "coeff": 1.0}', "subset"),
        ("1", '{"subset": [true], "coeff": 1.0}', "subset"),
        ("1", '{"subset": [0], "coeff": "1.5"}', "coeff"),
        ("1", '{"subset": [0], "coeff": true}', "coeff"),
        ("1", '{"subset": [0], "coeff": null}', "coeff"),
        ("1", '{"subset": [0], "coeff": 1.0}, {"subset": [0], "coeff": 2.0}', "subset"),
        ("1", '{"subset": [], "coeff": 1.0}, {"subset": [], "coeff": 2.0}', "subset"),
    ],
)
def test_model_loader_rejects_mistyped_fields(tmp_path, beta, entries, field):
    g = graph_from_neighbors([[0, 1], [1]])
    path = tmp_path / "model.json"
    path.write_text('{"beta": %s, "nodes": [{"i": 0, "terms": [%s]}]}' % (beta, entries))
    with pytest.raises(ValueError, match=field):
        load_model(path, g)


def test_model_loader_accepts_integer_coefficients(tmp_path):
    g = graph_from_neighbors([[0, 1], [1]])
    path = tmp_path / "model.json"
    path.write_text('{"beta": 2, "nodes": [{"i": 0, "terms": [{"subset": [], "coeff": 3}, {"subset": [0, 1], "coeff": -2}]}]}')
    m = load_model(path, g)
    assert m.terms[0] == {(): 3.0, (0, 1): -2.0}


@pytest.mark.parametrize(
    "text, field",
    [
        ('[{"beta": 1, "nodes": []}]', "top level"),
        ('{"beta": 1, "nodes": 5}', "nodes"),
        ('{"beta": 1, "nodes": [5]}', "node entry"),
        ('{"beta": 1, "nodes": [{"i": 0, "terms": 5}]}', "terms"),
        ('{"beta": 1, "nodes": [{"i": 0, "terms": [5]}]}', "term entry"),
    ],
)
def test_model_loader_rejects_bad_containers(tmp_path, text, field):
    g = graph_from_neighbors([[0, 1], [1]])
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=field):
        load_model(path, g)
