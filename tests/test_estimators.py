import numpy as np
import pytest

from snipe import (
    Design,
    design_matrix,
    design_matrix_inverse,
    evaluate,
    subset_coeff,
    ground_truth,
    implicit_tte_weight,
    sample,
    snipe_ate,
    snipe_cate,
    snipe_te_alpha,
    snipe_tte,
    snipe_tte_uniform,
    snipe_weight,
    snipe_weights,
    uniform_design,
)
from snipe.estimators import subsets_up_to
from snipe.oracle import exact_moments
from snipe.outcomes import OutcomesModel

from snipe import conservative_variance, dm_thresh_tte, dm_tte, ht_tte, ls_fit
from snipe.estimators import _ate_weights

from _util import (
    ate_weight_reference,
    graph_from_neighbors,
    random_design,
    random_graph,
    random_model,
    subset_weight_reference,
)


# ---------------------------------------------------------------- subset_coeff


def test_g_empty_set_is_zero():
    assert subset_coeff((), uniform_design(3, 0.3)) == 0.0


def test_g_singleton_is_one_for_any_probability():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = Design(rng.uniform(0.05, 0.95, 5))
        j = int(rng.integers(5))
        assert subset_coeff((j,), d) == pytest.approx(1.0, abs=1e-15)


def test_g_pair_examples():
    assert subset_coeff((0, 1), uniform_design(2, 0.5)) == pytest.approx(0.0, abs=1e-15)
    # (1-p)^2 - p^2 at p = 0.2: 0.64 - 0.04
    assert subset_coeff((0, 1), uniform_design(2, 0.2)) == pytest.approx(0.60)


def test_g_bounded_by_one():
    rng = np.random.default_rng(1)
    for _ in range(10000):
        k = int(rng.integers(0, 7))
        p = rng.uniform(0.01, 0.99, max(k, 1))
        assert abs(subset_coeff(tuple(range(k)), p)) <= 1.0 + 1e-15


# ------------------------------------------------------------- snipe_weight


def test_weight_single_self_loop_half():
    g = graph_from_neighbors([[0]])
    d = uniform_design(1, 0.5)
    assert snipe_weight(g, 0, np.array([1]), d, 1) == pytest.approx(2.0)
    assert snipe_weight(g, 0, np.array([0]), d, 1) == pytest.approx(-2.0)


def test_weight_all_control_linear():
    # with every unit in control, the order-1 weight is -|N_i|/(1-p)
    g = random_graph(np.random.default_rng(2), 12, 0.5)
    p = 0.3
    d = uniform_design(12, p)
    z = np.zeros(12, dtype=np.int64)
    for i in range(12):
        want = -g.in_degrees[i] / (1.0 - p)
        assert snipe_weight(g, i, z, d, 1) == pytest.approx(want)


def test_weight_full_order_recovers_inverse_propensity_products():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = 10
        g = random_graph(rng, n, 0.35)
        d = random_design(rng, n, lo=0.2, hi=0.8)
        z = sample(d, int(rng.integers(2**31)))
        i = int(rng.integers(n))
        nb = g.in_neighborhood(i)
        beta = max(len(nb), 1)
        want = np.prod(
            np.where(z[nb] == 1, 1.0 / d.probs[nb], 0.0)
        ) - np.prod(np.where(z[nb] == 0, 1.0 / (1.0 - d.probs[nb]), 0.0))
        assert snipe_weight(g, i, z, d, beta) == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_batch_weights_match_reference():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)), self_loops=bool(rng.integers(2)))
        d = random_design(rng, n)
        beta = int(rng.integers(1, 4))
        z = sample(d, int(rng.integers(2**31)))
        w = snipe_weights(g, z, d, beta)
        for i in range(n):
            ref = subset_weight_reference(g, i, z, d, beta)
            assert w[i] == pytest.approx(ref, abs=1e-12, rel=1e-12)
            assert snipe_weight(g, i, z, d, beta) == pytest.approx(ref, abs=1e-12, rel=1e-12)


def test_weight_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = 30
        g = random_graph(rng, n, 0.2)
        d = random_design(rng, n, lo=0.15, hi=0.85)
        beta = int(rng.integers(1, 4))
        cap = (g.d_in / d.p_floor) ** beta
        for k in range(20):
            z = sample(d, k)
            assert np.all(np.abs(snipe_weights(g, z, d, beta)) <= cap + 1e-9)


# --------------------------------------------------------------- snipe_tte


def test_tte_zero_outcomes():
    g = random_graph(np.random.default_rng(6), 9, 0.4)
    d = uniform_design(9, 0.25)
    z = sample(d, 0)
    assert snipe_tte(g, np.zeros(9), z, d, 2) == 0.0


def test_tte_single_node_two_point_expectation():
    # model 1 + 2 z: estimates are 6 under treatment and -2 under control,
    # averaging (0.5, 0.5) to the true effect 2
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{(): 1.0, (0,): 2.0}], g)
    d = uniform_design(1, 0.5)
    est1 = snipe_tte(g, evaluate(m, np.array([1])), np.array([1]), d, 1)
    est0 = snipe_tte(g, evaluate(m, np.array([0])), np.array([0]), d, 1)
    assert est1 == pytest.approx(6.0)
    assert est0 == pytest.approx(-2.0)
    assert 0.5 * est1 + 0.5 * est0 == pytest.approx(2.0)


def test_tte_length_mismatch():
    g = graph_from_neighbors([[0]])
    d = uniform_design(1, 0.5)
    with pytest.raises(ValueError):
        snipe_tte(g, np.zeros(2), np.array([1, 0]), d, 1)
    with pytest.raises(ValueError):
        snipe_tte(g, np.zeros(2), np.array([1]), d, 1)


def test_unbiasedness_exhaustive():
    # exact expectation over all assignments equals the ground truth, for
    # uniform and non-uniform designs and beta in {1, 2, 3}
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(4, 13))
        beta = int(rng.integers(1, 4))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.6)))
        m = random_model(rng, g, beta, r=float(rng.uniform(0.5, 2.5)))
        gt = ground_truth(m)
        if trial % 3 == 0:
            d = uniform_design(n, 0.2)
        elif trial % 3 == 1:
            d = uniform_design(n, 0.5)
        else:
            d = random_design(rng, n, lo=0.1, hi=0.9)
        moments = exact_moments(
            lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, beta), d, batch=True
        )
        assert abs(moments.mean - gt.tte) <= 1e-8


def test_ht_equivalence_at_full_order():
    from snipe import ht_tte

    rng = np.random.default_rng(8)
    for trial in range(40):
        n = 25
        g = random_graph(rng, n, 0.08, self_loops=True)
        beta = g.d_in
        d = random_design(rng, n, lo=0.25, hi=0.75)
        z = sample(d, int(rng.integers(2**31)))
        Y = rng.uniform(-2.0, 2.0, n)
        assert abs(snipe_tte(g, Y, z, d, beta) - ht_tte(g, Y, z, d)) <= 1e-12


def test_uniform_fast_path_matches_general():
    rng = np.random.default_rng(9)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(0.1, 0.9))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)), self_loops=bool(rng.integers(2)))
        d = uniform_design(n, p)
        beta = int(rng.integers(1, 5))
        z = sample(d, int(rng.integers(2**31)))
        Y = rng.uniform(-3.0, 3.0, n)
        a = snipe_tte(g, Y, z, d, beta)
        b = snipe_tte_uniform(g, Y, z, p, beta)
        assert abs(a - b) <= 1e-9
    assert snipe_tte_uniform(g, np.zeros(n), z, p, beta) == 0.0


# ------------------------------------------------- design-matrix machinery


def test_design_matrix_single_neighbor():
    d = uniform_design(4, 0.3)
    M = design_matrix([2], d, 1)
    assert M == pytest.approx(np.array([[1.0, 0.3], [0.3, 0.3]]))


def test_design_matrix_empty_row_is_marginals():
    rng = np.random.default_rng(10)
    d = random_design(rng, 8)
    subsets = subsets_up_to([1, 4, 6], 2)
    M = design_matrix([1, 4, 6], d, 2)
    for col, s in enumerate(subsets):
        assert M[0, col] == pytest.approx(float(np.prod(d.probs[list(s)])))


def test_subset_guard():
    with pytest.raises(ValueError):
        subsets_up_to(list(range(17)), 17)


def test_design_matrix_inverse_explicit_2x2():
    p = 0.3
    d = uniform_design(2, p)
    A = design_matrix_inverse([1], d, 1)
    want = np.array([[1.0 + p / (1.0 - p), -1.0 / (1.0 - p)], [-1.0 / (1.0 - p), 1.0 / (p * (1.0 - p))]])
    assert A == pytest.approx(want)


def test_design_matrix_inverse_is_inverse_and_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(1, 6))
        neigh = sorted(rng.choice(9, size=k, replace=False).tolist())
        d = random_design(rng, 9, lo=0.15, hi=0.85)
        beta = int(rng.integers(1, 4))
        M = design_matrix(neigh, d, beta)
        A = design_matrix_inverse(neigh, d, beta)
        assert np.max(np.abs(M @ A - np.eye(len(A)))) <= 1e-9
        assert np.max(np.abs(A - A.T)) == 0.0
        assert np.max(np.abs(A - np.linalg.inv(M))) <= 1e-6 * np.max(np.abs(A))


def test_implicit_weight_matches_explicit():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = 12
        k = int(rng.integers(0, 9))
        neigh = sorted(rng.choice(n, size=k, replace=False).tolist())
        beta = int(rng.integers(1, 4))
        d = random_design(rng, n, lo=0.15, hi=0.85)
        z = sample(d, int(rng.integers(2**31)))
        nbrs = [np.array(neigh if i == 0 else [i], dtype=np.int64) for i in range(n)]
        nbrs[0] = np.array(neigh, dtype=np.int64)
        g = graph_from_neighbors([list(nb) for nb in nbrs])
        assert implicit_tte_weight(neigh, z, d, beta) == pytest.approx(
            snipe_weight(g, 0, z, d, beta), abs=1e-9
        )


def test_implicit_weight_empty_neighborhood():
    d = uniform_design(3, 0.4)
    assert implicit_tte_weight([], np.array([1, 0, 1]), d, 2) == 0.0


def test_implicit_weight_full_order_is_ht():
    rng = np.random.default_rng(13)
    d = random_design(rng, 6, lo=0.2, hi=0.8)
    z = sample(d, 3)
    neigh = [0, 2, 5]
    w = implicit_tte_weight(neigh, z, d, 3)
    nb = np.array(neigh)
    want = np.prod(np.where(z[nb] == 1, 1.0 / d.probs[nb], 0.0)) - np.prod(
        np.where(z[nb] == 0, 1.0 / (1.0 - d.probs[nb]), 0.0)
    )
    assert w == pytest.approx(want, abs=1e-9)


# --------------------------------------------- direct and size-k estimators


def test_ate_zero_outcomes():
    g = graph_from_neighbors([[0], [1]])
    d = uniform_design(2, 0.4)
    assert snipe_ate(g, np.zeros(2), np.array([1, 0]), d, 1) == 0.0


def test_ate_single_node_hand_values():
    # weight is (-1/0.5) * (0.5 - z)/0.5 = 2(2z - 1)
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{(): 1.0, (0,): 2.0}], g)
    d = uniform_design(1, 0.5)
    est1 = snipe_ate(g, evaluate(m, np.array([1])), np.array([1]), d, 1)
    est0 = snipe_ate(g, evaluate(m, np.array([0])), np.array([0]), d, 1)
    assert est1 == pytest.approx(6.0)
    assert est0 == pytest.approx(-2.0)
    assert 0.5 * est1 + 0.5 * est0 == pytest.approx(2.0)


def test_ate_requires_self_loops():
    g = graph_from_neighbors([[1], [0]])
    d = uniform_design(2, 0.4)
    with pytest.raises(ValueError):
        snipe_ate(g, np.zeros(2), np.array([0, 1]), d, 1)


def test_ate_oracle_unbiasedness():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(3, 10))
        beta = int(rng.integers(1, 4))
        g = random_graph(rng, n, 0.4)
        m = random_model(rng, g, beta)
        gt = ground_truth(m)
        d = random_design(rng, n, lo=0.15, hi=0.85)
        moments = exact_moments(
            lambda Z: snipe_ate(g, evaluate(m, Z), Z, d, beta), d, batch=True
        )
        assert abs(moments.mean - gt.ate) <= 1e-9


def test_cate_full_population_equals_ate():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 8, 0.4)
    m = random_model(rng, g, 2)
    d = uniform_design(8, 0.3)
    z = sample(d, 1)
    Y = evaluate(m, z)
    assert snipe_cate(g, Y, z, d, 2, list(range(8))) == pytest.approx(
        snipe_ate(g, Y, z, d, 2), abs=1e-12
    )


def test_cate_singleton():
    rng = np.random.default_rng(16)
    g = random_graph(rng, 6, 0.5)
    m = random_model(rng, g, 2)
    d = uniform_design(6, 0.35)
    z = sample(d, 2)
    Y = evaluate(m, z)
    w = _ate_weights(g, z, d, 2)
    assert snipe_cate(g, Y, z, d, 2, [3]) == pytest.approx(Y[3] * w[3])


def test_ate_weights_match_enumeration_near_p_one():
    # under the all-control assignment every subset term is positive, so
    # the literal sum has no cancellation and relative error is defined;
    # sparse graphs give neighborhoods smaller than beta, where the exact
    # higher-order sums over N_i \ {i} are 0 and a scheme that subtracts
    # the self term back out amplifies its rounding by h_i <= 199 per order
    rng = np.random.default_rng(21)
    n = 8
    z = np.zeros(n, dtype=np.int64)
    for beta in (2, 3, 4):
        for _ in range(10):
            g = random_graph(rng, n, 0.3)
            d = random_design(rng, n, lo=0.9, hi=0.995)
            want = [ate_weight_reference(g, i, z, d, beta) for i in range(n)]
            np.testing.assert_allclose(_ate_weights(g, z, d, beta), want, rtol=1e-13, atol=0)


def test_cate_oracle_unbiasedness_random_demographics():
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        beta = int(rng.integers(1, 3))
        g = random_graph(rng, n, 0.5)
        m = random_model(rng, g, beta)
        D = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        truth = float(np.mean([m.terms[i].get((i,), 0.0) for i in D]))
        d = random_design(rng, n, lo=0.2, hi=0.8)
        moments = exact_moments(
            lambda Z: snipe_cate(g, evaluate(m, Z), Z, d, beta, D), d, batch=True
        )
        assert abs(moments.mean - truth) <= 1e-9


def test_cate_validates_demographic():
    g = graph_from_neighbors([[0], [1]])
    d = uniform_design(2, 0.4)
    with pytest.raises(ValueError):
        snipe_cate(g, np.zeros(2), np.array([0, 1]), d, 1, [])
    with pytest.raises(ValueError):
        snipe_cate(g, np.zeros(2), np.array([0, 1]), d, 1, [5])


def test_te_alpha_reduces_to_ate_for_pure_self_graphs():
    g = graph_from_neighbors([[0], [1], [2]])
    rng = np.random.default_rng(18)
    m = random_model(rng, g, 2)
    d = uniform_design(3, 0.3)
    z = sample(d, 4)
    Y = evaluate(m, z)
    assert snipe_te_alpha(g, Y, z, d, 2, 1) == pytest.approx(snipe_ate(g, Y, z, d, 2), abs=1e-12)


def test_te_alpha_zero_outcomes_and_range():
    g = graph_from_neighbors([[0], [1]])
    d = uniform_design(2, 0.4)
    assert snipe_te_alpha(g, np.zeros(2), np.array([1, 0]), d, 2, 1) == 0.0
    with pytest.raises(ValueError):
        snipe_te_alpha(g, np.zeros(2), np.array([1, 0]), d, 2, 3)
    with pytest.raises(ValueError):
        snipe_te_alpha(g, np.zeros(2), np.array([1, 0]), d, 2, 0)


def test_te_alpha_oracle_unbiasedness():
    rng = np.random.default_rng(19)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        beta = int(rng.integers(1, 4))
        g = random_graph(rng, n, 0.5)
        m = random_model(rng, g, beta)
        gt = ground_truth(m)
        d = random_design(rng, n, lo=0.2, hi=0.8)
        for alpha in range(1, beta + 1):
            moments = exact_moments(
                lambda Z, a=alpha: snipe_te_alpha(g, evaluate(m, Z), Z, d, beta, a),
                d,
                batch=True,
            )
            assert abs(moments.mean - gt.te_alpha[alpha]) <= 1e-9


# ------------------------------------------------------------- input checks

_ESTIMATE = {
    "snipe_tte": lambda g, Y, z, d: snipe_tte(g, Y, z, d, 1),
    "snipe_tte_uniform": lambda g, Y, z, d: snipe_tte_uniform(g, Y, z, 0.4, 1),
    "snipe_ate": lambda g, Y, z, d: snipe_ate(g, Y, z, d, 1),
    "snipe_cate": lambda g, Y, z, d: snipe_cate(g, Y, z, d, 1, [0, 2]),
    "snipe_te_alpha": lambda g, Y, z, d: snipe_te_alpha(g, Y, z, d, 1, 1),
    "ht_tte": lambda g, Y, z, d: ht_tte(g, Y, z, d),
    "dm_tte": lambda g, Y, z, d: dm_tte(Y, z),
    "dm_thresh_tte": lambda g, Y, z, d: dm_thresh_tte(g, Y, z, 0.0),
    "ls_fit": lambda g, Y, z, d: ls_fit(g, Y, z, 1),
    "conservative_variance": lambda g, Y, z, d: conservative_variance(g, Y, z, d, 1),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATE))
def test_estimators_validate_inputs(name):
    est = _ESTIMATE[name]
    g = random_graph(np.random.default_rng(22), 6, 0.4)
    d = uniform_design(6, 0.4)
    z = np.array([1, 0, 1, 0, 1, 0])
    Y = np.arange(6.0)
    est(g, Y, z, d)
    if name != "dm_tte":  # the one estimator without a graph
        with pytest.raises(ValueError, match="length"):
            est(g, Y[:5], z[:5], d)
    with pytest.raises(ValueError, match="shape"):
        est(g, Y[:5], z, d)
    for bad_z in (np.full(6, 2), np.where(z == 1, 1, -1), z * 0.5):
        with pytest.raises(ValueError, match="0 or 1"):
            est(g, Y, bad_z, d)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            est(g, np.where(z == 1, bad, Y), z, d)
