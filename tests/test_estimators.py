import math
import warnings

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
    load_treatment,
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

from snipe import conservative_variance, dm_thresh_tte, dm_tte, gen_erdos_renyi, gen_experiment_model, ht_tte, ls_fit
from snipe.estimators import _ate_weights, _uniform_weight_table

from _util import (
    ate_weight_reference,
    graph_from_neighbors,
    overflow_instance,
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
    for beta in (0, -1):
        with pytest.raises(ValueError, match="beta"):
            snipe_cate(g, np.zeros(2), np.array([0, 1]), d, beta, [0])
    for D in ([0.5, 1.7], [True], np.array([1.0])):
        with pytest.raises(ValueError, match="integer"):
            snipe_cate(g, np.zeros(2), np.array([0, 1]), d, 1, D)


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


def _order_calls(name):
    # every public entry point that takes an interaction order, as a
    # function of that order; every node of g has its self-loop
    g = graph_from_neighbors([[0, 1], [0, 1, 2], [2, 3], [1, 3], [4], [4, 5], [5, 6], [0, 7]])
    d = uniform_design(g.n, 0.4)
    z = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    Y = np.linspace(0.5, 2.0, g.n)
    calls = {
        "snipe_weight": lambda b: snipe_weight(g, 0, z, d, b),
        "snipe_weights": lambda b: snipe_weights(g, z, d, b),
        "snipe_tte": lambda b: snipe_tte(g, Y, z, d, b),
        "snipe_tte_uniform": lambda b: snipe_tte_uniform(g, Y, z, 0.4, b),
        "snipe_ate": lambda b: snipe_ate(g, Y, z, d, b),
        "snipe_cate": lambda b: snipe_cate(g, Y, z, d, b, [0, 5]),
        "snipe_te_alpha": lambda b: snipe_te_alpha(g, Y, z, d, b, 1),
        "snipe_te_alpha(alpha)": lambda a: snipe_te_alpha(g, Y, z, d, 3, a),
        "ls_fit": lambda b: ls_fit(g, Y, z, b),
        "conservative_variance": lambda b: conservative_variance(g, Y, z, d, b),
        "OutcomesModel": lambda b: OutcomesModel(b, [{(): 1.0}] * g.n, g),
        "gen_experiment_model": lambda b: gen_experiment_model(g, b, 1.0, 0),
    }
    return calls[name]


ORDER_TAKERS = [
    "snipe_weight", "snipe_weights", "snipe_tte", "snipe_tte_uniform", "snipe_ate", "snipe_cate",
    "snipe_te_alpha", "snipe_te_alpha(alpha)", "ls_fit", "conservative_variance", "OutcomesModel",
    "gen_experiment_model",
]


@pytest.mark.parametrize("value", [1.5, True, np.float64(2.5), float("nan")], ids=repr)
@pytest.mark.parametrize("fn", ORDER_TAKERS)
def test_interaction_order_must_be_an_integer(fn, value):
    # a bool or non-integral order is an error naming the parameter, never
    # a truncated order or a TypeError from range()
    param = "alpha" if "alpha)" in fn else "beta"
    with pytest.raises(ValueError, match=param):
        _order_calls(fn)(value)


@pytest.mark.parametrize("fn", ORDER_TAKERS)
def test_integral_order_values_are_accepted(fn):
    call = _order_calls(fn)
    want = call(2)
    for value in (2.0, np.int64(2)):
        got = call(value)
        if fn in ("OutcomesModel", "gen_experiment_model"):
            assert got.beta == want.beta == 2 and type(got.beta) is int
        elif fn == "ls_fit":
            assert np.array_equal(got.coefficients, want.coefficients)
        else:
            assert np.array_equal(got, want)


# ------------------------------------------------------ one treatment check


def test_every_treatment_check_gives_one_message(tmp_path):
    rng = np.random.default_rng(23)
    g = random_graph(rng, 5, 0.4)
    m = random_model(rng, g, 1)
    z = np.array([0, 1, 2, 1, 0])
    path = tmp_path / "z.csv"
    path.write_text("0,1,2,1,0\n")
    calls = [
        lambda: evaluate(m, z),
        lambda: snipe_tte(g, np.ones(5), z, uniform_design(5, 0.3), 1),
        lambda: dm_tte(np.ones(5), z),
        lambda: load_treatment(path),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^treatments must be 0 or 1$"):
            call()


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize(
    "name", ["snipe_tte", "snipe_ate", "snipe_cate", "snipe_te_alpha", "ht_tte", "conservative_variance"]
)
def test_estimators_reject_a_design_of_another_length(name, size):
    # a length-1 design used to broadcast to a number, a length-7 one to
    # fail with an error naming no argument
    g = random_graph(np.random.default_rng(22), 6, 0.4)
    z = np.array([1, 0, 1, 0, 1, 0])
    with pytest.raises(ValueError, match=f"design length {size} != n = 6"):
        _ESTIMATE[name](g, np.arange(6.0), z, uniform_design(size, 0.4))


# ------------------------------------------------- one mean over units, one table


_BATCHED = {
    "snipe_tte": lambda g, Y, z, d, b: snipe_tte(g, Y, z, d, b),
    "snipe_tte_uniform": lambda g, Y, z, d, b: snipe_tte_uniform(g, Y, z, float(d.probs[0]), b),
    "snipe_ate": lambda g, Y, z, d, b: snipe_ate(g, Y, z, d, b),
    "snipe_cate": lambda g, Y, z, d, b: snipe_cate(g, Y, z, d, b, np.arange(0, g.n, 3)),
    "snipe_te_alpha": lambda g, Y, z, d, b: snipe_te_alpha(g, Y, z, d, b, 1),
    "ht_tte": lambda g, Y, z, d, b: ht_tte(g, Y, z, d),
}


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_batched_rows_equal_single_calls_bit_for_bit(name):
    # the exhaustive oracle evaluates estimators on blocks of assignments
    # and the Monte Carlo harness one draw at a time; both must see the
    # same numbers, at an n large enough for summation order to matter
    est = _BATCHED[name]
    n = 5000
    g = gen_erdos_renyi(n, 10 / n, self_loops=True, seed=11)
    rng = np.random.default_rng(5)
    designs = [uniform_design(n, 0.2)]
    if name != "snipe_tte_uniform":
        designs.append(Design(rng.uniform(0.1, 0.5, n)))
    for beta in (1, 2, 3):
        for d in designs:
            Z = np.stack([sample(d, 1000 * beta + k) for k in range(6)])
            Y = rng.normal(1.0, 2.0, Z.shape)
            batched = est(g, Y, Z, d, beta)
            single = np.array([est(g, Y[k], Z[k], d, beta) for k in range(6)])
            assert np.array_equal(batched, single), (beta, batched - single)


def _uniform_table_reference(p, beta, t_max, m_max):
    # the literal double binomial sum per (t, m) with exact integer
    # binomials, summed by fsum; also returns the sum of |terms|
    table = np.empty((t_max + 1, m_max + 1))
    scale = np.empty_like(table)
    for t in range(t_max + 1):
        for m in range(m_max + 1):
            terms = [
                math.comb(t, k) * math.comb(m, ell) * (-1.0) ** (k + ell)
                * (((p - 1.0) / p) ** k - ((-p) / (1.0 - p)) ** ell)
                for k in range(min(beta, t) + 1)
                for ell in range(min(beta - k, m) + 1)
            ]
            table[t, m] = math.fsum(terms)
            scale[t, m] = math.fsum(abs(v) for v in terms)
    return table, scale


@pytest.mark.parametrize("p", [0.1, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("beta", [1, 2, 3, 4])
def test_uniform_weight_table_matches_literal_binomial_sum(p, beta):
    table = _uniform_weight_table(p, beta, 12)
    want, scale = _uniform_table_reference(p, beta, 12, 12)
    assert table.shape == want.shape
    assert np.all(np.abs(table - want) <= 1e-12 * scale)
    if p == 0.2 and beta <= 2:  # every term and partial sum is exact here
        assert np.array_equal(table, want)


def test_uniform_fast_path_on_a_600_leaf_star():
    # one hub reading itself and 600 leaves: the table spans in-degree 601,
    # far past the degrees of the random graphs above
    n = 601
    g = graph_from_neighbors([list(range(n))] + [[i] for i in range(1, n)])
    d = uniform_design(n, 0.2)
    rng = np.random.default_rng(31)
    Y = rng.uniform(-2.0, 2.0, n)
    for beta in (1, 2, 3):
        z = sample(d, 40 + beta)
        w = snipe_weights(g, z, d, beta)
        scale = np.abs(Y * w).sum() / n
        fast = snipe_tte_uniform(g, Y, z, 0.2, beta)
        assert abs(fast - snipe_tte(g, Y, z, d, beta)) <= 1e-9 * scale


@pytest.mark.parametrize("p", [1e-160, 1e-300])
def test_uniform_fast_path_past_float64_range_is_a_value_error(p):
    g, model, z = overflow_instance()
    with pytest.raises(ValueError, match="snipe_tte_uniform: .*overflows float64"):
        snipe_tte_uniform(g, evaluate(model, z), z, p, 2)


def test_uniform_fast_path_just_inside_float64_range_is_unchanged():
    g, model, z = overflow_instance()
    assert snipe_tte_uniform(g, evaluate(model, z), z, 1e-100, 2) == 9.295337861530806e197


@pytest.mark.parametrize("ignore_warnings", [False, True], ids=["warnings-raised", "warnings-ignored"])
@pytest.mark.parametrize("p", [1e-300, 1e-200, 1e-160])
def test_snipe_past_float64_range_is_a_value_error(p, ignore_warnings):
    # the same error whatever the warnings filter: never an inf or a RuntimeWarning
    g, model, z = overflow_instance()
    Y, d = evaluate(model, z), uniform_design(200, p)
    with warnings.catch_warnings():
        if ignore_warnings:
            warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="snipe_tte: .*overflows float64"):
            snipe_tte(g, Y, z, d, 2)
        with pytest.raises(ValueError, match="snipe_te_alpha: .*overflows float64"):
            snipe_te_alpha(g, Y, z, d, 2, 2)
        with pytest.raises(ValueError, match="snipe_tte: .*overflows float64"):
            snipe_tte(g, np.stack([Y, Y]), np.stack([z, z]), d, 2)  # a batch, too
        assert math.isfinite(snipe_te_alpha(g, Y, z, d, 2, 1))


@pytest.mark.parametrize("p", [1e-120, 1e-100, 1e-20])
def test_snipe_just_inside_float64_range_is_unchanged(p):
    g, model, z = overflow_instance()
    Y, d = evaluate(model, z), uniform_design(200, p)
    w = snipe_weights(g, z, d, 2)
    assert snipe_tte(g, Y, z, d, 2) == (Y * w).mean()
    assert snipe_te_alpha(g, Y, z, d, 2, 2) == snipe_te_alpha.__wrapped__(g, Y, z, d, 2, 2)


_NO_SELF_LOOP = graph_from_neighbors([[0], [0]])  # node 1 reads only node 0


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: snipe_tte_uniform(_NO_SELF_LOOP, np.zeros(2), np.array([0, 1]), 1.0, 1), r"p must lie strictly"),
        (lambda: snipe_tte_uniform(_NO_SELF_LOOP, np.zeros(2), np.array([0, 1]), 0.0, 1), r"p must lie strictly"),
        (lambda: subsets_up_to([2, 0, 1], 2), "neighborhood must be sorted and duplicate-free"),
        (
            lambda: snipe_cate(_NO_SELF_LOOP, np.zeros(2), np.array([0, 1]), uniform_design(2, 0.5), 1, [1]),
            "snipe_cate requires a self-loop on every node of D",
        ),
    ],
    ids=["uniform-p-1", "uniform-p-0", "unsorted-neighborhood", "cate-node-without-self-loop"],
)
def test_estimator_input_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()
