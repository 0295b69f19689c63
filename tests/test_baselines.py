import math

import numpy as np
import pytest

from snipe import (
    OutcomesModel,
    UndefinedEstimateError,
    dm_thresh_tte,
    dm_tte,
    evaluate,
    gen_erdos_renyi,
    gen_experiment_model,
    ground_truth,
    ht_tte,
    ls_fit,
    ls_tte,
    sample,
    snipe_tte_uniform,
    uniform_design,
)
from snipe.baselines import RegressionFit, _ls_covariate
from snipe.harness import substream
from snipe.oracle import exact_moments

from _util import graph_from_neighbors, random_design, random_graph


# ------------------------------------------------------------------- HT


def test_ht_single_node_two_point():
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{(): 1.0, (0,): 2.0}], g)
    d = uniform_design(1, 0.5)
    est1 = ht_tte(g, evaluate(m, np.array([1])), np.array([1]), d)
    est0 = ht_tte(g, evaluate(m, np.array([0])), np.array([0]), d)
    assert est1 == pytest.approx(2.0 * 3.0)
    assert est0 == pytest.approx(-2.0 * 1.0)
    assert 0.5 * est1 + 0.5 * est0 == pytest.approx(2.0)


def test_ht_degenerate_at_realistic_degree():
    # at degree ~16 a neighborhood is rarely all treated or all control, and
    # when none is the estimate is an exact zero; when one is, it is nonzero
    # for positive outcomes. Both hold on every draw, whichever occurs.
    n = 2000
    d = uniform_design(n, 0.5)
    for k in range(8):
        g = gen_erdos_renyi(n, 16.0 / n, self_loops=True, seed=k)
        z = sample(d, 100 + k)
        Y = np.random.default_rng(k).uniform(1.0, 3.0, n)
        counts = g.in_csr() @ z
        exposed = np.any((counts == 0) | (counts == g.in_degrees))
        assert (ht_tte(g, Y, z, d) != 0.0) == exposed
        assert ht_tte(g, np.zeros(n), z, d) == 0.0
    # both cases on a ring with N_i = {i - 1, i}: alternating treatment
    # leaves every neighborhood mixed, all-ones exposes every one
    ring = graph_from_neighbors([[(i - 1) % 10, i] for i in range(10)])
    half = uniform_design(10, 0.5)
    assert ht_tte(ring, np.ones(10), np.arange(10) % 2, half) == 0.0
    assert ht_tte(ring, np.ones(10), np.ones(10, dtype=np.int64), half) == 4.0


def test_ht_oracle_unbiased_without_low_order_structure():
    # a full-order model (interactions up to the whole neighborhood): HT
    # needs no low-order assumption
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, 0.5)
        terms = []
        for i in range(n):
            nb = g.in_neighborhood(i).tolist()
            tmap = {(): float(rng.uniform(0, 1))}
            from itertools import combinations

            for k in range(1, len(nb) + 1):
                for s in combinations(nb, k):
                    if rng.random() < 0.6:
                        tmap[s] = float(rng.uniform(-1, 1))
            terms.append(tmap)
        m = OutcomesModel(max(g.d_in, 1), terms, g)
        gt = ground_truth(m)
        d = random_design(rng, n, lo=0.2, hi=0.8)
        moments = exact_moments(lambda Z: ht_tte(g, evaluate(m, Z), Z, d), d, batch=True)
        assert abs(moments.mean - gt.tte) <= 1e-8


# ------------------------------------------------------------------- DM


def test_dm_hand_value():
    assert dm_tte(np.array([1.0, 3.0]), np.array([0, 1])) == pytest.approx(2.0)


def test_dm_constant_outcomes():
    assert dm_tte(np.full(5, 2.5), np.array([0, 1, 0, 1, 1])) == pytest.approx(0.0)


def test_dm_empty_group_raises():
    with pytest.raises(UndefinedEstimateError):
        dm_tte(np.ones(3), np.array([1, 1, 1]))
    with pytest.raises(UndefinedEstimateError):
        dm_tte(np.ones(3), np.array([0, 0, 0]))


def test_dm_thresh_zero_equals_dm():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 20, 0.3)
    Y = rng.uniform(0, 2, 20)
    z = sample(uniform_design(20, 0.4), 8)
    assert dm_thresh_tte(g, Y, z, 0.0) == pytest.approx(dm_tte(Y, z))


def test_dm_thresh_one_requires_unanimous_neighborhoods():
    # star: node 0 has non-self neighbors {1, 2}; both treated while node 0
    # is treated keeps it, a single control neighbor drops it
    g = graph_from_neighbors([[0, 1, 2], [1], [2]])
    Y = np.array([5.0, 1.0, 2.0])
    z = np.array([1, 1, 1])
    with pytest.raises(UndefinedEstimateError):
        dm_thresh_tte(g, Y, z, 1.0)  # no control group at all
    z = np.array([1, 1, 0])
    # node 0 treated but neighborhood not unanimous -> dropped; node 1
    # treated with no non-self neighbors -> kept; node 2 control, kept
    est = dm_thresh_tte(g, Y, z, 1.0)
    assert est == pytest.approx(1.0 - 2.0)


def test_dm_thresh_boundary_inclusion():
    # unit 0 treated with 4 non-self neighbors, 3 treated: 3/4 >= 0.75 keeps it
    g = graph_from_neighbors([[0, 1, 2, 3, 4], [1], [2], [3], [4]])
    z = np.array([1, 1, 1, 1, 0])
    Y = np.array([4.0, 1.0, 1.0, 1.0, 3.0])
    est = dm_thresh_tte(g, Y, z, 0.75)
    # treated group keeps nodes 0 (3/4) and 1..3 (no non-self neighbors);
    # control group keeps node 4
    assert est == pytest.approx((4.0 + 1.0 + 1.0 + 1.0) / 4.0 - 3.0)


def test_dm_thresh_validates_threshold():
    g = graph_from_neighbors([[0]])
    with pytest.raises(ValueError):
        dm_thresh_tte(g, np.zeros(1), np.array([1]), 1.5)


# ------------------------------------------------------------------- LS


def _synthetic_regression_data(rng, n, beta, covariate):
    g = random_graph(rng, n, 0.3)
    d = uniform_design(n, 0.4)
    z = sample(d, int(rng.integers(2**31)))
    x = _ls_covariate(g, z, covariate)
    coeffs = rng.uniform(-2, 2, 2 * beta + 1)
    fit = RegressionFit(coeffs, beta, covariate, 0.0, 0.0)
    Y = np.array([fit.predict(z[i], x[i]) for i in range(n)])
    return g, z, Y, coeffs


def test_ls_fit_recovers_exact_model():
    rng = np.random.default_rng(9)
    for beta in (1, 2):
        g, z, Y, coeffs = _synthetic_regression_data(rng, 400, beta, "count")
        fit = ls_fit(g, Y, z, beta, "count")
        assert fit.coefficients == pytest.approx(coeffs, abs=1e-8)


def test_ls_fit_constant_outcome():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 100, 0.3)
    z = sample(uniform_design(100, 0.5), 4)
    fit = ls_fit(g, np.full(100, 7.0), z, 2, "count")
    want = np.zeros(5)
    want[0] = 7.0
    assert fit.coefficients == pytest.approx(want, abs=1e-8)


def test_ls_fit_rank_deficient_uses_ridge():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 50, 0.3)
    z = np.ones(50, dtype=np.int64)  # duplicate of the intercept column
    Y = rng.uniform(0, 1, 50)
    fit = ls_fit(g, Y, z, 1, "count")
    assert fit.ridge > 0.0
    assert np.all(np.isfinite(fit.coefficients))


def test_ls_fit_underdetermined():
    g = graph_from_neighbors([[0], [1]])
    with pytest.raises(ValueError):
        ls_fit(g, np.zeros(2), np.array([0, 1]), 1, "count")


def test_ls_fit_first_order_optimality():
    rng = np.random.default_rng(12)
    for covariate in ("count", "proportion"):
        g = random_graph(rng, 300, 0.25)
        d = uniform_design(300, 0.3)
        z = sample(d, 17)
        Y = rng.uniform(-1, 3, 300)
        beta = 2
        fit = ls_fit(g, Y, z, beta, covariate)
        x = _ls_covariate(g, z, covariate)
        cols = [np.ones(300)] + [x**k for k in range(1, beta + 1)] + [z.astype(float)] + [
            z * x**k for k in range(1, beta)
        ]
        X = np.stack(cols, axis=1)
        grad = 2.0 * (X.T @ (X @ fit.coefficients - Y))
        assert np.max(np.abs(grad)) <= 1e-6 * max(1.0, np.max(np.abs(X.T @ Y)))


def test_ls_tte_zero_fit():
    g = graph_from_neighbors([[0], [1]])
    fit = RegressionFit(np.zeros(3), 1, "count", 0.0, 0.0)
    assert ls_tte(fit, g) == 0.0


def test_ls_tte_proportion_is_common_contrast():
    fit = RegressionFit(np.array([0.5, 1.25, -0.75]), 1, "proportion", 0.0, 0.0)
    g = graph_from_neighbors([[0, 1], [1], [0, 1, 2]])
    # g(1,1) - g(0,0) = (rho + gamma + rho~) - rho
    assert ls_tte(fit, g) == pytest.approx(1.25 - 0.75)


def test_ls_tte_count_hand_value():
    # exact anonymous-linear outcomes c0 + c1 z + c2 U on a fixed 5-node
    # graph: the fitted contrast is c1 + c2 * mean(|N_i| - 1)
    g = graph_from_neighbors([[0, 1, 2], [1, 2], [0, 2], [2, 3, 4], [4]])
    c0, c1, c2 = 0.7, 1.3, -0.4
    z = np.array([1, 0, 1, 0, 1])
    U = _ls_covariate(g, z, "count")
    Y = c0 + c1 * z + c2 * U
    fit = ls_fit(g, Y, z, 1, "count")
    sizes = g.in_degrees - 1
    assert ls_tte(fit, g) == pytest.approx(c1 + c2 * float(sizes.mean()), abs=1e-8)


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_ls_tte_count_equals_per_node_predict(beta):
    rng = np.random.default_rng(40 + beta)
    g = random_graph(rng, 300, 0.05)
    z = sample(uniform_design(300, 0.3), int(rng.integers(2**31)))
    fit = ls_fit(g, rng.uniform(-1, 3, 300), z, beta, "count")
    sizes = (g.in_degrees - g.has_self_loop).astype(np.float64)
    want = math.fsum(fit.predict(1.0, s) - fit.predict(0.0, 0.0) for s in sizes) / g.n
    assert ls_tte(fit, g) == want


def test_ls_proportion_covariate_singleton_is_zero():
    g = graph_from_neighbors([[0], [0, 1, 2], [2]])
    x = _ls_covariate(g, np.array([1, 1, 1]), "proportion")
    assert x[0] == 0.0 and x[2] == 0.0
    assert x[1] == pytest.approx(1.0)


def test_dm_bias_exceeds_snipe_standard_error():
    # benchmark setup with meaningful spillovers: the difference-in-means
    # bias dwarfs the Monte Carlo uncertainty of the unbiased estimator
    n, p, r, beta = 5000, 0.2, 2.0, 1
    base_seed = 314
    g = gen_erdos_renyi(n, 10.0 / n, self_loops=True, seed=substream(base_seed, 0))
    m = gen_experiment_model(g, beta, r, substream(base_seed, 1))
    gt = ground_truth(m)
    d = uniform_design(n, p)
    reps = 400
    dm_rel, snipe_rel = [], []
    for rep in range(reps):
        z = sample(d, substream(base_seed, 2 + rep))
        Y = evaluate(m, z)
        dm_rel.append((dm_tte(Y, z) - gt.tte) / abs(gt.tte))
        snipe_rel.append((snipe_tte_uniform(g, Y, z, p, beta) - gt.tte) / abs(gt.tte))
    snipe_se = np.std(snipe_rel, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(dm_rel)) > 3.0 * snipe_se


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_predict_on_an_array_equals_per_element_calls(beta):
    rng = np.random.default_rng(60 + beta)
    g = random_graph(rng, 200, 0.05)
    z = sample(uniform_design(200, 0.3), int(rng.integers(2**31)))
    fit = ls_fit(g, rng.uniform(-1, 3, 200), z, beta, "count")
    x = np.concatenate([np.arange(15.0), rng.uniform(0.0, 1.0, 20)])
    for zi in (0.0, 1.0):
        got = fit.predict(zi, x)
        assert got.shape == x.shape
        assert np.array_equal(got, [fit.predict(zi, v) for v in x])
