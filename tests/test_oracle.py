import numpy as np
import pytest

from snipe import Design, evaluate, ground_truth, uniform_design
from snipe.estimators import snipe_tte
from snipe.oracle import enumerate_assignments, exact_moments, exact_product_expectation

from _util import random_design, random_graph, random_model


def test_enumerate_assignments_bits():
    Z = enumerate_assignments(3)
    assert Z.shape == (8, 3)
    assert Z[0].tolist() == [0, 0, 0]
    assert Z[5].tolist() == [1, 0, 1]  # 5 = 0b101, low bit first
    assert Z[7].tolist() == [1, 1, 1]


def test_constant_estimator_moments():
    d = uniform_design(4, 0.3)
    m = exact_moments(lambda z: 2.5, d)
    assert m.mean == pytest.approx(2.5)
    assert m.variance == pytest.approx(0.0, abs=1e-12)
    assert m.support == 16


def test_single_coordinate_bernoulli_moments():
    d = Design(np.array([0.3, 0.6]))
    m = exact_moments(lambda z: float(z[0]), d)
    assert m.mean == pytest.approx(0.3)
    assert m.variance == pytest.approx(0.21)


def test_variance_of_an_estimator_with_a_negative_mean():
    # z_0 - 3 has mean p_0 - 3 < 0 and the variance p_0 (1 - p_0) of z_0
    d = Design(np.array([0.3, 0.6]))
    m = exact_moments(lambda Z: Z[:, 0] - 3.0, d, batch=True)
    assert m.mean == pytest.approx(-2.7, rel=1e-14)
    assert m.variance == pytest.approx(0.21, rel=1e-12)


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError, match="exceeds the exhaustive-enumeration cap 20"):
        enumerate_assignments(21)
    d = uniform_design(21, 0.4)
    with pytest.raises(ValueError):
        exact_moments(lambda z: 0.0, d)
    with pytest.raises(ValueError):
        exact_product_expectation([0], [1], d)


def test_scalar_and_batch_agree():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 7, 0.4)
    m = random_model(rng, g, 2)
    d = random_design(rng, 7)
    a = exact_moments(lambda z: snipe_tte(g, evaluate(m, z), z, d, 2), d)
    b = exact_moments(lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, 2), d, batch=True)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    assert a.variance == pytest.approx(b.variance, abs=1e-12)


def test_oracle_asserts_unbiasedness_of_point_estimator():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 8, 0.45)
    m = random_model(rng, g, 2)
    gt = ground_truth(m)
    d = uniform_design(8, 0.3)
    moments = exact_moments(
        lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, 2), d, batch=True, label="snipe(2)"
    )
    assert abs(moments.mean - gt.tte) <= 1e-9
    assert moments.estimator == "snipe(2)"
    assert moments.variance >= -1e-12


def test_product_expectation_trivial_cases():
    rng = np.random.default_rng(2)
    d = random_design(rng, 6)
    # no centered factors: plain marginal
    assert exact_product_expectation([], [2], d) == pytest.approx(d.probs[2], abs=1e-12)
    # a single centered factor has mean zero
    assert exact_product_expectation([3], [], d) == pytest.approx(0.0, abs=1e-12)
    # S inside S': remaining marginals survive
    assert exact_product_expectation([1], [1, 4], d) == pytest.approx(d.probs[4], abs=1e-12)


def test_product_expectation_matches_closed_form():
    rng = np.random.default_rng(3)
    d = random_design(rng, 10)
    for _ in range(60):
        S = sorted(rng.choice(10, size=int(rng.integers(0, 4)), replace=False).tolist())
        Sp = sorted(rng.choice(10, size=int(rng.integers(0, 5)), replace=False).tolist())
        got = exact_product_expectation(S, Sp, d)
        if set(S) <= set(Sp):
            want = float(np.prod(d.probs[sorted(set(Sp) - set(S))]))
        else:
            want = 0.0
        assert abs(got - want) <= 1e-10


def test_monte_carlo_agrees_with_exact_moments():
    # 10^6 simulated draws land within 4 standard errors of the exhaustive
    # mean for a nonlinear estimator
    rng = np.random.default_rng(4)
    g = random_graph(rng, 8, 0.5)
    m = random_model(rng, g, 2)
    d = uniform_design(8, 0.35)

    def estimator(Z):
        return snipe_tte(g, evaluate(m, Z), Z, d, 2)

    exact = exact_moments(estimator, d, batch=True)
    draws = 1_000_000
    total = 0.0
    chunk = 1 << 15
    mc = np.empty(0)
    vals = []
    for start in range(0, draws, chunk):
        k = min(chunk, draws - start)
        Z = (rng.random((k, 8)) < d.probs).astype(np.int64)
        vals.append(estimator(Z))
    mc = np.concatenate(vals)
    se = mc.std(ddof=1) / np.sqrt(draws)
    assert abs(mc.mean() - exact.mean) <= 4.0 * se
