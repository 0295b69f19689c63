import math
import warnings

import numpy as np
import pytest

from snipe import (
    OutcomesModel,
    confidence_interval,
    conservative_variance,
    evaluate,
    gen_erdos_renyi,
    gen_experiment_model,
    ground_truth,
    ht_tte,
    make_report,
    sample,
    snipe_tte,
    snipe_tte_uniform,
    worst_case_variance_bound,
    uniform_design,
)
from snipe.estimators import snipe_weights
from snipe.harness import substream
from snipe.oracle import exact_moments

from _util import (
    conservative_variance_reference,
    graph_from_neighbors,
    overflow_instance,
    random_design,
    random_graph,
    random_model,
)


# -------------------------------------------------------- worst-case bound


def test_bound_hand_value():
    # d_in = d_out = 1, Ymax = 1, n = 100, p = 0.5, order 1:
    # (1/100) * e * max(4, 4) = 4e/100
    g = graph_from_neighbors([[i] for i in range(100)])
    m = OutcomesModel(1, [{(i,): 1.0} for i in range(100)], g)
    d = uniform_design(100, 0.5)
    assert worst_case_variance_bound(g, m, d) == pytest.approx(4.0 * math.e / 100.0)


def test_bound_hand_value_at_order_two():
    # d_in = d_out = 2, n = 3, Ymax = |1| + |-2| = 3, p = 0.25, so
    # max(4 beta^2, 1/(p(1-p))) = max(16, 16/3) = 16 and the bound is
    # (2 * 2 * 9 / 3) * (e * 2 / 2 * 16)^2 = 3072 e^2
    g = graph_from_neighbors([[0, 1], [0, 1], [2]])
    m = OutcomesModel(2, [{(0,): 1.0, (0, 1): -2.0}, {(1,): 0.5}, {}], g)
    assert (g.d_in, g.d_out, m.y_max()) == (2, 2, 3.0)
    got = worst_case_variance_bound(g, m, uniform_design(3, 0.25))
    assert got == pytest.approx(3072.0 * math.e**2, rel=1e-14)


@pytest.mark.parametrize("p", [1e-160, 1e-300])
def test_bound_past_float64_range_is_a_value_error(p):
    g, model, _ = overflow_instance()
    with pytest.raises(ValueError, match="worst_case_variance_bound: .*overflows float64"):
        worst_case_variance_bound(g, model, uniform_design(200, p))


def test_bound_just_inside_float64_range_is_unchanged():
    g, model, _ = overflow_instance()
    assert worst_case_variance_bound(g, model, uniform_design(200, 1e-100)) == 3.5982757410680535e204


@pytest.mark.parametrize("ignore_warnings", [False, True], ids=["warnings-raised", "warnings-ignored"])
@pytest.mark.parametrize("p", [1e-300, 1e-200, 1e-160, 1e-120, 1e-100])
def test_conservative_variance_past_float64_range_is_a_value_error(p, ignore_warnings):
    g, model, z = overflow_instance()
    with warnings.catch_warnings():
        if ignore_warnings:
            warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="conservative_variance: .*overflows float64"):
            conservative_variance(g, evaluate(model, z), z, uniform_design(200, p), 2)


def test_conservative_variance_just_inside_float64_range_is_unchanged():
    g, model, z = overflow_instance()
    args = (g, evaluate(model, z), z, uniform_design(200, 1e-20), 2)
    assert conservative_variance(*args) == conservative_variance.__wrapped__(*args)
    assert math.isfinite(conservative_variance(*args))


def test_bound_linear_simplification():
    # whenever 1/(p(1-p)) >= 4 (always), the order-1 bound reduces to
    # e d_in^2 d_out Ymax^2 / (n p (1-p))
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        g = random_graph(rng, n, 0.4)
        m = random_model(rng, g, 1)
        p = float(rng.uniform(0.05, 0.95))
        d = uniform_design(n, p)
        gt = ground_truth(m)
        pf = d.p_floor
        want = math.e * g.d_in**2 * g.d_out * gt.y_max**2 / (n * pf * (1.0 - pf))
        assert worst_case_variance_bound(g, m, d) == pytest.approx(want, rel=1e-12)


def test_bound_zero_for_zero_model():
    g = graph_from_neighbors([[0], [1]])
    m = OutcomesModel(1, [{}, {}], g)
    assert worst_case_variance_bound(g, m, uniform_design(2, 0.3)) == 0.0


# ------------------------------------------------- conservative estimator


def test_conservative_zero_outcomes():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 10, 0.4)
    d = uniform_design(10, 0.3)
    z = sample(d, 0)
    assert conservative_variance(g, np.zeros(10), z, d, 2) == 0.0


def test_conservative_isolated_node_per_draw_value():
    # single self-loop unit at p = 0.5 and order 1: both terms combine to
    # exactly Y(z)^2 w(z)^2 per draw, with weight +-2
    g = graph_from_neighbors([[0]])
    m = OutcomesModel(1, [{(): 1.0, (0,): 2.0}], g)
    d = uniform_design(1, 0.5)
    for z_val in (0, 1):
        z = np.array([z_val])
        Y = evaluate(m, z)
        w = snipe_weights(g, z, d, 1)[0]
        assert abs(w) == pytest.approx(2.0)
        got = conservative_variance(g, Y, z, d, 1)
        assert got == pytest.approx(float(Y[0] ** 2 * w**2))
    # exact expectation: 0.5*4*Y(1)^2 + 0.5*4*Y(0)^2 = 2 Y(1)^2 + 2 Y(0)^2,
    # which exceeds the true variance by the squared effect
    y1 = float(evaluate(m, np.array([1]))[0])
    y0 = float(evaluate(m, np.array([0]))[0])
    mean_cons = 2.0 * y1**2 + 2.0 * y0**2
    exact_var = exact_moments(
        lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, 1), d, batch=True
    ).variance
    assert mean_cons == pytest.approx(exact_var + (y1 - y0) ** 2)


def test_conservative_matches_reference_implementation():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.7)), self_loops=bool(rng.integers(2)))
        m = random_model(rng, g, 2) if g.has_self_loop.all() else None
        d = random_design(rng, n, lo=0.15, hi=0.85)
        z = sample(d, int(rng.integers(2**31)))
        Y = evaluate(m, z) if m is not None else rng.uniform(-1, 1, n)
        beta = int(rng.integers(1, 4))
        fast = conservative_variance(g, Y, z, d, beta)
        slow = conservative_variance_reference(g, Y, z, d, beta)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_conservative_batch_matches_scalar():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 9, 0.4)
    m = random_model(rng, g, 2)
    d = uniform_design(9, 0.3)
    Z = np.stack([sample(d, k) for k in range(6)])
    Y = evaluate(m, Z)
    batch = conservative_variance(g, Y, Z, d, 2)
    for r in range(6):
        assert batch[r] == pytest.approx(conservative_variance(g, Y[r], Z[r], d, 2), abs=1e-13)


def test_conservative_exact_expectation_dominates_variance():
    # the exhaustive expectation of the single-draw estimate upper-bounds
    # the exhaustive variance of the point estimator (no Monte Carlo slack
    # needed at these sizes)
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(3, 10))
        beta = int(rng.integers(1, 3))
        g = random_graph(rng, n, 0.5)
        m = random_model(rng, g, beta)
        d = random_design(rng, n, lo=0.2, hi=0.8)
        var = exact_moments(lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, beta), d, batch=True).variance
        cons = exact_moments(
            lambda Z: conservative_variance(g, evaluate(m, Z), Z, d, beta), d, batch=True
        ).mean
        assert cons >= var - 1e-9


def test_empirical_variance_below_bound():
    # 10^4 Monte Carlo draws on a benchmark configuration stay (far) below
    # the worst-case bound
    n = 1000
    g = gen_erdos_renyi(n, 10.0 / n, self_loops=True, seed=substream(99, 0))
    m = gen_experiment_model(g, 1, 2.0, substream(99, 1))
    d = uniform_design(n, 0.2)
    bound = worst_case_variance_bound(g, m, d)
    ests = []
    for start in range(0, 10000, 500):
        Z = np.stack([sample(d, substream(99, 2 + start + k)) for k in range(500)])
        Y = evaluate(m, Z)
        ests.append(snipe_tte_uniform(g, Y, Z, 0.2, 1))
    var = float(np.concatenate(ests).var(ddof=1))
    assert var < bound


# ---------------------------------------------------- confidence intervals


def test_ci_degenerate_variance():
    assert confidence_interval(1.5, 0.0, 0.05) == (1.5, 1.5)


def test_ci_unit_quantile_identity():
    # alpha = 2 (1 - Phi(1)) makes the half-width exactly one standard
    # deviation; Phi(1) = 0.8413447460685429 (standard normal table)
    alpha = 2.0 * (1.0 - 0.8413447460685429)
    lo, hi = confidence_interval(0.0, 1.0, alpha)
    assert hi == pytest.approx(1.0, abs=1e-6)
    assert lo == pytest.approx(-1.0, abs=1e-6)


def test_ci_symmetry_and_validation():
    lo, hi = confidence_interval(2.0, 3.0, 0.1)
    assert (lo + hi) / 2.0 == pytest.approx(2.0)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        confidence_interval(0.0, -1.0, 0.05)


def test_make_report_floors_negative_conservative():
    report = make_report(1.0, -0.5, alpha=0.05)
    assert report.floored
    assert report.conservative_estimate == -0.5  # raw value preserved
    assert report.ci_low == report.ci_high == 1.0


def test_make_report_does_not_flag_a_zero_conservative_value():
    assert make_report(1.0, 0.0).floored is False


def test_make_report_warns_above_half():
    d = uniform_design(3, 0.7)
    with pytest.warns(UserWarning):
        make_report(0.0, 1.0, alpha=0.05, design=d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_report(0.0, 1.0, alpha=0.05, design=uniform_design(3, 0.4))


def test_report_csv_row():
    report = make_report(1.0, 2.0, alpha=0.05, bound=None, empirical=None)
    row = report.csv_row()
    fields = row.split(",")
    assert len(fields) == 6
    assert fields[1] == "NA" and fields[3] == "NA"


def test_ci_coverage_with_conservative_variance():
    # conservative variance over-covers: nominal 95% intervals should
    # contain the truth in at least 95% of replications
    n, p, beta = 5000, 0.2, 1
    g = gen_erdos_renyi(n, 10.0 / n, self_loops=True, seed=substream(7, 0))
    m = gen_experiment_model(g, beta, 2.0, substream(7, 1))
    gt = ground_truth(m)
    d = uniform_design(n, p)
    reps = 2000
    hits = 0
    for rep in range(reps):
        z = sample(d, substream(7, 2 + rep))
        Y = evaluate(m, z)
        est = snipe_tte_uniform(g, Y, z, p, beta)
        cons = conservative_variance(g, Y, z, d, beta)
        lo, hi = confidence_interval(est, max(cons, 0.0), 0.05)
        hits += int(lo <= gt.tte <= hi)
    assert hits / reps >= 0.95


def test_hub_of_in_degree_1500():
    # prod p over the hub underflows to 0 and 2^|N_hub| overflows float64
    n = 1500
    g = graph_from_neighbors([range(n)] + [[i] for i in range(1, n)])
    d = uniform_design(n, 0.5)
    z = sample(d, 0)
    Y = np.linspace(1.0, 2.0, n)
    # the hub's all-treated and all-control exposures did not occur
    want = math.fsum((Y * np.where(z == 1, 2.0, -2.0))[1:]) / n
    assert ht_tte(g, Y, z, d) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="1024"):
        conservative_variance(g, Y, z, d, 1)


# ------------------------------- shared-neighbor grouping at the extremes


def _star(n):
    # every pair shares only the center 0
    return graph_from_neighbors([[0]] + [[0, i] for i in range(1, n)])


EXTREME_GRAPHS = {
    "single_self_loop": lambda: graph_from_neighbors([[0]]),
    "single_no_edges": lambda: graph_from_neighbors([[]]),
    "empty_in_neighborhood": lambda: graph_from_neighbors([[0, 1], [1, 2], [], [0, 1, 2, 3]]),
    "star": lambda: _star(9),
    "complete": lambda: gen_erdos_renyi(7, 1.0, self_loops=True, seed=0),
}


@pytest.mark.parametrize("p", [0.01, 0.3, 0.99])
@pytest.mark.parametrize("name", sorted(EXTREME_GRAPHS))
def test_conservative_extremes_match_reference(name, p):
    g = EXTREME_GRAPHS[name]()
    rng = np.random.default_rng(31)
    d = uniform_design(g.n, p)
    Z = np.stack([sample(d, int(rng.integers(2**31))) for _ in range(6)])
    Z[0], Z[1] = 0, 1  # all control and all treated, whatever p
    Y = rng.uniform(-1.0, 1.0, Z.shape)
    for beta in (1, 2, 3):
        batch = conservative_variance(g, Y, Z, d, beta)
        for r in range(Z.shape[0]):
            want = conservative_variance_reference(g, Y[r], Z[r], d, beta)
            single = conservative_variance(g, Y[r], Z[r], d, beta)
            assert isinstance(single, float)
            assert single == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert batch[r] == single


def test_conservative_cache_shapes_at_extremes():
    from snipe.variance import _shared_index

    assert _shared_index(_star(9))[3].shape[0] == 0  # no pair shares two neighbors
    shared = _shared_index(EXTREME_GRAPHS["complete"]())[3]
    assert shared.shape[0] == 21 and np.diff(shared.indptr).max() == 7  # every pair does
    assert _shared_index(EXTREME_GRAPHS["single_no_edges"]())[3].shape[0] == 0


@pytest.mark.parametrize("name", ["star", "complete"])
def test_conservative_exact_expectation_dominates_variance_at_extremes(name):
    g = EXTREME_GRAPHS[name]()
    rng = np.random.default_rng(32)
    for beta in (1, 2):
        m = random_model(rng, g, beta)
        d = random_design(rng, g.n, lo=0.2, hi=0.8)
        var = exact_moments(lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, beta), d, batch=True).variance
        cons = exact_moments(
            lambda Z: conservative_variance(g, evaluate(m, Z), Z, d, beta), d, batch=True
        ).mean
        assert cons >= var - 1e-9
