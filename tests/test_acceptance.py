"""Acceptance suite: every release-gating property at its stated tolerance,
one pass/fail line per criterion (printed live via log_cli).

Heavy Monte Carlo work runs at benchmark scale; the whole module takes
several minutes.
"""
import logging
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from snipe import (
    Design,
    conservative_variance,
    design_matrix,
    design_matrix_inverse,
    evaluate,
    subset_coeff,
    gen_erdos_renyi,
    gen_experiment_model,
    ground_truth,
    ht_tte,
    implicit_tte_weight,
    sample,
    snipe_ate,
    snipe_cate,
    snipe_te_alpha,
    snipe_tte,
    snipe_tte_uniform,
    snipe_weight,
    uniform_design,
)
from snipe.harness import ExperimentConfig, run_experiment, run_variance_report, substream
from snipe.oracle import enumerate_assignments, exact_moments, exact_product_expectation

from _util import graph_from_neighbors, random_design, random_graph, random_model

pytestmark = pytest.mark.slow

LOGGER = logging.getLogger("acceptance")

# benchmark coefficient magnitude that reproduces the published variance
# table (the published runs drew coefficients five times larger than the
# unit-interval draws used by default; see the ledger note in the repo
# history for the calibration evidence)
TABLE_SCALE = 5.0


def _report(tag: str, ok: bool, detail: str) -> None:
    LOGGER.info("ACCEPTANCE %s %s: %s", tag, "PASS" if ok else "FAIL", detail)


# --------------------------------------------------------------------------
# 1. Unbiasedness: exhaustive expectation equals ground truth


def test_criterion_01_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 13))
        beta = (1, 2, 3)[trial % 3]
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.6)))
        m = random_model(rng, g, beta, r=float(rng.uniform(0.5, 2.5)))
        gt = ground_truth(m)
        kind = trial % 3
        if kind == 0:
            d = uniform_design(n, 0.2)
        elif kind == 1:
            d = uniform_design(n, 0.5)
        else:
            d = random_design(rng, n, lo=0.1, hi=0.9)
        moments = exact_moments(
            lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, beta), d, batch=True
        )
        worst = max(worst, abs(moments.mean - gt.tte))
    ok = worst <= 1e-8
    _report(
        "1 unbiasedness",
        ok,
        f"max |E[est] - TTE| = {worst:.2e} over 50 instances (tol 1e-8, {time.perf_counter()-t0:.0f}s)",
    )
    assert ok


# --------------------------------------------------------------------------
# 2. Horvitz-Thompson equivalence at full interaction order


def test_criterion_02_ht_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    samples = 0
    while samples < 1000:
        n = 25
        g = random_graph(rng, n, 0.08)
        beta = g.d_in
        d = random_design(rng, n, lo=0.25, hi=0.75)
        Y = rng.uniform(-2.0, 2.0, n)
        for _ in range(40):
            z = sample(d, int(rng.integers(2**31)))
            worst = max(worst, abs(snipe_tte(g, Y, z, d, beta) - ht_tte(g, Y, z, d)))
            samples += 1
    ok = worst <= 1e-12
    _report("2 ht-equivalence", ok, f"max |snipe - ht| = {worst:.2e} over {samples} samples (tol 1e-12)")
    assert ok


# --------------------------------------------------------------------------
# 3. Uniform fast path: equality and speed


def test_criterion_03_uniform_fast_path():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(0.1, 0.9))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)), self_loops=bool(rng.integers(2)))
        d = uniform_design(n, p)
        beta = int(rng.integers(1, 5))
        z = sample(d, int(rng.integers(2**31)))
        Y = rng.uniform(-3.0, 3.0, n)
        worst = max(worst, abs(snipe_tte(g, Y, z, d, beta) - snipe_tte_uniform(g, Y, z, p, beta)))
    eq_ok = worst <= 1e-9

    n, p, beta = 5000, 0.2, 2
    g = gen_erdos_renyi(n, 10.0 / n, self_loops=True, seed=substream(303, 0))
    m = gen_experiment_model(g, beta, 2.0, substream(303, 1))
    d = uniform_design(n, p)
    z = sample(d, substream(303, 2))
    Y = evaluate(m, z)
    snipe_tte(g, Y, z, d, beta)
    snipe_tte_uniform(g, Y, z, p, beta)
    t_gen, t_uni = math.inf, math.inf
    for _ in range(5):
        for _ in range(10):
            t0 = time.perf_counter()
            snipe_tte(g, Y, z, d, beta)
            t_gen = min(t_gen, time.perf_counter() - t0)
            t0 = time.perf_counter()
            snipe_tte_uniform(g, Y, z, p, beta)
            t_uni = min(t_uni, time.perf_counter() - t0)
    speedup = t_gen / t_uni
    speed_ok = speedup >= 5.0
    _report(
        "3 uniform-fast-path",
        eq_ok and speed_ok,
        f"max diff = {worst:.2e} (tol 1e-9); speedup {speedup:.1f}x at n=5000 (need >= 5x)",
    )
    assert eq_ok and speed_ok


# --------------------------------------------------------------------------
# 4. Design-matrix machinery: explicit inverse and implicit weight


def test_criterion_04_design_matrix_machinery():
    rng = np.random.default_rng(404)
    worst_inv = 0.0
    worst_w = 0.0
    for _ in range(500):
        n = 12
        k = int(rng.integers(0, 9))
        neigh = sorted(rng.choice(n, size=k, replace=False).tolist())
        beta = int(rng.integers(1, 4))
        d = random_design(rng, n, lo=0.15, hi=0.85)
        M = design_matrix(neigh, d, beta)
        A = design_matrix_inverse(neigh, d, beta)
        worst_inv = max(worst_inv, float(np.max(np.abs(M @ A - np.eye(len(A))))))
        z = sample(d, int(rng.integers(2**31)))
        nbrs = [list(neigh) if i == 0 else [i] for i in range(n)]
        g = graph_from_neighbors(nbrs)
        worst_w = max(
            worst_w, abs(implicit_tte_weight(neigh, z, d, beta) - snipe_weight(g, 0, z, d, beta))
        )
    ok = worst_inv <= 1e-9 and worst_w <= 1e-9
    _report(
        "4 design-matrix",
        ok,
        f"max |MA - I| = {worst_inv:.2e}, max |implicit - explicit| = {worst_w:.2e} over 500 cases (tol 1e-9)",
    )
    assert ok


# --------------------------------------------------------------------------
# 5. Moment identities: closed forms against exhaustive enumeration


def _exhaustive_cross_moment(S, Sp, T, Tp, design):
    # E[ prod_S f_j prod_S' z  *  prod_T f_k prod_T' z ] by enumeration
    Z = enumerate_assignments(design.n)
    p = design.probs
    P = np.ones(Z.shape[0])
    for j in range(design.n):
        P *= np.where(Z[:, j] == 1, p[j], 1.0 - p[j])
    vals = np.ones(Z.shape[0])
    for j in list(S) + list(T):
        vals *= (Z[:, j] - p[j]) / (p[j] * (1.0 - p[j]))
    for j in list(Sp) + list(Tp):
        vals *= Z[:, j]
    return float(P @ vals)


def test_criterion_05_moment_lemmas():
    rng = np.random.default_rng(505)
    n = 12
    d = Design(rng.uniform(0.2, 0.8, n))

    worst_b1 = 0.0
    for _ in range(120):
        S = sorted(rng.choice(n, size=int(rng.integers(0, 5)), replace=False).tolist())
        Sp = sorted(rng.choice(n, size=int(rng.integers(0, 6)), replace=False).tolist())
        got = exact_product_expectation(S, Sp, d)
        want = float(np.prod(d.probs[sorted(set(Sp) - set(S))])) if set(S) <= set(Sp) else 0.0
        worst_b1 = max(worst_b1, abs(got - want))
    b1_ok = worst_b1 <= 1e-10

    worst_g = 0.0
    for _ in range(10000):
        k = int(rng.integers(0, 8))
        probs = rng.uniform(0.01, 0.99, max(k, 1))
        worst_g = max(worst_g, abs(subset_coeff(tuple(range(k)), probs)))
    b2_ok = worst_g <= 1.0 + 1e-15

    floor_factor = 1.0 / (d.p_floor * (1.0 - d.p_floor))
    cov_min = 0.0
    worst_excess = -math.inf
    for _ in range(120):
        S = sorted(rng.choice(n, size=int(rng.integers(0, 4)), replace=False).tolist())
        T = sorted(rng.choice(n, size=int(rng.integers(0, 4)), replace=False).tolist())
        Sp = sorted(rng.choice(n, size=int(rng.integers(0, 5)), replace=False).tolist())
        Tp = sorted(rng.choice(n, size=int(rng.integers(0, 5)), replace=False).tolist())
        exy = _exhaustive_cross_moment(S, Sp, T, Tp, d)
        ex = exact_product_expectation(S, Sp, d)
        ey = exact_product_expectation(T, Tp, d)
        cov = exy - ex * ey
        cov_min = min(cov_min, cov)
        sym_diff = set(S) ^ set(T)
        bound = floor_factor ** len(set(S) & set(T)) if sym_diff <= set(Sp) | set(Tp) else 0.0
        worst_excess = max(worst_excess, cov - bound)
    b3_ok = cov_min >= -1e-12 and worst_excess <= 1e-10

    ok = b1_ok and b2_ok and b3_ok
    _report(
        "5 moment-identities",
        ok,
        f"centered-product max err = {worst_b1:.2e} (tol 1e-10); max |g| = {worst_g:.6f} (<= 1); "
        f"cov min = {cov_min:.2e}, max excess over bound = {worst_excess:.2e} (tol 1e-10)",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. Variance table: ordering and published magnitudes


TABLE_TARGETS = {(1000, 1): 17.63, (5000, 1): 3.34, (1000, 2): 255.59, (5000, 2): 46.36}


def test_criterion_06_variance_table():
    t0 = time.perf_counter()
    details = []
    ok = True
    for (n, beta), target in TABLE_TARGETS.items():
        cfg = ExperimentConfig(
            base_seed=606,
            sweep="n",
            sweep_values=(n,),
            p=0.2,
            r=2.0,
            beta=beta,
            graphs=10,
            reps=100,
            estimators=("snipe",),
            d_expect=10.0,
            scale=TABLE_SCALE,
        )
        row = run_variance_report(cfg)[0]
        ordered = row.empirical_variance < row.mean_conservative < row.mean_bound
        ratio = row.empirical_variance / target
        in_band = 0.1 <= ratio <= 10.0
        ok = ok and ordered and in_band
        details.append(
            f"(n={n}, order={beta}): emp={row.empirical_variance:.2f} cons={row.mean_conservative:.0f} "
            f"bound={row.mean_bound:.0f} ratio-to-published={ratio:.2f} ordered={ordered}"
        )
    _report("6 variance-table", ok, "; ".join(details) + f" ({time.perf_counter()-t0:.0f}s)")
    assert ok


# --------------------------------------------------------------------------
# 7. Conservativeness of the variance estimator


def test_criterion_07_conservative_variance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_margin = math.inf
    for trial in range(10):
        n = int(rng.integers(4, 11))
        beta = int(rng.integers(1, 3))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.6)))
        m = random_model(rng, g, beta, r=float(rng.uniform(0.5, 2.0)))
        d = random_design(rng, n, lo=0.2, hi=0.8)
        exact_var = exact_moments(
            lambda Z: snipe_tte(g, evaluate(m, Z), Z, d, beta), d, batch=True
        ).variance
        draws = []
        remaining = 100000
        while remaining > 0:
            k = min(8192, remaining)
            Z = (rng.random((k, n)) < d.probs).astype(np.int64)
            draws.append(conservative_variance(g, evaluate(m, Z), Z, d, beta))
            remaining -= k
        cons = np.concatenate(draws)
        se = cons.std(ddof=1) / np.sqrt(cons.size)
        margin = (cons.mean() - exact_var) / se
        worst_margin = min(worst_margin, margin)
    ok = worst_margin >= -3.0
    _report(
        "7 conservativeness",
        ok,
        f"min margin = {worst_margin:.1f} Monte Carlo SEs over 10 instances x 1e5 draws "
        f"(need >= -3, {time.perf_counter()-t0:.0f}s)",
    )
    assert ok


# --------------------------------------------------------------------------
# 8. Benchmark experiment reproduction (bias separation and MSE ranking)


@pytest.fixture(scope="module")
def benchmark_rows():
    rows = {}
    for beta in (1, 2):
        cfg = ExperimentConfig(
            base_seed=808,
            sweep="beta",
            sweep_values=(beta,),
            n=5000,
            p=0.2,
            r=2.0,
            graphs=10,
            reps=500,
            estimators=("snipe", "dm", "dm-thresh", "ls-num", "ls-prop"),
            d_expect=10.0,
            scale=TABLE_SCALE,
        )
        rows[beta] = {row.estimator: row for row in run_experiment(cfg)}
    return rows


def test_criterion_08_bias_separation(benchmark_rows):
    ok = True
    details = []
    for beta in (1, 2):
        stats = benchmark_rows[beta]
        snipe_row = stats["snipe"]
        se = snipe_row.rel_std / math.sqrt(snipe_row.n_used)
        unbiased = abs(snipe_row.rel_bias) < 3.0 * se
        ok = ok and unbiased
        details.append(f"order {beta}: snipe |bias| = {abs(snipe_row.rel_bias):.4f} ({abs(snipe_row.rel_bias)/se:.1f} SE)")
        for name in ("dm", "dm-thresh", "ls-num", "ls-prop"):
            sep = abs(stats[name].rel_bias) / se
            ok = ok and sep > 5.0
            details.append(f"{name}@{beta}: {sep:.0f}x SE")
    _report("8a bias-separation", ok, "; ".join(details))
    assert ok


def test_criterion_08_snipe_mse_lowest_beta2(benchmark_rows):
    stats = benchmark_rows[2]
    snipe_mse = stats["snipe"].rel_mse
    mses = {name: row.rel_mse for name, row in stats.items()}
    ok = all(snipe_mse <= mse for mse in mses.values())
    detail = ", ".join(f"{name}={mse:.3f}" for name, mse in sorted(mses.items()))
    _report("8b mse-lowest-at-order-2", ok, detail)
    # Known-failing reproduction target: with the benchmark outcomes model
    # exactly as documented (normalized interaction powers), the degree-2
    # count regression is close to correctly specified at r=2, so its MSE
    # sits well below the unbiased estimator's variance at n=5000. The
    # crossover to lowest-MSE occurs only at much stronger spillovers
    # (r ~ 8 under the same setup). See the decisions ledger for the full
    # analysis; the assertion is kept faithful to the stated target.
    assert ok, f"snipe MSE {snipe_mse:.3f} is not lowest: {detail}"


# --------------------------------------------------------------------------
# 9. Normal shape of the studentized estimator


def test_criterion_09_clt_shape():
    t0 = time.perf_counter()
    n, p, beta = 5000, 0.2, 1
    g = gen_erdos_renyi(n, 10.0 / n, self_loops=True, seed=substream(909, 0))
    m = gen_experiment_model(g, beta, 2.0, substream(909, 1), scale=TABLE_SCALE)
    gt = ground_truth(m)
    d = uniform_design(n, p)
    ests = np.empty(2000)
    for k in range(2000):
        z = sample(d, substream(909, 2 + k))
        ests[k] = snipe_tte_uniform(g, evaluate(m, z), z, p, beta)
    stud = np.sort((ests - gt.tte) / ests.std(ddof=1))
    grid = np.arange(1, stud.size + 1)
    cdf = np.array([NormalDist().cdf(x) for x in stud])
    ks = float(max(np.max(cdf - (grid - 1) / stud.size), np.max(grid / stud.size - cdf)))
    ok = ks < 0.05
    _report(
        "9 clt-shape",
        ok,
        f"KS distance = {ks:.4f} over 2000 studentized replications (need < 0.05, {time.perf_counter()-t0:.0f}s)",
    )
    assert ok


# --------------------------------------------------------------------------
# 10. Direct-effect and size-k effect estimators


def test_criterion_10_effect_family():
    rng = np.random.default_rng(1010)
    worst = 0.0
    worst_decomp = 0.0
    for trial in range(10):
        n = int(rng.integers(4, 11))
        beta = int(rng.integers(1, 4))
        g = random_graph(rng, n, 0.45)
        m = random_model(rng, g, beta, r=1.5)
        gt = ground_truth(m)
        d = random_design(rng, n, lo=0.15, hi=0.85)
        moments = exact_moments(lambda Z: snipe_ate(g, evaluate(m, Z), Z, d, beta), d, batch=True)
        worst = max(worst, abs(moments.mean - gt.ate))
        D = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        truth_cate = float(np.mean([m.terms[i].get((i,), 0.0) for i in D]))
        moments = exact_moments(
            lambda Z: snipe_cate(g, evaluate(m, Z), Z, d, beta, D), d, batch=True
        )
        worst = max(worst, abs(moments.mean - truth_cate))
        for alpha in range(1, beta + 1):
            moments = exact_moments(
                lambda Z, a=alpha: snipe_te_alpha(g, evaluate(m, Z), Z, d, beta, a), d, batch=True
            )
            worst = max(worst, abs(moments.mean - gt.te_alpha[alpha]))
        worst_decomp = max(worst_decomp, abs(sum(gt.te_alpha.values()) - gt.tte))
    ok = worst <= 1e-8 and worst_decomp <= 1e-12
    _report(
        "10 effect-family",
        ok,
        f"max |E[est] - truth| = {worst:.2e} (tol 1e-8); max decomposition gap = {worst_decomp:.2e} (tol 1e-12)",
    )
    assert ok
