import math

import numpy as np
import pytest

from snipe import (
    OutcomesModel,
    UndefinedEstimateError,
    conservative_variance,
    dm_thresh_tte,
    dm_tte,
    evaluate,
    gen_erdos_renyi,
    gen_experiment_model,
    ground_truth,
    ls_fit,
    ls_tte,
    run_experiment,
    run_variance_report,
    sample,
    snipe_ate,
    snipe_cate,
    snipe_te_alpha,
    snipe_tte,
    uniform_design,
    worst_case_variance_bound,
)
from snipe.harness import (
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    substream,
    write_experiment_csv,
    write_variance_csv,
)
from snipe.oracle import enumerate_assignments, exact_moments


def _small_cfg(**overrides):
    base = dict(
        base_seed=42,
        sweep="r",
        sweep_values=(0.0, 1.0),
        n=150,
        p=0.3,
        beta=1,
        graphs=2,
        reps=40,
        estimators=("snipe", "snipe-uniform", "dm"),
        d_expect=6.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_substreams_are_independent_and_reproducible():
    a = substream(1, 2, 3).random(4)
    b = substream(1, 2, 3).random(4)
    c = substream(1, 2, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(sweep="gamma")
    with pytest.raises(ValueError):
        _small_cfg(estimators=("snipe", "nope"))
    with pytest.raises(ValueError):
        _small_cfg(graphs=0)
    with pytest.raises(ValueError):
        _small_cfg(sweep_values=())


def test_experiment_deterministic_output(tmp_path):
    cfg = _small_cfg()
    rows1 = run_experiment(cfg)
    rows2 = run_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experiment_csv(rows1, p1)
    write_experiment_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mse_identity():
    rows = run_experiment(_small_cfg())
    for row in rows:
        if np.isnan(row.rel_mse):
            continue
        assert abs(row.rel_mse - (row.rel_bias**2 + row.rel_std**2)) <= 1e-9


def test_degenerate_single_replication():
    rows = run_experiment(_small_cfg(sweep_values=(1.0,), graphs=1, reps=1))
    assert len(rows) == 3
    for row in rows:
        assert row.n_used + row.n_excluded == 1
        if row.n_used:
            assert row.rel_std == 0.0


def test_no_network_effects_means_everyone_unbiased():
    # r = 0 switches spillovers off, so every estimator lines up with the
    # truth. The regression fits carry a small realized-model offset (a
    # chance correlation between baseline effects and degree, ~1/sqrt(nG))
    # that replications cannot average away, so the check is two standard
    # errors with a 2% qualitative floor; biases with spillovers present
    # are 30-80x larger.
    cfg = _small_cfg(
        sweep_values=(0.0,),
        n=5000,
        p=0.2,
        graphs=10,
        reps=50,
        d_expect=10.0,
        estimators=("snipe", "dm", "dm-thresh", "ls-num", "ls-prop"),
    )
    rows = run_experiment(cfg)
    for row in rows:
        se = row.rel_std / np.sqrt(row.n_used)
        assert abs(row.rel_bias) <= max(2.0 * se, 0.02), row.estimator


def test_no_network_effects_dm_and_snipe_exactly_unbiased():
    # the exact part of the claim above: at r = 0 each unit's outcome is
    # c0_i + a_i z_i, so under a uniform design difference-in-means is
    # unbiased given both groups non-empty (given the treated count, the
    # treated set is a uniform draw), and SNIPE is unbiased outright
    Z = enumerate_assignments(10)
    keep = (Z.sum(axis=1) > 0) & (Z.sum(axis=1) < 10)
    for seed in range(20):
        g = gen_erdos_renyi(10, 0.4, self_loops=True, seed=seed)
        for beta in (1, 2, 3):
            model = gen_experiment_model(g, beta, 0.0, seed + 100)
            gt = ground_truth(model)
            Y = evaluate(model, Z)
            for p in (0.2, 0.5):
                d = uniform_design(10, p)
                P = np.where(Z == 1, p, 1.0 - p).prod(axis=1)[keep]
                dm = [P[k] * dm_tte(y, z) for k, (y, z) in enumerate(zip(Y[keep], Z[keep]))]
                assert math.fsum(dm) / math.fsum(P) == pytest.approx(gt.tte, rel=0, abs=1e-12 * gt.y_max)
                snipe = exact_moments(lambda Zb: snipe_tte(g, evaluate(model, Zb), Zb, d, beta), d, batch=True)
                assert snipe.mean == pytest.approx(gt.tte, rel=0, abs=1e-12 * gt.y_max)


def test_snipe_unbiased_at_every_sweep_point():
    cfg = _small_cfg(sweep="beta", sweep_values=(1, 2), n=400, graphs=2, reps=120, estimators=("snipe",))
    for row in run_experiment(cfg):
        se = row.rel_std / np.sqrt(row.n_used)
        assert abs(row.rel_bias) <= 3.0 * se


def test_excluded_replications_counted_not_fatal():
    # tiny population and extreme p make empty difference-in-means groups
    # likely; they must be excluded, never raised
    cfg = _small_cfg(sweep_values=(1.0,), n=4, p=0.12, graphs=3, reps=60, d_expect=2.0)
    rows = run_experiment(cfg)
    dm = [r for r in rows if r.estimator == "dm"][0]
    assert dm.n_excluded > 0
    assert dm.n_used + dm.n_excluded == 180


def test_estimand_specific_normalization():
    cfg = _small_cfg(
        sweep_values=(1.5,),
        n=300,
        graphs=2,
        reps=100,
        estimators=("snipe-ate", "snipe-te", "snipe-cate"),
        te_alpha=1,
        cate_nodes=tuple(range(0, 300, 7)),
    )
    for row in run_experiment(cfg):
        se = row.rel_std / np.sqrt(row.n_used)
        assert abs(row.rel_bias) <= 3.0 * se, row.estimator


def _replayed_graphs(cfg, sweep_idx, beta):
    # each graph of a beta sweep point and its draws, rebuilt outside the
    # harness from the substream keys it documents: (point, graph, 0) for
    # the graph, 1 for the model and 2 + rep for replication rep
    for gidx in range(cfg.graphs):
        keys = (cfg.base_seed, sweep_idx, gidx)
        g = gen_erdos_renyi(cfg.n, min(cfg.d_expect / cfg.n, 1.0), self_loops=True, seed=substream(*keys, 0))
        model = gen_experiment_model(g, beta, cfg.r, substream(*keys, 1), scale=cfg.scale)
        design = uniform_design(cfg.n, cfg.p)
        zs = [sample(design, substream(*keys, 2 + rep)) for rep in range(cfg.reps)]
        yield g, model, design, [(z, evaluate(model, z)) for z in zs]


def test_experiment_statistics_equal_a_recomputation():
    nodes = (0, 3, 6)
    cfg = _small_cfg(sweep="beta", sweep_values=(1, 2), n=8, p=0.15, r=1.5, graphs=2, reps=25, d_expect=3.0,
                     estimators=("dm", "dm-thresh", "ls-num", "snipe-ate", "snipe-cate", "snipe-te"),
                     cate_nodes=nodes, te_alpha=1)
    # each estimator with its estimand, called directly
    calls = {
        "dm": (lambda g, Y, z, d, b: dm_tte(Y, z), lambda gt: gt.tte),
        "dm-thresh": (lambda g, Y, z, d, b: dm_thresh_tte(g, Y, z, 0.75), lambda gt: gt.tte),
        "ls-num": (lambda g, Y, z, d, b: ls_tte(ls_fit(g, Y, z, b, "count"), g), lambda gt: gt.tte),
        "snipe-ate": (lambda g, Y, z, d, b: snipe_ate(g, Y, z, d, b), lambda gt: gt.ate),
        "snipe-cate": (lambda g, Y, z, d, b: snipe_cate(g, Y, z, d, b, nodes),
                       lambda gt: math.fsum(gt.direct[i] for i in nodes) / len(nodes)),
        "snipe-te": (lambda g, Y, z, d, b: snipe_te_alpha(g, Y, z, d, b, 1), lambda gt: gt.te_alpha[1]),
    }
    want = []
    for sweep_idx, beta in enumerate((1, 2)):
        rel = {name: [] for name in calls}
        raw = {name: [] for name in calls}
        for g, model, design, draws in _replayed_graphs(cfg, sweep_idx, beta):
            gt = ground_truth(model)
            for z, Y in draws:
                for name, (estimate, estimand) in calls.items():
                    try:
                        v = float(estimate(g, Y, z, design, beta))
                    except UndefinedEstimateError:
                        continue
                    truth = estimand(gt)
                    rel[name].append((v - truth) / (abs(truth) if truth != 0.0 else 1.0))
                    raw[name].append(v)
        for name in calls:
            r = np.array(rel[name])
            want.append((float(beta), name, r.mean(), r.std(ddof=0), np.mean(r * r), r.size, 50 - r.size,
                         np.mean(raw[name])))
    rows = run_experiment(cfg)
    got = [(row.sweep_value, row.estimator, row.rel_bias, row.rel_std, row.rel_mse, row.n_used, row.n_excluded,
            row.raw_mean) for row in rows]
    assert got == want
    assert all(row.n_excluded > 0 for row in rows if row.estimator == "dm")


def test_experiment_row_with_every_draw_excluded():
    # one unit is never in both difference-in-means groups
    rows = run_experiment(_small_cfg(sweep_values=(1.0,), n=1, graphs=2, reps=3, estimators=("dm",)))
    (row,) = rows
    assert (row.n_used, row.n_excluded) == (0, 6)
    assert all(math.isnan(v) for v in (row.rel_bias, row.rel_std, row.rel_mse, row.raw_mean))


def test_variance_report_statistics_equal_a_recomputation():
    cfg = _small_cfg(sweep="beta", sweep_values=(1, 2), n=40, p=0.3, r=1.5, graphs=2, reps=15, d_expect=4.0)
    want = []
    for sweep_idx, beta in enumerate((1, 2)):
        ests, cons, bounds = [], [], []
        for g, model, design, draws in _replayed_graphs(cfg, sweep_idx, beta):
            bounds.append(worst_case_variance_bound(g, model, design))
            for z, Y in draws:
                ests.append(float(snipe_tte(g, Y, z, design, beta)))
                cons.append(float(conservative_variance(g, Y, z, design, beta)))
        want.append((np.var(ests, ddof=1), np.mean(cons), np.mean(bounds), np.mean(ests), 30))
    rows = run_variance_report(cfg)
    got = [(row.empirical_variance, row.mean_conservative, row.mean_bound, row.mean_estimate, row.n_draws)
           for row in rows]
    assert got == want


def test_variance_report_zero_model_injection(tmp_path):
    def zero_factory(graph, params, cfg, rng):
        return OutcomesModel(params["beta"], [{} for _ in range(graph.n)], graph)

    cfg = _small_cfg(sweep_values=(1.0,), n=80, graphs=2, reps=30)
    rows = run_variance_report(cfg, model_factory=zero_factory)
    assert len(rows) == 1
    row = rows[0]
    assert row.empirical_variance == 0.0
    assert row.mean_conservative == 0.0
    assert row.mean_bound == 0.0
    path = tmp_path / "v.csv"
    write_variance_csv(rows, path)
    assert path.read_text().count("\n") == 2


def test_variance_report_deterministic_and_ordered(tmp_path):
    cfg = _small_cfg(sweep_values=(2.0,), n=250, graphs=2, reps=40)
    rows1 = run_variance_report(cfg)
    rows2 = run_variance_report(cfg)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_variance_csv(rows1, pa)
    write_variance_csv(rows2, pb)
    assert pa.read_bytes() == pb.read_bytes()
    row = rows1[0]
    assert row.empirical_variance < row.mean_conservative < row.mean_bound
    assert row.n_draws == 80


@pytest.mark.slow
def test_variance_monotone_in_population_size():
    # the point estimator's variance shrinks roughly like 1/n along the
    # population sweep; allow one inversion for Monte Carlo noise
    cfg = ExperimentConfig(
        base_seed=11,
        sweep="n",
        sweep_values=(1000, 2500, 5000, 7500, 10000),
        p=0.2,
        r=2.0,
        beta=1,
        graphs=10,
        reps=100,
        estimators=("snipe",),
    )
    rows = run_variance_report(cfg)
    variances = [row.empirical_variance for row in rows]
    inversions = sum(1 for a, b in zip(variances, variances[1:]) if not b < a)
    assert inversions <= 1, variances


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        """
        # benchmark sweep
        sweep = r
        sweep_values = 0.5, 1.0
        n = 120
        p = 0.25
        beta = 2
        graphs = 3
        reps = 10
        estimators = snipe, dm
        scale = 1.5
        out = results.csv
        """
    )
    mapping = parse_config_file(path)
    cfg = config_from_mapping(mapping, base_seed=5)
    assert cfg.sweep_values == (0.5, 1.0)
    assert cfg.n == 120 and cfg.beta == 2 and cfg.graphs == 3 and cfg.reps == 10
    assert cfg.estimators == ("snipe", "dm")
    assert cfg.scale == 1.5
    assert cfg.out == "results.csv"
    assert cfg.base_seed == 5


def test_config_integer_sweep_coercion():
    cfg = config_from_mapping({"sweep": "n", "sweep_values": "100, 200"}, base_seed=1)
    assert cfg.sweep_values == (100, 200)
    assert all(isinstance(v, int) for v in cfg.sweep_values)


@pytest.mark.parametrize(
    "fields",
    [
        {"n": 150.5},
        {"beta": 1.5},
        {"sweep": "beta", "sweep_values": (1.5, 2.7)},
        {"sweep": "n", "sweep_values": (100, 200.5)},
    ],
)
def test_config_rejects_non_integral_n_and_beta(fields):
    with pytest.raises(ValueError, match="must be an integer"):
        _small_cfg(**fields)
    if "sweep" in fields:
        values = " ".join(map(str, fields["sweep_values"]))
        with pytest.raises(ValueError, match="must be an integer"):
            config_from_mapping({"sweep": fields["sweep"], "sweep_values": values}, base_seed=1)


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError):
        config_from_mapping({"bogus": "1"}, base_seed=0)
    path = tmp_path / "bad.txt"
    path.write_text("just some text\n")
    with pytest.raises(ValueError):
        parse_config_file(path)


def test_config_parses_integral_values_and_names_bad_keys():
    cfg = config_from_mapping({"n": "5000.0", "reps": "3", "cate_nodes": "1, 2.0"}, base_seed=1)
    assert (cfg.n, cfg.reps, cfg.cate_nodes) == (5000, 3, (1, 2))
    assert type(cfg.n) is int and type(cfg.reps) is int
    for key, value in [("reps", "x"), ("n", "1.5"), ("graphs", "nan"), ("p", "abc"), ("sweep_values", "1 a"),
                       ("cate_nodes", "0.5")]:
        with pytest.raises(ValueError, match=f"config key {key}: cannot parse"):
            config_from_mapping({key: value}, base_seed=1)


@pytest.mark.parametrize(
    "fields",
    [{"n": 0}, {"beta": 0}, {"sweep": "beta", "sweep_values": (1, 0)}, {"sweep": "n", "sweep_values": (0, 100)}],
)
def test_config_rejects_n_and_beta_below_one(fields):
    with pytest.raises(ValueError, match="must be >= 1"):
        _small_cfg(**fields)


@pytest.mark.parametrize("names", [("dm", "dm"), ()])
def test_config_rejects_duplicate_or_no_estimators(names):
    # ("dm", "dm") used to write two dm rows, each counting every draw twice
    with pytest.raises(ValueError, match="estimators must be non-empty and distinct"):
        ExperimentConfig(base_seed=0, n=60, graphs=1, reps=5, estimators=names)


@pytest.mark.parametrize(
    "fields",
    [
        {"cate_nodes": ()},
        {"cate_nodes": (1, 1, 5)},  # snipe_cate would drop the repeat, the estimand would not
        {"cate_nodes": (-1, 5)},
        {"cate_nodes": (5, 60)},
        {"sweep": "n", "sweep_values": (100, 50), "cate_nodes": (5, 60)},  # every swept n counts
    ],
    ids=["empty", "duplicate", "negative", "n", "swept-n"],
)
def test_config_checks_cate_nodes_before_any_graph_is_built(fields):
    base = dict(base_seed=3, n=60, graphs=2, reps=5, estimators=("snipe", "snipe-cate"))
    with pytest.raises(ValueError, match="cate_nodes must be distinct node ids in"):
        ExperimentConfig(**{**base, **fields})
    # the nodes matter only to snipe-cate
    ExperimentConfig(**{**base, **fields, "estimators": ("snipe",)})


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"p": 0.0}, "p must lie strictly inside"),
        ({"p": 1.0}, "p must lie strictly inside"),
        ({"p": math.nan}, "p must lie strictly inside"),
        ({"sweep": "p", "sweep_values": (0.2, 1.5)}, "sweep value of p must lie strictly inside"),
        ({"r": -1.0}, "r must be finite and >= 0"),
        ({"r": math.nan}, "r must be finite and >= 0"),
        ({"sweep": "r", "sweep_values": (1.0, math.inf)}, "sweep value of r must be finite and >= 0"),
        ({"scale": math.nan}, "scale must be finite"),
        ({"scale": -math.inf}, "scale must be finite"),
    ],
    ids=["p0", "p1", "p-nan", "swept-p", "r-negative", "r-nan", "swept-r", "scale-nan", "scale-inf"],
)
def test_config_checks_p_r_and_scale_before_any_graph_is_built(fields, match):
    with pytest.raises(ValueError, match=f"^{match}"):
        ExperimentConfig(**{"base_seed": 3, "sweep": "beta", "sweep_values": (1,), "n": 60, **fields})


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"thresh_lambda": math.nan, "estimators": ("dm-thresh",)}, r"thresh_lambda must lie in \[0, 1\]"),
        ({"thresh_lambda": 1.5, "estimators": ("dm-thresh",)}, r"thresh_lambda must lie in \[0, 1\]"),
        ({"te_alpha": 5, "sweep": "r", "sweep_values": (2.0,), "estimators": ("snipe-te",)},
         "te_alpha must satisfy 1 <= te_alpha <= beta, got 5 > 1"),
        ({"te_alpha": 0, "estimators": ("snipe-te",)}, "te_alpha must be >= 1"),
        ({"te_alpha": 3, "sweep_values": (3, 2), "estimators": ("snipe-te",)},
         "te_alpha must satisfy 1 <= te_alpha <= sweep value of beta, got 3 > 2"),
        ({"d_expect": -1.0}, "d_expect must be finite and > 0"),
        ({"d_expect": 0.0}, "d_expect must be finite and > 0"),
        ({"d_expect": math.nan}, "d_expect must be finite and > 0"),
        ({"d_expect": math.inf}, "d_expect must be finite and > 0"),
    ],
    ids=["lambda-nan", "lambda-above-1", "alpha-above-beta", "alpha-0", "alpha-above-swept-beta",
         "d-negative", "d-zero", "d-nan", "d-inf"],
)
def test_config_checks_lambda_alpha_and_d_expect_before_any_graph_is_built(fields, match):
    base = {"base_seed": 3, "sweep": "beta", "sweep_values": (1,), "n": 60}
    with pytest.raises(ValueError, match=f"^{match}"):
        ExperimentConfig(**{**base, **fields})
    # lambda and alpha matter only to the estimator that reads them
    if "estimators" in fields:
        ExperimentConfig(**{**base, **fields, "estimators": ("snipe",)})


def test_config_ignores_the_fixed_value_a_sweep_replaces():
    # the fixed p or r is never used when that parameter is swept
    cfg = ExperimentConfig(base_seed=3, sweep="r", sweep_values=(1.0,), r=-1.0, n=30, graphs=1, reps=2,
                           estimators=("snipe",))
    assert [row.n_used for row in run_experiment(cfg)] == [2]
    ExperimentConfig(base_seed=3, sweep="p", sweep_values=(0.3,), p=0.0)


def test_config_accepts_cate_nodes_inside_every_swept_n():
    cfg = ExperimentConfig(base_seed=3, sweep="n", sweep_values=(100, 50), graphs=1, reps=2,
                           estimators=("snipe-cate",), cate_nodes=(0, 49))
    assert [row.n_used for row in run_experiment(cfg)] == [2, 2]
