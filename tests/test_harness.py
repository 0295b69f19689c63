import numpy as np
import pytest

from snipe import OutcomesModel, run_experiment, run_variance_report
from snipe.harness import (
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    substream,
    write_experiment_csv,
    write_variance_csv,
)


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
