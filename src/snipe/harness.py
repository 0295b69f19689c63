"""Monte Carlo replication engine: sweeps a parameter of the benchmark
setup, replicates randomized assignments, and aggregates estimator bias,
spread, and variance diagnostics into plot-ready long-format CSV."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines, estimators
from .baselines import UndefinedEstimateError
from .design import sample, uniform_design
from .graph import CausalGraph, gen_erdos_renyi
from .outcomes import OutcomesModel, evaluate, gen_experiment_model, ground_truth
from .variance import conservative_variance, worst_case_variance_bound

__all__ = [
    "ExperimentConfig",
    "ReplicationStats",
    "VarianceRow",
    "ESTIMATOR_NAMES",
    "substream",
    "run_experiment",
    "run_variance_report",
    "write_experiment_csv",
    "write_variance_csv",
    "parse_config_file",
    "config_from_mapping",
]

SWEEPABLE = ("n", "p", "r", "beta")


def substream(base_seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible substream for (seed, index...) tuples, so
    serial and parallel schedules draw identical randomness."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep of the benchmark pipeline.

    `sweep` names which of n/p/r/beta varies over `sweep_values`; the other
    three stay at their fixed values. Each sweep point samples `graphs`
    random networks and `reps` assignments per network. `reps=None` picks
    the usual default: 500 for bias/MSE runs, 100 for variance reports.
    `scale` multiplies every coefficient draw of the benchmark outcome
    model.
    """

    base_seed: int
    sweep: str = "r"
    sweep_values: tuple = (2.0,)
    n: int = 5000
    p: float = 0.2
    r: float = 2.0
    beta: int = 1
    graphs: int = 10
    reps: int | None = None
    estimators: tuple[str, ...] = ("snipe", "dm", "dm-thresh", "ls-num", "ls-prop")
    d_expect: float = 10.0
    scale: float = 1.0
    thresh_lambda: float = 0.75
    te_alpha: int = 1
    cate_nodes: tuple[int, ...] = ()
    out: str | None = None

    def __post_init__(self):
        if self.sweep not in SWEEPABLE:
            raise ValueError(f"sweep must be one of {SWEEPABLE}")
        if self.graphs < 1 or (self.reps is not None and self.reps < 1):
            raise ValueError("graphs and reps must be >= 1")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")

    def at(self, value):
        fixed = {k: getattr(self, k) for k in SWEEPABLE}
        fixed[self.sweep] = value
        fixed["n"] = int(fixed["n"])
        fixed["beta"] = int(fixed["beta"])
        fixed["p"] = float(fixed["p"])
        fixed["r"] = float(fixed["r"])
        return fixed


@dataclass
class ReplicationStats:
    """Aggregates for one (sweep point, estimator) cell, normalized by the
    magnitude of each graph's own ground-truth estimand."""

    sweep_var: str
    sweep_value: float
    estimator: str
    rel_bias: float
    rel_std: float
    rel_mse: float
    n_excluded: int
    n_used: int
    raw_mean: float
    raw_var: float
    truth_mean: float


@dataclass
class VarianceRow:
    """One variance-report configuration: empirical variance of the point
    estimator against the mean conservative estimate and worst-case bound."""

    sweep_var: str
    sweep_value: float
    n: int
    p: float
    r: float
    beta: int
    empirical_variance: float
    mean_conservative: float
    mean_bound: float
    mean_estimate: float
    tte_mean: float
    n_draws: int


def _est_snipe(g, Y, z, design, params, cfg):
    return estimators.snipe_tte(g, Y, z, design, params["beta"])


def _est_snipe_uniform(g, Y, z, design, params, cfg):
    p = float(design.probs[0])
    if not np.all(design.probs == p):
        raise ValueError("snipe-uniform requires a uniform design")
    return estimators.snipe_tte_uniform(g, Y, z, p, params["beta"])


def _est_ht(g, Y, z, design, params, cfg):
    return baselines.ht_tte(g, Y, z, design)


def _est_dm(g, Y, z, design, params, cfg):
    return baselines.dm_tte(Y, z)


def _est_dm_thresh(g, Y, z, design, params, cfg):
    return baselines.dm_thresh_tte(g, Y, z, cfg.thresh_lambda)


def _est_ls_num(g, Y, z, design, params, cfg):
    return baselines.ls_tte(baselines.ls_fit(g, Y, z, params["beta"], "count"), g)


def _est_ls_prop(g, Y, z, design, params, cfg):
    return baselines.ls_tte(baselines.ls_fit(g, Y, z, params["beta"], "proportion"), g)


def _est_snipe_ate(g, Y, z, design, params, cfg):
    return estimators.snipe_ate(g, Y, z, design, params["beta"])


def _est_snipe_cate(g, Y, z, design, params, cfg):
    return estimators.snipe_cate(g, Y, z, design, params["beta"], cfg.cate_nodes)


def _est_snipe_te(g, Y, z, design, params, cfg):
    return estimators.snipe_te_alpha(g, Y, z, design, params["beta"], cfg.te_alpha)


def _truth_tte(model, gt, cfg):
    return gt.tte


def _truth_ate(model, gt, cfg):
    return gt.ate


def _truth_cate(model, gt, cfg):
    return math.fsum(gt.direct[i] for i in cfg.cate_nodes) / len(cfg.cate_nodes)


def _truth_te(model, gt, cfg):
    return gt.te_alpha[cfg.te_alpha]


ESTIMATOR_NAMES = {
    "snipe": (_est_snipe, _truth_tte),
    "snipe-uniform": (_est_snipe_uniform, _truth_tte),
    "ht": (_est_ht, _truth_tte),
    "dm": (_est_dm, _truth_tte),
    "dm-thresh": (_est_dm_thresh, _truth_tte),
    "ls-num": (_est_ls_num, _truth_tte),
    "ls-prop": (_est_ls_prop, _truth_tte),
    "snipe-ate": (_est_snipe_ate, _truth_ate),
    "snipe-cate": (_est_snipe_cate, _truth_cate),
    "snipe-te": (_est_snipe_te, _truth_te),
}


def _default_model_factory(graph: CausalGraph, params: dict, cfg: ExperimentConfig, rng) -> OutcomesModel:
    return gen_experiment_model(graph, params["beta"], params["r"], rng, scale=cfg.scale)


def _iter_graph_models(cfg: ExperimentConfig, sweep_idx: int, params: dict, model_factory):
    factory = model_factory or _default_model_factory
    p_edge = min(cfg.d_expect / params["n"], 1.0)
    for gidx in range(cfg.graphs):
        graph = gen_erdos_renyi(
            params["n"], p_edge, self_loops=True, seed=substream(cfg.base_seed, sweep_idx, gidx, 0)
        )
        model = factory(graph, params, cfg, substream(cfg.base_seed, sweep_idx, gidx, 1))
        yield gidx, graph, model


def run_experiment(cfg: ExperimentConfig, model_factory=None) -> list[ReplicationStats]:
    """Bias/spread/MSE table: one row per (sweep point, estimator).

    Replications excluded because an estimator was undefined for the draw
    (difference-in-means with an empty group) are counted, never fatal.
    Deterministic for a fixed base seed: every random object comes from a
    substream keyed by (sweep point, graph, replication).
    """
    reps = cfg.reps if cfg.reps is not None else 500
    rows: list[ReplicationStats] = []
    for sweep_idx, value in enumerate(cfg.sweep_values):
        params = cfg.at(value)
        rel: dict[str, list[float]] = {name: [] for name in cfg.estimators}
        raw: dict[str, list[float]] = {name: [] for name in cfg.estimators}
        excluded = {name: 0 for name in cfg.estimators}
        truths = []
        for gidx, graph, model in _iter_graph_models(cfg, sweep_idx, params, model_factory):
            gt = ground_truth(model)
            design = uniform_design(params["n"], params["p"])
            for rep in range(reps):
                z = sample(design, substream(cfg.base_seed, sweep_idx, gidx, 2 + rep))
                Y = evaluate(model, z)
                for name in cfg.estimators:
                    est_fn, truth_fn = ESTIMATOR_NAMES[name]
                    try:
                        v = float(est_fn(graph, Y, z, design, params, cfg))
                    except UndefinedEstimateError:
                        excluded[name] += 1
                        continue
                    truth = truth_fn(model, gt, cfg)
                    norm = abs(truth) if truth != 0.0 else 1.0
                    rel[name].append((v - truth) / norm)
                    raw[name].append(v)
            truths.append(gt.tte)
        for name in cfg.estimators:
            r = np.asarray(rel[name])
            rawv = np.asarray(raw[name])
            if r.size:
                bias = float(r.mean())
                std = float(r.std(ddof=0))
                mse = float((r * r).mean())
            else:
                bias = std = mse = float("nan")
            rows.append(
                ReplicationStats(
                    sweep_var=cfg.sweep,
                    sweep_value=float(value),
                    estimator=name,
                    rel_bias=bias,
                    rel_std=std,
                    rel_mse=mse,
                    n_excluded=excluded[name],
                    n_used=int(r.size),
                    raw_mean=float(rawv.mean()) if rawv.size else float("nan"),
                    raw_var=float(rawv.var(ddof=0)) if rawv.size else float("nan"),
                    truth_mean=float(np.mean(truths)),
                )
            )
    return rows


def run_variance_report(cfg: ExperimentConfig, model_factory=None) -> list[VarianceRow]:
    """Variance table: pooled empirical variance of the point estimator over
    all graphs and replications, next to the mean single-draw conservative
    estimate and the mean worst-case bound."""
    reps = cfg.reps if cfg.reps is not None else 100
    rows: list[VarianceRow] = []
    for sweep_idx, value in enumerate(cfg.sweep_values):
        params = cfg.at(value)
        ests: list[float] = []
        cons: list[float] = []
        bounds: list[float] = []
        truths: list[float] = []
        for gidx, graph, model in _iter_graph_models(cfg, sweep_idx, params, model_factory):
            gt = ground_truth(model)
            design = uniform_design(params["n"], params["p"])
            bounds.append(worst_case_variance_bound(graph, model, design))
            truths.append(gt.tte)
            for rep in range(reps):
                z = sample(design, substream(cfg.base_seed, sweep_idx, gidx, 2 + rep))
                Y = evaluate(model, z)
                ests.append(float(estimators.snipe_tte(graph, Y, z, design, params["beta"])))
                cons.append(float(conservative_variance(graph, Y, z, design, params["beta"])))
        e = np.asarray(ests)
        rows.append(
            VarianceRow(
                sweep_var=cfg.sweep,
                sweep_value=float(value),
                n=params["n"],
                p=params["p"],
                r=params["r"],
                beta=params["beta"],
                empirical_variance=float(e.var(ddof=1)) if e.size > 1 else 0.0,
                mean_conservative=float(np.mean(cons)),
                mean_bound=float(np.mean(bounds)),
                mean_estimate=float(e.mean()),
                tte_mean=float(np.mean(truths)),
                n_draws=int(e.size),
            )
        )
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_experiment_csv(rows: list[ReplicationStats], path) -> None:
    cols = ["sweep_var", "sweep_value", "estimator", "rel_bias", "rel_std", "rel_mse", "n_excluded"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(getattr(row, c)) for c in cols])


def write_variance_csv(rows: list[VarianceRow], path) -> None:
    cols = [
        "sweep_var",
        "sweep_value",
        "n",
        "p",
        "r",
        "beta",
        "empirical_variance",
        "mean_conservative",
        "mean_bound",
        "mean_estimate",
        "n_draws",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(getattr(row, c)) for c in cols])


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_INT_KEYS = {"n", "beta", "graphs", "reps", "te_alpha"}
_FLOAT_KEYS = {"p", "r", "d_expect", "scale", "thresh_lambda"}


def config_from_mapping(mapping: dict[str, str], base_seed: int) -> ExperimentConfig:
    """Build a config from string key/values (file or CLI); unknown keys are
    rejected so typos fail loudly."""
    kwargs: dict = {"base_seed": int(base_seed)}
    for key, value in mapping.items():
        if key == "sweep":
            kwargs["sweep"] = value
        elif key == "sweep_values":
            parts = [v for v in value.replace(",", " ").split() if v]
            kwargs["sweep_values"] = tuple(float(v) for v in parts)
        elif key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key == "estimators":
            kwargs["estimators"] = tuple(v for v in value.replace(",", " ").split() if v)
        elif key == "cate_nodes":
            kwargs["cate_nodes"] = tuple(int(v) for v in value.replace(",", " ").split() if v)
        elif key == "out":
            kwargs["out"] = value
        else:
            raise ValueError(f"unknown config key: {key}")
    cfg = ExperimentConfig(**kwargs)
    if cfg.sweep in ("n", "beta"):
        cfg = replace(cfg, sweep_values=tuple(int(v) for v in cfg.sweep_values))
    return cfg
