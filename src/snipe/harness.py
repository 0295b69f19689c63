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
from .design import Design, sample, uniform_design
from .estimators import _check_order
from .graph import CausalGraph, gen_erdos_renyi
from .outcomes import GroundTruth, OutcomesModel, evaluate, gen_experiment_model, ground_truth
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
        whole = [("n", self.n), ("beta", self.beta)]
        if self.sweep in ("n", "beta"):
            whole += [(f"sweep value of {self.sweep}", v) for v in self.sweep_values]
        for what, v in whole:
            _check_order(v, what)

        def used(key):  # the values of p, r or beta the sweep points run with
            if self.sweep == key:
                return [(f"sweep value of {key}", v) for v in self.sweep_values]
            return [(key, getattr(self, key))]

        for what, v in used("p"):
            if not 0 < v < 1:
                raise ValueError(f"{what} must lie strictly inside (0, 1), got {v!r}")
        for what, v in used("r"):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{what} must be finite and >= 0, got {v!r}")
        if not math.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale!r}")
        if not (math.isfinite(self.d_expect) and self.d_expect > 0):
            raise ValueError(f"d_expect must be finite and > 0, got {self.d_expect!r}")
        if not self.estimators or len(set(self.estimators)) != len(self.estimators):
            raise ValueError(f"estimators must be non-empty and distinct, got {self.estimators!r}")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        # the CATE estimand averages over distinct nodes of every swept graph
        nodes, n_min = self.cate_nodes, int(min(self.sweep_values)) if self.sweep == "n" else self.n
        if "snipe-cate" in self.estimators and not (
            nodes and len(set(nodes)) == len(nodes) and 0 <= min(nodes) and max(nodes) < n_min
        ):
            raise ValueError(f"cate_nodes must be distinct node ids in [0, {n_min}), got {nodes!r}")
        if "dm-thresh" in self.estimators and not 0 <= self.thresh_lambda <= 1:
            raise ValueError(f"thresh_lambda must lie in [0, 1], got {self.thresh_lambda!r}")
        if "snipe-te" in self.estimators:
            alpha = _check_order(self.te_alpha, "te_alpha")
            for what, v in used("beta"):
                if alpha > v:
                    raise ValueError(f"te_alpha must satisfy 1 <= te_alpha <= {what}, got {alpha} > {v}")

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


# each name's estimator and the ground-truth estimand it targets
ESTIMATOR_NAMES = {
    "snipe": (_est_snipe, "tte"),
    "snipe-uniform": (_est_snipe_uniform, "tte"),
    "ht": (_est_ht, "tte"),
    "dm": (_est_dm, "tte"),
    "dm-thresh": (_est_dm_thresh, "tte"),
    "ls-num": (_est_ls_num, "tte"),
    "ls-prop": (_est_ls_prop, "tte"),
    "snipe-ate": (_est_snipe_ate, "ate"),
    "snipe-cate": (_est_snipe_cate, "cate"),
    "snipe-te": (_est_snipe_te, "te"),
}


def _estimand(gt: GroundTruth, name: str, cfg: ExperimentConfig) -> float:
    if name == "cate":
        return math.fsum(gt.direct[i] for i in cfg.cate_nodes) / len(cfg.cate_nodes)
    if name == "te":
        return gt.te_alpha[cfg.te_alpha]
    return getattr(gt, name)


def _default_model_factory(graph: CausalGraph, params: dict, cfg: ExperimentConfig, rng) -> OutcomesModel:
    return gen_experiment_model(graph, params["beta"], params["r"], rng, scale=cfg.scale)


def _iter_graphs(cfg: ExperimentConfig, sweep_idx: int, params: dict, reps: int, model_factory):
    """Each graph of one sweep point as (graph, model, ground truth, design,
    draws); draws yields its `reps` assignments with their outcomes (z, Y)."""
    factory = model_factory or _default_model_factory
    p_edge = min(cfg.d_expect / params["n"], 1.0)
    for gidx in range(cfg.graphs):
        graph = gen_erdos_renyi(
            params["n"], p_edge, self_loops=True, seed=substream(cfg.base_seed, sweep_idx, gidx, 0)
        )
        model = factory(graph, params, cfg, substream(cfg.base_seed, sweep_idx, gidx, 1))
        gt = ground_truth(model)
        design = uniform_design(params["n"], params["p"])
        yield graph, model, gt, design, _draws(cfg.base_seed, sweep_idx, gidx, reps, design, model)


def _draws(base_seed: int, sweep_idx: int, gidx: int, reps: int, design: Design, model: OutcomesModel):
    # a function, not a generator expression, so that gidx is bound when the
    # draws are made and a graph's draws stay its own if read late
    for rep in range(reps):
        z = sample(design, substream(base_seed, sweep_idx, gidx, 2 + rep))
        yield z, evaluate(model, z)


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
        for graph, model, gt, design, draws in _iter_graphs(cfg, sweep_idx, params, reps, model_factory):
            # each estimand depends on the graph's ground truth and the config only
            truths = {name: _estimand(gt, ESTIMATOR_NAMES[name][1], cfg) for name in cfg.estimators}
            for z, Y in draws:
                for name, truth in truths.items():
                    try:
                        v = float(ESTIMATOR_NAMES[name][0](graph, Y, z, design, params, cfg))
                    except UndefinedEstimateError:
                        continue
                    rel[name].append((v - truth) / (abs(truth) or 1.0))
                    raw[name].append(v)
        for name in cfg.estimators:
            r = np.asarray(rel[name])
            if r.size:
                bias, std, mse = float(r.mean()), float(r.std(ddof=0)), float((r * r).mean())
                mean = float(np.mean(raw[name]))
            else:
                bias = std = mse = mean = float("nan")
            rows.append(
                ReplicationStats(
                    sweep_var=cfg.sweep,
                    sweep_value=float(value),
                    estimator=name,
                    rel_bias=bias,
                    rel_std=std,
                    rel_mse=mse,
                    n_excluded=cfg.graphs * reps - r.size,
                    n_used=r.size,
                    raw_mean=mean,
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
        for graph, model, gt, design, draws in _iter_graphs(cfg, sweep_idx, params, reps, model_factory):
            bounds.append(worst_case_variance_bound(graph, model, design))
            for z, Y in draws:
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
                n_draws=int(e.size),
            )
        )
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(rows: list, cols: list[str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(getattr(row, c)) for c in cols])


def write_experiment_csv(rows: list[ReplicationStats], path) -> None:
    cols = ["sweep_var", "sweep_value", "estimator", "rel_bias", "rel_std", "rel_mse", "n_excluded"]
    _write_csv(rows, cols, path)


def write_variance_csv(rows: list[VarianceRow], path) -> None:
    cols = ["sweep_var", "sweep_value", "n", "p", "r", "beta", "empirical_variance", "mean_conservative",
            "mean_bound", "mean_estimate", "n_draws"]
    _write_csv(rows, cols, path)


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


def _parse_int(text: str) -> int:
    # the ExperimentConfig rule: an integral value such as "5000.0" is accepted
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _split(text: str) -> list[str]:
    return [v for v in text.replace(",", " ").split() if v]


_PARSERS = {
    "sweep": str,
    "out": str,
    "sweep_values": lambda text: tuple(float(v) for v in _split(text)),
    "estimators": lambda text: tuple(_split(text)),
    "cate_nodes": lambda text: tuple(_parse_int(v) for v in _split(text)),
    **dict.fromkeys(("n", "beta", "graphs", "reps", "te_alpha"), _parse_int),
    **dict.fromkeys(("p", "r", "d_expect", "scale", "thresh_lambda"), float),
}


def config_from_mapping(mapping: dict[str, str], base_seed: int) -> ExperimentConfig:
    """Build a config from string key/values (file or CLI); unknown keys are
    rejected so typos fail loudly, and a value that does not parse names
    its key."""
    kwargs: dict = {"base_seed": int(base_seed)}
    for key, value in mapping.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key: {key}")
        try:
            kwargs[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key}: cannot parse {value!r} ({exc})") from None
    cfg = ExperimentConfig(**kwargs)
    if cfg.sweep in ("n", "beta"):
        cfg = replace(cfg, sweep_values=tuple(int(v) for v in cfg.sweep_values))
    return cfg
