"""The benchmark's workloads: inputs made from a seed, repeated workload
calls through the public `snipe` entry points, correctness checks, the
coverage guard, and the metrics of one run.

A run repeats *units* until its time is up. A unit is one workload call on
fresh inputs: the inputs of unit k depend only on (seed, k), so the same
seed gives the same inputs. End-to-end metrics are medians over the
untraced units. With tracing on, every unit runs twice on the same inputs,
untraced and traced in alternating order, and the per-layer metrics come
from the traced ones.
"""
from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field, fields
from time import perf_counter

import numpy as np
import scipy.sparse  # noqa: F401  imported lazily by snipe on first use; keep it out of the timings

from snipe import baselines, design, estimators, graph, harness, oracle, outcomes, variance
from snipe.harness import ExperimentConfig

from spans import ESTIMATES, SETUP, Tracer, guard, self_seconds

EXPERIMENT_ESTIMATORS = (
    "snipe",
    "snipe-uniform",
    "ht",
    "dm",
    "dm-thresh",
    "ls-num",
    "ls-prop",
    "snipe-ate",
    "snipe-te",
)
UNBIASED = ("snipe", "snipe-uniform", "snipe-ate", "snipe-te")
# spans each harness estimator name calls directly from the harness
ESTIMATOR_SPANS = {
    "snipe": ("estimators.snipe_tte",),
    "snipe-uniform": ("estimators.snipe_tte_uniform",),
    "ht": ("baselines.ht_tte",),
    "dm": ("baselines.dm_tte",),
    "dm-thresh": ("baselines.dm_thresh_tte",),
    "ls-num": ("baselines.ls_fit", "baselines.ls_tte"),
    "ls-prop": ("baselines.ls_fit", "baselines.ls_tte"),
    "snipe-ate": ("estimators.snipe_ate",),
    "snipe-cate": ("estimators.snipe_cate",),
    "snipe-te": ("estimators.snipe_te_alpha",),
}
# nested calls that may happen but whose count the config does not fix
ALLOWED = frozenset([("outcomes.evaluate", "outcomes.ground_truth")])
BIAS_SES = 5.0
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class MonteCarlo:
    """A `harness` call sweeping beta at the acceptance operating point,
    one graph per sweep point and `reps` replications per graph."""

    name: str
    entry: str
    reps: int
    estimators: tuple[str, ...] = EXPERIMENT_ESTIMATORS
    n: int = 5000
    graphs: int = 1
    betas: tuple[int, ...] = (1, 2)
    p: float = 0.2
    r: float = 2.0
    d_expect: float = 10.0
    scale: float = 5.0


@dataclass(frozen=True)
class Oracle:
    """Exact moments over all 2^n assignments of one small instance.

    The model's total subset size (the work of every batched `evaluate`)
    varies by about 21% between seeded G(16, 0.3) graphs, which would put
    that spread into every timing. Instances are therefore drawn from the
    seed until the size lies within `size_tol` of `size_target`, the median
    of the unconditioned draws.
    """

    name: str
    n: int = 16
    p_edge: float = 0.3
    beta: int = 3
    r: float = 2.0
    p_lo: float = 0.2
    p_hi: float = 0.8
    size_target: int = 1500
    size_tol: float = 0.03


WORKLOADS = {
    w.name: w
    for w in (
        # the shape of the bias/MSE study: every estimator on each draw
        MonteCarlo("experiment-n5000", "run_experiment", reps=40),
        # the variance table: snipe_tte and conservative_variance per draw
        MonteCarlo("variance-n5000", "run_variance_report", reps=70, estimators=("snipe",)),
        # batched (8192, n) blocks through the same modules
        Oracle("oracle-n16"),
    )
}


@dataclass
class Unit:
    total_s: float
    setup_s: float  # time in set-up calls during the unit
    setup_report_s: float  # the unit's `setup_s` figure
    draws: int
    tracer: Tracer
    rows: list = field(default_factory=list)  # harness output rows
    counts: dict = field(default_factory=dict)  # exact work counts


@dataclass
class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _unit_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ----------------------------------------------------------------------------
# Monte Carlo workloads


def _mc_config(spec: MonteCarlo, seed: int, k: int) -> ExperimentConfig:
    return ExperimentConfig(
        base_seed=_unit_seed(seed, k),
        sweep="beta",
        sweep_values=spec.betas,
        n=spec.n,
        p=spec.p,
        r=spec.r,
        graphs=spec.graphs,
        reps=spec.reps,
        estimators=spec.estimators,
        d_expect=spec.d_expect,
        scale=spec.scale,
    )


def _mc_expected(spec: MonteCarlo) -> Counter:
    entry = f"harness.{spec.entry}"
    graphs = spec.graphs * len(spec.betas)
    draws = graphs * spec.reps
    e = Counter(
        {
            (entry, None): 1,
            ("graph.gen_erdos_renyi", entry): graphs,
            ("outcomes.gen_experiment_model", entry): graphs,
            ("outcomes.ground_truth", entry): graphs,
            ("harness.substream", entry): graphs * (spec.reps + 2),
            ("design.sample", entry): draws,
            ("outcomes.evaluate", entry): draws,
        }
    )
    if spec.entry == "run_variance_report":
        e[("variance.worst_case_variance_bound", entry)] = graphs
        e[("estimators.snipe_tte", entry)] = draws
        e[("variance.conservative_variance", entry)] = draws
        e[("estimators.snipe_weights", "estimators.snipe_tte")] = draws
        e[("estimators.snipe_weights", "variance.conservative_variance")] = draws
    else:
        for name in spec.estimators:
            for span in ESTIMATOR_SPANS[name]:
                e[(span, entry)] += draws
        if "snipe" in spec.estimators:
            e[("estimators.snipe_weights", "estimators.snipe_tte")] = draws
    return e


def _mc_unit(spec: MonteCarlo, seed: int, k: int, tracer: Tracer, tally: Tally) -> tuple[Unit, Counter]:
    cfg = _mc_config(spec, seed, k)
    graphs = []

    def model_factory(g, params, cfg, rng):
        if tracer.timed_all:
            graphs.append(g)
        return outcomes.gen_experiment_model(g, params["beta"], params["r"], rng, scale=cfg.scale)

    with tracer:
        entry = getattr(harness, spec.entry)
        t0 = perf_counter()
        rows = entry(cfg, model_factory=model_factory)
        total = perf_counter() - t0
    setup = tracer.seconds(SETUP)
    unit = Unit(total, setup, setup, len(spec.betas) * spec.graphs * spec.reps, tracer, rows)
    if graphs:
        unit.counts = _graph_counts(graphs, spec.entry == "run_variance_report")
    _mc_checks(spec, rows, tally)
    return unit, _mc_expected(spec)


def _graph_counts(graphs, pairs: bool) -> dict:
    # nnz over the padded n x d_in slots the estimators sweep; ordered pairs
    # (i, j) with overlapping in-neighbourhoods, i.e. nnz(A A^T)
    fill = [g.nb_flat.size / (g.n * g.d_in) for g in graphs]
    out = {"estimators.fill_ratio": float(np.mean(fill))}
    if pairs:
        out["variance.pairs"] = float(np.mean([(g.in_csr() @ g.in_csr().T).nnz for g in graphs]))
    return out


def _finite_row(row) -> bool:
    return all(math.isfinite(getattr(row, f.name)) for f in fields(row) if isinstance(getattr(row, f.name), float))


def _mc_checks(spec: MonteCarlo, rows, tally: Tally) -> None:
    attempted = spec.graphs * spec.reps
    for row in rows:
        tally.check(_finite_row(row), f"non-finite output row {row}")
    if spec.entry == "run_variance_report":
        for row in rows:
            tally.check(row.n_draws == attempted, f"beta={row.beta}: {row.n_draws} draws, expected {attempted}")
            tally.check(
                row.empirical_variance < row.mean_conservative < row.mean_bound,
                f"beta={row.beta}: not empirical {row.empirical_variance} < conservative "
                f"{row.mean_conservative} < bound {row.mean_bound}",
            )
        return
    by = {(row.sweep_value, row.estimator): row for row in rows}
    for row in rows:
        tally.check(
            row.n_used + row.n_excluded == attempted,
            f"{row.estimator}@{row.sweep_value}: n_used + n_excluded = {row.n_used + row.n_excluded}, "
            f"expected {attempted}",
        )
    for beta in spec.betas:
        a, b = by[(float(beta), "snipe")].raw_mean, by[(float(beta), "snipe-uniform")].raw_mean
        tally.check(
            abs(a - b) <= 1e-9 * max(abs(a), abs(b)),
            f"beta={beta}: snipe raw_mean {a} != snipe-uniform raw_mean {b}",
        )


def _bias_checks(spec: MonteCarlo, units: list[Unit], tally: Tally) -> None:
    """|rel_bias| of the unbiased estimators within BIAS_SES Monte Carlo
    standard errors, pooling the replications of every unit in the run."""
    for beta in spec.betas:
        for name in UNBIASED:
            rows = [r for u in units for r in u.rows if r.estimator == name and r.sweep_value == beta]
            n = sum(r.n_used for r in rows)
            mean = sum(r.n_used * r.rel_bias for r in rows) / n
            second = sum(r.n_used * (r.rel_std**2 + r.rel_bias**2) for r in rows) / n
            se = math.sqrt(max(second - mean * mean, 0.0) / n)
            tally.check(
                abs(mean) <= BIAS_SES * se,
                f"{name}@{beta}: |rel_bias| {abs(mean):.4g} exceeds {BIAS_SES} SEs ({se:.4g}) over {n} draws",
            )


# ----------------------------------------------------------------------------
# Oracle workload


def _subset_size(model) -> int:
    return sum(len(s) for tmap in model.terms for s in tmap)


def _oracle_inputs(spec: Oracle, seed: int, k: int) -> dict:
    """Seeds and draws of the first instance whose model size is in the band."""
    lo, hi = spec.size_target * (1 - spec.size_tol), spec.size_target * (1 + spec.size_tol)
    for t in range(10_000):
        gseed, mseed, dseed = (np.random.SeedSequence([seed, k, t, j]) for j in range(3))
        g = graph.gen_erdos_renyi(spec.n, spec.p_edge, self_loops=True, seed=gseed)
        m = outcomes.gen_experiment_model(g, spec.beta, spec.r, mseed)
        if lo <= _subset_size(m) <= hi:
            rng = np.random.default_rng(dseed)
            probs = rng.uniform(spec.p_lo, spec.p_hi, spec.n)
            D = sorted(rng.choice(spec.n, size=spec.n // 2, replace=False).tolist())
            return {"gseed": gseed, "mseed": mseed, "probs": probs, "D": D}
    raise RuntimeError(f"no instance with model size in [{lo}, {hi}] after 10000 draws")


def _oracle_calls(beta: int, D: list[int]) -> list[tuple]:
    """(label, span, estimand, batched estimator) for each exact_moments
    call; the estimand takes (model, ground truth), the estimator
    (graph, model, design, assignments)."""

    def cate(m):
        return math.fsum(m.terms[i].get((i,), 0.0) for i in D) / len(D)

    calls = [
        ("snipe_tte", "estimators.snipe_tte", lambda m, gt: gt.tte,
         lambda g, m, d, Z: estimators.snipe_tte(g, outcomes.evaluate(m, Z), Z, d, beta)),
        ("ht_tte", "baselines.ht_tte", lambda m, gt: gt.tte,
         lambda g, m, d, Z: baselines.ht_tte(g, outcomes.evaluate(m, Z), Z, d)),
        ("snipe_ate", "estimators.snipe_ate", lambda m, gt: gt.ate,
         lambda g, m, d, Z: estimators.snipe_ate(g, outcomes.evaluate(m, Z), Z, d, beta)),
        ("snipe_cate", "estimators.snipe_cate", lambda m, gt: cate(m),
         lambda g, m, d, Z: estimators.snipe_cate(g, outcomes.evaluate(m, Z), Z, d, beta, D)),
    ]
    for a in range(1, beta + 1):
        calls.append(
            (f"snipe_te_alpha[{a}]", "estimators.snipe_te_alpha", lambda m, gt, a=a: gt.te_alpha[a],
             lambda g, m, d, Z, a=a: estimators.snipe_te_alpha(g, outcomes.evaluate(m, Z), Z, d, beta, a))
        )
    calls.append(
        ("conservative_variance", "variance.conservative_variance", None,
         lambda g, m, d, Z: variance.conservative_variance(g, outcomes.evaluate(m, Z), Z, d, beta))
    )
    return calls


def _oracle_unit(spec: Oracle, seed: int, k: int, tracer: Tracer, tally: Tally) -> tuple[Unit, Counter]:
    inp = _oracle_inputs(spec, seed, k)
    todo = _oracle_calls(spec.beta, inp["D"])
    support = 1 << spec.n
    rows = Counter()  # assignments each estimator received
    calls = Counter()
    setups, moments, truths = [], {}, {}
    with tracer:
        t_start = perf_counter()
        for label, span, truth, est in todo:
            # the instance is rebuilt before each call, so the set-up time
            # is sampled across the whole unit, not in one burst
            t0 = perf_counter()
            g = graph.gen_erdos_renyi(spec.n, spec.p_edge, self_loops=True, seed=inp["gseed"])
            m = outcomes.gen_experiment_model(g, spec.beta, spec.r, inp["mseed"])
            gt = outcomes.ground_truth(m)
            d = design.Design(inp["probs"])
            setups.append(perf_counter() - t0)

            def counted(Z, span=span, label=label, est=est):
                rows[label] += Z.shape[0]
                calls[span] += 1
                return est(g, m, d, Z)

            moments[label] = oracle.exact_moments(counted, d, batch=True, label=label)
            truths[label] = truth(m, gt) if truth else None
        total = perf_counter() - t_start

    for label, em in moments.items():
        tally.check(rows[label] == support, f"{label}: {rows[label]} assignments, expected {support}")
        tally.check(math.isfinite(em.mean) and math.isfinite(em.variance), f"{label}: non-finite moments")
        if truths[label] is not None:
            tally.check(
                abs(em.mean - truths[label]) <= ORACLE_TOL,
                f"{label}: exact mean {em.mean!r} differs from its estimand {truths[label]!r} by more than {ORACLE_TOL}",
            )
    tally.check(
        moments["conservative_variance"].mean >= moments["snipe_tte"].variance,
        f"E[conservative_variance] {moments['conservative_variance'].mean} < "
        f"Var[snipe_tte] {moments['snipe_tte'].variance}",
    )

    expected = Counter(
        {
            ("graph.gen_erdos_renyi", None): len(todo),
            ("outcomes.gen_experiment_model", None): len(todo),
            ("outcomes.ground_truth", None): len(todo),
            ("oracle.exact_moments", None): len(todo),
            ("outcomes.evaluate", "oracle.exact_moments"): sum(calls.values()),
            ("estimators.snipe_weights", "estimators.snipe_tte"): calls["estimators.snipe_tte"],
            ("estimators.snipe_weights", "variance.conservative_variance"): calls["variance.conservative_variance"],
        }
    )
    for span, c in calls.items():
        expected[(span, "oracle.exact_moments")] = c
    unit = Unit(total, sum(setups), statistics.median(setups), support * len(todo), tracer)
    unit.counts = {"oracle.assignments": float(sum(em.support for em in moments.values()))}
    if tracer.timed_all:
        unit.counts.update(_graph_counts([g], True))
    return unit, expected


# ----------------------------------------------------------------------------
# one run


def end_to_end(units: list[Unit]) -> dict:
    return {
        "setup_s": (statistics.median(u.setup_report_s for u in units), "s"),
        "total_s": (statistics.median(u.total_s for u in units), "s"),
        "draws_per_s": (statistics.median(u.draws / (u.total_s - u.setup_s) for u in units), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_SECONDS = [
    "graph.gen_erdos_renyi",
    "outcomes.gen_experiment_model",
    "outcomes.ground_truth",
    "outcomes.evaluate",
    "design.sample",
    "estimators.snipe_tte",
    "estimators.snipe_tte_uniform",
    "estimators.snipe_ate",
    "estimators.snipe_te_alpha",
    "estimators.snipe_cate",
    "estimators.snipe_weights",
    "baselines.ls_fit",
    "baselines.ls_tte",
    "baselines.ht_tte",
    "baselines.dm_tte",
    "baselines.dm_thresh_tte",
    "variance.conservative_variance",
    "variance.worst_case_variance_bound",
    "oracle.exact_moments",
    "harness.substream",
]
LAYER_P50 = ["outcomes.evaluate", "estimators.snipe_tte", "baselines.ls_tte", "variance.conservative_variance"]
LAYER_SELF = ["variance.conservative_variance", "oracle.exact_moments"]
WORK_COUNTS = {
    "estimators.fill_ratio": "ratio",
    "variance.pairs": "count",
    "oracle.assignments": "count",
    "baselines.excluded_frac": "ratio",
}


def _ms_quantile(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def per_layer(traced: list[Unit], plain: list[Unit]) -> dict:
    """Per-layer figures, per workload call, from the traced units. A span
    the workload never calls reads 0 (the coverage guard has checked that
    it was not called)."""
    spans = sorted((s for u in traced for s in u.tracer.spans), key=lambda s: s.start)
    per_call = 1.0 / len(traced)
    durs = {}
    for s in spans:
        durs.setdefault(s.name, []).append(s.dur)
    out = {}
    for name in LAYER_SECONDS:
        out[f"{name}.s"] = (sum(durs.get(name, [])) * per_call, "s")
    for name in LAYER_P50:
        out[f"{name}.ms_p50"] = (_ms_quantile(durs.get(name, []), 50), "ms")
    # span and replication ids are unique within a unit, not across units
    units = [u.tracer.spans for u in traced]
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (sum(self_seconds(sp, name) for sp in units) * per_call, "s")
    entry = next((s.name for s in spans if s.name.startswith("harness.run_")), None)
    out["harness.self_s"] = (sum(self_seconds(sp, entry) for sp in units) * per_call if entry else 0.0, "s")

    # the first conservative_variance call after each graph also fills the
    # pair index
    first, fresh = [], False
    for s in spans:
        if s.name == "graph.gen_erdos_renyi":
            fresh = True
        elif s.name == "variance.conservative_variance" and fresh:
            first.append(s.dur)
            fresh = False
    out["variance.conservative_variance.first_ms"] = (float(np.mean(first)) * 1e3 if first else 0.0, "ms")

    draws = []
    for sp in units:
        bounds: dict[int, list[float]] = {}
        for s in sp:
            if s.rep is not None:
                b = bounds.setdefault(s.rep, [s.start, s.end])
                b[0], b[1] = min(b[0], s.start), max(b[1], s.end)
        draws += [e - b for b, e in bounds.values()]
    out["harness.draw.ms_p50"] = (_ms_quantile(draws, 50), "ms")
    out["harness.draw.ms_p99"] = (_ms_quantile(draws, 99), "ms")

    pairs = list(zip(traced, plain))
    out["trace.overhead_frac"] = (
        sum(t.total_s for t, _ in pairs) / sum(p.total_s for _, p in pairs) - 1.0,
        "ratio",
    )
    first_unit = traced[0]
    counts = {"variance.pairs": 0.0, "oracle.assignments": 0.0, **first_unit.counts}
    tracer = first_unit.tracer
    baseline = [name for name in ESTIMATES if name.startswith("baselines.")]
    calls = sum(c for (name, _), c in tracer.counts.items() if name in baseline)
    counts["baselines.excluded_frac"] = sum(tracer.undefined[n] for n in baseline) / calls if calls else 0.0
    for name, unit in WORK_COUNTS.items():
        out[name] = (counts[name], unit)
    return out


def run(spec, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, int]:
    """One benchmark run: the result object the command prints, the tally
    with the reason for each failure, and the number of untraced units."""
    tally = Tally()
    plain: list[Unit] = []
    traced: list[Unit] = []
    start = last = perf_counter()
    k = 0
    try:
        while True:
            # traced and untraced units on the same inputs, in alternating
            # order so that neither always runs warm
            for timed_all in ((k % 2 == 1, k % 2 == 0) if trace else (False,)):
                tracer = Tracer(timed_all)
                unit_fn = _oracle_unit if isinstance(spec, Oracle) else _mc_unit
                unit, expected = unit_fn(spec, seed, k, tracer, tally)
                problems = guard(tracer.counts, expected, ALLOWED)
                tally.check(not problems, "coverage guard: " + "; ".join(problems))
                tally.attempted += tracer.ops
                tally.failed += tracer.failed_ops
                tally.errors.extend(tracer.errors)
                (traced if timed_all else plain).append(unit)
            k += 1
            # stop before a unit that would overrun the run's time
            now = perf_counter()
            if tally.failed or (now - start) + (now - last) > seconds:
                break
            last = now
        if isinstance(spec, MonteCarlo) and spec.entry == "run_experiment":
            _bias_checks(spec, plain + traced, tally)
    except Exception as exc:  # a failed workload call is reported, not hidden
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append(f"unit {k} raised {exc!r}")
        traceback.print_exc(file=sys.stderr)
    metrics = {}
    if plain and not tally.failed:
        metrics = per_layer(traced, plain) if trace else end_to_end(plain)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, tally, len(plain)
