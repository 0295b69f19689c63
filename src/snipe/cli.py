"""Command-line interface: generate graphs and models, sample assignments,
compute estimates, and run replication experiments."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import estimators, harness, oracle
from .baselines import UndefinedEstimateError
from .design import Design, load_design, load_treatment, sample, save_treatment, uniform_design
from .graph import gen_erdos_renyi, load_graph, save_graph
from .outcomes import evaluate, gen_experiment_model, ground_truth, save_model
from .variance import conservative_variance, make_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDEFINED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="generate a directed Erdos-Renyi interference graph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p-edge", type=float, help="edge probability (default d-expect/n)")
    g.add_argument("--d-expect", type=float, default=10.0, help="expected degree when --p-edge is omitted")
    g.add_argument("--no-self-loops", action="store_true")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    m = sub.add_parser("gen-model", help="generate the benchmark outcomes model for a graph")
    m.add_argument("--graph", required=True)
    m.add_argument("--beta", type=int, required=True)
    m.add_argument("--r", type=float, required=True)
    m.add_argument("--scale", type=float, default=1.0)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--out", required=True)

    s = sub.add_parser("sample", help="sample a Bernoulli treatment vector")
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--design-file", help="JSON design instead of --n/--p")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)

    e = sub.add_parser("estimate", help="point estimate from observed data")
    e.add_argument("--graph", required=True)
    e.add_argument("--outcomes", required=True, help="CSV vector of observed outcomes")
    e.add_argument("--treatment", required=True, help="CSV 0/1 vector")
    e.add_argument("--p", type=float, help="uniform treatment probability")
    e.add_argument("--design-file")
    e.add_argument(
        "--estimator",
        required=True,
        choices=sorted(harness.ESTIMATOR_NAMES),
    )
    e.add_argument("--beta", type=int, default=1)
    e.add_argument("--alpha", type=int, default=1, help="interaction size for snipe-te")
    e.add_argument("--lambda", dest="thresh_lambda", type=float, default=0.75)
    e.add_argument("--demographic-file", help="node ids (one per line) for snipe-cate")
    e.add_argument("--report", help="also write a variance-report CSV row to this path")
    e.add_argument("--ci-alpha", type=float, default=0.05)

    for name in ("experiment", "variance-report"):
        x = sub.add_parser(name, help=f"run the replication {name.replace('-', ' ')}")
        x.add_argument("--config", help="flat key = value config file")
        x.add_argument("--seed", type=int, required=True)
        x.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key")
        x.add_argument("--out")

    v = sub.add_parser("verify", help="run quick exhaustive-oracle checks")
    v.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_gen_graph(args) -> int:
    p_edge = args.p_edge if args.p_edge is not None else min(args.d_expect / args.n, 1.0)
    g = gen_erdos_renyi(args.n, p_edge, self_loops=not args.no_self_loops, seed=args.seed)
    save_graph(g, args.out)
    print(f"wrote graph n={g.n} d_in={g.d_in} d_out={g.d_out} -> {args.out}")
    return EXIT_OK


def _cmd_gen_model(args) -> int:
    g = load_graph(args.graph)
    model = gen_experiment_model(g, args.beta, args.r, args.seed, scale=args.scale)
    save_model(model, args.out)
    gt = ground_truth(model)
    print(f"wrote model beta={args.beta} tte={gt.tte:.6g} y_max={gt.y_max:.6g} -> {args.out}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.design_file:
        design = load_design(args.design_file)
    elif args.n is not None and args.p is not None:
        design = uniform_design(args.n, args.p)
    else:
        raise ValueError("sample needs --design-file or both --n and --p")
    z = sample(design, args.seed)
    save_treatment(z, args.out)
    print(f"wrote treatment vector ({int(z.sum())}/{z.size} treated) -> {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    g = load_graph(args.graph)
    Y = np.array([float(v) for v in Path(args.outcomes).read_text().strip().split(",")])
    z = load_treatment(args.treatment, g.n)
    if args.design_file:
        design = load_design(args.design_file)
    elif args.p is not None:
        design = uniform_design(g.n, args.p)
    else:
        raise ValueError("estimate needs --design-file or --p")
    cate_nodes: tuple[int, ...] = ()
    if args.demographic_file:
        cate_nodes = tuple(
            int(line) for line in Path(args.demographic_file).read_text().split() if line.strip()
        )
    # the config checks the values of the one estimator this call runs
    cfg = harness.ExperimentConfig(
        base_seed=0,
        n=g.n,
        beta=args.beta,
        estimators=(args.estimator,),
        thresh_lambda=args.thresh_lambda,
        te_alpha=args.alpha,
        cate_nodes=cate_nodes,
    )
    params = {"beta": args.beta}
    est_fn, _ = harness.ESTIMATOR_NAMES[args.estimator]
    try:
        value = float(est_fn(g, Y, z, design, params, cfg))
    except UndefinedEstimateError as exc:
        print(f"undefined estimate: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    print(f"{args.estimator} estimate: {value:.12g}")
    if args.report:
        cons = conservative_variance(g, Y, z, design, args.beta)
        report = make_report(value, cons, alpha=args.ci_alpha, design=design)
        with open(args.report, "w") as fh:
            fh.write("estimate,empirical_var,conservative_var,bound,ci_low,ci_high\n")
            fh.write(report.csv_row() + "\n")
        print(f"wrote report -> {args.report}")
    return EXIT_OK


def _load_cfg(args) -> harness.ExperimentConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(harness.parse_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    if args.out:
        mapping["out"] = args.out
    return harness.config_from_mapping(mapping, base_seed=args.seed)


def _cmd_experiment(args) -> int:
    cfg = _load_cfg(args)
    rows = harness.run_experiment(cfg)
    path = cfg.out or "experiment.csv"
    harness.write_experiment_csv(rows, path)
    for row in rows:
        print(
            f"{row.sweep_var}={row.sweep_value:g} {row.estimator}: "
            f"rel_bias={row.rel_bias:+.4f} rel_std={row.rel_std:.4f} "
            f"rel_mse={row.rel_mse:.4f} excluded={row.n_excluded}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_variance_report(args) -> int:
    cfg = _load_cfg(args)
    rows = harness.run_variance_report(cfg)
    path = cfg.out or "variance.csv"
    harness.write_variance_csv(rows, path)
    for row in rows:
        print(
            f"{row.sweep_var}={row.sweep_value:g} empirical={row.empirical_variance:.6g} "
            f"conservative={row.mean_conservative:.6g} bound={row.mean_bound:.6g}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
        failures += 0 if ok else 1

    for trial in range(5):
        n = int(rng.integers(4, 9))
        beta = int(rng.integers(1, 3))
        g = gen_erdos_renyi(n, 0.4, self_loops=True, seed=int(rng.integers(2**31)))
        model = gen_experiment_model(g, beta, 1.5, int(rng.integers(2**31)))
        design = uniform_design(n, 0.3)
        gt = ground_truth(model)
        moments = oracle.exact_moments(
            lambda Z: estimators.snipe_tte(g, evaluate(model, Z), Z, design, beta),
            design,
            batch=True,
        )
        err = abs(moments.mean - gt.tte)
        check(f"unbiasedness trial {trial} (n={n}, beta={beta})", err <= 1e-8, f"|E - TTE| = {err:.2e}")

    design = Design(rng.uniform(0.2, 0.8, 8))
    for trial in range(10):
        S = sorted(rng.choice(8, size=rng.integers(0, 4), replace=False).tolist())
        Sp = sorted(rng.choice(8, size=rng.integers(0, 4), replace=False).tolist())
        got = oracle.exact_product_expectation(S, Sp, design)
        want = float(np.prod(design.probs[sorted(set(Sp) - set(S))])) if set(S) <= set(Sp) else 0.0
        check(f"centered-product expectation trial {trial}", abs(got - want) <= 1e-10)

    for trial in range(5):
        k = int(rng.integers(1, 6))
        neigh = sorted(rng.choice(10, size=k, replace=False).tolist())
        d = Design(rng.uniform(0.2, 0.8, 10))
        beta = int(rng.integers(1, 4))
        try:
            estimators.design_matrix_inverse(neigh, d, beta)
            check(f"design-matrix inverse trial {trial}", True)
        except ValueError as exc:
            check(f"design-matrix inverse trial {trial}", False, str(exc))

    g = gen_erdos_renyi(200, 0.05, self_loops=True, seed=7)
    design = uniform_design(200, 0.25)
    for trial in range(5):
        z = sample(design, int(rng.integers(2**31)))
        Y = rng.uniform(-1, 1, 200)
        a = estimators.snipe_tte(g, Y, z, design, 2)
        b = estimators.snipe_tte_uniform(g, Y, z, 0.25, 2)
        check(f"uniform fast path trial {trial}", abs(a - b) <= 1e-9, f"diff = {abs(a - b):.2e}")

    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-graph": _cmd_gen_graph,
        "gen-model": _cmd_gen_model,
        "sample": _cmd_sample,
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "variance-report": _cmd_variance_report,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
