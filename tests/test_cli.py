import json

import numpy as np
import pytest

from snipe import Design, load_treatment, sample
from snipe.cli import EXIT_OK, EXIT_UNDEFINED, EXIT_VALIDATION, main


def test_end_to_end_pipeline(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    model = tmp_path / "model.json"
    zfile = tmp_path / "z.csv"
    yfile = tmp_path / "y.csv"
    report = tmp_path / "report.csv"

    assert main(["gen-graph", "--n", "50", "--p-edge", "0.1", "--seed", "3", "--out", str(graph)]) == EXIT_OK
    assert main(["gen-model", "--graph", str(graph), "--beta", "2", "--r", "1.0", "--seed", "4", "--out", str(model)]) == EXIT_OK
    assert main(["sample", "--n", "50", "--p", "0.3", "--seed", "5", "--out", str(zfile)]) == EXIT_OK

    # produce observed outcomes from the generated model
    from snipe import evaluate, load_graph, load_model, load_treatment

    g = load_graph(graph)
    m = load_model(model, g)
    z = load_treatment(zfile, 50)
    Y = evaluate(m, z)
    yfile.write_text(",".join(format(v, ".17g") for v in Y) + "\n")

    code = main(
        [
            "estimate",
            "--graph", str(graph),
            "--outcomes", str(yfile),
            "--treatment", str(zfile),
            "--p", "0.3",
            "--estimator", "snipe",
            "--beta", "2",
            "--report", str(report),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "snipe estimate:" in out
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "estimate,empirical_var,conservative_var,bound,ci_low,ci_high"
    fields = lines[1].split(",")
    assert fields[1] == "NA" and fields[3] == "NA"
    est = float(fields[0])
    from snipe import snipe_tte, uniform_design

    assert est == pytest.approx(float(snipe_tte(g, Y, z, uniform_design(50, 0.3), 2)))


def test_estimate_matches_each_estimator(tmp_path):
    graph = tmp_path / "graph.json"
    zfile = tmp_path / "z.csv"
    yfile = tmp_path / "y.csv"
    demo = tmp_path / "demo.txt"
    main(["gen-graph", "--n", "30", "--p-edge", "0.15", "--seed", "9", "--out", str(graph)])
    main(["sample", "--n", "30", "--p", "0.4", "--seed", "2", "--out", str(zfile)])
    rng = np.random.default_rng(0)
    yfile.write_text(",".join(str(v) for v in rng.uniform(0, 2, 30)) + "\n")
    demo.write_text("\n".join(str(i) for i in range(0, 30, 3)))
    for est in ("snipe-uniform", "ht", "dm", "dm-thresh", "ls-num", "ls-prop", "snipe-ate", "snipe-te"):
        code = main(
            [
                "estimate",
                "--graph", str(graph),
                "--outcomes", str(yfile),
                "--treatment", str(zfile),
                "--p", "0.4",
                "--estimator", est,
                "--beta", "1",
            ]
        )
        assert code == EXIT_OK, est
    code = main(
        [
            "estimate",
            "--graph", str(graph),
            "--outcomes", str(yfile),
            "--treatment", str(zfile),
            "--p", "0.4",
            "--estimator", "snipe-cate",
            "--beta", "1",
            "--demographic-file", str(demo),
        ]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "est, extra, code",
    [
        ("snipe", ["--lambda", "2"], EXIT_OK),
        ("dm-thresh", ["--lambda", "2"], EXIT_VALIDATION),
        ("snipe-te", ["--beta", "2", "--alpha", "2"], EXIT_OK),
        ("snipe-te", ["--beta", "1", "--alpha", "2"], EXIT_VALIDATION),
    ],
)
def test_estimate_checks_lambda_and_alpha_only_for_their_estimator(tmp_path, est, extra, code):
    graph, zfile, yfile = tmp_path / "graph.json", tmp_path / "z.csv", tmp_path / "y.csv"
    main(["gen-graph", "--n", "30", "--p-edge", "0.15", "--seed", "9", "--out", str(graph)])
    main(["sample", "--n", "30", "--p", "0.4", "--seed", "2", "--out", str(zfile)])
    yfile.write_text(",".join(str(v) for v in np.random.default_rng(0).uniform(0, 2, 30)) + "\n")
    args = ["estimate", "--graph", str(graph), "--outcomes", str(yfile), "--treatment", str(zfile), "--p", "0.4"]
    assert main([*args, "--estimator", est, *extra]) == code


def test_undefined_estimate_exit_code(tmp_path):
    graph = tmp_path / "graph.json"
    zfile = tmp_path / "z.csv"
    yfile = tmp_path / "y.csv"
    main(["gen-graph", "--n", "6", "--p-edge", "0.2", "--seed", "1", "--out", str(graph)])
    zfile.write_text("1,1,1,1,1,1\n")
    yfile.write_text("1,1,1,1,1,1\n")
    code = main(
        [
            "estimate",
            "--graph", str(graph),
            "--outcomes", str(yfile),
            "--treatment", str(zfile),
            "--p", "0.5",
            "--estimator", "dm",
        ]
    )
    assert code == EXIT_UNDEFINED


def test_validation_exit_code(tmp_path):
    assert main(["gen-graph", "--n", "5", "--p-edge", "2.0", "--seed", "1", "--out", str(tmp_path / "g.json")]) == EXIT_VALIDATION
    assert main(["sample", "--seed", "1", "--out", str(tmp_path / "z.csv")]) == EXIT_VALIDATION


def test_experiment_command_with_config_and_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    out = tmp_path / "rows.csv"
    cfgfile.write_text("sweep = r\nsweep_values = 1.0\nn = 60\np = 0.3\ngraphs = 2\nreps = 5\nestimators = snipe\nd_expect = 4\n")
    code = main(
        ["experiment", "--config", str(cfgfile), "--seed", "7", "--set", "reps=6", "--out", str(out)]
    )
    assert code == EXIT_OK
    text = out.read_text().splitlines()
    assert text[0] == "sweep_var,sweep_value,estimator,rel_bias,rel_std,rel_mse,n_excluded"
    assert len(text) == 2
    assert "rel_bias" in capsys.readouterr().out


def test_variance_report_command(tmp_path):
    out = tmp_path / "var.csv"
    code = main(
        [
            "variance-report",
            "--seed", "3",
            "--set", "sweep=r",
            "--set", "sweep_values=1.0",
            "--set", "n=60",
            "--set", "graphs=2",
            "--set", "reps=5",
            "--set", "d_expect=4",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header.startswith("sweep_var,sweep_value,n,p,r,beta,empirical_variance,mean_conservative,mean_bound")


def test_verify_command():
    assert main(["verify", "--seed", "0"]) == EXIT_OK


def test_estimate_rejects_a_design_file_of_another_length(tmp_path, capsys):
    graph, zfile, yfile, dfile = (tmp_path / f for f in ("graph.json", "z.csv", "y.csv", "design.json"))
    main(["gen-graph", "--n", "5", "--p-edge", "0.4", "--seed", "1", "--out", str(graph)])
    zfile.write_text("1,0,1,0,1\n")
    yfile.write_text("1,2,3,4,5\n")
    dfile.write_text(json.dumps({"probs": [0.3]}))
    for est in ("snipe", "ht"):
        args = ["estimate", "--graph", str(graph), "--outcomes", str(yfile), "--treatment", str(zfile),
                "--design-file", str(dfile), "--estimator", est]
        assert main(args) == EXIT_VALIDATION
        assert "design length 1 != n = 5" in capsys.readouterr().err


def test_estimate_past_float64_range_is_a_validation_error(tmp_path, capsys):
    # at p = 1e-300 the beta=2 uniform weight table overflows float64
    graph, zfile, yfile = tmp_path / "graph.json", tmp_path / "z.csv", tmp_path / "y.csv"
    main(["gen-graph", "--n", "200", "--p-edge", "0.05", "--seed", "1", "--out", str(graph)])
    zfile.write_text(",".join(["1"] * 3 + ["0"] * 197) + "\n")
    yfile.write_text(",".join(["1.5"] * 200) + "\n")
    args = ["estimate", "--graph", str(graph), "--outcomes", str(yfile), "--treatment", str(zfile),
            "--p", "1e-300", "--estimator", "snipe-uniform", "--beta", "2"]
    assert main(args) == EXIT_VALIDATION
    assert "snipe_tte_uniform: the weight table overflows float64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p, extra, message",
    [
        ("1e-300", [], "snipe_tte: the result overflows float64"),
        ("1e-120", ["--report", "{report}"], "conservative_variance: the result overflows float64"),
    ],
    ids=["estimate", "report"],
)
def test_estimate_never_prints_inf_or_writes_nan(tmp_path, capsys, p, extra, message):
    graph, zfile, yfile, report = (tmp_path / f for f in ("graph.json", "z.csv", "y.csv", "report.csv"))
    main(["gen-graph", "--n", "200", "--p-edge", "0.05", "--seed", "1", "--out", str(graph)])
    zfile.write_text(",".join(["1"] * 3 + ["0"] * 197) + "\n")
    yfile.write_text(",".join(["1.5"] * 200) + "\n")
    args = ["estimate", "--graph", str(graph), "--outcomes", str(yfile), "--treatment", str(zfile),
            "--p", p, "--estimator", "snipe", "--beta", "2", *(a.format(report=report) for a in extra)]
    capsys.readouterr()
    assert main(args) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert message in err and "inf" not in out and "nan" not in out
    assert not report.exists()


@pytest.mark.parametrize("est", ["snipe", "snipe-uniform", "ht", "dm", "dm-thresh", "ls-num", "ls-prop",
                                 "snipe-ate", "snipe-cate", "snipe-te"])
def test_estimate_report_is_only_for_the_snipe_total_effect(tmp_path, capsys, est):
    # the report's variance is SNIPE's: for another estimator it would put
    # the wrong variance around that estimator's estimate
    graph, zfile, yfile, demo, report = (
        tmp_path / f for f in ("graph.json", "z.csv", "y.csv", "demo.txt", "report.csv")
    )
    main(["gen-graph", "--n", "200", "--d-expect", "6", "--seed", "3", "--out", str(graph)])
    main(["sample", "--n", "200", "--p", "0.3", "--seed", "2", "--out", str(zfile)])
    Y = np.random.default_rng(0).uniform(0, 2, 200)
    yfile.write_text(",".join(format(v, ".17g") for v in Y) + "\n")
    demo.write_text("\n".join(str(i) for i in range(0, 200, 3)))
    capsys.readouterr()
    code = main(["estimate", "--graph", str(graph), "--outcomes", str(yfile), "--treatment", str(zfile),
                 "--p", "0.3", "--estimator", est, "--beta", "2", "--demographic-file", str(demo),
                 "--report", str(report)])
    if est in ("snipe", "snipe-uniform"):
        assert code == EXIT_OK
        from snipe import conservative_variance, load_graph, uniform_design

        g, z = load_graph(graph), load_treatment(zfile, 200)
        fields = report.read_text().strip().splitlines()[1].split(",")
        assert float(fields[2]) == conservative_variance(g, Y, z, uniform_design(200, 0.3), 2)
    else:
        assert code == EXIT_VALIDATION
        assert f"--report gives the variance of snipe and snipe-uniform only, not of {est}" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--design-file", "{design}", "--estimator", "snipe-uniform"],
         "snipe-uniform requires a uniform design"),
        (["estimate", "--estimator", "snipe"], "estimate needs --design-file or --p"),
        (["experiment", "--seed", "1", "--set", "reps"], "--set expects KEY=VALUE, got 'reps'"),
        (["sample", "--design-file", "{design}", "--seed", "4", "--out", "{z}"], None),
    ],
    ids=["snipe-uniform-on-a-non-uniform-design", "estimate-without-a-design", "set-without-equals",
         "sample-from-a-design-file"],
)
def test_cli_paths(tmp_path, capsys, argv, message):
    graph, zfile, yfile, dfile = (tmp_path / f for f in ("graph.json", "z.csv", "y.csv", "design.json"))
    main(["gen-graph", "--n", "4", "--p-edge", "0.5", "--seed", "1", "--out", str(graph)])
    zfile.write_text("1,0,1,0\n")
    yfile.write_text("1,2,3,4\n")
    dfile.write_text(json.dumps({"probs": [0.2, 0.3, 0.4, 0.5]}))
    if argv[0] == "estimate":
        argv = [*argv, "--graph", str(graph), "--outcomes", str(yfile), "--treatment", str(zfile)]
    argv = [a.format(design=dfile, z=zfile) for a in argv]
    code = main(argv)
    if message is None:
        assert code == EXIT_OK
        want = sample(Design(np.array([0.2, 0.3, 0.4, 0.5])), 4)
        assert np.array_equal(load_treatment(zfile, 4), want)
    else:
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
