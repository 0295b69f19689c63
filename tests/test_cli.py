import json

import numpy as np
import pytest

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
