import json
import warnings

import numpy as np
import pytest

from needlekit import cli


def _load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def interval_spec(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(
        {"metric": {"type": "interval", "K": 1.0, "N": 2.0,
                    "D": np.pi, "n": 400}}))
    return str(path)


@pytest.fixture()
def flat_spec(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(
        {"metric": {"type": "interval", "K": 0.0, "N": 2.0, "D": 3.0, "n": 301}}))
    return str(path)


def test_check_cd_pass_and_fail(interval_spec, flat_spec, tmp_path):
    out = str(tmp_path / "rep.json")
    assert cli.main(["check-cd", "--space", interval_spec, "--K", "1", "--N", "2",
                     "--out", out]) == 0
    rep = _load(out)
    assert rep["check"]["verdict"] == "pass"
    assert cli.main(["check-cd", "--space", flat_spec, "--K", "1", "--N", "2",
                     "--out", out]) == 2
    rep = _load(out)
    assert rep["check"]["verdict"] == "fail"
    assert rep["check"]["worst_triple"] == [0.0, 3.0, 0.5]


def test_check_mcp(interval_spec, tmp_path):
    out = str(tmp_path / "mcp.json")
    assert cli.main(["check-mcp", "--space", interval_spec, "--K", "1", "--N", "2",
                     "--out", out]) == 0


def test_levy_gromov_cli(interval_spec, tmp_path):
    out = str(tmp_path / "lg.json")
    code = cli.main(["levy-gromov", "--space", interval_spec, "--K", "1", "--N", "2",
                     "--v-grid", "0.25,0.5,0.75", "--out", out])
    assert code == 0
    rep = _load(out)
    assert rep["levy_gromov"]["verdict"] == "pass"
    csv = (tmp_path / "lg.csv").read_text().splitlines()
    assert csv[0] == "v,empirical,model"
    assert len(csv) == 4


def test_solve_monge_and_decompose(interval_spec, tmp_path):
    out = str(tmp_path / "monge.json")
    assert cli.main(["solve-monge", "--space", interval_spec, "--seed", "5",
                     "--out", out]) == 0
    rep = _load(out)
    assert rep["cost_vs_w1"] <= 1e-6

    out2 = str(tmp_path / "dec.json")
    assert cli.main(["decompose", "--space", interval_spec, "--seed", "5",
                     "--out", out2]) == 0
    rep2 = _load(out2)
    assert rep2["decomposition"]["rays"]
    solution = rep2["solution"]
    assert {"slack_floor", "support_residual", "gamma_tol", "tightening", "colgen"} <= set(solution)
    assert solution["gamma_tol"] >= 4 * solution["support_residual"]
    assert solution["tightening"] == solution["colgen"] == {}     # the line engine
    assert "mass_fraction" in rep2["branching"]

    # off the line, both reports carry the tightening and arc generation records
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps({"metric": {"type": "sphere2", "n": 120, "seed": 0}}))
    reports = []
    for command in ("solve-monge", "decompose"):
        assert cli.main([command, "--space", str(sphere), "--seed", "5", "--out", out]) == 0
        reports.append(_load(out))
    w1, solution = reports[0]["w1"], reports[1]["solution"]
    assert solution["engine"] == "highs-colgen"
    assert (solution["tightening"], solution["colgen"]) == (w1["tightening"], w1["colgen"])
    assert set(solution["tightening"]) == {"rungs", "components", "cycle_bound"}
    assert solution["tightening"]["rungs"][-1]["outcome"] == "feasible"
    assert set(solution["colgen"]) == {"rounds", "arcs", "simplex_iterations", "at_bound"}


def test_decompose_reports_the_coupling(interval_spec, tmp_path):
    out = str(tmp_path / "dec.json")
    assert cli.main(["decompose", "--space", interval_spec, "--seed", "5", "--out", out]) == 0
    rep = _load(out)
    coupling = rep["coupling"]
    assert set(coupling) == {"cost", "is_map", "passthrough_mass", "pairs"}
    assert abs(coupling["cost"] - rep["solution"]["primal_value"]) <= 1e-9
    assert coupling["pairs"] > 0 and 0 <= coupling["passthrough_mass"] <= 1
    assert isinstance(coupling["is_map"], bool)


def test_marginals_file(interval_spec, tmp_path):
    n = 400
    mu0 = np.zeros(n)
    mu0[:50] = 1 / 50
    mu1 = np.zeros(n)
    mu1[-50:] = 1 / 50
    marg = tmp_path / "marg.json"
    marg.write_text(json.dumps({"mu0": mu0.tolist(), "mu1": mu1.tolist()}))
    out = str(tmp_path / "m.json")
    assert cli.main(["solve-monge", "--space", interval_spec,
                     "--marginals", str(marg), "--out", out]) == 0


def test_determinism_modulo_wall_time(interval_spec, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for out in (a, b):
        assert cli.main(["profile", "--space", interval_spec, "--v-grid", "0.3,0.6",
                         "--seed", "9", "--out", out]) == 0
    ra = _load(a)
    rb = _load(b)
    ra["manifest"].pop("wall_time_s")
    rb["manifest"].pop("wall_time_s")
    ra["manifest"]["config"].pop("out")
    rb["manifest"]["config"].pop("out")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_config_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["check-cd", "--space", missing, "--K", "1", "--N", "2"]) == 1


def test_two_node_density_csv_exits_1(tmp_path, capsys):
    # two nodes hold no triple t0 < s < t1 of grid points
    path = tmp_path / "two.csv"
    path.write_text("t,h\n0,1\n1,1\n")
    assert cli.main(["check-cd", "--space", str(path), "--K", "0", "--N", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [BadParameter]:") and "Traceback" not in err


def test_non_interval_space_rejected_for_cd(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"metric": {"type": "sphere2", "n": 120, "seed": 0}}))
    assert cli.main(["check-cd", "--space", str(path), "--K", "1", "--N", "2"]) == 1


def test_marginals_keyed_by_point_id(interval_spec, tmp_path):
    mu0 = {"0": 0.5, "1": 0.5}
    mu1 = {"398": 0.25, "399": 0.75}
    marg = tmp_path / "keyed.json"
    marg.write_text(json.dumps({"mu0": mu0, "mu1": mu1}))
    out = str(tmp_path / "keyed_out.json")
    assert cli.main(["solve-monge", "--space", interval_spec,
                     "--marginals", str(marg), "--out", out]) == 0
    rep = _load(out)
    assert rep["w1"]["primal_value"] > 3.0   # nearly the full interval length


# The option strings each subcommand accepts (besides -h); a flag a
# subcommand does not read must not come back.
FLAGS = {
    "solve-monge": "--space --marginals --seed --tol --out",
    "decompose": "--space --marginals --seed --tol --out",
    "check-cd": "--space --K --N --seed --samples --tol --out",
    "check-mcp": "--space --K --N --seed --samples --tol --out",
    "profile": "--space --v-grid --seed --out",
    "levy-gromov": "--space --K --N --v-grid --seed --out",
    "selftest": "--out",
}


def test_accepted_flags_are_pinned():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    accepted = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for name, p in subparsers.items()}
    assert accepted == {name: set(flags.split()) for name, flags in FLAGS.items()}
    assert sum(len(flags) for flags in accepted.values()) == 35


def test_manifest_config_echoes_exactly_the_flags(interval_spec, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.stest, "run_all", lambda verbose: [])
    model = ["--K", "1", "--N", "2"]
    argv = {
        "solve-monge": [], "decompose": [], "selftest": [],
        "check-cd": model + ["--samples", "200"],
        "check-mcp": model + ["--samples", "200"],
        "profile": ["--v-grid", "0.5"],
        "levy-gromov": model + ["--v-grid", "0.5"],
    }
    for name, flags in FLAGS.items():
        out = str(tmp_path / f"{name}.json")
        space = [] if name == "selftest" else ["--space", interval_spec]
        assert cli.main([name, *space, *argv[name], "--out", out]) in (0, 2)
        manifest = _load(out)["manifest"]
        assert manifest["command"] == name
        assert set(manifest["config"]) == {f[2:].replace("-", "_") for f in flags.split()}


def test_unread_flag_is_a_usage_error(interval_spec):
    assert cli.main(["decompose", "--space", interval_spec, "--K", "1"]) == 1
    assert cli.main(["levy-gromov", "--space", interval_spec, "--K", "1", "--N", "2",
                     "--D", "0"]) == 1


def test_missing_required_flag_exits_1(interval_spec, capsys):
    assert cli.main(["check-cd", "--space", interval_spec, "--N", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ConfigError]:") and "--K" in err
    assert "Traceback" not in err


def test_check_tol_is_used_as_given(interval_spec, tmp_path):
    out = str(tmp_path / "cd.json")
    assert cli.main(["check-cd", "--space", interval_spec, "--K", "1", "--N", "2",
                     "--samples", "200", "--tol", "0", "--out", out]) in (0, 2)
    assert _load(out)["check"]["rel_tol"] == 0.0
    assert cli.main(["check-cd", "--space", interval_spec, "--K", "1", "--N", "2",
                     "--samples", "200", "--out", out]) == 0
    assert _load(out)["check"]["rel_tol"] == 1e-7


@pytest.mark.parametrize("argv, error", [
    (["levy-gromov", "--K", "1", "--N", "0.5"], "BadDimension"),
    (["check-cd", "--K", "1", "--N", "0.5"], "BadDimension"),
    (["check-mcp", "--K", "1", "--N", "0.5"], "BadDimension"),
    (["check-mcp", "--K", "-1", "--N", "2"], "BadParameter"),
    (["check-mcp", "--K", "1", "--N", "2", "--samples", "0"], "BadParameter"),
    (["check-cd", "--K", "1", "--N", "2", "--seed", "-1"], "ConfigError"),
    (["profile", "--v-grid", "0.5,x"], "ConfigError"),
    (["levy-gromov", "--K", "1", "--N", "2", "--v-grid", "1.5,-0.3"], "BadVolume"),
])
def test_out_of_range_input_exits_1(interval_spec, argv, error, capsys):
    assert cli.main(argv[:1] + ["--space", interval_spec] + argv[1:]) == 1
    assert capsys.readouterr().err.startswith(f"error [{error}]:")


@pytest.mark.parametrize("command", ["check-cd", "check-mcp", "levy-gromov"])
@pytest.mark.parametrize("K, N, error", [("nan", "2", "BadParameter"), ("inf", "2", "BadParameter"),
                                         ("1", "nan", "BadDimension")])
def test_nonfinite_K_or_N_exits_1(interval_spec, command, K, N, error, capsys):
    # unchecked, check-cd --K nan fails on a margin read from unfilled
    # memory and levy-gromov --K nan passes on the K = 0 model
    assert cli.main([command, "--space", interval_spec, "--K", K, "--N", N]) == 1
    assert capsys.readouterr().err.startswith(f"error [{error}]:")


@pytest.mark.parametrize("name, text", [
    ("spec.json", "{"),
    ("spec.json", '{"metric": {"type": "interval", "K": 1, "N": 2}}'),
    ("spec.json", '{"metric": {"type": "interval", "K": 1, "N": 2, "D": 1, "n": 4}}'),
    ("density.csv", "t,h\n0,1\n1,-1\n2,1\n"),
])
def test_malformed_input_file_exits_1(tmp_path, name, text, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["check-cd", "--space", str(path), "--K", "1", "--N", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ConfigError]:") and "Traceback" not in err


def test_malformed_marginals_exit_1(interval_spec, tmp_path, capsys):
    path = tmp_path / "marginals.json"
    for text in ["{", '{"mu1": [1]}', '{"mu0": {"0": "x"}, "mu1": {"1": 1}}']:
        path.write_text(text)
        assert cli.main(["decompose", "--space", interval_spec, "--marginals", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error [ConfigError]: bad marginals:")


@pytest.mark.parametrize("command", ["decompose", "solve-monge"])
def test_one_point_space_without_marginals_exits_1(tmp_path, command, capsys):
    path = tmp_path / "point.json"
    path.write_text('{"points": [0], "metric": {"type": "matrix", "data": [[0]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--space", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ConfigError]:") and "zero-mean split" in err


@pytest.mark.parametrize("argv", [
    ["check-cd", "--K", "1", "--N", "2", "--tol", "nan"],
    ["check-cd", "--K", "1", "--N", "2", "--tol", "-1"],
    ["check-mcp", "--K", "1", "--N", "2", "--tol", "nan"],
    ["decompose", "--seed", "5", "--tol", "nan"],
])
def test_nan_or_negative_tol_exits_1(interval_spec, argv, capsys):
    # unchecked, check-cd --tol nan fails the model at margin -1.4e-15, and
    # decompose --tol nan blamed a plan pair excluded from Gamma
    assert cli.main(argv[:1] + ["--space", interval_spec] + argv[1:]) == 1
    assert capsys.readouterr().err.startswith("error [BadParameter]:")
