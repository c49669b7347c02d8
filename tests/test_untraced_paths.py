"""Branches that the rest of the suite never runs, one parametrized test per module."""

import json

import numpy as np
import pytest

from needlekit import cli
from needlekit import curvature as cv
from needlekit import isoperim as iso
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import selftest as stest
from needlekit import w1solve as w1
from needlekit.errors import BadDiameter, BadParameter, BadVolume, MassMismatch


def _spec(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"metric": {"type": "interval", "K": 0.0, "N": 2.0,
                                           "D": 1.0, "n": 40}}))
    return str(path)


def _cli_sanitize(tmp_path, monkeypatch, capsys):
    got = cli._sanitize({"a": np.array([1.5, np.nan]), "b": (np.float32(np.inf), -np.inf),
                         "c": [np.int64(3), np.bool_(True)]})
    assert got == {"a": [1.5, "nan"], "b": ["inf", "-inf"], "c": [3, True]}
    assert type(got["c"][0]) is int and type(got["b"][0]) is str


def _cli_report_to_stdout(tmp_path, monkeypatch, capsys):
    assert cli.main(["check-cd", "--space", _spec(tmp_path), "--K", "0", "--N", "2",
                     "--samples", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["check"]["verdict"] == "pass" and report["check"]["n_checked"] > 0


def _cli_marginal_of_wrong_length(tmp_path, monkeypatch, capsys):
    marg = tmp_path / "marg.json"
    marg.write_text(json.dumps({"mu0": [1 / 39] * 39, "mu1": [1 / 40] * 40}))
    assert cli.main(["solve-monge", "--space", _spec(tmp_path), "--marginals", str(marg)]) == 1
    assert capsys.readouterr().err.startswith("error [ConfigError]: marginal length")


def _cli_selftest_report(tmp_path, monkeypatch, capsys):
    def stub(name, passed):
        return name, lambda: stest.CriterionResult(name, passed, "stub", 0.0)

    monkeypatch.setattr(stest, "ALL_CRITERIA", [stub("pass", True), stub("fail", False)])
    out = tmp_path / "selftest.json"
    assert cli.main(["selftest", "--out", str(out)]) == cli.EXIT_FAIL
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    assert [(c["name"], c["passed"]) for c in report["criteria"]] == [("pass", True),
                                                                      ("fail", False)]
    assert "[FAIL] fail" in capsys.readouterr().out


CLI = {"sanitize": _cli_sanitize, "stdout": _cli_report_to_stdout,
       "marginal-length": _cli_marginal_of_wrong_length, "selftest-out": _cli_selftest_report}


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli(case, tmp_path, monkeypatch, capsys):
    CLI[case](tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("values, verdict", [(np.full(20, 0.7), True),
                                             (np.linspace(1.0, 2.0, 20), False)])
def test_curvature_mcp_at_N_1_checks_a_constant_density(values, verdict):
    dens = ms.Density1D(np.linspace(0.0, 1.0, 20), values)
    rep = cv.mcp_density_check(dens, 1.0, 1.0, np.zeros((0, 4)))
    assert rep.verdict is verdict and rep.n_checked == 20
    assert rep.reason == (None if verdict else "density not constant (N=1)")


@pytest.mark.parametrize("call, error", [
    (lambda sp: iso.ModelProfileSpec(1.0, 2.0, 0.0), BadDiameter),
    (lambda sp: iso.ModelProfileSpec(1.0, 2.0, -np.inf), BadDiameter),
    (lambda sp: iso.empirical_profile(sp, 0.0), BadVolume),
    (lambda sp: iso.empirical_profile(sp, 1.0), BadVolume),
], ids=["D-zero", "D-negative", "v-zero", "v-one"])
def test_isoperim_rejects(call, error):
    with pytest.raises(error):
        call(ms.generate_interval_model(0.0, 2.0, 1.0, 40)[0])


@pytest.mark.parametrize("case", ["one-point-mesh", "N-1-model-density"])
def test_mmspace(case):
    if case == "one-point-mesh":
        sp = ms.build_space(["x"], {"type": "matrix", "data": [[0.0]]})
        assert sp.n == 1 and sp.mesh == 0.0
    else:
        dens = ms.model_density(1.0, 1.0, 2.0, 9)
        assert np.array_equal(dens.values, np.ones(9)) and dens.integral() == 2.0


@pytest.mark.parametrize("source, target", [
    ([(0.0, 0.5), (1.0, -0.1)], [(2.0, 0.4)]),
    ([(0.0, 0.4)], [(2.0, 0.5), (3.0, -0.1)]),
    ([(0.0, 0.0), (1.0, 0.0)], [(2.0, 0.0)]),
], ids=["negative-source", "negative-target", "zero-total"])
def test_monge1d_rearrangement_edge_atoms(source, target):
    if min(m for _, m in source + target) < 0:
        with pytest.raises(MassMismatch, match="negative atom mass"):
            mg.monotone_rearrangement(source, target)
        return
    mono = mg.monotone_rearrangement(source, target)
    assert mono.cost == 0.0 and mono.is_map
    assert mono.assignment.shape == (0, 3) and len(mono.source_units) == 0
    assert np.array_equal(mono.source_pos, [0.0, 1.0]) and np.array_equal(mono.target_pos, [2.0])


@pytest.mark.parametrize("k", [1, 0, -2])
def test_w1solve_cyclic_monotonicity_needs_two_pairs(k):
    with pytest.raises(BadParameter, match="k must be >= 2"):
        w1.check_cyclic_monotonicity(None, None, k=k)
