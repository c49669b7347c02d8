"""`isoperim.empirical_profiles`: one spawned stream per volume, trivial
points at v in {0, 1}, shared by `levy_gromov_check` and `needlekit profile`."""

import json

import numpy as np
import pytest

from needlekit import cli
from needlekit import isoperim as iso
from needlekit import mmspace as ms
from needlekit.errors import BadVolume


def _interval():
    return ms.generate_interval_model(1.0, 2.0, np.pi, 200)[0]


def test_points_run_on_spawned_streams_and_feed_the_levy_gromov_rows():
    sp = _interval()
    grid = [0.0, 0.3, 0.5, 1.0]
    points = iso.empirical_profiles(sp, grid, np.random.default_rng(4), candidate_budget=8)
    streams = np.random.default_rng(4).spawn(len(grid))
    for i in (1, 2):
        assert points[i] == iso.empirical_profile(sp, grid[i], 8, streams[i])
    for i in (0, 3):
        assert points[i] == iso.ProfilePoint(v=grid[i], content=0.0, requested_v=grid[i])
    spec = iso.ModelProfileSpec(1.0, 2.0, np.pi)
    rep = iso.levy_gromov_check(sp, spec, grid, candidate_budget=8, rng=np.random.default_rng(4))
    for p, row in zip(points, rep["rows"]):
        assert (row["v"], row["v_attained"], row["empirical"], row["candidate"],
                row["mass_defect"]) == (p.requested_v, p.v, p.content, p.candidate, p.mass_defect)
        assert row["model"] == iso.model_profile(spec, p.v)
    assert [r["allowance"] == 0.0 for r in rep["rows"]] == [True, False, False, True]


@pytest.mark.parametrize("v", [-0.1, 1.5])
def test_volume_outside_the_unit_interval(v):
    with pytest.raises(BadVolume):
        iso.empirical_profiles(_interval(), [0.5, v])


def test_profile_seeds_share_no_stream(tmp_path, monkeypatch):
    # every (seed, volume) has its own stream: `profile --seed 0` at its
    # second volume and `--seed 1` at its first must not draw the same candidates
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"metric": {"type": "interval", "K": 0.0, "N": 2.0,
                                           "D": 1.0, "n": 60}}))
    calls = []

    def spy(space, v, candidate_budget=32, rng=None):
        seq = rng.bit_generator.seed_seq
        calls.append((seq.entropy, seq.spawn_key))
        return iso.ProfilePoint(v=v, content=1.0, requested_v=v, candidate="spy")

    monkeypatch.setattr(iso, "empirical_profile", spy)
    for seed in ("0", "1"):
        out = tmp_path / f"profile{seed}.json"
        assert cli.main(["profile", "--space", str(path), "--v-grid", "0,0.3,0.6,1",
                         "--seed", seed, "--out", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        assert [p["candidate"] for p in points] == ["", "spy", "spy", ""]
        assert points[0] == {"v": 0.0, "content": 0.0, "requested_v": 0.0,
                             "mass_defect": 0.0, "candidate": ""}
    assert calls == [(0, (1,)), (0, (2,)), (1, (1,)), (1, (2,))]


@pytest.mark.parametrize("spec, model", [
    ((-1.0, 3.0, 2.0), (-1.0, 3.0, 2.0)),
    ((0.0, 2.0, 1.0), (0.0, 2.0, 1.0)),
    ((1.0, 2.0, 10.0), (1.0, 2.0, np.pi)),       # D above the Bonnet-Myers diameter
    ((2.0, 4.0, 1.0), (2.0, 4.0, 1.0)),
])
def test_levy_gromov_model_column_is_model_profile(spec, model):
    # one family scan serves every attained volume, as if each ran alone
    sp = ms.generate_interval_model(*model, 150)[0]
    spec = iso.ModelProfileSpec(*spec)
    rep = iso.levy_gromov_check(sp, spec, [0.0, 0.2, 0.5, 0.7, 1.0], candidate_budget=4,
                                rng=np.random.default_rng(2))
    for row in rep["rows"]:
        assert row["model"] == iso.model_profile(spec, row["v_attained"])
    assert rep["rows"][0]["model"] == rep["rows"][-1]["model"] == 0.0
