import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import rays as ry
from needlekit import w1solve as w1
from needlekit.errors import MassMismatch
from needlekit.selftest import _grid_construction
from monge_oracle import condition_and_assemble, quantile_pairs
from ssp_oracle import ssp_cost
from test_decompose import _cap, _cloud, _grid, _line


def test_translation_pair():
    mono = mg.monotone_rearrangement([(0.0, 0.5), (1.0, 0.5)], [(2.0, 0.5), (3.0, 0.5)])
    assert mono.cost == pytest.approx(2.0, abs=1e-12)
    assert mono.is_map
    pairs = {(i, j) for i, j, m in mono.assignment if m > 0}
    assert pairs == {(0, 0), (1, 1)}


def test_identity_coupling():
    atoms = [(0.3, 0.25), (0.7, 0.75)]
    mono = mg.monotone_rearrangement(atoms, atoms)
    assert mono.cost == 0.0
    assert mono.is_map


def test_uniform_to_half_grid():
    # oracle: CDF inversion H(s) = s, F(t) = 2t gives the map s -> s/2
    n = 200
    src = [(s, 1.0 / n) for s in np.linspace(0, 1, n)]
    tgt = [(t, 1.0 / n) for t in np.linspace(0, 0.5, n)]
    mono = mg.monotone_rearrangement(src, tgt)
    worst = 0.0
    for i, j, m in mono.assignment:
        if m > 0:
            worst = max(worst, abs(mono.target_pos[j] - mono.source_pos[i] / 2))
    assert worst <= 1.0 / n + 1e-12


def test_mass_mismatch():
    with pytest.raises(MassMismatch):
        mg.monotone_rearrangement([(0.0, 0.5)], [(1.0, 0.75)])


@pytest.mark.parametrize("source, target", [
    ([(0.0, np.nan)], [(1.0, 0.5)]), ([(np.nan, 0.5)], [(1.0, 0.5)]),
    ([(0.0, 0.5)], [(np.inf, 0.5)]), ([(0.0, 0.5), (1.0, np.inf)], [(1.0, np.inf)])],
    ids=["nan-mass", "nan-position", "inf-position", "inf-mass"])
def test_nonfinite_atom_is_a_mass_mismatch(source, target):
    # a NaN mass raised a bare ValueError, and a NaN position was coupled
    with pytest.raises(MassMismatch, match="must be finite"):
        mg.monotone_rearrangement(source, target)


def test_total_beyond_exact_units_is_a_mass_mismatch():
    # MASS_SCALE units of a total above 2**53 / MASS_SCALE are not exact integers
    # in floating point, and past 2**63 / MASS_SCALE they overflow int64
    atoms = [(0.0, 50.0), (1.0, 50.0)]
    with pytest.raises(MassMismatch, match="total mass 100.0 above"):
        mg.monotone_rearrangement(atoms, atoms)


def test_no_crossings():
    rng = np.random.default_rng(0)
    src = [(float(p), float(m)) for p, m in zip(rng.random(50), rng.random(50) + 0.1)]
    tot = sum(m for _, m in src)
    tgt = [(float(p), float(m)) for p, m in zip(rng.random(40), rng.random(40) + 0.1)]
    scale = tot / sum(m for _, m in tgt)
    tgt = [(p, m * scale) for p, m in tgt]
    mono = mg.monotone_rearrangement(src, tgt)
    last_j = -1
    for i, j, m in mono.assignment:
        assert j >= last_j
        last_j = j


def test_1d_optimality_against_cdf_and_flow():
    # the rearrangement cost must match the W1 identity int |H - F| and the
    # independent flow solver on the same instance
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 60
        space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, n)
        a = rng.random(n) + 1e-3
        b = rng.random(n) + 1e-3
        a /= a.sum()
        b /= b.sum()
        t = space.line_coord
        mono = mg.monotone_rearrangement(list(zip(t, a)), list(zip(t, b)))
        # exact CDF oracle: |F0 - F1| is constant on the gaps between atoms
        F0 = np.cumsum(a)[:-1]
        F1 = np.cumsum(b)[:-1]
        w1_cdf = float(np.abs(F0 - F1) @ np.diff(t))
        assert mono.cost == pytest.approx(w1_cdf, abs=1e-9)
        assert mono.cost == pytest.approx(ssp_cost(space.D, a, b), abs=1e-9)


def test_tie_breaking_invariance():
    rng = np.random.default_rng(1)
    pos = rng.random(30)
    mass = rng.random(30) + 0.1
    mass /= mass.sum()
    src = list(zip(pos, mass))
    tgt = list(zip(pos + 0.5, mass))
    c1 = mg.monotone_rearrangement(src, tgt).cost
    perm = rng.permutation(30)
    c2 = mg.monotone_rearrangement([src[i] for i in perm], [tgt[i] for i in perm]).cost
    assert c1 == pytest.approx(c2, abs=1e-14)


def _interval_instance(seed, n=400):
    rng = np.random.default_rng(seed)
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, n)
    a = rng.random(n) + 1e-3
    b = rng.random(n) + 1e-3
    a /= a.sum()
    b /= b.sum()
    sol = w1.solve_w1(space, a, b)
    g = w1.gamma_set(space, sol, tol=1e-10)
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    return space, sol, dec


def test_assemble_identity():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 64)
    mu = space.weights
    sol = w1.solve_w1(space, mu, mu)
    g = w1.gamma_set(space, sol, tol=1e-12)
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    coupling = mg.assemble_monge_map(space, dec, None, cond)
    assert coupling.cost == 0.0
    assert coupling.is_map


def test_assemble_halves_cost():
    # uniform left half to uniform right half: W1 = mean displacement = 1/2
    n = 1000
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, n)
    t = space.line_coord
    mu0 = np.where(t < 0.5, space.weights, 0.0)
    mu0 /= mu0.sum()
    mu1 = np.where(t >= 0.5, space.weights, 0.0)
    mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol, tol=1e-10)
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    coupling = mg.assemble_monge_map(space, dec, None, cond)
    mesh = space.mesh
    assert coupling.cost == pytest.approx(0.5, abs=2 * mesh)
    assert coupling.cost == pytest.approx(sol.primal_value, abs=1e-9)


def test_assembled_graph_in_gamma():
    space, sol, dec = _interval_instance(7)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    coupling = mg.assemble_monge_map(space, dec, None, cond)
    phi = sol.potential
    tol = 1e-8 * space.max_distance
    for (i, j), m in zip(coupling.pairs, coupling.masses):
        if m > 0 and i != j:
            assert phi[i] - phi[j] >= space.D[i, j] - tol


def test_assemble_cost_matches_solver():
    for seed in range(5):
        space, sol, dec = _interval_instance(seed)
        cond = mg.condition_target_via_plan(dec, sol, space.n)
        coupling = mg.assemble_monge_map(space, dec, None, cond)
        assert coupling.cost == pytest.approx(sol.primal_value,
                                              abs=1e-6 * (1 + sol.primal_value))


def test_assembled_grid_cost_is_the_optimum():
    sp, sol, f, st, dec = _grid_construction()
    cond = mg.condition_target_via_plan(dec, sol, sp.n)
    coupling = mg.assemble_monge_map(sp, dec, None, cond)
    assert coupling.cost == pytest.approx(sol.primal_value, abs=1e-9)


def _split_interval():
    space, sol, dec = _interval_instance(7)
    # a source split across targets puts equal params side by side in a ray
    assert len(np.unique(sol.pairs[:, 0])) < len(sol.pairs)
    return space, sol, dec


def _decomposed(build):
    space, sol = build()
    structure = ry.build_transport_structure(space, w1.gamma_set(space, sol))
    return space, sol, ry.partition_rays(space, structure, sol)


@pytest.mark.parametrize("build", [_line, _cap, _cloud, _grid, None],
                         ids=["line", "cap", "cloud", "grid", "interval-400-split"])
def test_assembly_equals_loop_oracle(build):
    space, sol, dec = _split_interval() if build is None else _decomposed(build)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    mine = mg.assemble_monge_map(space, dec, None, cond)
    ref = condition_and_assemble(space, dec, sol)
    for field in ("pairs", "masses", "per_ray_costs"):
        a, b = getattr(mine, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for field in ("cost", "passthrough_cost", "passthrough_mass"):
        assert float(getattr(mine, field)).hex() == float(getattr(ref, field)).hex()
    assert mine.is_map is ref.is_map


@st.composite
def _equal_total_units(draw):
    """Two int64 unit vectors with equal totals. Zero atoms are inserted at
    drawn positions, ends included; vectors of length 1 occur."""
    u0 = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=12))
    total = sum(u0)
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=11)))
    u1 = np.diff([0, *cuts, total])
    return [np.insert(np.asarray(u, np.int64), draw(st.lists(st.integers(0, len(u)), max_size=3)), 0)
            for u in (u0, u1)]


@settings(max_examples=300, deadline=None)
@given(_equal_total_units())
@example([np.array([7], np.int64), np.array([7], np.int64)])
@example([np.array([0, 4, 0, 3, 0], np.int64), np.array([0, 0, 7, 0], np.int64)])
def test_sweep_equals_loop_oracle(units):
    u0, u1 = units
    got = w1._quantile_pairs(u0, u1)
    assert got.dtype == np.int64 and got.shape == (len(got), 3)
    assert got.tolist() == [list(row) for row in quantile_pairs(u0, u1)]


def _union_pairs(units0, units1):
    """The sweep with its cuts taken by np.union1d."""
    c0, c1 = np.cumsum(units0, dtype=np.int64), np.cumsum(units1, dtype=np.int64)
    top = min(c0[-1], c1[-1]) if len(c0) and len(c1) else 0
    cuts = np.union1d(c0, c1)
    cuts = cuts[(cuts > 0) & (cuts <= top)]
    return np.stack([np.searchsorted(c0, cuts), np.searchsorted(c1, cuts),
                     np.diff(cuts, prepend=0)], axis=1).astype(np.int64, copy=False)


_UNITS = st.lists(st.integers(0, 10**12) | st.just(0), max_size=40).map(
    lambda u: np.asarray(u, np.int64))


@settings(max_examples=300, deadline=None)
@given(_UNITS, _UNITS)
@example(np.zeros(0, np.int64), np.zeros(0, np.int64))
@example(np.zeros(0, np.int64), np.array([3, 4], np.int64))
@example(np.zeros(3, np.int64), np.zeros(2, np.int64))
@example(np.array([0, 5, 0, 5], np.int64), np.array([5, 0, 5, 0, 0], np.int64))
def test_sweep_cuts_equal_union1d(u0, u1):
    # the cuts are merged by a stable sort and a neighbour test, bit for bit;
    # lists of unequal totals, empty and zero-atom lists included
    got, want = w1._quantile_pairs(u0, u1), _union_pairs(u0, u1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10**6))
def test_rearrangement_marginals_exact(ns, nt, seed):
    rng = np.random.default_rng(seed)
    src = list(zip(rng.random(ns), rng.random(ns) + 0.05))
    tot = sum(m for _, m in src)
    tgt_m = rng.random(nt) + 0.05
    tgt_m *= tot / tgt_m.sum()
    tgt = list(zip(rng.random(nt), tgt_m))
    mono = mg.monotone_rearrangement(src, tgt)
    out_s = np.zeros(ns, dtype=np.int64)
    out_t = np.zeros(nt, dtype=np.int64)
    for i, j, m in mono.assignment:
        out_s[i] += m
        out_t[j] += m
    assert np.array_equal(out_s, mono.source_units)
    assert np.array_equal(out_t, mono.target_units)
