"""Propagation: closed-form checks, conservation, engine equivalence."""
import threading

import numpy as np
import pytest

from zqchain import dynamics
from zqchain.config import (
    MAX_FULL_DIM,
    MAX_RESTRICTED_DIM,
    MAX_STEPS,
    ScenarioConfig,
    validate,
)
from zqchain.dynamics import (
    PHASE_CACHE,
    SERIES_BLOCK,
    InitialPattern,
    Propagator,
    Trajectory,
    format_trajectory_csv,
    initial_aliphatic,
    initial_xy,
    linear_fit_r2,
    observe_series,
    phase_plan,
    population_op,
    wavefront_arrival,
)
from zqchain.hamiltonians import (
    AliphaticParams,
    XYParams,
    build_aliphatic_full,
    build_aliphatic_restricted,
    build_xy,
)
from zqchain.pipeline import run_simulate
from zqchain.spinops import (
    Operator,
    ProjectorSum,
    expectation,
    lift,
    parse_label,
    product_labels,
    single_spin_op,
    total_Iz,
)

DT = 0.005


def iz_site(i, n):
    return lift(single_spin_op("z"), i, n)


def test_initial_xy_site_readings():
    rho = initial_xy(InitialPattern(4, frozenset({1})))
    assert expectation(iz_site(1, 4), rho) == pytest.approx(-0.5)
    for i in (2, 3, 4):
        assert expectation(iz_site(i, 4), rho) == pytest.approx(0.5)
    assert np.trace(rho.entries) == pytest.approx(0.0, abs=1e-14)


def test_initial_xy_two_flips():
    rho = initial_xy(InitialPattern(4, frozenset({1, 2})))
    assert expectation(iz_site(1, 4), rho) == pytest.approx(-0.5)
    assert expectation(iz_site(2, 4), rho) == pytest.approx(-0.5)
    assert expectation(iz_site(3, 4), rho) == pytest.approx(0.5)


def test_initial_xy_no_flips_is_conserved():
    n = 3
    rho = initial_xy(InitialPattern(n, frozenset()))
    h = build_xy(XYParams(n, 5.0))
    for i in range(1, n + 1):
        traj = observe_series(h, rho, iz_site(i, n), DT, 200)
        assert np.max(np.abs(traj.values - traj.values[0])) < 1e-12


def test_initial_pattern_validation():
    with pytest.raises(ValueError):
        InitialPattern(3, frozenset({0}))
    with pytest.raises(ValueError):
        InitialPattern(3, frozenset({4}))


def test_initial_aliphatic_structure():
    # +P(T0 S0 S0 S0) +P(S0 T0 S0 S0) +P(S0 S0 T0 S0) -P(S0 S0 S0 T0)
    rho = initial_aliphatic(InitialPattern(4, frozenset({1, 2, 3, 4})),
                            [1, 1, 1, -1])
    expected = np.zeros((16, 16))
    for site, sign in zip((1, 2, 3, 4), (1, 1, 1, -1)):
        idx = 15 ^ (1 << (4 - site))
        expected[idx, idx] = sign
    assert np.allclose(rho.entries, expected)


def test_initial_aliphatic_two_site_pattern():
    rho = initial_aliphatic(InitialPattern(4, frozenset({3, 4})), [1, 1])
    assert np.trace(rho.entries).real == pytest.approx(2.0)
    assert np.count_nonzero(np.diag(rho.entries)) == 2


def test_initial_aliphatic_single_term_is_projector():
    rho = initial_aliphatic(InitialPattern(3, frozenset({2})), [1])
    p = rho.entries
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.trace(p).real == pytest.approx(1.0)


def test_initial_aliphatic_sign_count_mismatch():
    with pytest.raises(ValueError):
        initial_aliphatic(InitialPattern(4, frozenset({1, 2})), [1])


def test_population_op_examples():
    lab = parse_label("T0S0S0S0", "st2")
    p = population_op(lab)
    assert np.trace(p.entries).real == pytest.approx(1.0)
    assert np.count_nonzero(p.entries) == 1
    assert np.max(np.abs(p.entries @ p.entries - p.entries)) < 1e-14


def test_population_expectation_on_inverted_term():
    rho = initial_aliphatic(InitialPattern(4, frozenset({1, 2, 3, 4})),
                            [1, 1, 1, -1])
    p = population_op(parse_label("S0S0S0T0", "st2"))
    assert expectation(p, rho) == pytest.approx(-1.0)


def test_propagate_t0_identity():
    h = build_xy(XYParams(3, 5.0))
    rho0 = initial_xy(InitialPattern(3, frozenset({1})))
    rho_t = Propagator(h, rho0).evolve(0.0)
    assert np.max(np.abs(rho_t.entries - rho0.entries)) < 1e-14


def test_propagate_preserves_trace_and_spectrum():
    h = build_xy(XYParams(3, 5.0))
    rho0 = initial_xy(InitialPattern(3, frozenset({1})))
    prop = Propagator(h, rho0)
    for t in (0.1, 1.7, 12.0):
        rho_t = prop.evolve(t)
        assert np.trace(rho_t.entries).real == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(np.linalg.eigvalsh(rho_t.entries)
                             - np.linalg.eigvalsh(rho0.entries))) < 1e-10


def test_two_spin_flip_flop_closed_form():
    """<I_1z(t)> = -(1/2) cos(2 pi J t) for the two-spin exchange."""
    j = 5.0
    h = build_xy(XYParams(2, j))
    rho0 = initial_xy(InitialPattern(2, frozenset({1})))
    traj = observe_series(h, rho0, iz_site(1, 2), DT, 400)
    expected = -0.5 * np.cos(2 * np.pi * j * traj.times)
    assert np.max(np.abs(traj.values - expected)) < 1e-12


def test_flip_flop_first_zero_crossing():
    h = build_xy(XYParams(2, 5.0))
    rho0 = initial_xy(InitialPattern(2, frozenset({1})))
    traj = observe_series(h, rho0, iz_site(1, 2), DT, 400)
    crossing = np.nonzero(traj.values >= 0)[0][0] * DT
    assert crossing == pytest.approx(1 / (4 * 5.0), abs=DT)


def test_against_single_particle_propagator_oracle():
    """Site polarizations reduce exactly to the one-particle propagator:
    <I_jz(t)> = 1/2 - |<j| exp(-i 2 pi h1 t) |1>|^2  with h1 the n x n
    hopping matrix (diagonal 0, off-diagonal J/2)."""
    n, j = 6, 5.0
    h = build_xy(XYParams(n, j))
    rho0 = initial_xy(InitialPattern(n, frozenset({1})))
    h1 = (j / 2) * (np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
    e1, v1 = np.linalg.eigh(h1)
    steps = 400
    tt = np.arange(steps + 1) * DT
    for site in (1, 3, 6):
        traj = observe_series(h, rho0, iz_site(site, n), DT, steps)
        amp = (v1[site - 1, :] * v1[0, :]) @ np.exp(
            -2j * np.pi * np.outer(e1, tt))
        assert np.max(np.abs(traj.values - (0.5 - np.abs(amp) ** 2))) < 1e-10


def test_total_iz_series_constant():
    n = 8
    h = build_xy(XYParams(n, 5.0))
    rho0 = initial_xy(InitialPattern(n, frozenset({1})))
    traj = observe_series(h, rho0, total_Iz(n), DT, 400)
    assert traj.values[0] == pytest.approx(3.0)
    assert np.max(np.abs(traj.values - traj.values[0])) < 1e-10


def test_total_iz_conserved_under_pair_chain_hamiltonian():
    p = AliphaticParams(2, -14.0, 7.5, 2.5)
    h = build_aliphatic_full(p)
    rho0 = initial_xy(InitialPattern(4, frozenset({1})))  # generic deviation
    traj = observe_series(h, rho0, total_Iz(4), DT, 400)
    assert np.max(np.abs(traj.values - traj.values[0])) < 1e-10


def test_energy_conserved():
    h = build_xy(XYParams(4, 5.0))
    rho0 = initial_xy(InitialPattern(4, frozenset({1})))
    traj = observe_series(h, rho0, h, DT, 400)
    assert np.max(np.abs(traj.values - traj.values[0])) < 1e-10


def test_restricted_and_full_engines_agree():
    for n in (2, 3):
        p = AliphaticParams(n, -14.0, 7.5, 2.5)
        pattern = InitialPattern(n, frozenset(range(1, n + 1)))
        signs = [1.0] * (n - 1) + [-1.0]
        label = parse_label("S0" * (n - 1) + "T0", "st2")

        h_r = build_aliphatic_restricted(p)
        rho_r = initial_aliphatic(pattern, signs)
        obs_r = population_op(label)
        traj_r = observe_series(h_r, rho_r, obs_r, DT, 400)

        h_f = build_aliphatic_full(p)
        rho_f = initial_aliphatic(pattern, signs, full_space=True)
        obs_f = population_op(label, full_space=True)
        traj_f = observe_series(h_f, rho_f, obs_f, DT, 400)
        assert np.max(np.abs(traj_r.values - traj_f.values)) < 1e-8


def test_sum_j_invariance_of_restricted_subspace_dynamics():
    n = 2
    pattern = InitialPattern(n, frozenset({1}))
    label = parse_label("T0S0", "st2")
    series = []
    for sum_j in (0.0, 10.0):
        p = AliphaticParams.from_deltas(n, -14.0, 5.0, sum_j)
        h_f = build_aliphatic_full(p)
        rho_f = initial_aliphatic(pattern, [1.0], full_space=True)
        obs_f = population_op(label, full_space=True)
        series.append(observe_series(h_f, rho_f, obs_f, DT, 300).values)
    assert np.max(np.abs(series[0] - series[1])) < 1e-10


def test_wavefront_inverted_site_arrives_at_zero():
    n = 4
    h = build_xy(XYParams(n, 5.0))
    rho0 = initial_xy(InitialPattern(n, frozenset({1})))
    trajs = [observe_series(h, rho0, iz_site(i, n), DT, 400)
             for i in range(1, n + 1)]
    arrivals = wavefront_arrival(trajs, 0.0)
    assert arrivals[0] == 0.0


def test_wavefront_monotone_at_dip_threshold():
    """The traveling dip reaches sites in order; detected at threshold 0.4
    (below +1/2). Full inversion (threshold 0) happens only near the chain
    ends, so per-site monotonicity needs the dip reading, not the crossing
    through zero."""
    n = 8
    h = build_xy(XYParams(n, 5.0))
    rho0 = initial_xy(InitialPattern(n, frozenset({1})))
    trajs = [observe_series(h, rho0, iz_site(i, n), DT, 4000)
             for i in range(1, n + 1)]
    arrivals = wavefront_arrival(trajs, 0.4)
    assert all(a is not None for a in arrivals)
    assert all(a < b for a, b in zip(arrivals, arrivals[1:]))


def test_wavefront_no_crossing_reported_absent():
    traj = Trajectory(DT, np.full(100, 0.5), "flat")
    assert wavefront_arrival([traj], 0.0) == [None]


def test_wavefront_threshold_range():
    traj = Trajectory(DT, np.zeros(10), "x")
    with pytest.raises(ValueError):
        wavefront_arrival([traj], 0.5)


def test_far_end_arrival_scales_linearly():
    arrivals = []
    ns = range(4, 9)
    for n in ns:
        h = build_xy(XYParams(n, 5.0))
        rho0 = initial_xy(InitialPattern(n, frozenset({1})))
        traj = observe_series(h, rho0, iz_site(n, n), DT, 4000)
        arrivals.append(wavefront_arrival([traj], 0.0)[0])
    assert all(a is not None for a in arrivals)
    assert all(a < b for a, b in zip(arrivals, arrivals[1:]))
    _, _, r2 = linear_fit_r2(list(ns), arrivals)
    assert r2 > 0.9


def test_trajectory_csv_format():
    traj = Trajectory(0.005, np.array([0.5, -0.123456789012345]), "site1")
    text = format_trajectory_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t_seconds,value"
    assert lines[1] == "0,0.5"
    assert lines[2] == "0.005,-0.123456789012"


def test_series_rejects_mismatched_operator():
    h = build_xy(XYParams(3, 5.0))
    rho0 = initial_xy(InitialPattern(3, frozenset({1})))
    prop = Propagator(h, rho0)
    with pytest.raises(ValueError):
        prop.series(total_Iz(2), DT, 10)
    with pytest.raises(ValueError):
        Propagator(h, initial_xy(InitialPattern(2, frozenset({1}))))


def _random_projector_case(rng, n, full_space):
    """Random chain couplings, a random signed pattern, a random population."""
    p = AliphaticParams(n, *rng.uniform(-16.0, 16.0, size=3))
    h = build_aliphatic_full(p) if full_space else build_aliphatic_restricted(p)
    sites = sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n + 1),
                              replace=False).tolist())
    rho0 = initial_aliphatic(InitialPattern(n, frozenset(sites)),
                             rng.choice([1.0, -1.0], size=len(sites)),
                             full_space)
    labels = product_labels("st2", n)
    obs = population_op(labels[rng.integers(len(labels))], full_space)
    return h, rho0, obs


@pytest.mark.parametrize("full_space,ns", [(False, (2, 3, 4, 5, 6)),
                                           (True, (2, 3))])
def test_factored_series_matches_series_on_dense_entries(full_space, ns):
    rng = np.random.default_rng(20261018)
    for n in ns:
        for _ in range(3):
            h, rho0, obs = _random_projector_case(rng, n, full_space)
            dense_obs = Operator(obs.entries, obs.basis_tag)
            prop = Propagator(h, rho0)
            dense = Propagator(h, Operator(rho0.entries, rho0.basis_tag))
            reference = dense.series(dense_obs, DT, 300).values
            for p, b in ((prop, obs), (prop, dense_obs), (dense, obs)):
                values = p.series(b, DT, 300).values
                assert np.max(np.abs(values - reference)) < 1e-12
            energy = prop.series(h, DT, 300).values
            assert np.max(np.abs(energy - energy[0])) < 1e-10


def _eigh_dtypes(monkeypatch):
    """Record the dtype of every matrix np.linalg.eigh receives from here on."""
    dtypes = []
    real_eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return real_eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return dtypes


def test_complex_hamiltonian_series_matches_evolved_expectation(monkeypatch):
    n = 3
    iy = sum(lift(single_spin_op("y"), i, n).entries for i in range(1, n + 1))
    h = Operator(build_xy(XYParams(n, 5.0)).entries + 1.3 * iy, "ab:3")
    dtypes = _eigh_dtypes(monkeypatch)
    Propagator(h, h)
    assert dtypes == [np.complex128]
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(2 ** n, 2)) + 1j * rng.normal(size=(2 ** n, 2))
    cases = [
        (initial_xy(InitialPattern(n, frozenset({1}))), iz_site(2, n)),
        (ProjectorSum([1.0, -0.5], vecs, "ab:3"), lift(single_spin_op("x"), 3, n)),
        (ProjectorSum([1.0, -0.5], vecs, "ab:3"),
         ProjectorSum([1.0], vecs[:, :1].conj() + 0.5, "ab:3")),
    ]
    steps = 40
    for rho0, obs in cases:
        prop = Propagator(h, rho0)
        traj = prop.series(obs, 0.01, steps)
        expected = [expectation(Operator(obs.entries, obs.basis_tag),
                                prop.evolve(t)) for t in traj.times]
        assert np.max(np.abs(traj.values - expected)) < 1e-12


def test_series_rejects_non_hermitian_operator():
    n = 2
    h = build_xy(XYParams(n, 5.0))
    rho = initial_xy(InitialPattern(n, frozenset({1})))
    skews = [
        Operator(1j * rho.entries, rho.basis_tag),          # anti-Hermitian
        Operator(np.triu(np.ones((4, 4))), rho.basis_tag),   # real, asymmetric
        Operator(np.full((4, 4), np.nan), rho.basis_tag),    # NaN
    ]
    for skew in skews:
        with pytest.raises(ValueError, match="imaginary residue"):
            Propagator(h, skew).series(iz_site(1, n), DT, 100)
        with pytest.raises(ValueError, match="imaginary residue"):
            Propagator(h, rho).series(skew, DT, 100)


def test_series_rejects_a_step_that_is_not_positive_and_finite():
    n = 2
    h = build_xy(XYParams(n, 5.0))
    prop = Propagator(h, initial_xy(InitialPattern(n, frozenset({1}))))
    for dt in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt > 0"):
            prop.series(iz_site(1, n), dt, 100)


def test_real_engines_propagate_in_float64(monkeypatch):
    n = 3
    dtypes = _eigh_dtypes(monkeypatch)
    for h in (build_xy(XYParams(n, 5.0)),
              build_aliphatic_restricted(AliphaticParams(n, -14.0, 7.5, 2.5)),
              build_aliphatic_full(AliphaticParams(2, -14.0, 7.5, 2.5))):
        assert h.entries.dtype == np.float64
        dtypes.clear()
        Propagator(h, h)
        assert dtypes == [np.float64]
    assert initial_xy(InitialPattern(n, frozenset({1}))).entries.dtype == np.float64
    for full_space in (False, True):
        rho = initial_aliphatic(InitialPattern(n, frozenset({1, 3})), [1, -1],
                                full_space)
        assert isinstance(rho, ProjectorSum)
        assert rho.vectors.dtype == np.float64 and rho.vectors.shape[1] == 2


def _both_forms(n):
    """(H, rho0, observable): bilinear, then amplitude form."""
    xy = (build_xy(XYParams(n, 5.0)),
          initial_xy(InitialPattern(n, frozenset({1}))), iz_site(n, n))
    aliphatic = (build_aliphatic_restricted(AliphaticParams(n, -14.0, 7.5, 2.5)),
                 initial_aliphatic(InitialPattern(n, frozenset({1, n})), [1, -1]),
                 population_op(product_labels("st2", n)[3]))
    return xy, aliphatic


def _count_sines(monkeypatch):
    """Record the size of every np.sin argument from here on."""
    sizes = []
    real_sin = np.sin

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_sin(x, *args, **kwargs)
    monkeypatch.setattr(np, "sin", counted)
    return sizes


def test_series_on_a_new_grid_matches_a_fresh_propagator():
    for h, rho0, obs in _both_forms(4):
        prop = Propagator(h, rho0)
        prop.series(obs, DT, 300)
        for dt, steps in ((0.007, 150), (DT, 301)):
            again = prop.series(obs, dt, steps).values
            fresh = Propagator(h, rho0).series(obs, dt, steps).values
            assert np.array_equal(again, fresh)


def test_phase_table_spanning_kept_and_recomputed_blocks(monkeypatch):
    dim, steps = 16, 100
    monkeypatch.setattr(dynamics, "SERIES_BLOCK", 7 * dim)
    monkeypatch.setattr(dynamics, "PHASE_CACHE", 30 * dim)
    rows, kept = phase_plan(steps, dim)
    assert (rows, kept) == (7, 28)
    sizes = _count_sines(monkeypatch)
    for h, rho0, obs in _both_forms(4):
        prop = Propagator(h, rho0)
        sizes.clear()
        first = prop.series(obs, DT, steps).values
        assert sum(sizes) == (steps + 1) * dim
        for _ in range(2):
            sizes.clear()
            assert np.array_equal(prop.series(obs, DT, steps).values, first)
            # only the rows past the kept blocks are recomputed
            assert sum(sizes) == (steps + 1 - kept) * dim
        assert kept * dim <= dynamics.PHASE_CACHE


def test_kept_phase_table_is_bounded_for_every_grid():
    # arithmetic only: the largest grids here would need tens of GB
    for steps in (0, 1, 4000, 2 ** 20, MAX_STEPS):
        for dim in (1, 2, 16, 512, 1024, MAX_FULL_DIM, MAX_RESTRICTED_DIM,
                    SERIES_BLOCK + 1, PHASE_CACHE + 1):
            rows, kept = phase_plan(steps, dim)
            assert 1 <= rows <= steps + 1
            assert rows == 1 or rows * dim <= SERIES_BLOCK
            assert 0 <= kept <= steps + 1
            assert kept * dim <= PHASE_CACHE  # per table: cos and sin
            assert kept == steps + 1 or kept % rows == 0
    # the default grid is kept whole at the benchmarked dimensions
    for dim in (512, 1024):
        assert phase_plan(4000, dim)[1] == 4001


def test_run_simulate_computes_one_phase_table(monkeypatch):
    cfg = validate(ScenarioConfig(model="xy", n=9, couplings={"J": 5.0},
                                  flips=(1,)))
    sizes = _count_sines(monkeypatch)
    result = run_simulate(cfg)
    # nine sites, total_Iz and H all read the same table
    assert len(result.trajectories) == 9
    assert sum(sizes) == (cfg.steps() + 1) * 2 ** 9


def test_series_interleaved_on_two_grids_match_a_fresh_propagator(monkeypatch):
    # a series on grid A stops part-way, a whole series on grid B runs, then
    # A finishes: the order two threads sharing one propagator may take
    dim, steps = 16, 100
    monkeypatch.setattr(dynamics, "SERIES_BLOCK", 7 * dim)
    monkeypatch.setattr(dynamics, "PHASE_CACHE", 30 * dim)
    h, rho0, obs = _both_forms(4)[0]
    grid_a, grid_b = (DT, steps), (0.007, steps)
    fresh = {g: Propagator(h, rho0).series(obs, *g).values
             for g in (grid_a, grid_b)}
    prop = Propagator(h, rho0)
    form = prop._bilinear_form(obs)
    a = np.empty(steps + 1)
    for k, (start, cos, sin) in enumerate(prop._phase_blocks(*grid_a)):
        a[start:start + len(cos)] = form(cos, sin)
        if k == 1:
            b = prop.series(obs, *grid_b).values
    assert np.array_equal(a, fresh[grid_a])
    assert np.array_equal(b, fresh[grid_b])
    for grid in (grid_a, grid_b, grid_a):
        assert np.array_equal(prop.series(obs, *grid).values, fresh[grid])


def test_propagator_shared_between_threads(monkeypatch):
    monkeypatch.setattr(dynamics, "SERIES_BLOCK", 16 * 64)
    h, rho0, obs = _both_forms(6)[0]
    grids = ((DT, 1000), (0.004, 1000))
    fresh = {g: Propagator(h, rho0).series(obs, *g).values for g in grids}
    prop = Propagator(h, rho0)
    wrong = []

    def sample(grid):
        for _ in range(30):
            if not np.array_equal(prop.series(obs, *grid).values,
                                  fresh[grid]):
                wrong.append(grid)
    threads = [threading.Thread(target=sample, args=(g,)) for g in grids]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not wrong
