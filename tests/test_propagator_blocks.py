"""Block-diagonal propagation: the blocks of H, seeded draws against a dense oracle."""
import math
import tracemalloc

import numpy as np
import pytest

from helpers import count_sines, expectation
from zqchain.dynamics import (
    InitialPattern,
    Propagator,
    initial_aliphatic,
    initial_xy,
    population_op,
    st2_product_vector,
    t0_label,
)
from zqchain.hamiltonians import (
    AliphaticParams,
    XYParams,
    build_aliphatic_full,
    build_aliphatic_restricted,
    build_xy,
)
from zqchain.spinops import (
    Operator,
    ProjectorSum,
    label_index,
    lift,
    parse_label,
    single_spin_op,
    site_bits,
    total_Iz,
)

DT = 0.005
STEPS = 300
TOL = 1e-12


def dense_series(h, rho0, obs, dt, steps):
    """Tr(O rho(t)) from one eigh of the unpermuted dense H: no blocks."""
    energies, v = np.linalg.eigh(h.entries)

    def in_eigenbasis(op):
        if isinstance(op, ProjectorSum):
            a = v.conj().T @ op.vectors
            return (a * op.weights) @ a.conj().T
        return v.conj().T @ op.entries @ v

    bilinear = in_eigenbasis(rho0) * in_eigenbasis(obs).T
    p = np.exp(-2j * np.pi * np.outer(np.arange(steps + 1) * dt, energies))
    return np.einsum("tj,jk,tk->t", p, bilinear, p.conj()).real


def sites_of(rng, n):
    return sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n + 1),
                             replace=False).tolist())


def xy_draws(rng):
    for n in range(2, 9):
        j = rng.uniform(1.0, 8.0) * rng.choice([-1.0, 1.0])
        yield n, j, sites_of(rng, n)


def aliphatic_draws(rng, ns):
    for n in ns:
        j_gem = rng.uniform(4.0, 16.0) * rng.choice([-1.0, 1.0])
        params = AliphaticParams.from_deltas(n, j_gem, rng.uniform(-8.0, 8.0),
                                             rng.uniform(-10.0, 10.0))
        sites = sites_of(rng, n)
        yield params, sites, rng.choice([1.0, -1.0], size=len(sites))


def iz(site, n):
    return lift(single_spin_op("z"), site, n)


def test_xy_series_matches_the_dense_oracle_and_conserves_iz():
    rng = np.random.default_rng(1401)
    # fig6d's pattern last: rho0 is zero on the |aaaa> and |bbbb> blocks
    for n, j, flips in [*xy_draws(rng), (4, 5.0, [1, 2])]:
        h = build_xy(XYParams(n, j))
        rho0 = initial_xy(InitialPattern(n, frozenset(flips)))
        prop = Propagator(h, rho0)
        for obs in [iz(i, n) for i in range(1, n + 1)] + [total_Iz(n), h]:
            values = prop.series(obs, DT, STEPS).values
            assert np.max(np.abs(values - dense_series(h, rho0, obs, DT, STEPS))) < TOL
        drift = prop.series(total_Iz(n), DT, STEPS).values
        assert np.max(np.abs(drift - drift[0])) < TOL


def test_xy_series_is_mirror_symmetric():
    rng = np.random.default_rng(1402)
    for n, j, flips in xy_draws(rng):
        h = build_xy(XYParams(n, j))
        prop = Propagator(h, initial_xy(InitialPattern(n, frozenset(flips))))
        mirror = Propagator(h, initial_xy(
            InitialPattern(n, frozenset(n + 1 - s for s in flips))))
        for i in range(1, n + 1):
            a = prop.series(iz(i, n), DT, STEPS).values
            b = mirror.series(iz(n + 1 - i, n), DT, STEPS).values
            assert np.max(np.abs(a - b)) < TOL


def _parity(n):
    return Operator(np.diag((-1.0) ** site_bits(n).sum(axis=1)), f"st2:{n}")


@pytest.mark.parametrize("full_space,ns", [(False, range(2, 9)), (True, (2, 3, 4))])
def test_aliphatic_series_matches_the_dense_oracle(full_space, ns):
    rng = np.random.default_rng(1403 + full_space)
    for params, sites, signs in aliphatic_draws(rng, ns):
        n = params.n
        build = build_aliphatic_full if full_space else build_aliphatic_restricted
        h = build(params)
        rho0 = initial_aliphatic(InitialPattern(n, frozenset(sites)), signs,
                                 full_space)
        prop = Propagator(h, rho0)
        observables = [population_op(t0_label(n, s), full_space)
                       for s in range(1, n + 1)]
        observables += [h, total_Iz(2 * n) if full_space else _parity(n)]
        for obs in observables:
            values = prop.series(obs, DT, STEPS).values
            assert np.max(np.abs(values - dense_series(h, rho0, obs, DT, STEPS))) < TOL
        # total I_z (full engine) and excitation parity (restricted) stay put
        drift = prop.series(observables[-1], DT, STEPS).values
        assert np.max(np.abs(drift - drift[0])) < TOL


def test_restricted_series_is_mirror_symmetric():
    rng = np.random.default_rng(1405)
    for params, sites, signs in aliphatic_draws(rng, range(2, 9)):
        n = params.n
        h = build_aliphatic_restricted(params)
        prop = Propagator(h, initial_aliphatic(
            InitialPattern(n, frozenset(sites)), signs))
        # initial_aliphatic takes the signs by ascending site
        mirror = Propagator(h, initial_aliphatic(
            InitialPattern(n, frozenset(n + 1 - s for s in sites)), signs[::-1]))
        for i in range(1, n + 1):
            a = prop.series(population_op(t0_label(n, i)), DT, STEPS).values
            b = mirror.series(population_op(t0_label(n, n + 1 - i)),
                              DT, STEPS).values
            assert np.max(np.abs(a - b)) < TOL


def test_full_engine_single_t0_dynamics_ignore_sum_j():
    rng = np.random.default_rng(1406)
    for params, sites, signs in aliphatic_draws(rng, (2, 3, 4)):
        n = params.n
        rho0 = initial_aliphatic(InitialPattern(n, frozenset(sites)), signs, True)
        obs = population_op(t0_label(n, n), full_space=True)
        series = []
        for sum_j in (params.sum_j, 0.0, rng.uniform(-20.0, 20.0)):
            h = build_aliphatic_full(AliphaticParams.from_deltas(
                n, params.j_gem, params.delta_j, sum_j))
            series.append(Propagator(h, rho0).series(obs, DT, STEPS).values)
        for other in series[1:]:
            assert np.max(np.abs(other - series[0])) < TOL


def _total(axis, n):
    return Operator(sum(lift(single_spin_op(axis), i, n).entries
                        for i in range(1, n + 1)), f"ab:{n}")


def test_operands_with_entries_between_blocks_match_evolve():
    n = 4
    h = build_xy(XYParams(n, 5.0))
    ix2 = lift(single_spin_op("x"), 2, n)
    # |aa><bb| + |bb><aa| joins the first and last blocks of n = 2 only,
    # so the series is summed over the whole space
    dq = np.zeros((4, 4))
    dq[0, 3] = dq[3, 0] = 1.0
    cases = [
        (h, _total("x", n), ix2),
        (h, initial_xy(InitialPattern(n, frozenset({1}))), ix2),
        (h, _total("x", n), total_Iz(n)),
        (build_xy(XYParams(2, 5.0)),
         Operator(dq + np.diag([0.5, 0.0, 0.0, -0.5]), "ab:2"), Operator(dq, "ab:2")),
        # rho0 = 0 touches no block: an empty phase table, a zero series
        (h, Operator(np.zeros((2 ** n, 2 ** n)), f"ab:{n}"), ix2),
    ]
    for ham, rho0, obs in cases:
        p = Propagator(ham, rho0)
        traj = p.series(obs, 0.01, 60)
        expected = [expectation(obs, p.evolve(t)) for t in traj.times]
        assert np.max(np.abs(traj.values - expected)) < TOL
    ((cos, sin),) = p._phases[1]  # the last case's one kept row block
    assert p.energies.shape == (0,) and cos.shape == sin.shape == (61, 0)
    assert not np.any(traj.values) and not np.any(p.evolve(0.3).entries)
    # the I_x signal is not trivially zero
    signal = Propagator(h, _total("x", n)).series(ix2, 0.01, 60).values
    assert np.max(np.abs(signal)) > 0.1


def test_the_phase_table_spans_only_the_modes_of_rho0s_blocks(monkeypatch):
    sines = count_sines(monkeypatch)
    # single-T0 rho0: 8 of 16 modes at restricted n = 4, 8 of 64 at full n = 3
    for build, n, full_space, dim in ((build_aliphatic_restricted, 4, False, 16),
                                      (build_aliphatic_full, 3, True, 64)):
        h = build(AliphaticParams(n, -14.0, 7.5, 2.5))
        rho0 = initial_aliphatic(InitialPattern(n, frozenset({1})), [1.0],
                                 full_space)
        prop = Propagator(h, rho0)
        modes = sum(len(rows) for rows, *_ in prop._rho0_blocks)
        assert (modes, len(prop.energies), prop.dim) == (8, 8, dim)
        sines.clear()
        for obs in (population_op(t0_label(n, n), full_space), h):
            values = prop.series(obs, DT, STEPS).values
            assert np.max(np.abs(values - dense_series(h, rho0, obs, DT, STEPS))) < TOL
        # both series, amplitude and bilinear form, read one table of them
        assert sum(sines) == (STEPS + 1) * modes


def _ket(text):
    vec = np.zeros(2 ** len(text))
    vec[label_index(parse_label(text, "ab"))] = 1.0
    return vec


def _coherence(bra, ket):
    """|bra><ket| + |ket><bra| on the XY space."""
    a, b = _ket(bra), _ket(ket)
    return np.outer(a, b) + np.outer(b, a)


def test_a_projector_term_spanning_blocks_matches_the_dense_oracle():
    n = 4
    h = build_xy(XYParams(n, 5.0))
    tag = f"ab:{n}"
    # one term spans the first and last blocks, one sits in the one-flip block
    ghz = (_ket("aaaa") + _ket("bbbb")) / np.sqrt(2)
    rho0 = ProjectorSum([1.0, -1.0], np.stack([ghz, _ket("baaa")], axis=1), tag)
    population = ProjectorSum([1.0, 1.0],
                              np.stack([_ket("aaaa"), _ket("abaa")], axis=1), tag)
    # only an operand with entries between the same blocks reads the GHZ
    # coherence, so the third observable needs it in rho0's eigenbasis form
    joined = Operator(iz(2, n).entries + _coherence("aaaa", "bbbb"), tag)
    prop = Propagator(h, rho0)
    for obs in (population, iz(2, n), joined):  # amplitude, bilinear forms
        values = prop.series(obs, DT, STEPS).values
        assert np.max(np.abs(values - dense_series(h, rho0, obs, DT, STEPS))) < TOL
        assert np.ptp(values) > 0.1


def test_a_dense_operand_joining_two_of_several_blocks_matches_the_dense_oracle():
    n = 4
    h = build_xy(XYParams(n, 5.0))
    # coherences between the one-flip and three-flip blocks only
    rho0 = Operator(initial_xy(InitialPattern(n, frozenset({1}))).entries
                    + _coherence("baaa", "bbba"), f"ab:{n}")
    prop = Propagator(h, rho0)
    # rho0 joins the one-flip and three-flip sectors into one block
    assert prop.block_sizes == (1, 8, 6, 1)
    for obs in (Operator(_coherence("abaa", "abbb"), f"ab:{n}"), iz(3, n)):
        values = prop.series(obs, DT, STEPS).values
        assert np.max(np.abs(values - dense_series(h, rho0, obs, DT, STEPS))) < TOL
        assert np.ptp(values) > 0.1


def test_block_sizes_are_the_conserved_sectors():
    # any rho0 will do for H's blocks: each propagator takes H itself
    xy = build_xy(XYParams(9, 5.0))
    assert Propagator(xy, xy).block_sizes == tuple(
        math.comb(9, k) for k in range(10))
    h = build_aliphatic_restricted(AliphaticParams(10, -14.0, 7.5, 2.5))
    assert Propagator(h, h).block_sizes == (512, 512)
    h = build_aliphatic_full(AliphaticParams(3, -14.0, 7.5, 2.5))
    full = Propagator(h, h)
    assert sum(full.block_sizes) == 64
    # rho0 = H touches every block of H, so every block is kept
    kept = [rows for rows, *_ in full._rho0_blocks]
    assert tuple(map(len, kept)) == full.block_sizes
    assert len(full.energies) == 64
    support = set(np.flatnonzero(np.any(
        [st2_product_vector(t0_label(3, s)) for s in (1, 2, 3)], axis=0)).tolist())
    (block,) = [set(rows.tolist()) for rows in kept
                if support & set(rows.tolist())]
    assert block == support and len(block) == 2 ** 3
    with pytest.raises(AttributeError):
        full.block_sizes = ()


def _retained_bytes(h, rho0):
    """Bytes a Propagator of (h, rho0) keeps alive once built."""
    Propagator(h, rho0)  # so that one-time lazy allocations are not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prop = Propagator(h, rho0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return prop, retained


def test_a_propagator_retains_no_dim_by_dim_array():
    n = 4
    h = build_aliphatic_full(AliphaticParams(n, -14.0, 7.5, 2.5))
    rho0 = initial_aliphatic(InitialPattern(n, frozenset({1, 3})), [1.0, -1.0],
                             full_space=True)
    prop, retained = _retained_bytes(h, rho0)
    assert prop.dim == 256 and len(prop.block_sizes) == 81
    # one real dim x dim array alone is four times this bound
    assert retained < prop.dim ** 2 * 8 / 4

    # a ProjectorSum rho0 is kept as V_k^H a, not as V_k^H rho0 V_k
    n = 8
    h = build_aliphatic_restricted(AliphaticParams(n, -14.0, 7.5, 2.5))
    rho0 = initial_aliphatic(InitialPattern(n, frozenset({1, 3, 6})),
                             [1.0, -1.0, 1.0])
    prop, retained = _retained_bytes(h, rho0)
    (d_k,) = [len(rows) for rows, *_ in prop._rho0_blocks]
    assert prop.block_sizes == (128, 128) and d_k == 128
    # the block's real modes V_k are d_k^2 doubles; all else is under half that
    assert retained < 1.5 * d_k ** 2 * 8


def test_propagator_makes_one_whole_matrix_eigh(monkeypatch):
    shapes = []
    real_eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    prop = Propagator(build_xy(XYParams(6, 5.0)),
                      initial_xy(InitialPattern(6, frozenset({1}))))
    assert shapes == [(64, 64)]
    assert len(prop.block_sizes) == 7


def test_a_mode_spanning_two_blocks_is_refused(monkeypatch):
    # n = 2 XY: |aa> and |bb> are one-state blocks, both at energy 0
    h = build_xy(XYParams(2, 5.0))
    real_eigh = np.linalg.eigh

    def rotated(a, *args, **kwargs):
        energies, modes = real_eigh(a, *args, **kwargs)
        i, j = np.flatnonzero(energies == 0.0)
        pair = modes[:, [i, j]] @ (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
        modes[:, [i, j]] = pair
        return energies, modes
    monkeypatch.setattr(np.linalg, "eigh", rotated)
    with pytest.raises(ValueError, match="outside its block"):
        Propagator(h, initial_xy(InitialPattern(2, frozenset({1}))))
