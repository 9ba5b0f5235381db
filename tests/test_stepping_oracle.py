"""Propagator against an eigh-free oracle: step the state by one Taylor U.

U = exp(-2 pi i H dt) is built by a Taylor series with scaling and squaring
(Moler and Van Loan 2003), from matrix products alone, so no eigensolver is
shared with the code under test. The oracle steps a dense rho by
rho -> U rho U^H, or each term's vector of a ProjectorSum by psi -> U psi,
and reads every observable at every step. Stepping rounds at each of the
4000 steps; the worst difference measured on these draws is 1.6e-11, in
<H> at n = 3 of the restricted chain.
"""
import numpy as np

from zqchain.dynamics import (
    InitialPattern,
    Propagator,
    initial_aliphatic,
    initial_xy,
    population_op,
    t0_label,
)
from zqchain.hamiltonians import (
    AliphaticParams,
    XYParams,
    build_aliphatic_full,
    build_aliphatic_restricted,
    build_xy,
)
from zqchain.spinops import ProjectorSum, lift, single_spin_op, total_Iz

DT = 0.005
STEPS = 4000  # the default 20 s horizon
TOL = 1e-10
TAYLOR_DEGREE = 18  # remainder below 2^-18 / 18! ~ 6e-22 once ||A||_1 <= 1/2


def taylor_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(A), A = -2 pi i H dt: scale A by 2^-s to 1-norm <= 1/2, sum the
    Taylor series, then square s times.

    A last Newton-Schulz step, U (3 - U^H U) / 2, brings U^H U to the identity
    within roundoff (4e-16 against 5e-15 at dimension 64), so the stepped
    state keeps its norm: without it, <H> drifts by ~1e-10 over 4000 steps.
    """
    a = -2j * np.pi * dt * h
    norm = np.max(np.sum(np.abs(a), axis=0))
    s = max(0, int(np.ceil(np.log2(2 * norm)))) if norm > 0 else 0
    a = a / 2 ** s
    u = term = np.eye(len(a), dtype=complex)
    for k in range(1, TAYLOR_DEGREE + 1):
        term = term @ a / k
        u = u + term
    for _ in range(s):
        u = u @ u
    return u @ (3 * np.eye(len(u)) - u.conj().T @ u) / 2


def stepped_series(h, rho0, observables, dt, steps) -> np.ndarray:
    """Tr(O_m rho(k dt)) for every observable m and step k, shape (m, steps+1)."""
    u = taylor_propagator(h.entries, dt)
    ops = np.stack([o.entries for o in observables])
    out = np.empty((len(observables), steps + 1))
    if isinstance(rho0, ProjectorSum):
        psi = rho0.vectors.astype(complex)
        for k in range(steps + 1):
            # sum_m w_m <psi_m|O|psi_m>
            out[:, k] = ((psi.conj() * (ops @ psi)).sum(axis=1).real
                         @ rho0.weights)
            psi = u @ psi
        return out
    rho = rho0.entries.astype(complex)
    for k in range(steps + 1):
        out[:, k] = np.einsum("oij,ji->o", ops, rho).real
        rho = u @ rho @ u.conj().T
    return out


def _sites(rng, n, most):
    return sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, most + 1),
                             replace=False).tolist())


def _xy_case(rng, n):
    h = build_xy(XYParams(n, rng.uniform(1.0, 8.0) * rng.choice([-1.0, 1.0])))
    # flipping every site gives -total I_z, which H conserves: flip fewer
    rho0 = initial_xy(InitialPattern(n, frozenset(_sites(rng, n, n - 1))))
    observables = [lift(single_spin_op("z"), i, n) for i in range(1, n + 1)]
    return h, rho0, observables + [total_Iz(n), h]


def _aliphatic_case(rng, n, full_space):
    params = AliphaticParams.from_deltas(
        n, rng.uniform(4.0, 16.0) * rng.choice([-1.0, 1.0]),
        rng.uniform(-8.0, 8.0), rng.uniform(-10.0, 10.0))
    h = (build_aliphatic_full if full_space else build_aliphatic_restricted)(params)
    sites = _sites(rng, n, n)
    rho0 = initial_aliphatic(InitialPattern(n, frozenset(sites)),
                             rng.choice([1.0, -1.0], size=len(sites)), full_space)
    observables = [population_op(t0_label(n, s), full_space)
                   for s in range(1, n + 1)]
    return h, rho0, observables + [h]


def test_taylor_propagator_is_unitary_and_composes():
    rng = np.random.default_rng(2101)
    h, _, _ = _xy_case(rng, 5)
    u = taylor_propagator(h.entries, DT)
    assert np.max(np.abs(u @ u.conj().T - np.eye(32))) < 1e-14
    u2 = taylor_propagator(h.entries, 2 * DT)
    assert np.max(np.abs(u @ u - u2)) < 1e-14


def test_series_of_all_three_engines_matches_the_stepping_oracle():
    rng = np.random.default_rng(2102)
    cases = [_xy_case(rng, n) for n in (3, 6)]
    cases += [_aliphatic_case(rng, n, False) for n in (3, 6)]
    cases += [_aliphatic_case(rng, n, True) for n in (2, 3)]
    for h, rho0, observables in cases:
        assert h.dim <= 64
        prop = Propagator(h, rho0)
        want = stepped_series(h, rho0, observables, DT, STEPS)
        for obs, expected in zip(observables, want):
            got = prop.series(obs, DT, STEPS).values
            assert np.max(np.abs(got - expected)) < TOL
        # some population or polarization moves: the comparison is not 0 = 0
        assert np.max(np.ptp(want, axis=1)) > 0.05
