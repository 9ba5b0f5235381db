"""The n = 10 methylene chain against its free-fermion closed form.

The {T0, S0} chain is a transverse-field Ising chain, so its one-T0
populations follow from 2n x 2n matrices (Lieb, Schultz and Mattis 1961;
Onishi and Yoshida 1966). With S the n x n shift (ones above the diagonal),

    A = J_gem I + (dJ / 2)(S + S^T),   B = (dJ / 2)(S - S^T),
    L = [[A, B], [-B, -A]],            [[P, Q], .] = exp(-2 pi i t L),

and the population carried from the T0 at pair m to the T0 at pair k is
|det P| |(P - Q conj(P)^-1 conj(Q))_mk|^2. The oracle below is numpy only:
it shares no code with the Hamiltonian builders, the propagator or the
analytic tables.

The draws are aliphatic-spectrum seed 2537, pass 59 (all ten signs +1)
and seed 2911, pass 11 (all ten signs -1) of the benchmark. With all signs
equal, the largest line is a quasiparticle pair line Lambda_k + Lambda_l,
which the benchmark's order-2 gate does not list: the gate refuses those
draws although the trajectory is right. Each draw runs in about 0.3 s.
"""
import numpy as np
import pytest

from zqchain import pipeline
from zqchain.config import ScenarioConfig, validate

N = 10
# (J_gem, dJ, sum J, sign of every term) of each benchmark draw
DRAWS = {
    "seed2537-pass59": (-15.621198251946, 3.659536206406, 9.398302264222, 1.0),
    "seed2911-pass11": (-15.893311335486, 3.126023712615, 10.142115204627, -1.0),
}
TERMINAL = "S0" * (N - 1) + "T0"
TOL = 1e-10


def free_fermion_populations(n, j_gem, dj, signs, k, dt, steps):
    """(samples, the 2n eigenvalues of L): the signed sum over m of the
    population m -> k (0-based) at t = 0, dt, ..., steps * dt."""
    s = np.eye(n, k=1)
    a = j_gem * np.eye(n) + dj / 2 * (s + s.T)
    b = dj / 2 * (s - s.T)
    lam, w = np.linalg.eigh(np.block([[a, b], [-b, -a]]))  # L is symmetric
    t = np.arange(steps + 1) * dt
    top = (w[:n] * np.exp(-2j * np.pi * np.outer(t, lam))[:, None, :]) @ w.T
    p, q = top[:, :, :n], top[:, :, n:]
    amp = p - q @ np.linalg.solve(p.conj(), q.conj())
    pop = np.abs(np.linalg.det(p))[:, None] * np.abs(amp[:, :, k]) ** 2
    return pop @ np.asarray(signs, dtype=float), lam


@pytest.mark.parametrize("draw", DRAWS)
def test_gate_refused_draw_matches_the_free_fermion_closed_form(draw):
    j_gem, dj, sum_j, sign = DRAWS[draw]
    signs = (sign,) * N
    cfg = validate(ScenarioConfig(
        model="aliphatic", n=N,
        couplings={"J_gem": j_gem, "J_gauche": (sum_j + dj) / 2,
                   "J_anti": (sum_j - dj) / 2},
        t0_sites=tuple(range(1, N + 1)), signs=signs, observe=(TERMINAL,)))
    result = pipeline.run_spectrum(cfg)
    oracle, lam = free_fermion_populations(N, j_gem, dj, signs, N - 1,
                                           cfg.dt, cfg.steps())
    assert np.max(np.abs(result.trajectories[TERMINAL].values - oracle)) <= TOL

    # the largest peak is a pair line, far from every order-2 line
    top = max(result.reports[TERMINAL].peaks, key=lambda p: p.magnitude)
    quasi = lam[N:]  # the n levels Lambda_k >= 0; the rest are -Lambda_k
    k, l = np.triu_indices(N, 1)
    assert np.min(np.abs(quasi[k] + quasi[l] - top.freq)) <= 1 / cfg.horizon
    order2 = np.abs([nu for _, _, nu in result.predicted.transitions])
    assert np.min(np.abs(order2 - top.freq)) > 10.0
