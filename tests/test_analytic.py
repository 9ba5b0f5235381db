"""Closed-form Toeplitz spectra against dense diagonalization oracles."""
import dataclasses

import numpy as np
import pytest

from helpers import toeplitz_matrix
from zqchain import analytic, pipeline, presets
from zqchain.analytic import (
    ToeplitzSpec,
    aliphatic_predicted_spectrum,
    pt2_splitting_estimate,
    toeplitz_eigenvalues,
    toeplitz_eigenvector,
    transition_table,
    xy_predicted_spectrum,
)
from zqchain.cli import main
from zqchain.config import ScenarioConfig, validate
from zqchain.hamiltonians import AliphaticParams, build_aliphatic_restricted
from zqchain.spinops import site_bits

ALI = AliphaticParams.from_deltas(4, -14.0, 5.0, 10.0)

# frozen by dense diagonalization of the restricted Hamiltonian (n=4,
# delta_j=5, j_gem=-14): eigenvalues of the single-T0 manifold, descending
ORDER2_LEVELS = (32.500000000000, 29.704526102959, 26.671357489078,
                 24.466831386120)
ORDER2_SPLIT = 0.590947794082


@pytest.mark.parametrize("n", range(2, 21))
@pytest.mark.parametrize("a,delta", [(0.0, 2.5), (-14.0, 0.5)])
def test_eigenvalues_match_dense_solver(n, a, delta):
    spec = ToeplitzSpec(a, delta, n)
    dense = np.sort(np.linalg.eigvalsh(toeplitz_matrix(spec)))
    analytic = np.sort(toeplitz_eigenvalues(spec))
    assert np.max(np.abs(dense - analytic)) < 1e-10


@pytest.mark.parametrize("n", [2, 5, 12, 20])
def test_eigenvector_residuals(n):
    spec = ToeplitzSpec(-3.0, 1.7, n)
    mat = toeplitz_matrix(spec)
    evals = toeplitz_eigenvalues(spec)
    for k in range(1, n + 1):
        vec = toeplitz_eigenvector(k, n)
        assert np.linalg.norm(mat @ vec - evals[k - 1] * vec) < 1e-10
        assert abs(np.linalg.norm(vec) - 1) < 1e-12


def test_eigenvalues_n2():
    vals = toeplitz_eigenvalues(ToeplitzSpec(0.0, 2.5, 2))
    assert np.allclose(vals, [2.5, -2.5])


def test_eigenvalues_n3_spacing():
    vals = toeplitz_eigenvalues(ToeplitzSpec(0.0, 2.5, 3))
    assert np.allclose(vals, [2.5 * np.sqrt(2), 0.0, -2.5 * np.sqrt(2)])


def test_delta_zero_degenerate():
    assert np.allclose(toeplitz_eigenvalues(ToeplitzSpec(-1.0, 0.0, 5)), -1.0)


def test_eigenvector_n2_k1():
    vec = toeplitz_eigenvector(1, 2)
    assert np.allclose(vec, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_eigenvectors_orthonormal():
    n = 7
    mat = np.stack([toeplitz_eigenvector(k, n) for k in range(1, n + 1)])
    assert np.max(np.abs(mat @ mat.T - np.eye(n))) < 1e-12


def test_k1_eigenvector_half_sine_envelope():
    vec = toeplitz_eigenvector(1, 20)
    assert np.all(vec > 0)
    assert np.argmax(vec) in (9, 10)  # maximum near the chain center


def test_eigenvector_k_out_of_range():
    with pytest.raises(ValueError):
        toeplitz_eigenvector(0, 4)
    with pytest.raises(ValueError):
        toeplitz_eigenvector(5, 4)


def test_bandwidth_approaches_4delta():
    delta = 2.5
    gaps = []
    for n in (5, 10, 20):
        vals = toeplitz_eigenvalues(ToeplitzSpec(0.0, delta, n))
        bandwidth = vals.max() - vals.min()
        gap = 4 * delta - bandwidth
        # exact identity: the shortfall is 4 Delta (1 - cos(pi/(n+1)))
        assert gap == pytest.approx(4 * delta * (1 - np.cos(np.pi / (n + 1))),
                                    abs=1e-12)
        assert 0 < bandwidth < 4 * delta
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]  # converges to 4 Delta from below


def test_transition_table_xy_n4():
    table = xy_predicted_spectrum(4, 5.0)
    assert sorted(round(f, 4) for f in table.distinct_frequencies()) == [
        2.5, 3.0902, 5.5902, 8.0902]
    assert table.frequency(1, 2) == pytest.approx(table.frequency(3, 4))
    assert table.frequency(1, 3) == pytest.approx(table.frequency(2, 4))


def test_transition_table_n2_single_line():
    table = xy_predicted_spectrum(2, 5.0)
    assert table.distinct_frequencies() == [pytest.approx(5.0)]


def test_transition_table_n3():
    table = xy_predicted_spectrum(3, 5.0)
    assert [round(f, 4) for f in table.distinct_frequencies()] == [3.5355, 7.0711]
    # nu_12 and nu_23 are the degenerate pair
    assert table.frequency(1, 2) == pytest.approx(table.frequency(2, 3))


def test_transitions_positive_and_telescoping():
    table = transition_table([4.0, 1.0, -2.0, -5.0])
    assert all(nu > 0 for _, _, nu in table.transitions)
    assert table.frequency(1, 3) == pytest.approx(
        table.frequency(1, 2) + table.frequency(2, 3))


def test_transition_table_needs_two_levels():
    with pytest.raises(ValueError):
        transition_table([1.0])


def test_pt2_estimate():
    assert pt2_splitting_estimate(5.0, -14.0) == pytest.approx(-0.4464, abs=5e-5)
    assert pt2_splitting_estimate(0.0, -14.0) == 0.0
    assert pt2_splitting_estimate(5.0, 14.0) == -pt2_splitting_estimate(5.0, -14.0)
    with pytest.raises(ValueError):
        pt2_splitting_estimate(5.0, 0.0)


def test_order0_equals_xy_prediction():
    t_ali = aliphatic_predicted_spectrum(ALI, order=0)
    t_xy = xy_predicted_spectrum(4, 5.0)
    for (k, l, nu), (_, _, nu_xy) in zip(t_ali.transitions, t_xy.transitions):
        assert nu == pytest.approx(nu_xy, abs=1e-12)


def test_order2_frozen_levels_and_splittings():
    table = aliphatic_predicted_spectrum(ALI, order=2)
    levels = [e for _, e in table.energies]
    assert np.max(np.abs(np.array(levels) - np.array(ORDER2_LEVELS))) < 1e-9
    split_12_34 = table.frequency(1, 2) - table.frequency(3, 4)
    split_13_24 = table.frequency(1, 3) - table.frequency(2, 4)
    assert split_12_34 == pytest.approx(ORDER2_SPLIT, abs=1e-9)
    assert split_13_24 == pytest.approx(ORDER2_SPLIT, abs=1e-9)


def test_order2_central_and_outer_gaps_shift_together():
    """Type-II mixing shifts nu_23 and nu_14 by the same amount, so their
    difference keeps the unperturbed value exactly; the common shift itself
    is third-order small (0.057 Hz at delta_j=5, j_gem=-14) but nonzero."""
    t2 = aliphatic_predicted_spectrum(ALI, order=2)
    t0 = aliphatic_predicted_spectrum(ALI, order=0)
    shift_23 = t2.frequency(2, 3) - t0.frequency(2, 3)
    shift_14 = t2.frequency(1, 4) - t0.frequency(1, 4)
    assert shift_23 == pytest.approx(shift_14, abs=1e-9)
    assert shift_23 == pytest.approx(-0.0570013, abs=1e-6)
    assert (t2.frequency(1, 4) - t2.frequency(2, 3)) == pytest.approx(
        t0.frequency(1, 4) - t0.frequency(2, 3), abs=1e-9)


def test_order2_converges_to_order0_for_small_delta():
    weak = AliphaticParams.from_deltas(4, -14.0, 0.05)
    t2 = aliphatic_predicted_spectrum(weak, order=2)
    t0 = aliphatic_predicted_spectrum(weak, order=0)
    for (k, l, nu2), (_, _, nu0) in zip(t2.transitions, t0.transitions):
        assert nu2 == pytest.approx(nu0, abs=1e-4)  # shifts scale as dJ^2


def test_order_validation():
    with pytest.raises(ValueError):
        aliphatic_predicted_spectrum(ALI, order=1)


def test_eigenvector_independent_of_a_and_delta():
    # components depend only on (k, n); cross-check vs dense eigenvectors
    spec1 = ToeplitzSpec(0.0, 2.5, 6)
    spec2 = ToeplitzSpec(-14.0, 0.5, 6)
    for spec in (spec1, spec2):
        _, vecs = np.linalg.eigh(toeplitz_matrix(spec))
        order = np.argsort(np.linalg.eigvalsh(toeplitz_matrix(spec)))[::-1]
        for k in range(1, 7):
            dense = vecs[:, order[k - 1]]
            ana = toeplitz_eigenvector(k, 6)
            sign = np.sign(dense[np.argmax(np.abs(dense))] * ana[np.argmax(np.abs(dense))])
            assert np.max(np.abs(dense * sign - ana)) < 1e-10


def test_spectrum_diagonalizes_for_the_order2_table_once(monkeypatch):
    calls = []
    original = analytic.aliphatic_predicted_spectrum

    def counted(params, order):
        calls.append(order)
        return original(params, order)

    monkeypatch.setattr(analytic, "aliphatic_predicted_spectrum", counted)
    (job,) = presets.fig6a()
    result = pipeline.run_spectrum(dataclasses.replace(job.config, horizon=2.0))
    assert calls.count(2) == 1
    assert "nu_12/nu_34: split by 0.5909 Hz" in "\n".join(result.split_notes)


def test_spectrum_makes_one_16x16_eigh(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    (job,) = presets.fig6a()
    result = pipeline.run_spectrum(dataclasses.replace(job.config, horizon=2.0))
    assert calls == [(16, 16)]
    monkeypatch.undo()
    own = aliphatic_predicted_spectrum(job.config.aliphatic_params(), 2)
    assert np.allclose([nu for _, _, nu in result.predicted.transitions],
                       [nu for _, _, nu in own.transitions], atol=1e-12)


def _weight_ranked_levels(params):
    """The n restricted eigenvalues with most weight on the single-T0 manifold."""
    evals, evecs = np.linalg.eigh(build_aliphatic_restricted(params).entries)
    manifold = site_bits(params.n).sum(axis=1) == params.n - 1
    weights = (np.abs(evecs[manifold, :]) ** 2).sum(axis=0)
    return np.sort(evals[np.argsort(weights)[-params.n:]].real)[::-1]


def test_order2_free_fermion_levels_match_dense_restricted_oracle():
    rng = np.random.default_rng(6)
    for n in range(2, 11):
        for sign in (-1.0, 1.0):
            j_gem = sign * rng.uniform(5.0, 20.0)
            delta_j = rng.uniform(-0.95, 0.95) * abs(j_gem)
            params = AliphaticParams.from_deltas(n, j_gem, delta_j,
                                                 rng.uniform(0.0, 12.0))
            table = aliphatic_predicted_spectrum(params, order=2)
            levels = np.array([e for _, e in table.energies])
            assert np.max(np.abs(levels - _weight_ranked_levels(params))) < 1e-10


def test_order2_table_refuses_zero_j_gem():
    with pytest.raises(ValueError, match="j_gem must be nonzero"):
        aliphatic_predicted_spectrum(AliphaticParams(4, 0.0, 7.5, 2.5), order=2)


def test_zero_j_gem_spectrum_fails_before_simulating(monkeypatch):
    def refuse(*args):
        raise AssertionError("simulated before the order-2 table was built")
    for name in ("build_hamiltonian", "build_initial", "build_observable"):
        monkeypatch.setattr(pipeline, name, refuse)
    (job,) = presets.fig6a()
    cfg = dataclasses.replace(job.config, couplings={
        "J_gem": 0.0, "J_gauche": 7.5, "J_anti": 2.5})
    with pytest.raises(ValueError, match="j_gem must be nonzero"):
        pipeline.run_spectrum(cfg)


def _merge_loop(freqs, tol):
    """The merge loop merge_degenerate ran before coincident_groups."""
    out = []
    for nu in sorted(abs(float(f)) for f in freqs):
        if not out or abs(nu - out[-1]) > tol:
            out.append(nu)
    return out


def test_merge_degenerate_keeps_the_merge_loop_rule():
    tol = analytic.DEGENERACY_TOL_HZ
    assert analytic.merge_degenerate([1.0, 1.0 + 0.999 * tol]) == [1.0]
    assert len(analytic.merge_degenerate([1.0, 1.0 + 1.001 * tol])) == 2
    # a group is measured from its first value, not from its last member
    assert analytic.merge_degenerate([0.0, 0.6 * tol, 1.2 * tol]) == [0.0,
                                                                       1.2 * tol]
    rng = np.random.default_rng(12)
    steps = np.array([0.0, 0.4, 0.999, 1.001, 3.0]) * tol
    for _ in range(300):
        freqs = []
        for centre in rng.uniform(-10.0, 10.0, rng.integers(1, 8)):
            cluster = centre + np.cumsum(rng.choice(steps, rng.integers(1, 5)))
            freqs.extend(cluster * rng.choice([-1.0, 1.0]))
        rng.shuffle(freqs)
        assert analytic.merge_degenerate(freqs, tol) == _merge_loop(freqs, tol)


def _analytic_notes(tmp_path, n):
    """The ``# notes`` lines of ``zqchain analytic --order 2`` for chain n."""
    assert main(["analytic", "--model", "aliphatic", "--n", str(n),
                 "--j-gem", "-14", "--j-gauche", "7.5", "--j-anti", "2.5",
                 "--order", "2", "--out", str(tmp_path)]) == 0
    text = (tmp_path / f"analytic-aliphatic-n{n}-order2.analytic.txt").read_text()
    return [line[2:] for line in text.split("# notes\n")[1].splitlines()]


@pytest.mark.parametrize("n", range(2, 9))
def test_analytic_notes_are_the_spectrum_report_notes(tmp_path, n):
    cfg = validate(ScenarioConfig(
        model="aliphatic", n=n,
        couplings={"J_gem": -14.0, "J_gauche": 7.5, "J_anti": 2.5},
        t0_sites=(1,), signs=(1.0,), observe=(1,), horizon=0.5))
    assert _analytic_notes(tmp_path, n) == pipeline.run_spectrum(cfg).split_notes


def test_analytic_notes_name_the_coincident_pairs(tmp_path):
    text = "\n".join(_analytic_notes(tmp_path, 5))
    for pair in ("nu_12/nu_45", "nu_13/nu_35", "nu_23/nu_34", "nu_14/nu_25"):
        assert f"{pair}: split by" in text
    assert "nu_13/nu_24" not in text
    assert "nu_12/nu_12" not in "\n".join(_analytic_notes(tmp_path, 2))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_all_equal_signs_peak_at_a_quasiparticle_pair_line(sign):
    # With every sign equal, rho0 is the projector onto every single-T0
    # state: it commutes with the geminal and hopping parts of H, so every
    # line comes from type-II mixing. The largest is a pair line
    # Lambda_k + Lambda_l, which the order-2 table (Lambda_k - Lambda_l)
    # does not list.
    cfg = validate(ScenarioConfig(
        model="aliphatic", n=4, couplings=dict(presets.ALIPHATIC_COUPLINGS),
        t0_sites=(1, 2, 3, 4), signs=(sign,) * 4, observe=("S0S0S0T0",)))
    result = pipeline.run_spectrum(cfg)
    top = max(result.reports["S0S0S0T0"].peaks, key=lambda p: p.magnitude)
    params = cfg.aliphatic_params()
    lam = np.linalg.svd(params.j_gem * np.eye(4) + params.delta_j * np.eye(4, k=1),
                        compute_uv=False)
    k, l = np.triu_indices(4, 1)
    order2 = np.abs([nu for _, _, nu in result.predicted.transitions])
    assert np.min(np.abs(lam[k] + lam[l] - top.freq)) <= 1 / cfg.horizon
    assert np.min(np.abs(order2 - top.freq)) > 10.0
    assert top.freq == pytest.approx(28.9668, abs=1e-4)
