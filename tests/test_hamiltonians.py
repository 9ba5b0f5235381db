"""Hamiltonian construction, singlet-triplet structure, block extraction."""
import numpy as np
import pytest

from helpers import commutator, toeplitz_matrix
from zqchain.analytic import ToeplitzSpec
from zqchain.hamiltonians import (
    AliphaticParams,
    AnomalousCouplingError,
    XYParams,
    build_aliphatic_full,
    build_aliphatic_restricted,
    build_xy,
    _count_excitations,
    classify_couplings,
    extract_blocks,
    geminal_energy,
    restricted_labels,
    st_basis,
)
from zqchain.spinops import (
    basis_change,
    lift,
    parse_label,
    product_labels,
    single_spin_op,
    total_Iz,
)

ALI = AliphaticParams(4, -14.0, 7.5, 2.5)  # delta_j = 5, sum_j = 10


def kron_oracle_xy(n, j):
    """Independent construction: J * sum_i (IxIx + IyIy) via explicit lifts."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(1, n):
        for axis in ("x", "y"):
            h += j * (lift(single_spin_op(axis), i, n).entries
                      @ lift(single_spin_op(axis), i + 1, n).entries)
    return h


def kron_oracle_aliphatic(p):
    """Independent construction of the pair-chain Hamiltonian via lifts."""
    ns = 2 * p.n
    h = np.zeros((2 ** ns, 2 ** ns), dtype=complex)
    z = lambda s: lift(single_spin_op("z"), s, ns).entries
    for i in range(1, p.n + 1):
        a, b = 2 * i - 1, 2 * i
        for axis in ("x", "y", "z"):
            h += p.j_gem * (lift(single_spin_op(axis), a, ns).entries
                            @ lift(single_spin_op(axis), b, ns).entries)
    for i in range(1, p.n):
        a, b, c, d = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
        h += (p.sum_j / 2) * (z(a) + z(b)) @ (z(c) + z(d))
        h += (p.delta_j / 2) * (z(a) - z(b)) @ (z(c) - z(d))
    return h


def test_xy_n2_against_kron_oracle():
    h = build_xy(XYParams(2, 5.0))
    assert np.max(np.abs(h.entries - kron_oracle_xy(2, 5.0))) < 1e-14
    # the only nonzero entries couple |ab> <-> |ba| with J/2 = 2.5 Hz
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 2.5
    assert np.allclose(h.entries, expected)


def test_xy_n4_against_kron_oracle():
    h = build_xy(XYParams(4, 5.0))
    assert np.max(np.abs(h.entries - kron_oracle_xy(4, 5.0))) < 1e-13


def test_xy_zero_coupling_is_zero_matrix():
    assert np.max(np.abs(build_xy(XYParams(3, 0.0)).entries)) == 0.0


def test_xy_zero_diagonal():
    assert np.max(np.abs(np.diag(build_xy(XYParams(5, 5.0)).entries))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_xy_commutes_with_total_iz(n):
    h = build_xy(XYParams(n, 5.0))
    assert np.max(np.abs(commutator(h, total_Iz(n)))) < 1e-14


def test_xy_single_excitation_block_is_toeplitz():
    n, j = 4, 5.0
    h = build_xy(XYParams(n, j))
    labels = product_labels("ab", n)
    blk = next(b for b in extract_blocks(h, labels).blocks if b.excitations == 1)
    assert np.allclose(blk.matrix, toeplitz_matrix(ToeplitzSpec(0.0, j / 2, n)))


def test_aliphatic_full_against_kron_oracle():
    p = AliphaticParams(2, -14.0, 7.5, 2.5)
    h = build_aliphatic_full(p)
    assert np.max(np.abs(h.entries - kron_oracle_aliphatic(p))) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_aliphatic_full_commutes_with_total_iz(n):
    p = AliphaticParams(n, -14.0, 7.5, 2.5)
    h = build_aliphatic_full(p)
    assert np.max(np.abs(commutator(h, total_Iz(2 * n)))) < 1e-14


def test_aliphatic_n2_st_matrix_has_two_offdiagonal_pairs():
    p = AliphaticParams(2, -14.0, 7.5, 2.5)
    labels, u = st_basis(2)
    h_st = basis_change(build_aliphatic_full(p), u, "st4:2")
    couplings = classify_couplings(h_st, labels)
    assert len(couplings) == 2
    by_pair = {(str(c.label_a), str(c.label_b)): c for c in couplings}
    swap = by_pair[("T0S0", "S0T0")]
    double = by_pair[("T0T0", "S0S0")]
    assert swap.value == pytest.approx(2.5, abs=1e-12)   # delta_j / 2
    assert double.value == pytest.approx(2.5, abs=1e-12)
    assert swap.kind == "type-I"
    assert double.kind == "type-II"


def test_aliphatic_delta_zero_is_diagonal_in_st():
    p = AliphaticParams(2, -14.0, 5.0, 5.0)  # delta_j = 0
    labels, u = st_basis(2)
    h_st = basis_change(build_aliphatic_full(p), u, "st4:2")
    assert classify_couplings(h_st, labels) == []


def test_aliphatic_s0t0_diagonal_energy():
    # <S0T0| H |S0T0> = j_gem (-3/4 + 1/4) = -j_gem/2, from the dense matrix
    p = AliphaticParams(2, -14.0, 7.5, 2.5)
    labels, u = st_basis(2)
    h_st = basis_change(build_aliphatic_full(p), u, "st4:2")
    idx = [str(l) for l in labels].index("S0T0")
    assert h_st.entries[idx, idx].real == pytest.approx(-p.j_gem / 2, abs=1e-12)


def test_st_basis_order_and_unitarity():
    labels, u = st_basis(1)
    assert [str(l) for l in labels] == ["T+1", "T0", "S0", "T-1"]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    labels2, u2 = st_basis(2)
    assert len(labels2) == 16
    assert str(labels2[[str(l) for l in labels2].index("S0T0")]) == "S0T0"
    assert np.max(np.abs(u2.conj().T @ u2 - np.eye(16))) < 1e-12


def test_restricted_matches_projected_full():
    for n in (2, 3):
        p = AliphaticParams(n, -14.0, 7.5, 2.5)
        labels, u = st_basis(n)
        h_st = basis_change(build_aliphatic_full(p), u, f"st4:{n}")
        keep = [i for i, l in enumerate(labels)
                if all(s in ("T0", "S0") for s in l.sites)]
        projected = h_st.entries[np.ix_(keep, keep)].real
        restricted = build_aliphatic_restricted(p).entries.real
        assert np.max(np.abs(projected - restricted)) < 1e-10


def test_restricted_diagonals_match_manifold_labels():
    h = build_aliphatic_restricted(ALI)
    decomp = extract_blocks(h, restricted_labels(4))
    diag_by_k = {b.excitations: b.matrix[0, 0] for b in decomp.blocks}
    jg = ALI.j_gem
    assert diag_by_k[0] == pytest.approx(jg)        # all T0
    assert diag_by_k[1] == pytest.approx(0.0)       # single S0
    assert diag_by_k[2] == pytest.approx(-jg)
    assert diag_by_k[3] == pytest.approx(-2 * jg)
    assert diag_by_k[4] == pytest.approx(-3 * jg)


def test_restricted_block_sizes_and_interblock_couplings():
    h = build_aliphatic_restricted(ALI)
    decomp = extract_blocks(h, restricted_labels(4))
    assert [len(b.labels) for b in decomp.blocks] == [1, 4, 6, 4, 1]
    assert all(c.kind == "type-II" for c in decomp.inter_block_couplings)
    assert all(c.value == pytest.approx(2.5) for c in decomp.inter_block_couplings)
    # every coupling is an adjacent-pair T0T0 <-> S0S0 substitution
    for c in decomp.inter_block_couplings:
        diff = [i for i, (x, y) in enumerate(zip(c.label_a.sites, c.label_b.sites))
                if x != y]
        assert len(diff) == 2 and diff[1] == diff[0] + 1


def test_adjacent_manifold_offset_is_twice_jgem():
    h = build_aliphatic_restricted(ALI)
    decomp = extract_blocks(h, restricted_labels(4))
    diag = {b.excitations: b.matrix[0, 0] for b in decomp.blocks}
    for k in (0, 1, 2):
        assert diag[k] - diag[k + 2] == pytest.approx(2 * ALI.j_gem)


def test_restricted_independent_of_sum_j():
    a = build_aliphatic_restricted(AliphaticParams.from_deltas(3, -14.0, 5.0, 0.0))
    b = build_aliphatic_restricted(AliphaticParams.from_deltas(3, -14.0, 5.0, 10.0))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_single_excitation_block_equals_xy_block(n):
    """Restricted single-S0 block minus its diagonal == XY block at J=delta_j."""
    p = AliphaticParams.from_deltas(n, -14.0, 5.0)
    h_r = build_aliphatic_restricted(p)
    blk_r = next(b for b in extract_blocks(h_r, restricted_labels(n)).blocks
                 if b.excitations == 1)
    h_xy = build_xy(XYParams(n, p.delta_j))
    blk_xy = next(b for b in extract_blocks(h_xy, product_labels("ab", n)).blocks
                  if b.excitations == 1)
    shifted = blk_r.matrix - blk_r.matrix[0, 0] * np.eye(n)
    assert np.max(np.abs(shifted - blk_xy.matrix)) < 1e-12


def test_eigenvalues_invariant_under_st_change():
    p = AliphaticParams(2, -14.0, 7.5, 2.5)
    h = build_aliphatic_full(p)
    _, u = st_basis(2)
    h_st = basis_change(h, u, "st4:2")
    assert np.max(np.abs(np.linalg.eigvalsh(h.entries)
                         - np.linalg.eigvalsh(h_st.entries))) < 1e-10


def test_geminal_energy_values():
    assert geminal_energy(3, 1, -14.0) == pytest.approx(28.0)   # -2 j_gem
    assert geminal_energy(1, 3, -14.0) == pytest.approx(0.0)
    assert geminal_energy(0, 0, 123.0) == 0.0
    with pytest.raises(ValueError):
        geminal_energy(-1, 0, 1.0)


def test_excitation_count():
    assert _count_excitations(parse_label("baaa", "ab")) == 1
    assert _count_excitations(parse_label("S0S0T0T0", "st2")) == 2
    assert _count_excitations(parse_label("T0T0T0", "st2")) == 0


def test_xy_blocks_and_empty_interblock_list():
    h = build_xy(XYParams(4, 5.0))
    decomp = extract_blocks(h, product_labels("ab", 4))
    assert [len(b.labels) for b in decomp.blocks] == [1, 4, 6, 4, 1]
    assert decomp.inter_block_couplings == ()
    # label order within the single-excitation block: site 1 excited first
    single = next(b for b in decomp.blocks if b.excitations == 1)
    assert [str(l) for l in single.labels] == ["baaa", "abaa", "aaba", "aaab"]


def test_anomalous_coupling_detected():
    # a coupling changing the excitation count by 1 is a construction bug
    bad = np.zeros((4, 4))
    bad[0, 1] = bad[1, 0] = 1.0  # aa <-> ab
    from zqchain.spinops import hermitian_operator
    op = hermitian_operator(bad, "ab:2")
    with pytest.raises(AnomalousCouplingError):
        classify_couplings(op, product_labels("ab", 2))


def test_params_validation():
    with pytest.raises(ValueError):
        XYParams(1, 5.0)
    with pytest.raises(ValueError):
        AliphaticParams(1, -14.0, 7.5, 2.5)
    p = AliphaticParams.from_deltas(3, -14.0, 5.0, 10.0)
    assert p.delta_j == pytest.approx(5.0)
    assert p.sum_j == pytest.approx(10.0)
