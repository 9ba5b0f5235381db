"""Elementary operator algebra: frozen identities and invariants."""
import numpy as np
import pytest

from helpers import commutator, expectation
from zqchain.spinops import (
    HERMITICITY_TILE,
    Operator,
    ProductLabel,
    ProjectorSum,
    basis_change,
    basis_tag,
    hermitian_operator,
    hermiticity_deviation,
    label_index,
    lift,
    parse_label,
    product_labels,
    single_spin_op,
    site_bits,
    st_vectors,
    total_Iz,
)

AA, AB, BA, BB = 0, 1, 2, 3  # two-spin basis indices


def test_single_z_eigenvalues():
    iz = single_spin_op("z")
    assert np.allclose(np.diag(iz.entries), [0.5, -0.5])


def test_single_x_flips_alpha():
    ix = single_spin_op("x")
    alpha = np.array([1, 0], dtype=complex)
    assert np.allclose(ix.entries @ alpha, 0.5 * np.array([0, 1]))


def test_invalid_axis():
    with pytest.raises(ValueError):
        single_spin_op("w")


@pytest.mark.parametrize("a,b,c", [("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")])
def test_cyclic_commutators(a, b, c):
    lhs = commutator(single_spin_op(a), single_spin_op(b))
    assert np.max(np.abs(lhs - 1j * single_spin_op(c).entries)) < 1e-14


def test_lift_site1_on_ab():
    op = lift(single_spin_op("z"), 1, 2)
    vec = np.zeros(4)
    vec[AB] = 1.0
    assert np.allclose(op.entries @ vec, 0.5 * vec)


def test_lift_site2_on_ab():
    op = lift(single_spin_op("z"), 2, 2)
    vec = np.zeros(4)
    vec[AB] = 1.0
    assert np.allclose(op.entries @ vec, -0.5 * vec)


def test_lift_product_matrix_element():
    # explicit Kronecker-product oracle for <ab| IxIx |ba>
    ix = single_spin_op("x").entries
    expected = np.kron(ix, np.eye(2)) @ np.kron(np.eye(2), ix)
    prod = lift(single_spin_op("x"), 1, 2).entries @ lift(single_spin_op("x"), 2, 2).entries
    assert np.allclose(prod, expected)
    assert abs(prod[AB, BA] - 0.25) < 1e-15


def test_lift_site_out_of_range():
    with pytest.raises(ValueError):
        lift(single_spin_op("z"), 3, 2)


def test_lifts_on_distinct_sites_commute():
    a = lift(single_spin_op("x"), 1, 3)
    b = lift(single_spin_op("y"), 3, 3)
    assert np.max(np.abs(commutator(a, b))) == 0.0


def test_total_iz_n2_diag():
    assert np.allclose(np.diag(total_Iz(2).entries), [1, 0, 0, -1])


def test_total_iz_n1_diag():
    assert np.allclose(np.diag(total_Iz(1).entries), [0.5, -0.5])


def test_total_iz_matches_lifted_sum():
    n = 4
    summed = sum(lift(single_spin_op("z"), i, n).entries for i in range(1, n + 1))
    assert np.max(np.abs(total_Iz(n).entries - summed)) == 0.0


def test_st_vectors_values():
    tp1, t0, s0, tm1 = st_vectors()
    s = 1 / np.sqrt(2)
    assert np.allclose(s0, [0, s, -s, 0])
    assert np.allclose(t0, [0, s, s, 0])
    assert np.allclose(tp1, [1, 0, 0, 0])
    assert np.allclose(tm1, [0, 0, 0, 1])


def test_st_vectors_orthonormal():
    mat = np.stack(st_vectors(), axis=1)
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(4))) < 1e-14


def test_singlet_antisymmetric_under_swap():
    swap = np.zeros((4, 4))
    swap[AA, AA] = swap[BB, BB] = 1
    swap[AB, BA] = swap[BA, AB] = 1
    _, t0, s0, _ = st_vectors()
    assert np.allclose(swap @ s0, -s0)
    assert np.allclose(swap @ t0, t0)


def test_expectation_identity():
    rho = hermitian_operator(np.diag([0.5, 0.5, 0, 0]), basis_tag("ab", 2))
    ident = hermitian_operator(np.eye(4), basis_tag("ab", 2))
    assert expectation(ident, rho) == pytest.approx(1.0)


def test_expectation_total_iz_on_ab_projector():
    proj = np.zeros((4, 4))
    proj[AB, AB] = 1.0
    rho = hermitian_operator(proj, basis_tag("ab", 2))
    assert expectation(total_Iz(2), rho) == pytest.approx(0.0, abs=1e-15)


def test_expectation_site1_on_ba_projector():
    proj = np.zeros((4, 4))
    proj[BA, BA] = 1.0
    rho = hermitian_operator(proj, basis_tag("ab", 2))
    assert expectation(lift(single_spin_op("z"), 1, 2), rho) == pytest.approx(-0.5)


def test_expectation_rejects_mismatched_tags():
    rho = hermitian_operator(np.eye(4) / 4, basis_tag("st2", 2))
    with pytest.raises(ValueError):
        expectation(total_Iz(2), rho)


def test_basis_change_identity():
    op = total_Iz(3)
    moved = basis_change(op, np.eye(8), "ab:3")
    assert np.allclose(moved.entries, op.entries)


def test_basis_change_preserves_eigenvalues_and_trace():
    rng_mat = np.diag([3.0, -1.0, 0.5, 2.5]) + 0.2 * (np.eye(4)[::-1])
    op = hermitian_operator(0.5 * (rng_mat + rng_mat.T), "ab:2")
    theta = 0.3
    u = np.eye(4, dtype=complex)
    u[0, 0] = u[1, 1] = np.cos(theta)
    u[0, 1], u[1, 0] = np.sin(theta), -np.sin(theta)
    moved = basis_change(op, u, "rotated:2")
    assert np.allclose(np.sort(np.linalg.eigvalsh(moved.entries)),
                       np.sort(np.linalg.eigvalsh(op.entries)), atol=1e-10)
    assert np.trace(moved.entries) == pytest.approx(np.trace(op.entries).real,
                                                    abs=1e-12)


def test_basis_change_rejects_non_unitary():
    with pytest.raises(ValueError):
        basis_change(total_Iz(1), np.array([[1, 0], [0, 2.0]]), "bad:1")


def test_hermitian_operator_rejects_skew():
    with pytest.raises(ValueError):
        hermitian_operator(np.array([[0, 1], [0, 0]], dtype=complex), "ab:1")


def test_tiled_hermiticity_deviation_equals_the_dense_formula():
    rng = np.random.default_rng(5)
    for dim in (1, 3, HERMITICITY_TILE - 1, HERMITICITY_TILE + 1,
                2 * HERMITICITY_TILE + 37):
        for imag in (0.0, 1.0):
            m = rng.normal(size=(dim, dim)) + imag * 1j * rng.normal(size=(dim, dim))
            m[-1, 0] = 50.0  # the largest entry, in the last tile row
            for mat in (m, m + m.conj().T + 1e-13 * rng.normal(size=(dim, dim))):
                dev, largest = hermiticity_deviation(mat)
                assert dev == np.max(np.abs(mat - mat.conj().T))
                assert largest == np.max(np.abs(mat))


def test_hermitian_operator_rejects_skew_in_any_tile():
    dim = 2 * HERMITICITY_TILE + 37
    sym = np.ones((dim, dim))
    for i, j in ((dim - 1, 0), (0, dim - 1), (HERMITICITY_TILE + 2, 5)):
        skew = sym.copy()
        skew[i, j] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_operator(skew, "big")
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_operator(skew * (1 + 1j), "big")
    assert hermitian_operator(sym, "big").entries.dtype == np.float64


def test_hermitian_operator_rejects_non_finite_entries_in_any_tile():
    dim = 2 * HERMITICITY_TILE + 37
    sym = np.ones((dim, dim))
    # a diagonal tile, an upper and a lower one
    for i, j in ((3, 3), (0, dim - 1), (dim - 1, HERMITICITY_TILE + 2)):
        for bad in (np.nan, np.inf, -np.inf):
            for dtype in (float, complex):
                mat = sym.astype(dtype)
                mat[i, j] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    hermitian_operator(mat, "big")
    for mat in ([[np.nan, 0], [0, 0]], [[0, np.inf], [1, 0]]):
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_operator(np.array(mat), "ab:1")


def test_labels_roundtrip_and_index():
    labels = product_labels("st2", 3)
    assert str(labels[0]) == "T0T0T0"
    assert str(labels[-1]) == "S0S0S0"
    lab = parse_label("S0T0S0", "st2")
    assert labels[label_index(lab)] == lab


def test_label_rejects_bad_symbol():
    with pytest.raises(ValueError):
        ProductLabel(("T0", "X0"), "st2")


def test_site_bits_mark_excited_symbols_in_label_order():
    # bit 1 exactly where the product label carries b ("ab") or S0 ("st2")
    for n in range(1, 9):
        bits = site_bits(n)
        assert bits.shape == (2 ** n, n)
        for alphabet, excited in (("ab", "b"), ("st2", "S0")):
            expected = [[int(s == excited) for s in lab.sites]
                        for lab in product_labels(alphabet, n)]
            assert np.array_equal(bits, expected)


def test_real_input_keeps_float64_and_i_y_stays_complex():
    for axis in ("x", "z"):
        assert single_spin_op(axis).entries.dtype == np.float64
        assert lift(single_spin_op(axis), 2, 3).entries.dtype == np.float64
    assert single_spin_op("y").entries.dtype == np.complex128
    assert lift(single_spin_op("y"), 2, 3).entries.dtype == np.complex128
    assert total_Iz(3).entries.dtype == np.float64
    assert Operator([[1, 0], [0, 2]], "ab:1").entries.dtype == np.float64
    real = hermitian_operator(np.array([[1.0, 2.0], [2.0, 3.0]]), "ab:1")
    assert real.entries.dtype == np.float64
    assert st_vectors()[2].dtype == np.float64


def test_projector_sum_entries_and_checks():
    vecs = np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]])
    op = ProjectorSum([2.0, -1.0], vecs, "x:3")
    assert op.dim == 3
    expected = 2.0 * np.outer(vecs[:, 0], vecs[:, 0]) - np.outer(vecs[:, 1],
                                                                 vecs[:, 1])
    assert np.array_equal(op.entries, expected)
    assert op.entries.dtype == np.float64
    with pytest.raises(ValueError, match="real"):
        ProjectorSum([1j, 1.0], vecs, "x:3")
    with pytest.raises(ValueError, match="finite"):
        ProjectorSum([np.nan, 1.0], vecs, "x:3")
    with pytest.raises(ValueError, match="finite"):
        ProjectorSum([np.inf, 1.0], vecs, "x:3")
    with pytest.raises(ValueError, match="vector array"):
        ProjectorSum([1.0], vecs, "x:3")
    with pytest.raises(ValueError, match="vector array"):
        ProjectorSum([1.0, 1.0, 1.0], vecs[:, 0], "x:3")
