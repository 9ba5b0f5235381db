"""Chain Hamiltonians, the singlet-triplet transformation, and block structure.

Couplings are stored in Hz everywhere; the 2*pi angular factor is applied
only inside propagation. Matrix entries printed or returned by this module
are therefore directly comparable to level diagrams drawn in Hz.

Two Hamiltonians are built:

* the XY exchange chain of n spins (flip-flop coupling J/2 between
  adjacent sites, zero diagonal in the alpha/beta basis), and
* the J-coupling Hamiltonian of n CH2 proton pairs (2n spins): geminal
  Heisenberg terms within each pair plus symmetric (sum) and antisymmetric
  (difference) zz couplings between adjacent pairs.

Restricting each pair to its {T0, S0} doublet maps the second Hamiltonian
onto a fictitious-spin chain whose single-excitation blocks coincide with
those of the XY chain at J = delta_j.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinops import (
    Operator,
    ProductLabel,
    basis_tag,
    hermitian_operator,
    product_labels,
    site_bits,
    st_vectors,
)

COUPLING_TOL = 1e-12


@dataclass(frozen=True)
class XYParams:
    """Uniform XY chain: ``n`` spins, exchange coupling ``j`` in Hz."""

    n: int
    j: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("XY chain needs n >= 2 spins")


@dataclass(frozen=True)
class AliphaticParams:
    """Methylene chain of ``n`` CH2 pairs with uniform couplings in Hz.

    ``j_gem`` couples the two protons of one pair; ``j_gauche``/``j_anti``
    are the two rotationally averaged couplings into the adjacent pair.
    Their difference ``delta_j`` breaks intrapair permutation symmetry.
    """

    n: int
    j_gem: float
    j_gauche: float
    j_anti: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("aliphatic chain needs n >= 2 CH2 groups")

    @property
    def sum_j(self) -> float:
        return self.j_gauche + self.j_anti

    @property
    def delta_j(self) -> float:
        return self.j_gauche - self.j_anti

    @classmethod
    def from_deltas(cls, n: int, j_gem: float, delta_j: float,
                    sum_j: float = 0.0) -> "AliphaticParams":
        """Build params from (delta_j, sum_j) instead of (gauche, anti)."""
        return cls(n, j_gem, (sum_j + delta_j) / 2, (sum_j - delta_j) / 2)


def _add_flips(h: np.ndarray, bits: np.ndarray, a: int, b: int,
               pattern: tuple[int, int], value: float) -> None:
    """Add ``value`` to h between every two states that differ only at sites
    a and b, one reading ``pattern`` there and the other its complement.

    Both sets are listed in index order, and among the states sharing their
    (a, b) bits that order is set by the other sites alone, so the k-th
    member of one set pairs with the k-th of the other.
    """
    col_a, col_b = bits[:, a - 1], bits[:, b - 1]
    first = np.flatnonzero((col_a == pattern[0]) & (col_b == pattern[1]))
    second = np.flatnonzero((col_a != pattern[0]) & (col_b != pattern[1]))
    h[first, second] += value
    h[second, first] += value


def build_xy(params: XYParams) -> Operator:
    """XY Hamiltonian in the alpha/beta product basis, entries in Hz.

    Adjacent flip-flop terms only: matrix element J/2 between basis states
    that differ by exchanging an adjacent (a, b) pair; zero diagonal.
    """
    n, j = params.n, params.j
    bits = site_bits(n)
    h = np.zeros((2 ** n, 2 ** n))
    for i in range(1, n):
        _add_flips(h, bits, i, i + 1, (0, 1), j / 2)
    return hermitian_operator(h, basis_tag("ab", n))


def build_aliphatic_full(params: AliphaticParams) -> Operator:
    """Full 2n-spin J-coupling Hamiltonian in the alpha/beta basis, in Hz.

    Pair p occupies spins (2p-1, 2p). The geminal term is a Heisenberg
    exchange within each pair; inter-pair terms are purely zz and split into
    the symmetric (sum_j/2) and antisymmetric (delta_j/2) combinations.
    """
    n = params.n
    ns = 2 * n
    bits = site_bits(ns)
    mz = 0.5 - bits  # +1/2 for alpha, -1/2 for beta; column s-1 is spin s
    h = np.zeros((2 ** ns, 2 ** ns))
    diag = np.zeros(2 ** ns)
    for p in range(1, n + 1):
        a, b = 2 * p - 1, 2 * p
        diag += params.j_gem * mz[:, a - 1] * mz[:, b - 1]
        # geminal flip-flop J_gem/2 between |ab> and |ba> within the pair
        _add_flips(h, bits, a, b, (0, 1), params.j_gem / 2)
    for p in range(1, n):
        za, zb, zc, zd = (mz[:, s] for s in range(2 * p - 2, 2 * p + 2))
        diag += (params.sum_j / 2) * (za + zb) * (zc + zd)
        diag += (params.delta_j / 2) * (za - zb) * (zc - zd)
    np.fill_diagonal(h, diag)
    return hermitian_operator(h, basis_tag("ab", ns))


def st_basis(n: int) -> tuple[list[ProductLabel], np.ndarray]:
    """Singlet-triplet product basis of n pairs and its unitary.

    Returns the ordered labels (per-pair order T+1, T0, S0, T-1, composed
    by Kronecker product) and the unitary whose columns are the product
    state vectors expressed in the 2n-spin alpha/beta basis.
    """
    if n < 1:
        raise ValueError("need n >= 1 pairs")
    cols = np.stack(st_vectors(), axis=1)
    u = np.array([[1.0]])
    for _ in range(n):
        u = np.kron(u, cols)
    return product_labels("st4", n), u


def geminal_energy(n_singlet: int, n_triplet: int, j_gem: float) -> float:
    """Total geminal-coupling energy of a product state, in Hz.

    A singlet pair contributes -(3/4) j_gem and a (central) triplet pair
    +(1/4) j_gem, so manifolds two substitutions apart sit 2 j_gem apart.
    """
    if n_singlet < 0 or n_triplet < 0:
        raise ValueError("pair counts must be non-negative")
    return j_gem * (-0.75 * n_singlet + 0.25 * n_triplet)


def build_aliphatic_restricted(params: AliphaticParams) -> Operator:
    """J-coupling Hamiltonian restricted to {T0, S0} per pair, in Hz.

    Diagonal entries are the geminal energies of the product states; the
    antisymmetric inter-pair term acts as a full flip of both adjacent pair
    states, producing off-diagonal elements delta_j/2 for adjacent
    T0,S0 <-> S0,T0 swaps and adjacent T0,T0 <-> S0,S0 substitutions.
    Independent of sum_j, which annihilates every m=0 pair state.
    """
    n = params.n
    bits = site_bits(n)  # S0 plays the beta role (bit 1)
    n_s = bits.sum(axis=1)
    levels = np.array([geminal_energy(k, n - k, params.j_gem)
                       for k in range(n + 1)])
    h = np.diag(levels[n_s])
    half = params.delta_j / 2
    for i in range(1, n):
        _add_flips(h, bits, i, i + 1, (0, 0), half)
        _add_flips(h, bits, i, i + 1, (0, 1), half)
    return hermitian_operator(h, basis_tag("st2", n))


def restricted_labels(n: int) -> list[ProductLabel]:
    """Canonical {T0, S0} label order matching build_aliphatic_restricted."""
    return product_labels("st2", n)


_EXCITED_SYMBOL = {"ab": "b", "st2": "S0", "st4": "S0"}


def _count_excitations(label: ProductLabel) -> int:
    """Number of excitations in a label: beta sites, or S0 pairs."""
    sym = _EXCITED_SYMBOL[label.alphabet]
    return sum(1 for s in label.sites if s == sym)


def _excitation_positions(label: ProductLabel) -> tuple[int, ...]:
    sym = _EXCITED_SYMBOL[label.alphabet]
    return tuple(i + 1 for i, s in enumerate(label.sites) if s == sym)


class AnomalousCouplingError(ValueError):
    """A matrix element connects manifolds whose excitation counts differ
    by something other than 0 or 2 - a construction bug, not physics."""


@dataclass(frozen=True)
class Coupling:
    label_a: ProductLabel
    label_b: ProductLabel
    value: float
    kind: str  # "type-I" (same manifold) or "type-II" (manifolds 2 apart)


@dataclass(frozen=True)
class Block:
    excitations: int
    labels: tuple[ProductLabel, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    inter_block_couplings: tuple[Coupling, ...]


def classify_couplings(op: Operator, labels: list[ProductLabel],
                       tol: float = COUPLING_TOL) -> list[Coupling]:
    """All off-diagonal nonzeros of ``op`` typed by excitation-count change.

    Equal counts give type-I (degenerate, strongly hybridizing) couplings,
    counts differing by two give type-II (perturbative) couplings; anything
    else raises AnomalousCouplingError.
    """
    mat = op.entries
    if len(labels) != op.dim:
        raise ValueError("label list length does not match operator dim")
    counts = [_count_excitations(lab) for lab in labels]
    out = []
    rows, cols = np.nonzero(np.abs(np.triu(mat, 1)) > tol)
    for i, j in zip(rows, cols):
        dk = abs(counts[i] - counts[j])
        if dk == 0:
            kind = "type-I"
        elif dk == 2:
            kind = "type-II"
        else:
            raise AnomalousCouplingError(
                f"coupling {labels[i]} <-> {labels[j]} changes excitation "
                f"count by {dk}")
        out.append(Coupling(labels[i], labels[j], float(mat[i, j].real), kind))
    return out


def extract_blocks(op: Operator, labels: list[ProductLabel]) -> BlockDecomposition:
    """Group a Hamiltonian into excitation blocks plus typed inter-block terms.

    Blocks are ordered by excitation count; within a block, labels are
    sorted by their excitation-position tuples so single-excitation blocks
    appear literally as tridiagonal Toeplitz matrices. Every off-block
    nonzero must be a type-II coupling (counts differing by two).
    """
    if len(labels) != op.dim:
        raise ValueError("label list length does not match operator dim")
    order = sorted(range(len(labels)),
                   key=lambda i: (_count_excitations(labels[i]),
                                  _excitation_positions(labels[i])))
    counts = [_count_excitations(labels[i]) for i in order]
    mat = op.entries[np.ix_(order, order)]

    blocks = []
    start = 0
    for pos in range(1, len(order) + 1):
        if pos == len(order) or counts[pos] != counts[start]:
            members = tuple(labels[order[i]] for i in range(start, pos))
            sub = mat[start:pos, start:pos].copy()
            blocks.append(Block(counts[start], members, sub.real))
            start = pos

    inter = []
    for c in classify_couplings(op, labels):
        if c.kind == "type-II":
            inter.append(c)
        # type-I couplings live inside a block submatrix by construction
    return BlockDecomposition(tuple(blocks), tuple(inter))


def format_block_dump(decomp: BlockDecomposition, title: str) -> str:
    """Serialize a block decomposition to the structured text format."""
    lines = [f"# block structure: {title}", ""]
    for blk in decomp.blocks:
        lines.append(f"block k={blk.excitations}  size={len(blk.labels)}")
        lines.append("  labels: " + " ".join(str(l) for l in blk.labels))
        for row in blk.matrix:
            lines.append("  " + " ".join(f"{v + 0.0:10.4f}" for v in row))
        lines.append("")
    lines.append(f"inter-block couplings: {len(decomp.inter_block_couplings)}")
    for c in decomp.inter_block_couplings:
        lines.append(f"  {c.label_a} <-> {c.label_b}  {c.value:.4f} Hz  {c.kind}")
    lines.append("")
    return "\n".join(lines)
