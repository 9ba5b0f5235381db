"""Spin-1/2 operator algebra on tensor-product spaces.

Operators are dense matrices (``Operator``) or sums of weighted projectors
kept as weights and vectors (``ProjectorSum``). Real input stays float64;
only really complex input (such as I_y) is stored complex, so a real
Hamiltonian reaches the eigensolver in real arithmetic.

Conventions shared by the whole package: site 1 is the leftmost (most
significant) Kronecker factor, and the per-site basis is ordered alpha
before beta, so product states enumerate lexicographically
(|aa..a>, |aa..b>, ...).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

HERMITICITY_RTOL = 1e-12
UNITARITY_ATOL = 1e-12
IMAG_RESIDUE_TOL = 1e-10
HERMITICITY_TILE = 64  # rows and columns per tile of the Hermiticity check

# Site alphabets. "ab" is the single-spin Zeeman basis, "st4" the full
# singlet-triplet basis of one proton pair, "st2" its {T0, S0} restriction.
ALPHABETS = {
    "ab": ("a", "b"),
    "st4": ("T+1", "T0", "S0", "T-1"),
    "st2": ("T0", "S0"),
}


def basis_tag(alphabet: str, n_sites: int) -> str:
    """Canonical tag naming the ordered product basis of a space."""
    return f"{alphabet}:{n_sites}"


@dataclass(frozen=True)
class ProductLabel:
    """One product basis state: a symbol per site over a fixed alphabet."""

    sites: tuple[str, ...]
    alphabet: str

    def __post_init__(self):
        symbols = ALPHABETS.get(self.alphabet)
        if symbols is None:
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        bad = [s for s in self.sites if s not in symbols]
        if bad:
            raise ValueError(f"symbols {bad} not in alphabet {self.alphabet!r}")
        object.__setattr__(self, "sites", tuple(self.sites))

    def __str__(self) -> str:
        return "".join(self.sites)

    def __len__(self) -> int:
        return len(self.sites)


def product_labels(alphabet: str, n_sites: int) -> list[ProductLabel]:
    """All product labels of a space, lexicographic, site 1 most significant."""
    symbols = ALPHABETS[alphabet]
    return [ProductLabel(s, alphabet) for s in _cartesian(symbols, repeat=n_sites)]


def parse_label(text: str, alphabet: str) -> ProductLabel:
    """Parse a concatenated label such as ``"S0S0S0T0"`` or ``"abba"``."""
    symbols = sorted(ALPHABETS[alphabet], key=len, reverse=True)
    sites = []
    pos = 0
    while pos < len(text):
        for sym in symbols:
            if text.startswith(sym, pos):
                sites.append(sym)
                pos += len(sym)
                break
        else:
            raise ValueError(f"cannot parse {text!r} over alphabet {alphabet!r}")
    return ProductLabel(tuple(sites), alphabet)


def label_index(label: ProductLabel) -> int:
    """Row/column index of a product label in its canonical basis ordering."""
    symbols = ALPHABETS[label.alphabet]
    base = len(symbols)
    idx = 0
    for s in label.sites:
        idx = idx * base + symbols.index(s)
    return idx


def site_bits(n_sites: int) -> np.ndarray:
    """Per-site bits of every basis index of a two-symbol space, (2^n, n).

    Column s-1 holds the bit of site s: 1 where the index's product label
    carries the second symbol of its alphabet ("b" of "ab", "S0" of "st2"),
    with site 1 the most significant bit, as in product_labels and
    label_index. A row sum is the state's excitation count.
    """
    shifts = np.arange(n_sites - 1, -1, -1)
    return (np.arange(2 ** n_sites)[:, None] >> shifts) & 1


def _real_or_complex(values) -> type:
    """float for real input, complex for complex input."""
    return complex if np.iscomplexobj(values) else float


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense matrix tagged with the ordered basis it acts in.

    Entries are float64 for real input and complex otherwise.
    """

    entries: np.ndarray
    basis_tag: str

    def __post_init__(self):
        mat = np.array(self.entries, dtype=_real_or_complex(self.entries))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectorSum:
    """Hermitian operator sum_m w_m |v_m><v_m|, kept as weights and vectors.

    ``vectors`` holds one column per term, so a product-state projector or
    a signed sum of a few of them costs dim * terms numbers instead of a
    dim^2 matrix. Real weights make it Hermitian by construction.
    """

    weights: np.ndarray
    vectors: np.ndarray
    basis_tag: str

    def __post_init__(self):
        if np.iscomplexobj(self.weights):
            raise ValueError("projector weights must be real")
        w = np.array(self.weights, dtype=float).reshape(-1)
        vecs = np.array(self.vectors, dtype=_real_or_complex(self.vectors))
        if vecs.ndim != 2 or vecs.shape[1] != w.shape[0]:
            raise ValueError(f"{w.shape[0]} weights need a (dim, {w.shape[0]}) "
                             f"vector array, got shape {vecs.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(vecs))):
            raise ValueError("projector weights and vectors must be finite")
        for arr in (w, vecs):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The dense dim x dim matrix, for oracles and tests."""
        return (self.vectors * self.weights) @ self.vectors.conj().T


def hermitian_operator(entries: np.ndarray, tag: str) -> Operator:
    """Wrap a matrix as an Operator, asserting Hermiticity once at construction.

    Real input stays real (a real symmetric matrix is Hermitian); a NaN or
    infinite entry is refused.
    """
    op = Operator(entries, tag)
    dev, largest = hermiticity_deviation(op.entries)
    if not math.isfinite(largest):
        raise ValueError(f"matrix has a non-finite entry ({largest})")
    if dev > HERMITICITY_RTOL * max(1.0, largest):
        raise ValueError(f"matrix not Hermitian: max deviation {dev:.3e} "
                         f"(relative tolerance {HERMITICITY_RTOL})")
    return op


def hermiticity_deviation(mat: np.ndarray) -> tuple[float, float]:
    """max |M - M^H| and max |M| of a square matrix, tile by tile.

    Tile (i, j) is compared with the conjugate transpose of tile (j, i) for
    j >= i only, which covers every entry pair, so no dim^2 temporary is
    formed; the numbers equal the dense formulas'. A tile pair with a NaN or
    infinite entry ends the scan and returns NaN or inf for both.
    """
    dev = largest = 0.0
    dim = mat.shape[0]
    for i in range(0, dim, HERMITICITY_TILE):
        for j in range(i, dim, HERMITICITY_TILE):
            upper = mat[i:i + HERMITICITY_TILE, j:j + HERMITICITY_TILE]
            lower = mat[j:j + HERMITICITY_TILE, i:i + HERMITICITY_TILE].conj().T
            up, low = float(np.max(np.abs(upper))), float(np.max(np.abs(lower)))
            if not math.isfinite(up + low):  # NaN or inf in either tile
                return up + low, up + low
            dev = max(dev, float(np.max(np.abs(upper - lower))))
            largest = max(largest, up, low)
    return dev, largest


# single-spin Cartesian operators, eigenvalues +-1/2 for z; only I_y is complex
_IX = 0.5 * np.array([[0, 1], [1, 0]], dtype=float)
_IY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
_IZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=float)
_SINGLE = {"x": _IX, "y": _IY, "z": _IZ}


def single_spin_op(axis: str) -> Operator:
    """Cartesian spin-1/2 operator I_x, I_y or I_z on one site."""
    if axis not in _SINGLE:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    return Operator(_SINGLE[axis], basis_tag("ab", 1))


def lift(op: Operator, site: int, n_sites: int) -> Operator:
    """Kronecker embedding of a one-spin operator into an n-spin space."""
    if op.dim != 2:
        raise ValueError("lift expects a single-spin (2x2) operator")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    left = np.eye(2 ** (site - 1))
    right = np.eye(2 ** (n_sites - site))
    return Operator(np.kron(np.kron(left, op.entries), right),
                    basis_tag("ab", n_sites))


def total_Iz(n_sites: int) -> Operator:
    """Sum of lifted I_z over all sites; diagonal in the alpha/beta basis."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    diag = 0.5 * (n_sites - 2 * site_bits(n_sites).sum(axis=1))
    return Operator(np.diag(diag), basis_tag("ab", n_sites))


def st_vectors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-spin singlet/triplet states in the order (T+1, T0, S0, T-1).

    Each is a float64 array of components in the two-spin product basis
    (aa, ab, ba, bb).
    """
    s = 1 / np.sqrt(2)
    return (np.array([1.0, 0, 0, 0]), np.array([0, s, s, 0]),
            np.array([0, s, -s, 0]), np.array([0, 0, 0, 1.0]))


def basis_change(op: Operator, unitary: np.ndarray, new_tag: str) -> Operator:
    """Similarity transform U^dag O U into the basis named by ``new_tag``."""
    u = np.asarray(unitary, dtype=_real_or_complex(unitary))
    if u.shape != (op.dim, op.dim):
        raise ValueError(f"unitary shape {u.shape} does not match dim {op.dim}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(op.dim))))
    if dev > UNITARITY_ATOL:
        raise ValueError(f"matrix not unitary: max |U^dag U - 1| = {dev:.3e}")
    return Operator(u.conj().T @ op.entries @ u, new_tag)

