"""Initial states, exact density-operator propagation, sampled observables.

Propagation solves the Liouville-von Neumann equation exactly through one
Hermitian eigendecomposition of the Hamiltonian, reused for every time
sample: rho(t) = exp(-i 2 pi H t) rho(0) exp(+i 2 pi H t) with H in Hz.
A Propagator follows one rho(0), fixed when it is built. A real Hamiltonian
is decomposed in real arithmetic. The blocks are read from the zero
patterns of H and rho(0) together: the sectors H conserves, joined where
rho(0) joins two. rho(t) stays inside the blocks of rho(0), so a series
works block by block over those blocks only, whatever the observable.
Projector states and populations are kept as weights and vectors
(spinops.ProjectorSum), so a sample costs d_k * terms per block between
two of them and d_k^2 per block otherwise.

Every series a Propagator samples on one time grid (dt, steps) reads one
table of cos and sin of the phase angles 2 pi E_j t, computed on the
first call, over the modes of rho(0)'s blocks only. The table is kept up
to PHASE_CACHE numbers each for cos and sin; rows past that are recomputed
per call, so a propagator holds at most 2 * PHASE_CACHE phase numbers.

Initial states are deviation density operators (traceless, not positive
semidefinite). XY patterns are normalized so each site reads +-1/2, i.e.
the trajectories are per-site polarizations; methylene-chain patterns are
literal signed sums of product-state projectors, so populations read +-1.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spinops import (
    ALPHABETS,
    IMAG_RESIDUE_TOL,
    Operator,
    ProductLabel,
    ProjectorSum,
    basis_tag,
    hermitian_operator,
    label_index,
    site_bits,
    st_vectors,
)

DEFAULT_DT = 0.005     # s
DEFAULT_HORIZON = 20.0  # s

SERIES_BLOCK = 2 ** 20  # phase numbers per row block of a series
PHASE_CACHE = 2 ** 22   # phase numbers kept per table (cos, sin) of one grid


@dataclass(frozen=True)
class InitialPattern:
    """Sites singled out in an initial state (flipped, or carrying a T0)."""

    n: int
    flips: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "flips", frozenset(self.flips))
        bad = [s for s in self.flips if not 1 <= s <= self.n]
        if bad:
            raise ValueError(f"sites {bad} outside 1..{self.n}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled expectation values, starting at t = 0."""

    dt: float
    values: np.ndarray
    observable_id: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


def initial_xy(pattern: InitialPattern) -> Operator:
    """Signed sum of I_z terms, scaled so each site reads +-1/2.

    The raw deviation operator sum_i s_i I_iz (s_i = -1 on flipped sites)
    is scaled by 2^(1-n) so that Tr(I_iz rho0) equals the per-site
    polarization +-1/2; trace remains zero.
    """
    n = pattern.n
    signs = [-1.0 if site in pattern.flips else 1.0 for site in range(1, n + 1)]
    # sums of +-1/2 are exact, so the summation order cannot change a bit
    diag = (0.5 - site_bits(n)) @ np.array(signs)
    rho = np.diag(diag) * 2.0 ** (1 - n)
    return hermitian_operator(rho, basis_tag("ab", n))


def st2_product_vector(label: ProductLabel) -> np.ndarray:
    """Full-space (alpha/beta, 2n spins) vector of a {T0,S0} product label."""
    if label.alphabet != "st2":
        raise ValueError("expected an st2 label")
    _, t0, s0, _ = st_vectors()
    vec = np.array([1.0])
    for sym in label.sites:
        vec = np.kron(vec, t0 if sym == "T0" else s0)
    return vec


def population_op(label: ProductLabel, full_space: bool = False) -> ProjectorSum:
    """Projector |label><label| on a product state; trace one.

    With ``full_space`` a {T0,S0} label is embedded in the 2n-spin
    alpha/beta space, for cross-checking the restricted engine against the
    full one.
    """
    return _projector_sum([label], [1.0], full_space)


def _projector_sum(labels, weights, full_space: bool) -> ProjectorSum:
    """sum_m w_m |label_m><label_m| over product states of one space."""
    if full_space:
        vecs = np.stack([st2_product_vector(lab) for lab in labels], axis=1)
        return ProjectorSum(weights, vecs, basis_tag("ab", 2 * len(labels[0])))
    alphabet, n = labels[0].alphabet, len(labels[0])
    vecs = np.zeros((len(ALPHABETS[alphabet]) ** n, len(labels)))
    vecs[[label_index(lab) for lab in labels], np.arange(len(labels))] = 1.0
    return ProjectorSum(weights, vecs, basis_tag(alphabet, n))


def t0_label(n: int, t0_site: int) -> ProductLabel:
    """{T0, S0} label of n pairs with the T0 at ``t0_site``, S0 elsewhere."""
    sites = tuple("T0" if s == t0_site else "S0" for s in range(1, n + 1))
    return ProductLabel(sites, "st2")


def initial_aliphatic(pattern: InitialPattern, signs,
                      full_space: bool = False) -> ProjectorSum:
    """Signed sum of projectors with a single T0 walking the pattern sites.

    ``pattern.flips`` lists the sites that carry the T0 of one projector
    term each (all other pairs are S0); ``signs`` is the parallel list of
    +-1 term signs, ordered by ascending site. The standard inversion
    pattern on n=4 is sites (1,2,3,4) with signs (+,+,+,-).
    """
    sites = sorted(pattern.flips)
    signs = list(signs)
    if len(signs) != len(sites):
        raise ValueError(f"{len(sites)} pattern sites but {len(signs)} signs")
    if any(s not in (1, -1, 1.0, -1.0) for s in signs):
        raise ValueError("signs must be +-1")
    if not sites:
        raise ValueError("aliphatic initial pattern needs at least one site")
    labels = [t0_label(pattern.n, site) for site in sites]
    return _projector_sum(labels, [float(s) for s in signs], full_space)


def phase_plan(steps: int, dim: int) -> tuple[int, int]:
    """Rows per phase block, and rows kept, of a steps + 1 row time grid.

    A block holds at most SERIES_BLOCK numbers (at least one row). The kept
    rows are the blocks from row 0 on whose end fits PHASE_CACHE numbers,
    so a kept table never holds more than PHASE_CACHE numbers.
    """
    rows = max(1, min(steps + 1, SERIES_BLOCK // max(dim, 1)))
    fit = PHASE_CACHE // max(dim, 1)
    kept = steps + 1 if steps + 1 <= fit else fit // rows * rows
    return rows, kept


class Propagator:
    """One eigendecomposition of H (in Hz), and one initial state rho0.

    The blocks are the connected components of the exactly-nonzero patterns
    of H and rho0 together: the sectors H conserves (total I_z for XY,
    excitation parity for the restricted chain, every pair's m_p for the
    full one), found without being told them, and joined where rho0 joins
    two of them. So rho(t) has no entry between two blocks, and every series
    is exactly a sum over the blocks on which rho0 is nonzero, whatever the
    observable. H is permuted so that each block is one run of rows and
    decomposed by one eigh of the whole matrix. The Householder reduction
    maps exact zeros to exact zeros, so every mode lies in one block; that
    is checked exactly, and a mode reaching outside its block raises. The
    modes are grouped by block, so block k is one slice of the permuted rows
    and of the modes; blocks come in the order of their first row of H
    (``block_sizes``).

    rho0 is fixed at construction. Only rho0's blocks are kept, each as its
    rows of H, its modes V_k, rho0 in them (V_k^H a for a ProjectorSum,
    V_k^H rho0 V_k otherwise) and its slice of ``energies``: the energies
    of rho0's blocks alone, in block order, and none at all for rho0 = 0.
    So it holds no dim x dim array, and a ProjectorSum rho0 no d_k x d_k.

    A real symmetric H is decomposed in real arithmetic, so its modes are
    real; a complex Hermitian H (one with an I_y term) takes the same code.
    The phase table of the last time grid is kept on the instance for the
    calls that follow. It is one tuple, read once per call and replaced
    whole, so one Propagator may be sampled from several threads.
    """

    def __init__(self, hamiltonian: Operator, rho0: Operator | ProjectorSum):
        self.basis_tag = hamiltonian.basis_tag
        self.dim = hamiltonian.dim
        self._check(rho0)
        h = hamiltonian.entries
        h_rows, h_cols = np.nonzero(h)
        rho0_rows, rho0_cols = _index_pairs(rho0)
        label = _components(self.dim, np.concatenate([h_rows, rho0_rows]),
                            np.concatenate([h_cols, rho0_cols]))
        order = np.argsort(label, kind="stable")  # each block one run of rows
        try:
            energies, modes = np.linalg.eigh(h[np.ix_(order, order)])
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise ValueError("eigendecomposition failed; Hamiltonian is "
                             "likely not Hermitian") from exc
        starts = np.flatnonzero(np.diff(label[order], prepend=-1))
        sizes = np.diff(starts, append=self.dim)
        block = np.repeat(np.arange(len(sizes)), sizes)  # of each permuted row
        support = modes != 0
        first = block[np.argmax(support, axis=0)]
        last = block[self.dim - 1 - np.argmax(support[::-1], axis=0)]
        if (np.any(first != last)
                or np.any(np.bincount(first, minlength=len(sizes)) != sizes)):
            raise ValueError("an eigenvector of H reaches outside its block "
                             "of H's and rho0's nonzero pattern")
        by_block = np.argsort(first, kind="stable")
        self._block_sizes = tuple(sizes.tolist())
        # permuted rows, and so modes, of the blocks holding a row of rho0
        active = np.isin(label[order], label[rho0_rows])
        self.energies = energies[by_block][active]
        self._phases = (None, ())  # grid (dt, steps), its kept (cos, sin) blocks
        self.rho0 = rho0
        rho0_blocks, at = [], 0  # rows of H, slice of energies, V_k, rho0 in V_k
        ours = active[starts]  # of each block
        for a, s in zip(starts[ours].tolist(), sizes[ours].tolist()):
            rows, cols = order[a:a + s], slice(at, at + s)
            # a contiguous copy of this block alone: BLAS on a strided view
            # can round differently, and a view keeps all of modes alive
            v = np.ascontiguousarray(modes[a:a + s, by_block[a:a + s]])
            rho0_blocks.append((rows, cols, v, _in_modes(rho0, rows, v)))
            at += s
        self._rho0_blocks = tuple(rho0_blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """States per block of H and rho0, in the order of their first row."""
        return self._block_sizes

    def evolve(self, t: float) -> Operator:
        """rho(t) for a single time; exact unitary evolution."""
        u = np.zeros((self.dim, self.dim), dtype=complex)
        for rows, cols, v, _ in self._rho0_blocks:  # U is zero where rho0 is
            phases = np.exp(-2j * np.pi * self.energies[cols] * t)
            u[np.ix_(rows, rows)] = (v * phases) @ v.conj().T
        rho_t = u @ self.rho0.entries @ u.conj().T
        rho_t = 0.5 * (rho_t + rho_t.conj().T)  # strip roundoff skew
        return hermitian_operator(rho_t, self.basis_tag)

    def series(self, observable: Operator | ProjectorSum, dt: float,
               steps: int, observable_id: str = "obs") -> Trajectory:
        """Sampled Tr(O rho(t)) at t = 0, dt, ..., steps*dt.

        Works in the eigenbasis, from the phase angles theta_j = 2 pi E_j t
        of rho0's modes, one block of rho0 at a time. rho(t) is zero outside
        those blocks, so the sum is exact for any observable, and the
        observable's entries outside them are never read.

        When both operands are ProjectorSums, rho0 = sum_m w_m |a_m><a_m|
        and O = sum_l u_l |b_l><b_l|, the signal is a sum of transition
        probabilities, sum_lm u_l w_m |sum_j conj(B_jl) e^(-i theta_j) A_jm|^2
        with A = V^H a and B = V^H b: d_k * terms per sample and block.
        Otherwise it is the bilinear form p^T (rho_e o O_e^T) conj(p),
        p = e^(-i theta): d_k^2 per sample and block, after a basis change
        of d_k^3 for a dense operand and d_k^2 * terms for a ProjectorSum.
        Its imaginary part, which vanishes for Hermitian operands, is
        guarded, and a NaN in it raises too.

        Both forms read cos and sin of theta in row blocks of SERIES_BLOCK
        numbers. The blocks of one (dt, steps) grid are computed once and
        kept while the rows up to a block's end fit in PHASE_CACHE numbers;
        later calls on that grid reuse them and recompute only the rest. A
        new grid drops the kept blocks.
        """
        self._check(observable)
        if not 0 < dt < np.inf or steps < 0:
            raise ValueError("need a finite dt > 0 and steps >= 0")
        if isinstance(self.rho0, ProjectorSum) and isinstance(observable,
                                                              ProjectorSum):
            form = self._amplitude_form(observable)
        else:
            form = self._bilinear_form(observable)

        out = np.empty(steps + 1)
        for start, cos, sin in self._phase_blocks(dt, steps):
            out[start:start + len(cos)] = form(cos, sin)
        return Trajectory(dt, out, observable_id)

    def _phase_blocks(self, dt: float, steps: int):
        """(start, cos theta, sin theta) by row block; kept blocks come first."""
        grid, blocks = self._phases  # read once; new kept blocks stored at the end
        if grid != (dt, steps):
            self._phases = grid, blocks = (dt, steps), ()  # drop the old grid's
        rows, kept = phase_plan(steps, len(self.energies))
        fresh = []
        for k, start in enumerate(range(0, steps + 1, rows)):
            if k < len(blocks):
                yield (start, *blocks[k])
                continue
            stop = min(start + rows, steps + 1)
            theta = 2 * np.pi * np.outer(np.arange(start, stop) * dt,
                                         self.energies)
            sin = np.sin(theta)
            cos = np.cos(theta, out=theta)
            if stop <= kept:
                cos.setflags(write=False)
                sin.setflags(write=False)
                fresh.append((cos, sin))
            yield start, cos, sin
        if fresh:
            self._phases = grid, blocks + tuple(fresh)

    def _amplitude_form(self, observable: ProjectorSum):
        parts = []
        for rows, cols, v, a in self._rho0_blocks:
            b = _in_modes(observable, rows, v)
            # column (l, m) holds conj(B_jl) A_jm, weighted by u_l w_m
            pairs = b.conj()[:, :, None] * a[:, None, :]
            parts.append((cols, pairs.reshape(len(a), -1)))
        weights = np.outer(observable.weights, self.rho0.weights).ravel()

        def form(cos, sin):
            amplitudes = np.zeros((len(cos), len(weights)), dtype=complex)
            for cols, pairs in parts:
                amplitudes += cos[:, cols] @ pairs - 1j * (sin[:, cols] @ pairs)
            return np.abs(amplitudes) ** 2 @ weights
        return form

    def _bilinear_form(self, observable):
        terms = [(cols, _matrix(self.rho0, rho0_v)
                  * _matrix(observable, _in_modes(observable, rows, v)).T)
                 for rows, cols, v, rho0_v in self._rho0_blocks]
        dtype = np.result_type(float, *(b for _, b in terms))

        def products(phase, out):
            for cols, b in terms:
                np.matmul(phase[:, cols], b, out=out[:, cols])

        def form(cos, sin):
            # p^T B conj(p) with p = cos - i sin; cos @ B and then sin @ B,
            # block by block, share one buffer, so a row block holds one
            # product of the phase table's shape
            prod = np.empty(cos.shape, dtype)
            products(cos, prod)
            xc = np.einsum("tk,tk->t", prod, cos)
            xs = np.einsum("tk,tk->t", prod, sin)
            products(sin, prod)
            sig = (xc + np.einsum("tk,tk->t", prod, sin)
                   + 1j * (xs - np.einsum("tk,tk->t", prod, cos)))
            residue = float(np.max(np.abs(sig.imag)))
            scale = max(1.0, float(np.max(np.abs(sig.real))))
            if not residue <= IMAG_RESIDUE_TOL * scale:  # NaN fails too
                raise ValueError(f"imaginary residue {residue:.3e} in series; "
                                 "non-Hermitian inputs?")
            return sig.real
        return form

    def _check(self, op: Operator | ProjectorSum):
        if op.basis_tag != self.basis_tag or op.dim != self.dim:
            raise ValueError(f"operator basis {op.basis_tag} (dim {op.dim}) "
                             f"does not match propagator {self.basis_tag}")


def _in_modes(op: Operator | ProjectorSum, rows: np.ndarray,
              v: np.ndarray) -> np.ndarray:
    """op on one block, its rows of H, in the block's modes V_k.

    V_k^H a (d_k x terms) for a ProjectorSum sum_m w_m |a_m><a_m|, and
    V_k^H O V_k (d_k x d_k) for a dense operand.
    """
    if isinstance(op, ProjectorSum):
        return v.conj().T @ op.vectors[rows]
    return v.conj().T @ op.entries[np.ix_(rows, rows)] @ v


def _matrix(op: Operator | ProjectorSum, in_modes: np.ndarray) -> np.ndarray:
    """V_k^H O V_k from op's _in_modes form."""
    if isinstance(op, ProjectorSum):
        return (in_modes * op.weights) @ in_modes.conj().T
    return in_modes


def _index_pairs(op: Operator | ProjectorSum) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) that op joins; every nonzero row of op is an i.

    A dense operand joins the indices of each nonzero entry. A ProjectorSum
    term joins its nonzero rows, paired here with the term's first one.
    """
    if isinstance(op, ProjectorSum):
        term, row = np.nonzero(op.vectors.T)  # by term, rows ascending
        return row, row[np.searchsorted(term, term)]
    return np.nonzero(op.entries)


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n indices joined by pairs (i, j).

    The indices are the nodes of one undirected graph with an edge per pair;
    an index's label is the smallest index of its component, found by label
    propagation with pointer jumping.
    """
    i, j = np.concatenate([i, j]), np.concatenate([j, i])
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, i, label[j])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def observe_series(hamiltonian: Operator, rho0: Operator | ProjectorSum,
                   observable: Operator | ProjectorSum,
                   dt: float = DEFAULT_DT, steps: int | None = None,
                   observable_id: str = "obs") -> Trajectory:
    if steps is None:
        steps = int(round(DEFAULT_HORIZON / dt))
    return Propagator(hamiltonian, rho0).series(observable, dt, steps,
                                                 observable_id)


def wavefront_arrival(trajectories, threshold: float) -> list[float | None]:
    """First sampled time each trajectory drops below ``threshold``.

    Thresholds live in the open interval (-1/2, +1/2) of per-site
    polarization readings. Sites that never cross within the horizon are
    reported as None, not as an error.
    """
    if not -0.5 < threshold < 0.5:
        raise ValueError("threshold must lie in (-1/2, +1/2)")
    out: list[float | None] = []
    for traj in trajectories:
        below = np.nonzero(traj.values < threshold)[0]
        out.append(float(below[0] * traj.dt) if len(below) else None)
    return out


def _row_template(x_bytes: bytes) -> str:
    """One "<x as %.12g>,%.12g\n" row per float64 in ``x_bytes``, joined.

    A %.12g text is digits, sign, point, exponent, "nan" or "inf": it never
    holds "%", so the template takes exactly one value per row.
    """
    x = np.frombuffer(x_bytes)
    return ("%.12g,%%.12g\n" * len(x)) % tuple(x.tolist())


# Templates are kept while one's text takes at most TEMPLATE_CACHE_BYTES: a
# %.12g text has at most 19 characters, so a row takes at most
# TEMPLATE_ROW_BYTES. The presets' time and frequency grids (4001 and 8003
# rows, 48 and 159 kB of text) fit. A template of MAX_STEPS rows could take
# 26 MB and one of a MAX_FFT_POINTS spectrum 218 MB, so a grid above the
# bound is formatted through the same function and not kept.
TEMPLATE_CACHE_BYTES = 2 ** 20
TEMPLATE_ROW_BYTES = 19 + len(",%.12g\n")
_kept_row_template = functools.lru_cache(maxsize=2)(_row_template)


def format_csv(header: str, x: np.ndarray, y: np.ndarray) -> str:
    """Two-column CSV: the header line, then one "x,y" row per sample, 12 digits.

    Each row reads as "{:.12g},{:.12g}".format(x, y). The x column is
    formatted once into a row template (_row_template) and the body is one
    % operation of the template on the y column, so CSVs that share a time
    or frequency grid share its text. Templates are keyed on the column's
    exact float64 bytes (-0.0, NaN and any one-bit difference each get their
    own) and kept, the last two, while one fits TEMPLATE_CACHE_BYTES.
    """
    if len(x) != len(y):
        raise ValueError(f"CSV columns of {len(x)} and {len(y)} rows")
    x_bytes = np.asarray(x, dtype=float).tobytes()
    kept = len(x) * TEMPLATE_ROW_BYTES <= TEMPLATE_CACHE_BYTES
    template = (_kept_row_template if kept else _row_template)(x_bytes)
    return header + "\n" + template % tuple(np.asarray(y, dtype=float).tolist())


def format_trajectory_csv(traj: Trajectory) -> str:
    return format_csv("t_seconds,value", traj.times, traj.values)
