"""Closed-form spectra: Toeplitz and free-fermion levels, transition tables.

The single-excitation blocks of both chain Hamiltonians are tridiagonal
Toeplitz matrices, whose eigenvectors are standing-wave sinusoids with
closed-form energies E_k = A + 2*Delta*cos(k*pi/(n+1)). Levels are indexed
k = 1..n with E_1 the largest eigenvalue for Delta > 0, so transition
names nu_12, nu_23, ... count down from the top of the block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# build_aliphatic_restricted is unused here; bench/tracing.py wraps it by name
from .hamiltonians import AliphaticParams, build_aliphatic_restricted

# below this separation two transitions are reported as coincident
DEGENERACY_TOL_HZ = 1e-6


@dataclass(frozen=True)
class ToeplitzSpec:
    """Real symmetric tridiagonal Toeplitz matrix: diagonal A, off-diagonal Delta."""

    a: float
    delta: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")


def toeplitz_eigenvalues(spec: ToeplitzSpec) -> np.ndarray:
    """E_k = A + 2 Delta cos(k pi / (n+1)) for k = 1..n."""
    k = np.arange(1, spec.n + 1)
    return spec.a + 2 * spec.delta * np.cos(k * np.pi / (spec.n + 1))


def toeplitz_eigenvector(k: int, n: int) -> np.ndarray:
    """Standing-wave eigenvector with wavenumber k; independent of A and Delta."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    i = np.arange(1, n + 1)
    return np.sqrt(2 / (n + 1)) * np.sin(i * k * np.pi / (n + 1))


@dataclass(frozen=True)
class TransitionTable:
    """Level energies (k, E_k) and all pairwise transitions (k, l, nu_kl)."""

    energies: tuple[tuple[int, float], ...]
    transitions: tuple[tuple[int, int, float], ...]

    def frequency(self, k: int, l: int) -> float:
        for kk, ll, nu in self.transitions:
            if (kk, ll) == (k, l):
                return nu
        raise KeyError(f"no transition ({k},{l})")

    def distinct_frequencies(self, tol: float = DEGENERACY_TOL_HZ) -> list[float]:
        """Sorted transition frequencies with degenerate lines merged."""
        return merge_degenerate((t[2] for t in self.transitions), tol)


def coincident_groups(values, tol: float = DEGENERACY_TOL_HZ) -> list[list[int]]:
    """Indices of ``values`` grouped into coincident lines (the one such rule).

    Taken in ascending order (a stable sort), a value within tol of its
    group's first (smallest) value joins that group; any other starts the
    next group.
    """
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals, kind="stable").tolist()
    ascending = vals[order].tolist()
    starts = [0] if order else []
    for i, v in enumerate(ascending):
        if v - ascending[starts[-1]] > tol:
            starts.append(i)
    return [order[a:b] for a, b in zip(starts, starts[1:] + [len(order)])]


def merge_degenerate(freqs, tol: float = DEGENERACY_TOL_HZ) -> list[float]:
    """Sorted |frequencies|, one per coincident group (its smallest)."""
    vals = [abs(float(f)) for f in freqs]
    return [vals[group[0]] for group in coincident_groups(vals, tol)]


def transition_table(energies) -> TransitionTable:
    """All pairwise differences nu_kl = E_k - E_l (k < l) of a level list."""
    evals = [float(e) for e in energies]
    if len(evals) < 2:
        raise ValueError("need at least two energies")
    ek = tuple((k + 1, e) for k, e in enumerate(evals))
    trans = tuple((k + 1, l + 1, evals[k] - evals[l])
                  for k in range(len(evals)) for l in range(k + 1, len(evals)))
    return TransitionTable(ek, trans)


def xy_predicted_spectrum(n: int, j: float) -> TransitionTable:
    """Transition table of the XY single-excitation block (A=0, Delta=J/2)."""
    return transition_table(toeplitz_eigenvalues(ToeplitzSpec(0.0, j / 2, n)))


def pt2_splitting_estimate(delta_j: float, j_gem: float) -> float:
    """Closed-form second-order estimate of the type-II line splitting, signed."""
    if j_gem == 0:
        raise ValueError("j_gem must be nonzero")
    return 0.25 * delta_j ** 2 / j_gem


def aliphatic_predicted_spectrum(params: AliphaticParams,
                                 order: int) -> TransitionTable:
    """Predicted zero-quantum transitions of the methylene chain.

    order 0
        The pure Toeplitz table with Delta = delta_j/2 (identical to the XY
        prediction at J = delta_j); type-II mixing ignored.
    order 2
        The exact single-T0 levels of the restricted Hamiltonian, a
        transverse-field Ising chain (Lieb-Schultz-Mattis): with Lambda_k
        the singular values of J_gem I + delta_j (superdiagonal ones),
        E_k = -n J_gem/4 - sign(J_gem) (sum(Lambda)/2 - Lambda_k), one
        quasiparticle on the all-S0 state (the top for J_gem < 0, the
        bottom for J_gem > 0). Captures the type-II level shifts.
    """
    if order == 0:
        return xy_predicted_spectrum(params.n, params.delta_j)
    if order != 2:
        raise ValueError("order must be 0 or 2")
    if params.j_gem == 0:
        raise ValueError("j_gem must be nonzero")

    n, j_gem = params.n, params.j_gem
    lam = np.linalg.svd(j_gem * np.eye(n) + params.delta_j * np.eye(n, k=1),
                        compute_uv=False)
    levels = -n * j_gem / 4 - np.sign(j_gem) * (lam.sum() / 2 - lam)
    return transition_table(np.sort(levels)[::-1])


def split_notes(params: AliphaticParams, t2: TransitionTable) -> list[str]:
    """pt2 estimate, then which order-0-coincident lines ``t2`` (order 2) splits.

    Transitions nu_kl (k < l) of both orders are taken in the tables' row
    order, as differences of their level arrays.
    """
    estimate = pt2_splitting_estimate(params.delta_j, params.j_gem)
    k, l = np.triu_indices(params.n, 1)
    e0 = toeplitz_eigenvalues(ToeplitzSpec(0.0, params.delta_j / 2, params.n))
    e2 = np.array([e for _, e in t2.energies])
    nu0, nu2 = (e0[k] - e0[l]).tolist(), (e2[k] - e2[l]).tolist()
    names = [f"nu_{a}{b}" for a, b in zip((k + 1).tolist(), (l + 1).tolist())]
    notes = [f"pt2 splitting estimate (1/4 dJ^2/J_gem): {estimate:.4f} Hz"]
    for group in coincident_groups(nu0):
        members = sorted(group)
        vals = [nu2[i] for i in members]
        label = "/".join(names[i] for i in members)
        if max(vals) - min(vals) > DEGENERACY_TOL_HZ:
            notes.append(f"{label}: split by {max(vals) - min(vals):.4f} Hz "
                         f"({', '.join(f'{v:.4f}' for v in sorted(vals))})")
        else:
            nu = nu0[members[0]]
            notes.append(f"{label}: single line at {vals[0]:.4f} Hz "
                         f"(order-0 {nu:.4f}, shift {vals[0] - nu:+.4f})")
    return notes


def format_transition_table(table: TransitionTable,
                            extra_lines: list[str] | None = None) -> str:
    """Structured text: energies then (k, l, nu_kl) rows, 4 decimals, Hz."""
    lines = ["# energies (Hz)"]
    for k, e in table.energies:
        lines.append(f"  E_{k} = {e:.4f}")
    lines.append("# transitions nu_kl = E_k - E_l (Hz)")
    for k, l, nu in table.transitions:
        lines.append(f"  nu_{k}{l} = {nu:.4f}")
    if extra_lines:
        lines.append("# notes")
        lines.extend(f"  {s}" for s in extra_lines)
    lines.append("")
    return "\n".join(lines)
