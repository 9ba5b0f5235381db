"""Small helpers that only the tests use: the Tr(O rho) oracle, a
commutator, a tridiagonal Toeplitz matrix, a least-squares line fit and a
count of np.sin work."""
from __future__ import annotations

import numpy as np

from zqchain.analytic import ToeplitzSpec
from zqchain.spinops import IMAG_RESIDUE_TOL, Operator, ProjectorSum


def expectation(op: Operator | ProjectorSum,
                rho: Operator | ProjectorSum) -> float:
    """Tr(O rho) for Hermitian O and rho; the imaginary residue is guarded.

    Raises if dimensions or basis tags differ, or if the imaginary part
    exceeds the residue tolerance (a symptom of non-Hermitian inputs).
    """
    if op.basis_tag != rho.basis_tag:
        raise ValueError(f"basis mismatch: {op.basis_tag} vs {rho.basis_tag}")
    if op.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {rho.dim}")
    val = complex(np.einsum("ij,ji->", op.entries, rho.entries))
    guard = IMAG_RESIDUE_TOL * max(1.0, abs(val.real))
    if abs(val.imag) > guard:
        raise ValueError(f"imaginary residue {val.imag:.3e} exceeds tolerance; "
                         "inputs are likely not Hermitian")
    return val.real


def commutator(a: Operator, b: Operator) -> np.ndarray:
    """[A, B] as a plain matrix (anti-Hermitian for Hermitian inputs)."""
    return a.entries @ b.entries - b.entries @ a.entries


def toeplitz_matrix(spec: ToeplitzSpec) -> np.ndarray:
    """Dense matrix for a ToeplitzSpec."""
    m = spec.a * np.eye(spec.n)
    off = spec.delta * np.ones(spec.n - 1)
    return m + np.diag(off, 1) + np.diag(off, -1)


def linear_fit_r2(x, y) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def count_sines(monkeypatch) -> list[int]:
    """Record the size of every np.sin argument from here on."""
    sizes = []
    real_sin = np.sin

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_sin(x, *args, **kwargs)
    monkeypatch.setattr(np, "sin", counted)
    return sizes
