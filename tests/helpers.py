"""Small helpers that only the tests use: a commutator, a tridiagonal
Toeplitz matrix, a least-squares line fit and a count of np.sin work."""
from __future__ import annotations

import numpy as np

from zqchain.analytic import ToeplitzSpec
from zqchain.spinops import Operator


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
