"""Zero-quantum spectra: apodization, DC removal, DFT, peaks, matching.

The production pipeline is: remove the DC offset of the raw trajectory,
apodize with a monoexponential decay, zero-pad, take the one-sided
magnitude DFT, pick peaks, and match them against an analytic transition
table. DC removal happens before apodization: subtracting the mean from
the windowed series instead leaves a decaying-baseline residue whose
truncation ripples dwarf the genuine lines at low frequency.

The DFT is a chirp-z transform (Bluestein's algorithm, numpy FFTs only):
the n_pad // 2 + 1 one-sided bins of M samples zero-padded to n_pad are
one circular convolution at the smallest 2^a 3^b 5^c length of at least
M + n_pad // 2, so a prime or otherwise awkward n_pad (4 x 4001 for every
preset) never reaches a slow FFT length. Its bins match ``np.fft.rfft`` to
about 1e-15 of the largest bin.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .analytic import TransitionTable, merge_degenerate
from .dynamics import Trajectory, format_csv

DEFAULT_TAU = 5.0
DEFAULT_ZERO_PAD = 4
DEFAULT_PEAK_THRESHOLD = 0.05


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum on a uniform frequency grid from 0."""

    freq: np.ndarray
    magnitude: np.ndarray
    meta: dict

    def __post_init__(self):
        f = np.asarray(self.freq, dtype=float)
        m = np.asarray(self.magnitude, dtype=float)
        if f.shape != m.shape:
            raise ValueError("freq and magnitude shapes differ")
        if not np.isfinite(f).all():
            raise ValueError("frequencies must be finite")
        if not (np.isfinite(m).all() and (m >= 0).all()):
            raise ValueError("magnitudes must be finite and non-negative")
        f.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "freq", f)
        object.__setattr__(self, "magnitude", m)

    @property
    def grid_hz(self) -> float:
        return float(self.freq[1] - self.freq[0]) if len(self.freq) > 1 else 0.0


class Peak(NamedTuple):
    freq: float
    magnitude: float


def apodize(traj: Trajectory, tau: float) -> Trajectory:
    """Multiply by exp(-t/tau); models monoexponential relaxation."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    decay = np.exp(-np.arange(len(traj.values)) * traj.dt / tau)
    return Trajectory(traj.dt, traj.values * decay, traj.observable_id)


def remove_dc(traj: Trajectory) -> Trajectory:
    """Subtract the arithmetic mean, zeroing the 0 Hz bin of the series."""
    if len(traj.values) == 0:
        raise ValueError("empty trajectory")
    return Trajectory(traj.dt, traj.values - traj.values.mean(),
                      traj.observable_id)


def magnitude_spectrum(traj: Trajectory, zero_pad_factor: int = DEFAULT_ZERO_PAD,
                       tau: float | None = None) -> Spectrum:
    """|DFT| of the zero-padded series on the one-sided grid [0, 1/(2 dt)]."""
    n_samples = len(traj.values)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")
    n_pad = n_samples * zero_pad_factor
    return Spectrum(np.fft.rfftfreq(n_pad, d=traj.dt),
                    np.abs(_rfft(traj.values, n_pad)),
                    {"dt": traj.dt, "n_samples": n_samples,
                     "zero_pad_factor": zero_pad_factor, "tau": tau,
                     "observable_id": traj.observable_id})


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: an FFT length numpy transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            ratio = -(-n // p35)  # ceil(n / p35), then its power of two
            best = min(best, p35 << (ratio - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_plan(n_samples: int, n_pad: int,
                length: int) -> tuple[np.ndarray, np.ndarray]:
    """The chirp w_j = exp(-i pi j^2 / n_pad) and the FFT of its conjugate
    at lags -(n_samples - 1) .. n_pad // 2, at the given smooth length.

    j^2 is reduced mod 2 n_pad in int64 (exact while j^2 < 2^63; the FFT
    size guard keeps it below 2^48), so every angle lies in [0, 2 pi).
    """
    n_bins = n_pad // 2 + 1
    j = np.arange(max(n_samples, n_bins), dtype=np.int64)
    j *= j
    j %= 2 * n_pad
    chirp = np.exp(j * (-1j * np.pi / n_pad))
    kernel = np.zeros(length, dtype=complex)
    np.conjugate(chirp[:n_bins], out=kernel[:n_bins])
    np.conjugate(chirp[n_samples - 1:0:-1], out=kernel[length - n_samples + 1:])
    kernel = np.fft.fft(kernel)
    chirp.setflags(write=False)
    kernel.setflags(write=False)
    return chirp, kernel


# The last plan is kept for the next spectrum while it takes at most
# PLAN_CACHE_BYTES: it depends on the sizes alone, not on data. The presets'
# plan takes 0.32 MB; one at the MAX_FFT_POINTS limit would take 320 MiB.
PLAN_CACHE_BYTES = 2 ** 24
_kept_chirp_plan = functools.lru_cache(maxsize=1)(_chirp_plan)


def _rfft(values: np.ndarray, n_pad: int) -> np.ndarray:
    """``np.fft.rfft(values, n_pad)`` for n_pad >= len(values), by the
    chirp-z transform.

    With jk = (j^2 + k^2 - (k - j)^2) / 2, bin k is w_k times the
    convolution of values_j w_j with conj(w) at lag k - j, taken at the
    smallest 5-smooth length that holds it.
    """
    n_samples = len(values)
    n_bins = n_pad // 2 + 1
    length = _smooth_length(n_samples + n_bins - 1)
    plan_bytes = 16 * (max(n_samples, n_bins) + length)
    plan = _kept_chirp_plan if plan_bytes <= PLAN_CACHE_BYTES else _chirp_plan
    chirp, kernel = plan(n_samples, n_pad, length)
    conv = np.fft.fft(values * chirp[:n_samples], length)
    conv *= kernel
    del kernel  # a plan that is not kept frees its kernel before the ifft
    conv = np.fft.ifft(conv)[:n_bins]
    conv *= chirp[:n_bins]
    return conv


def pick_peaks(spectrum: Spectrum,
               rel_threshold: float = DEFAULT_PEAK_THRESHOLD) -> list[Peak]:
    """Spectral lines above a relative threshold, sub-bin refined.

    The candidates are the inner bins at or above the floor that strictly
    exceed both immediate neighbors. A candidate is a line when it is the
    first maximum over a window of +-zero_pad_factor bins (one pre-padding
    resolution element: zero padding only interpolates, and the interpolated
    tails of truncated lines ripple with exactly that period). Positions and
    heights are refined by parabolic interpolation of the log magnitude over
    3 bins; a line next to an exactly-zero bin keeps its bin's frequency and
    height.
    """
    if not 0 < rel_threshold < 1:
        raise ValueError("rel_threshold must lie in (0, 1)")
    mag = spectrum.magnitude
    if len(mag) < 3 or mag.max() == 0:
        return []
    floor = rel_threshold * mag.max()
    window = max(1, int(spectrum.meta.get("zero_pad_factor", 1)))
    grid = spectrum.grid_hz
    mid = mag[1:-1]
    candidates = np.flatnonzero((mid >= floor) & (mid > mag[:-2])
                                & (mid > mag[2:])) + 1
    peaks = []
    for i in candidates.tolist():
        lo = max(0, i - window)
        hi = min(len(mag), i + window + 1)
        if int(np.argmax(mag[lo:hi])) + lo != i:
            continue
        freq, height = float(spectrum.freq[i]), float(mag[i])
        if mag[i - 1] > 0 and mag[i + 1] > 0:  # the log needs both positive
            la, lc, lb = np.log(mag[i - 1]), np.log(mag[i]), np.log(mag[i + 1])
            shift = 0.5 * (la - lb) / (la - 2 * lc + lb)
            freq += shift * grid
            height = float(np.exp(lc - 0.25 * (la - lb) * shift))
        peaks.append(Peak(freq, height))
    return peaks


@dataclass(frozen=True)
class MatchEntry:
    predicted_hz: float
    nearest_peak_hz: float | None
    error_hz: float | None
    matched: bool


@dataclass(frozen=True)
class PeakMatchReport:
    peaks: tuple[Peak, ...]
    matches: tuple[MatchEntry, ...]
    unmatched_predictions: tuple[float, ...]
    unmatched_peaks: tuple[Peak, ...]
    tol_hz: float


def match_peaks(peaks: Sequence[Peak],
                predicted: TransitionTable | Sequence[float],
                tol_hz: float) -> PeakMatchReport:
    """Greedy nearest-frequency assignment of peaks to predicted lines.

    Predictions degenerate within the line-coincidence tolerance are merged
    first, so each observable line corresponds to one prediction and each
    peak is matched to at most one prediction. Predictions left unmatched
    are suppressed lines; peaks left unmatched are spurious ones.
    """
    if not tol_hz > 0:
        raise ValueError("tol_hz must be positive")
    pred = (predicted.distinct_frequencies()
            if isinstance(predicted, TransitionTable) else merge_degenerate(predicted))

    pairs = sorted(
        ((abs(pk.freq - nu), i, j) for i, nu in enumerate(pred)
         for j, pk in enumerate(peaks)),
        key=lambda t: t[0])
    assigned_pred: dict[int, int] = {}
    assigned_peak: set[int] = set()
    for err, i, j in pairs:
        if err > tol_hz:
            break
        if i in assigned_pred or j in assigned_peak:
            continue
        assigned_pred[i] = j
        assigned_peak.add(j)

    matches = []
    for i, nu in enumerate(pred):
        nearest = None
        err = None
        if peaks:
            j_near = min(range(len(peaks)), key=lambda j: abs(peaks[j].freq - nu))
            nearest = peaks[j_near].freq
            err = abs(nearest - nu)
        matches.append(MatchEntry(nu, nearest, err, i in assigned_pred))
    unmatched_pred = tuple(nu for i, nu in enumerate(pred)
                           if i not in assigned_pred)
    unmatched_peaks = tuple(pk for j, pk in enumerate(peaks)
                            if j not in assigned_peak)
    return PeakMatchReport(tuple(peaks), tuple(matches), unmatched_pred,
                           unmatched_peaks, tol_hz)


def process_trajectory(traj: Trajectory, tau: float = DEFAULT_TAU,
                       zero_pad_factor: int = DEFAULT_ZERO_PAD) -> Spectrum:
    """Full pipeline: DC removal, apodization, one-sided magnitude DFT."""
    return magnitude_spectrum(apodize(remove_dc(traj), tau),
                              zero_pad_factor, tau=tau)


def format_spectrum_csv(spectrum: Spectrum) -> str:
    return format_csv("freq_hz,magnitude", spectrum.freq, spectrum.magnitude)


def format_match_report(report: PeakMatchReport,
                        extra_lines: Sequence[str] = ()) -> str:
    """Structured text: peaks, per-prediction matches, residuals (Hz, 4 dp)."""
    lines = [f"# peak match report (tolerance {report.tol_hz:.4f} Hz)",
             f"picked peaks: {len(report.peaks)}"]
    for pk in report.peaks:
        lines.append(f"  peak {pk.freq:9.4f} Hz  magnitude {pk.magnitude:.4f}")
    lines.append("predictions:")
    for m in report.matches:
        status = "matched" if m.matched else "suppressed"
        if m.nearest_peak_hz is None:
            lines.append(f"  nu {m.predicted_hz:9.4f} Hz  -> no peaks  {status}")
        else:
            lines.append(f"  nu {m.predicted_hz:9.4f} Hz  -> peak "
                         f"{m.nearest_peak_hz:9.4f} Hz  |error| "
                         f"{m.error_hz:7.4f}  {status}")
    if report.unmatched_peaks:
        lines.append("spurious peaks (no prediction within tolerance):")
        for pk in report.unmatched_peaks:
            lines.append(f"  peak {pk.freq:9.4f} Hz  magnitude {pk.magnitude:.4f}")
    for s in extra_lines:
        lines.append(s)
    lines.append("")
    return "\n".join(lines)
