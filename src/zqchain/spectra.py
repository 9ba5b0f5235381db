"""Zero-quantum spectra: apodization, DC removal, DFT, peaks, matching.

The production pipeline is: remove the DC offset of the raw trajectory,
apodize with a monoexponential decay, zero-pad, take the one-sided
magnitude DFT, pick peaks, and match them against an analytic transition
table. DC removal happens before apodization: subtracting the mean from
the windowed series instead leaves a decaying-baseline residue whose
truncation ripples dwarf the genuine lines at low frequency.
"""
from __future__ import annotations

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
        if m.size and m.min() < 0:
            raise ValueError("magnitudes must be non-negative")
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
    return _one_sided(traj, zero_pad_factor, tau, np.abs)


def cosine_transform(traj: Trajectory, zero_pad_factor: int = DEFAULT_ZERO_PAD,
                     tau: float | None = None) -> Spectrum:
    """|real part of the DFT|: the cosine transform used for cosine-phased data.

    For an even-extended series the complex DFT is real, so this equals its
    magnitude; for a sine-phased tone the response at the tone vanishes.
    """
    return _one_sided(traj, zero_pad_factor, tau, lambda dft: np.abs(dft.real),
                      transform="cosine")


def _one_sided(traj: Trajectory, zero_pad_factor: int, tau: float | None,
               magnitude, **meta) -> Spectrum:
    """``magnitude`` of the zero-padded rfft, on its frequency grid."""
    n_samples = len(traj.values)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")
    n_pad = n_samples * zero_pad_factor
    return Spectrum(np.fft.rfftfreq(n_pad, d=traj.dt),
                    magnitude(np.fft.rfft(traj.values, n=n_pad)),
                    {"dt": traj.dt, "n_samples": n_samples,
                     "zero_pad_factor": zero_pad_factor, "tau": tau,
                     "observable_id": traj.observable_id, **meta})


def pick_peaks(spectrum: Spectrum,
               rel_threshold: float = DEFAULT_PEAK_THRESHOLD) -> list[Peak]:
    """Spectral lines above a relative threshold, sub-bin refined.

    A line must be the maximum over a window of +-zero_pad_factor bins (one
    pre-padding resolution element: zero padding only interpolates, and the
    interpolated tails of truncated lines ripple with exactly that period)
    and strictly exceed its immediate neighbors. Positions and heights are
    refined by parabolic interpolation of the log magnitude over 3 bins; a
    line next to an exactly-zero bin keeps its bin's frequency and height.
    """
    if not 0 < rel_threshold < 1:
        raise ValueError("rel_threshold must lie in (0, 1)")
    mag = spectrum.magnitude
    if len(mag) < 3 or mag.max() == 0:
        return []
    floor = rel_threshold * mag.max()
    window = max(1, int(spectrum.meta.get("zero_pad_factor", 1)))
    grid = spectrum.grid_hz
    peaks = []
    for i in range(1, len(mag) - 1):
        if mag[i] < floor or not (mag[i] > mag[i - 1] and mag[i] > mag[i + 1]):
            continue
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
