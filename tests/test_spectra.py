"""Spectral processing: transforms, peak picking, matching."""
import math

import numpy as np
import pytest

from zqchain.analytic import transition_table, xy_predicted_spectrum
from zqchain.dynamics import (InitialPattern, Trajectory, format_trajectory_csv,
                              initial_xy, observe_series)
from zqchain.hamiltonians import XYParams, build_xy
from zqchain.spectra import (
    Peak,
    Spectrum,
    apodize,
    cosine_transform,
    format_match_report,
    format_spectrum_csv,
    magnitude_spectrum,
    match_peaks,
    pick_peaks,
    process_trajectory,
    remove_dc,
)
from zqchain.spinops import lift, single_spin_op

DT = 0.005
N = 4001  # 20 s horizon


def tone(freq, n=N, dt=DT, phase=0.0):
    t = np.arange(n) * dt
    return Trajectory(dt, np.cos(2 * np.pi * freq * t + phase), f"tone{freq}")


def test_apodize_value_at_tau():
    traj = apodize(Trajectory(DT, np.ones(N), "const"), 5.0)
    idx = int(round(5.0 / DT))
    assert traj.values[idx] == pytest.approx(math.exp(-1))
    assert traj.values[0] == 1.0


def test_apodize_infinite_tau_is_identity():
    traj = tone(5.0)
    out = apodize(traj, math.inf)
    assert np.array_equal(out.values, traj.values)


def test_apodize_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        apodize(tone(5.0), 0.0)
    with pytest.raises(ValueError):
        apodize(tone(5.0), -1.0)


def test_apodized_line_has_lorentzian_width():
    """Half-power half-width of the magnitude line equals 1/(2 pi tau) to
    within one padded grid bin."""
    tau = 5.0
    spec = magnitude_spectrum(apodize(remove_dc(tone(5.0)), tau), 4)
    half_power = spec.magnitude.max() / np.sqrt(2)
    above = np.nonzero(spec.magnitude >= half_power)[0]
    half_width = 0.5 * (spec.freq[above[-1]] - spec.freq[above[0]])
    assert abs(half_width - 1 / (2 * np.pi * tau)) < spec.grid_hz


def test_remove_dc_constant_and_zero_mean():
    const = Trajectory(DT, np.full(100, 3.3), "c")
    assert np.max(np.abs(remove_dc(const).values)) < 1e-12
    zm = Trajectory(DT, np.array([1.0, -1.0] * 50), "z")
    assert np.array_equal(remove_dc(zm).values, zm.values)


def test_remove_dc_zeroes_bin0():
    traj = remove_dc(tone(3.3))
    spec = magnitude_spectrum(traj, 4)
    assert spec.magnitude[0] < 1e-10


def test_remove_dc_empty():
    with pytest.raises(ValueError):
        remove_dc(Trajectory(DT, np.array([]), "e"))


def test_magnitude_spectrum_tone_position():
    spec = process_trajectory(tone(5.0), tau=5.0, zero_pad_factor=4)
    peak_bin = spec.freq[np.argmax(spec.magnitude)]
    assert abs(peak_bin - 5.0) <= spec.grid_hz
    assert spec.grid_hz == pytest.approx(1 / (4 * N * DT))


def test_magnitude_spectrum_zero_input():
    spec = magnitude_spectrum(Trajectory(DT, np.zeros(64), "z"), 4)
    assert np.max(spec.magnitude) == 0.0


def test_parseval_identity():
    traj = tone(2.5, n=512)
    pad = 4
    spec = magnitude_spectrum(traj, pad)
    n_pad = 512 * pad
    # reconstruct the two-sided power from the one-sided magnitudes
    power = spec.magnitude[0] ** 2 + spec.magnitude[-1] ** 2
    power += 2 * np.sum(spec.magnitude[1:-1] ** 2)
    expected = n_pad * np.sum(traj.values ** 2)
    assert power == pytest.approx(expected, rel=1e-8)


def test_spectrum_grid_spacing_metadata():
    spec = magnitude_spectrum(tone(1.0, n=1000), 2, tau=5.0)
    assert spec.meta["n_samples"] == 1000
    assert spec.meta["zero_pad_factor"] == 2
    assert spec.meta["tau"] == 5.0
    assert spec.grid_hz == pytest.approx(1 / (2000 * DT))


def test_cosine_transform_cos_peak_sin_null():
    # 4000 samples put 5.0 Hz exactly on a padded grid point, where the
    # dispersive wings of a sine-phased line pass through zero
    cos_spec = cosine_transform(apodize(tone(5.0, n=4000), 5.0), 4)
    assert abs(cos_spec.freq[np.argmax(cos_spec.magnitude)] - 5.0) <= 2 * cos_spec.grid_hz

    sin_spec = cosine_transform(apodize(tone(5.0, n=4000, phase=-np.pi / 2), 5.0), 4)
    at_tone = np.argmin(np.abs(sin_spec.freq - 5.0))
    assert abs(sin_spec.freq[at_tone] - 5.0) < 1e-9
    assert sin_spec.magnitude[at_tone] < 0.02 * cos_spec.magnitude.max()


def test_cosine_transform_equals_dft_for_even_extension():
    base = np.cos(2 * np.pi * 3.0 * np.arange(200) * DT) * np.exp(
        -np.arange(200) * DT / 2.0)
    even = np.concatenate([base, base[1:][::-1]])  # even under reflection
    traj = Trajectory(DT, even, "even")
    spec = cosine_transform(traj, 1)
    full = np.fft.rfft(even)
    assert np.max(np.abs(full.imag)) < 1e-9  # DFT of even data is real
    assert np.allclose(spec.magnitude, np.abs(full.real), atol=1e-9)


def test_pick_peaks_single_line():
    spec = process_trajectory(tone(5.0), 5.0, 4)
    peaks = pick_peaks(spec, 0.05)
    assert len(peaks) == 1
    assert peaks[0].freq == pytest.approx(5.0, abs=spec.grid_hz)


def test_pick_peaks_two_tones():
    t = np.arange(N) * DT
    vals = np.cos(2 * np.pi * 2.5 * t) + 0.7 * np.cos(2 * np.pi * 8.0902 * t)
    spec = process_trajectory(Trajectory(DT, vals, "two"), 5.0, 4)
    peaks = pick_peaks(spec, 0.05)
    assert len(peaks) == 2
    assert peaks[0].freq == pytest.approx(2.5, abs=spec.grid_hz)
    assert peaks[1].freq == pytest.approx(8.0902, abs=spec.grid_hz)


def test_pick_peaks_flat_spectrum_empty():
    spec = magnitude_spectrum(Trajectory(DT, np.zeros(128), "z"), 2)
    assert pick_peaks(spec, 0.05) == []


def test_pick_peaks_next_to_a_zero_bin_keep_their_bin():
    freq = np.arange(8) * 0.25
    spec = Spectrum(freq, [0.3, 0, 1, 0, 0.2, 0.1, 0.05, 0], {})
    # no log(0): each line keeps its bin's frequency and height
    assert pick_peaks(spec, 0.05) == [Peak(0.5, 1.0), Peak(1.0, 0.2)]


def test_pick_peaks_threshold_validation():
    spec = process_trajectory(tone(5.0), 5.0, 4)
    with pytest.raises(ValueError):
        pick_peaks(spec, 0.0)
    with pytest.raises(ValueError):
        pick_peaks(spec, 1.0)


@pytest.mark.parametrize("freq", [0.5, 1.3, 5.0, 12.7, 20.0])
def test_single_tone_frequency_accuracy(freq):
    spec = process_trajectory(tone(freq), 5.0, 4)
    peaks = pick_peaks(spec, 0.05)
    assert len(peaks) == 1
    assert abs(peaks[0].freq - freq) < spec.grid_hz


def test_match_peaks_dss_additivity():
    observed = [Peak(3.70, 1.0), Peak(4.67, 1.0), Peak(8.37, 1.0)]
    table = transition_table([0.0, -4.67, -8.37])
    report = match_peaks(observed, table, tol_hz=0.01)
    assert all(m.matched for m in report.matches)
    nu13 = table.frequency(1, 3)
    assert abs(nu13 - (4.67 + 3.70)) <= 0.01


def test_match_peaks_end_to_end_xy_n4():
    n, j = 4, 5.0
    h = build_xy(XYParams(n, j))
    rho0 = initial_xy(InitialPattern(n, frozenset({1})))
    traj = observe_series(h, rho0, lift(single_spin_op("z"), 1, n), DT, 4000)
    spec = process_trajectory(traj, 5.0, 4)
    peaks = pick_peaks(spec, 0.05)
    report = match_peaks(peaks, xy_predicted_spectrum(n, j), tol_hz=spec.grid_hz)
    assert all(m.matched for m in report.matches)
    assert report.unmatched_predictions == ()
    assert report.unmatched_peaks == ()


def test_match_peaks_empty_peak_list():
    report = match_peaks([], xy_predicted_spectrum(4, 5.0), tol_hz=0.05)
    assert not any(m.matched for m in report.matches)
    assert len(report.unmatched_predictions) == 4


def test_match_peaks_degenerate_predictions_merged():
    report = match_peaks([Peak(5.0, 1.0)], [5.0, 5.0 + 1e-9], tol_hz=0.01)
    assert len(report.matches) == 1
    assert report.matches[0].matched


def test_match_peaks_flags_spurious():
    report = match_peaks([Peak(5.0, 1.0), Peak(9.9, 0.3)], [5.0], tol_hz=0.05)
    assert len(report.unmatched_peaks) == 1
    assert report.unmatched_peaks[0].freq == pytest.approx(9.9)


def test_match_peaks_tol_validation():
    with pytest.raises(ValueError):
        match_peaks([], [5.0], tol_hz=0.0)


def test_spectrum_csv_and_report_formatting():
    spec = process_trajectory(tone(5.0), 5.0, 1)
    text = format_spectrum_csv(spec)
    assert text.startswith("freq_hz,magnitude\n0,")
    peaks = pick_peaks(spec, 0.05)
    report = match_peaks(peaks, [5.0], tol_hz=spec.grid_hz)
    rendered = format_match_report(report, ["extra note"])
    assert "matched" in rendered
    assert "extra note" in rendered
    assert f"{report.tol_hz:.4f}" in rendered


def _per_row_csv(header, x, y):
    return "\n".join([header, *(f"{a:.12g},{b:.12g}" for a, b in zip(x, y))]) + "\n"


def test_csv_formatter_equals_the_per_row_format():
    rng = np.random.default_rng(11)
    special = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0, -42.0, 1e16, 0.5]
    values = np.concatenate([special, rng.normal(size=64)
                             * 10.0 ** rng.integers(-12, 12, size=64)])
    traj = Trajectory(DT, values, "site1")
    times = [i * DT for i in range(len(values))]
    assert format_trajectory_csv(traj) == _per_row_csv("t_seconds,value",
                                                       times, traj.values)
    spec = Spectrum(values, np.abs(values), {})
    assert format_spectrum_csv(spec) == _per_row_csv(
        "freq_hz,magnitude", spec.freq, spec.magnitude)
    assert format_trajectory_csv(Trajectory(DT, np.array([]), "e")) == (
        "t_seconds,value\n")
