"""Spectral processing: transforms, peak picking, matching."""
import math
import tracemalloc

import numpy as np
import pytest

from zqchain import dynamics, pipeline, presets, spectra
from zqchain.analytic import transition_table, xy_predicted_spectrum
from zqchain.cli import main
from zqchain.dynamics import (InitialPattern, Trajectory, format_csv,
                              format_trajectory_csv, initial_xy, observe_series)
from zqchain.hamiltonians import XYParams, build_xy
from zqchain.spectra import (
    Peak,
    Spectrum,
    apodize,
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


def tone(freq, n=N, dt=DT):
    t = np.arange(n) * dt
    return Trajectory(dt, np.cos(2 * np.pi * freq * t), f"tone{freq}")


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


@pytest.mark.parametrize("freq, mag", [
    ([0.0, 1.0], [1.0, math.nan]),
    ([0.0, 1.0], [1.0, math.inf]),
    ([0.0, 1.0], [1.0, -1.0]),
    ([0.0, math.nan], [1.0, 1.0]),
])
def test_spectrum_refuses_values_that_are_not_finite_magnitudes(freq, mag):
    with pytest.raises(ValueError, match="must be finite"):
        Spectrum(freq, mag, {})


@pytest.mark.parametrize("n_samples", [2, 3, 5, 17, 64, 1000, 4000, 4001])
def test_chirp_z_transform_equals_numpy_rfft(n_samples):
    rng = np.random.default_rng(n_samples)
    values = rng.normal(size=n_samples)
    for pad in range(1, 6):
        ours = spectra._rfft(values, n_samples * pad)
        ref = np.fft.rfft(values, n_samples * pad)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_chirp_z_transform_against_an_extended_precision_dft():
    """The fig7 n = 5 site-1 series as the pipeline transforms it, against a
    DFT summed in long double from exactly reduced angles 2 pi (jk mod N)/N."""
    job, = (j for j in presets.expand("fig7") if j.stem == "fig7-n5-inv1")
    traj = pipeline.run_simulate(job.config).trajectories["site1"]
    values = apodize(remove_dc(traj), job.config.tau).values
    n_pad = len(values) * job.config.zero_pad
    angle = 8 * np.arctan(np.longdouble(1)) * np.arange(n_pad) / n_pad
    cos, sin = np.cos(angle), np.sin(angle)
    j = np.arange(len(values))
    wide = values.astype(np.longdouble)
    exact = np.empty(n_pad // 2 + 1, dtype=np.clongdouble)
    for start in range(0, len(exact), 1000):
        k = np.arange(start, min(start + 1000, len(exact)))
        r = np.outer(k, j) % n_pad
        exact[k] = cos[r] @ wide - 1j * (sin[r] @ wide)
    err = np.max(np.abs(spectra._rfft(values, n_pad) - exact))
    assert err <= 2e-15 * np.max(np.abs(exact))


def test_chirp_z_transform_of_zeros_is_exactly_zero():
    for n_samples, pad in ((2, 1), (64, 3), (4001, 4)):
        out = spectra._rfft(np.zeros(n_samples), n_samples * pad)
        assert out.shape == (n_samples * pad // 2 + 1,)
        assert not np.any(out)


def test_smooth_length_is_the_smallest_5_smooth_length():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(14)
                    for b in range(9) for c in range(7)
                    if 2 ** a * 3 ** b * 5 ** c <= 2 * 5000)
    for n in range(1, 5001):
        assert spectra._smooth_length(n) == next(m for m in smooth if m >= n)


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_spectra_take_only_5_smooth_fft_lengths(monkeypatch):
    """The preset length 4 x 4001 (4001 prime) is taken without any FFT at a
    slow length, and one plan is kept whatever sizes came before."""
    lengths = []

    def recorded(fft):
        def call(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return fft(a, n, *args, **kwargs)
        return call

    for name in ("fft", "ifft", "rfft"):
        monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name)))
    spectra._kept_chirp_plan.cache_clear()
    for pad in range(1, 6):
        process_trajectory(tone(5.0), 5.0, pad)
    assert lengths and all(_is_5_smooth(n) for n in lengths)
    process_trajectory(tone(5.0, n=1000), 5.0, 4)
    assert spectra._kept_chirp_plan.cache_info().currsize == 1


def test_a_plan_above_the_cache_bound_is_not_kept(monkeypatch):
    """A spectrum whose chirp-z plan exceeds PLAN_CACHE_BYTES leaves no plan
    behind; one within the bound keeps exactly its own plan."""
    values = np.random.default_rng(3).normal(size=4001)
    spectra._kept_chirp_plan.cache_clear()
    spectra._rfft(values, 4 * 4001)
    chirp, kernel = spectra._kept_chirp_plan(4001, 4 * 4001, 12150)
    assert spectra._kept_chirp_plan.cache_info().hits == 1
    plan_bytes = chirp.nbytes + kernel.nbytes
    assert plan_bytes <= spectra.PLAN_CACHE_BYTES
    del chirp, kernel
    monkeypatch.setattr(spectra, "PLAN_CACHE_BYTES", plan_bytes - 1)
    spectra._kept_chirp_plan.cache_clear()
    spectra._rfft(values, 4 * 4001)
    tracemalloc.start()
    try:
        spectra._rfft(values, 4 * 4001)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spectra._kept_chirp_plan.cache_info().currsize == 0
    assert retained < plan_bytes / 4

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


def _per_bin_peaks(spectrum, rel_threshold):
    """pick_peaks as one test per bin: the reference for its candidate search."""
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
        if mag[i - 1] > 0 and mag[i + 1] > 0:
            la, lc, lb = np.log(mag[i - 1]), np.log(mag[i]), np.log(mag[i + 1])
            shift = 0.5 * (la - lb) / (la - 2 * lc + lb)
            freq += shift * grid
            height = float(np.exp(lc - 0.25 * (la - lb) * shift))
        peaks.append(Peak(freq, height))
    return peaks


@pytest.mark.parametrize("seed", range(40))
def test_pick_peaks_equals_the_per_bin_search(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 400))
    if seed % 2:  # few levels: plateaus, equal neighbors, ties in a window
        mag = rng.integers(0, 4, size=size).astype(float)
    else:  # continuous heights, some bins exactly zero
        mag = rng.exponential(size=size) * (rng.random(size) > 0.2)
    if seed % 5 == 0 and size > 4:  # the window is clipped at both ends
        mag[[1, -2]] = mag.max() + 1.0
    if seed % 8 == 7:  # a NaN bin never reaches pick_peaks
        mag[int(rng.integers(size))] = math.nan
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.arange(size) * 0.05, mag, {})
        return
    spec = Spectrum(np.arange(size) * 0.05, mag,
                    {"zero_pad_factor": (1, 4)[seed % 4 // 2]})
    for rel in (0.05, 0.5, 0.99):
        assert pick_peaks(spec, rel) == _per_bin_peaks(spec, rel)


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
    special = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0, -42.0, 1e16, 0.5,
               math.nan, math.inf, -math.inf]
    values = np.concatenate([special, rng.normal(size=64)
                             * 10.0 ** rng.integers(-12, 12, size=64)])
    traj = Trajectory(DT, values, "site1")
    times = [i * DT for i in range(len(values))]
    assert format_trajectory_csv(traj) == _per_row_csv("t_seconds,value",
                                                       times, traj.values)
    assert format_csv("freq_hz,magnitude", values, np.abs(values)) == (
        _per_row_csv("freq_hz,magnitude", values, np.abs(values)))
    finite = values[np.isfinite(values)]
    spec = Spectrum(finite, np.abs(finite), {})
    assert format_spectrum_csv(spec) == _per_row_csv(
        "freq_hz,magnitude", spec.freq, spec.magnitude)
    assert format_trajectory_csv(Trajectory(DT, np.array([]), "e")) == (
        "t_seconds,value\n")
    spec = process_trajectory(tone(5.0), 5.0, 4)  # a preset spectrum's size
    assert len(spec.freq) == 8003
    assert format_spectrum_csv(spec) == _per_row_csv(
        "freq_hz,magnitude", spec.freq, spec.magnitude)


def test_csv_templates_of_alternating_grids():
    # two grids that differ only in the sign of a zero row, and a NaN row
    grid = np.array([0.0, 0.005, 1e-7, 2.5, math.nan, 4001 * 0.005])
    signed = grid.copy()
    signed[0] = -0.0
    rng = np.random.default_rng(12)
    dynamics._kept_row_template.cache_clear()
    for k in range(6):
        x = (grid, signed)[k % 2]
        y = rng.normal(size=len(x))
        y[k] = (-0.0, math.inf, math.nan, 5e-324, -1e300, 0.1 + 0.2)[k]
        text = format_csv("x,y", x, y)
        assert text == _per_row_csv("x,y", x, y)
        assert text.split("\n")[1].startswith("-0," if k % 2 else "0,")
    info = dynamics._kept_row_template.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


def test_csv_template_above_the_byte_bound_is_not_kept():
    rows = dynamics.TEMPLATE_CACHE_BYTES // dynamics.TEMPLATE_ROW_BYTES
    widest = np.full(rows, -1.23456789012e-308)  # the longest %.12g text
    assert len(dynamics._row_template(widest.tobytes())) <= (
        dynamics.TEMPLATE_CACHE_BYTES)
    rng = np.random.default_rng(13)
    dynamics._kept_row_template.cache_clear()
    x = np.arange(rows + 1) * DT
    y = rng.normal(size=rows + 1)
    assert format_csv("x,y", x, y) == _per_row_csv("x,y", x, y)
    assert dynamics._kept_row_template.cache_info().currsize == 0
    assert format_csv("x,y", x[:rows], y[:rows]) == _per_row_csv(
        "x,y", x[:rows], y[:rows])
    assert dynamics._kept_row_template.cache_info().currsize == 1


def test_preset_files_do_not_depend_on_threads(tmp_path, capsys):
    files = []
    for threads in ("1", "4"):
        dynamics._kept_row_template.cache_clear()
        out = tmp_path / threads
        assert main(["preset", "fig7", "--threads", threads,
                     "--out", str(out)]) == 0
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    capsys.readouterr()
    assert len(files[0]) == 2 * 2 * (2 + 3 + 4 + 5)  # a spectrum and a report
    assert files[0] == files[1]


def test_csv_formatter_refuses_columns_of_different_lengths():
    with pytest.raises(ValueError, match="3 and 2 rows"):
        format_csv("x,y", np.zeros(3), np.zeros(2))
