import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhate import audio_features as af
from modhate.errors import BadFractionError, BadSubframeCountError, LengthMismatchError
from modhate.ingest import AudioClip, read_wav
from modhate.synthetic import SyntheticCorpusSpec, generate_demo_corpus

SR = 22050
WL = 512


def clip_of(x):
    return AudioClip(samples=np.asarray(x, dtype=np.float64))


def naive_dft_mags(frame):
    """O(n^2) real-DFT magnitude oracle."""
    n = len(frame)
    j = np.arange(n)
    out = np.empty(n // 2 + 1)
    for k in range(n // 2 + 1):
        re = float(np.sum(frame * np.cos(2 * np.pi * k * j / n)))
        im = float(-np.sum(frame * np.sin(2 * np.pi * k * j / n)))
        out[k] = np.hypot(re, im)
    return out


class TestFrameSignal:
    def test_exact_fit_single_frame(self):
        frames = af.frame_signal(clip_of(np.ones(512)))
        assert frames.shape == (1, 512)
        assert np.all(frames == 1.0)

    def test_three_frames_at_expected_offsets(self):
        x = np.arange(1024, dtype=float)
        frames = af.frame_signal(clip_of(x))
        assert frames.shape == (3, 512)
        assert np.array_equal(frames[0], x[0:512])
        assert np.array_equal(frames[1], x[256:768])
        assert np.array_equal(frames[2], x[512:1024])

    def test_short_clip_zero_padded(self):
        frames = af.frame_signal(clip_of(np.ones(100)))
        assert frames.shape == (1, 512)
        assert np.all(frames[0, :100] == 1.0)
        assert np.all(frames[0, 100:] == 0.0)

    @given(n=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_frame_count_formula(self, n):
        frames = af.frame_signal(clip_of(np.zeros(n)))
        assert frames.shape[0] == int(np.ceil(max(n - 512, 0) / 256)) + 1


class TestEnergy:
    def test_zero_frame(self):
        assert af.energy(np.zeros(512)) == 0.0

    def test_hand_value(self):
        # (1 + 1 + 4) / 3
        assert af.energy(np.array([1.0, -1.0, 2.0])) == pytest.approx(2.0, abs=1e-15)

    def test_unit_frame(self):
        assert af.energy(np.ones(512)) == 1.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 512)
        for c in (0.5, -0.25, 0.9):
            assert abs(af.energy(c * x) - c * c * af.energy(x)) < 1e-12


class TestZeroCrossingRate:
    def test_constant_positive(self):
        assert af.zero_crossing_rate(np.ones(512)) == 0.0

    def test_alternating(self):
        assert af.zero_crossing_rate(np.array([1.0, -1.0, 1.0, -1.0])) == 0.75

    def test_zeros_count_positive(self):
        assert af.zero_crossing_rate(np.zeros(512)) == 0.0

    def test_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=256)
            r = af.zero_crossing_rate(x)
            assert 0.0 <= r < 1.0
            assert af.zero_crossing_rate(3.7 * x) == r


class TestEnergyEntropy:
    def test_single_hot_subframe(self):
        x = np.zeros(512)
        x[:64] = 1.0
        assert af.energy_entropy(x) == 0.0

    def test_uniform_subframes(self):
        assert af.energy_entropy(np.ones(512)) == pytest.approx(3.0, abs=1e-12)

    def test_zero_frame_uniform_fallback(self):
        assert af.energy_entropy(np.zeros(512)) == pytest.approx(np.log2(8), abs=1e-12)

    def test_bad_subframe_count(self):
        with pytest.raises(BadSubframeCountError):
            af.energy_entropy(np.zeros(100), n_sub=8)


class TestMagnitudeSpectrum:
    def test_zero_frame(self):
        spec = af.magnitude_spectrum(np.zeros(WL), SR)
        assert spec.mags.shape == (257,)
        assert np.all(spec.mags == 0.0)
        assert spec.freqs[1] == pytest.approx(SR / WL)

    def test_pure_cosine_peaks_at_bin3(self):
        t = np.arange(WL)
        frame = np.cos(2 * np.pi * 3 * t / WL)
        spec = af.magnitude_spectrum(frame, SR)
        assert int(np.argmax(spec.mags)) == 3

    def test_constant_frame_dc(self):
        spec = af.magnitude_spectrum(np.full(WL, 0.7), SR)
        assert spec.mags[0] == pytest.approx(0.7 * WL, rel=1e-12)
        assert np.all(spec.mags[1:] < 1e-9)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            frame = rng.uniform(-1, 1, WL)
            impl = af.magnitude_spectrum(frame, SR).mags
            oracle = naive_dft_mags(frame)
            rel = np.abs(impl - oracle) / (np.abs(oracle) + 1e-12 * oracle.max())
            assert rel.max() < 1e-6


def spec_with(mag_pairs, n_bins=257):
    freqs = np.fft.rfftfreq(WL, 1.0 / SR)[:n_bins]
    mags = np.zeros(n_bins)
    for k, m in mag_pairs:
        mags[k] = m
    return af.Spectrum(freqs=freqs, mags=mags)


class TestCentroidSpread:
    def test_point_mass(self):
        freqs = np.array([0.0, 500.0, 1000.0, 1500.0])
        spec = af.Spectrum(freqs=freqs, mags=np.array([0.0, 0.0, 2.0, 0.0]))
        assert af.spectral_centroid_spread(spec) == (1000.0, 0.0)

    def test_two_point_mean_and_stddev(self):
        freqs = np.array([0.0, 400.0, 800.0])
        spec = af.Spectrum(freqs=freqs, mags=np.array([0.0, 1.0, 1.0]))
        c, s = af.spectral_centroid_spread(spec)
        assert c == pytest.approx(600.0)
        assert s == pytest.approx(200.0)

    def test_zero_spectrum_convention(self):
        spec = spec_with([])
        assert af.spectral_centroid_spread(spec) == (0.0, 0.0)

    def test_bounds_on_random_spectra(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = af.magnitude_spectrum(rng.normal(size=WL), SR)
            c, s = af.spectral_centroid_spread(spec)
            assert 0.0 <= c <= SR / 2
            assert s >= 0.0


class TestSpectralEntropy:
    def test_point_mass(self):
        assert af.spectral_entropy(spec_with([(3, 2.0)])) == 0.0

    def test_uniform_band_energies(self):
        # one equal spike per band -> exactly uniform band distribution
        bounds = [257 * j // 16 for j in range(17)]
        spec = spec_with([(bounds[j], 1.0) for j in range(16)])
        assert af.spectral_entropy(spec) == pytest.approx(4.0, abs=1e-12)

    def test_zero_spectrum_uniform_fallback(self):
        assert af.spectral_entropy(spec_with([])) == pytest.approx(4.0, abs=1e-12)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            spec = af.magnitude_spectrum(rng.normal(size=WL), SR)
            assert 0.0 <= af.spectral_entropy(spec) <= 4.0


class TestSpectralFlux:
    def test_identical_spectra(self):
        spec = spec_with([(5, 1.0), (9, 2.0)])
        assert af.spectral_flux(spec, spec) == 0.0

    def test_disjoint_single_bins(self):
        assert af.spectral_flux(spec_with([(3, 5.0)]), spec_with([(10, 0.25)])) == pytest.approx(2.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            af.spectral_flux(spec_with([], n_bins=10), spec_with([], n_bins=11))


class TestSpectralRolloff:
    def test_point_mass_any_fraction(self):
        spec = spec_with([(3, 2.0)])
        for frac in (0.1, 0.5, 0.9, 0.99):
            assert af.spectral_rolloff(spec, frac) == spec.freqs[3]

    def test_uniform_ten_bins(self):
        spec = spec_with([(k, 1.0) for k in range(10)], n_bins=10)
        assert af.spectral_rolloff(spec, 0.9) == spec.freqs[8]

    def test_monotonic_in_fraction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = af.magnitude_spectrum(rng.normal(size=WL), SR)
            assert af.spectral_rolloff(spec, 0.5) <= af.spectral_rolloff(spec, 0.9)

    def test_bad_fraction(self):
        with pytest.raises(BadFractionError):
            af.spectral_rolloff(spec_with([]), 1.0)


class TestMfcc:
    def test_output_length(self):
        rng = np.random.default_rng(8)
        spec = af.magnitude_spectrum(rng.normal(size=WL), SR)
        assert af.mfcc(spec).shape == (13,)

    def test_zero_spectrum_constant_log(self):
        # DCT of a constant vector has only the 0th component
        coeffs = af.mfcc(spec_with([]))
        assert coeffs[0] == pytest.approx(np.sqrt(1 / 26) * 26 * np.log(1e-10), rel=1e-12)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-9)

    def test_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(9)
        frame = rng.uniform(-1, 1, WL)   # broadband: every filter well above the floor
        a = af.mfcc(af.magnitude_spectrum(frame, SR))
        b = af.mfcc(af.magnitude_spectrum(2.0 * frame, SR))
        assert abs((b[0] - a[0]) - np.sqrt(1 / 26) * 26 * np.log(4.0)) < 1e-9
        assert np.allclose(a[1:], b[1:], atol=1e-9)

    def test_dct_is_orthonormal(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=26)
        full = af._dct2_ortho(x, 26)
        assert np.linalg.norm(full) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def chroma_oracle_argmax(freq_hz):
    """Independent path: naive DFT + scalar class map + per-class log-mean."""
    t = np.arange(WL) / SR
    frame = np.sin(2 * np.pi * freq_hz * t) * af._hann(WL)
    mags = naive_dft_mags(frame)
    freqs = np.fft.rfftfreq(WL, 1.0 / SR)
    sums = np.zeros(12)
    counts = np.zeros(12)
    for k in range(len(freqs)):
        if freqs[k] < 20.0:
            continue
        c = (int(np.rint(12 * np.log2(freqs[k] / 440.0))) + 69) % 12
        sums[c] += mags[k]
        counts[c] += 1
    vals = np.full(12, np.log(1e-10))
    for c in range(12):
        if counts[c]:
            vals[c] = np.log(sums[c] / counts[c] + 1e-10)
    return int(np.argmax(vals))


class TestChroma:
    def test_output_length(self):
        assert af.chroma_vector(spec_with([])).shape == (12,)

    def test_440_tone_class_a(self):
        t = np.arange(WL) / SR
        frame = np.sin(2 * np.pi * 440.0 * t) * af._hann(WL)
        ch = af.chroma_vector(af.magnitude_spectrum(frame, SR))
        assert int(np.argmax(ch)) == 9
        assert chroma_oracle_argmax(440.0) == 9

    def test_octave_invariance(self):
        t = np.arange(WL) / SR
        argmaxes = []
        for f0 in (220.0, 440.0, 880.0):
            frame = np.sin(2 * np.pi * f0 * t) * af._hann(WL)
            ch = af.chroma_vector(af.magnitude_spectrum(frame, SR))
            argmaxes.append(int(np.argmax(ch)))
            assert chroma_oracle_argmax(f0) == argmaxes[-1]
        assert argmaxes == [9, 9, 9]

    def test_silence_floor(self):
        ch = af.chroma_vector(spec_with([]))
        assert np.allclose(ch, np.log(1e-10))


class TestExtractAudioFeatures:
    def test_silence_constants(self):
        v = af.extract_audio_features(clip_of(np.zeros(SR)))
        names = af.AUDIO_FEATURE_NAMES
        vec = dict(zip(names, v))
        assert vec["energy"] == 0.0
        assert vec["zcr"] == 0.0
        assert vec["energy_entropy"] == pytest.approx(3.0, abs=1e-12)
        assert vec["centroid_hz"] == 0.0
        assert vec["spread_hz"] == 0.0
        assert vec["spectral_entropy"] == pytest.approx(4.0, abs=1e-12)
        assert vec["flux"] == 0.0
        assert vec["rolloff_hz"] == 0.0
        assert vec["mfcc_00"] == pytest.approx(np.sqrt(1 / 26) * 26 * np.log(1e-10), rel=1e-12)
        assert all(abs(vec[f"mfcc_{i:02d}"]) < 1e-9 for i in range(1, 13))
        assert all(vec[f"chroma_{i:02d}"] == pytest.approx(np.log(1e-10)) for i in range(12))

    def test_1khz_sine_centroid_within_one_bin(self):
        t = np.arange(SR) / SR
        v = af.extract_audio_features(clip_of(np.sin(2 * np.pi * 1000.0 * t)))
        centroid = v[af.AUDIO_FEATURE_NAMES.index("centroid_hz")]
        assert abs(centroid - 1000.0) <= SR / WL

    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(12)
        v = af.extract_audio_features(clip_of(rng.uniform(-1, 1, 3000)))
        assert v.shape == (33,)
        assert np.all(np.isfinite(v))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, 5000)
        a = af.extract_audio_features(clip_of(x))
        b = af.extract_audio_features(clip_of(x.copy()))
        assert np.array_equal(a, b)


def per_frame_features(clip):
    """Reference: the per-frame functions applied frame by frame, then averaged."""
    frames = af.frame_signal(clip)
    window = af._hann(WL)
    rows = np.empty((frames.shape[0], af.N_AUDIO_FEATURES))
    prev = None
    for i, frame in enumerate(frames):
        spec = af.magnitude_spectrum(frame * window, SR)
        centroid, spread = af.spectral_centroid_spread(spec)
        flux = 0.0 if prev is None else af.spectral_flux(spec, prev)
        rows[i, 0] = af.energy(frame)
        rows[i, 1] = af.zero_crossing_rate(frame)
        rows[i, 2] = af.energy_entropy(frame)
        rows[i, 3] = centroid
        rows[i, 4] = spread
        rows[i, 5] = af.spectral_entropy(spec)
        rows[i, 6] = flux
        rows[i, 7] = af.spectral_rolloff(spec)
        rows[i, 8:8 + af.N_MFCC_COEFFS] = af.mfcc(spec)
        rows[i, 8 + af.N_MFCC_COEFFS:] = af.chroma_vector(spec)
        prev = spec
    return rows.mean(axis=0)


def assert_bitwise_equal_to_oracle(clip):
    got, want = af.extract_audio_features(clip), per_frame_features(clip)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
        [af.AUDIO_FEATURE_NAMES[i] for i in np.flatnonzero(got != want)]


@pytest.fixture(scope="module")
def demo_clips(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("demo_audio")
    generate_demo_corpus(SyntheticCorpusSpec(n_samples=12, seed=42), corpus)
    return [read_wav(p) for p in sorted((corpus / "audio").glob("*.wav"))]


def gappy_clip():
    # noise bursts around silence: whole zero frames, and frames whose first
    # or last energy sub-frames are zero
    x = np.random.default_rng(14).uniform(-1, 1, 3000)
    x[600:1800] = 0.0
    x[2100:2180] = 0.0
    return clip_of(x)


class TestBlockMatchesPerFrameOracle:
    def test_demo_clips(self, demo_clips):
        for clip in demo_clips:
            assert_bitwise_equal_to_oracle(clip)

    @pytest.mark.parametrize("clip", [
        clip_of(np.zeros(SR)),
        clip_of(np.random.default_rng(15).uniform(-1, 1, 100)),
        gappy_clip(),
    ], ids=["all_zero", "shorter_than_a_frame", "zero_energy_subframes"])
    def test_edge_clips(self, clip):
        assert_bitwise_equal_to_oracle(clip)

    @given(n=st.integers(min_value=1, max_value=4000),
           amplitude=st.sampled_from([0.0, 1e-9, 0.01, 1.0, 3.0]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_clips(self, n, amplitude, seed):
        x = amplitude * np.random.default_rng(seed).uniform(-1, 1, n)
        assert_bitwise_equal_to_oracle(clip_of(x))
