"""Short-term audio analysis: framing plus time- and frequency-domain features.

The analysis is fixed: read_wav resamples every clip to TARGET_RATE
(22050 Hz), and a clip is cut into frames of FRAME_LENGTH = 512 samples
advanced by a hop of HOP_LENGTH = 256. AUDIO_FRONTEND records that one
frontend in features/frontend.json and in each audio model. Every feature
below is computed per frame and the clip-level vector is the mean across
frames, in the fixed 33-value layout of AUDIO_FEATURE_NAMES:

    energy, zcr, energy_entropy, centroid_hz, spread_hz, spectral_entropy,
    flux, rolloff_hz, mfcc_00..mfcc_12, chroma_00..chroma_11

Time-domain features see the raw frame; frequency-domain features see the
magnitude spectrum of the Hann-windowed frame.

The per-frame functions (`energy` ... `chroma_vector`) define each feature
and are the reference. `extract_audio_features` computes the same features
on the whole (n_frames, FRAME_LENGTH) block at once, in the same summation
order, so its result equals the per-frame loop bit for bit.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from modhate.errors import BadFractionError, BadSubframeCountError, LengthMismatchError
from modhate.ingest import TARGET_RATE, AudioClip

FRAME_LENGTH = 512
HOP_LENGTH = 256
LOG_FLOOR = 1e-10
N_MFCC_FILTERS = 26
N_MFCC_COEFFS = 13
N_CHROMA = 12
ENERGY_ENTROPY_SUBFRAMES = 8
SPECTRAL_ENTROPY_BANDS = 16
ROLLOFF_FRACTION = 0.90
CHROMA_MIN_HZ = 20.0

AUDIO_FEATURE_NAMES = (
    ["energy", "zcr", "energy_entropy", "centroid_hz", "spread_hz",
     "spectral_entropy", "flux", "rolloff_hz"]
    + [f"mfcc_{i:02d}" for i in range(N_MFCC_COEFFS)]
    + [f"chroma_{i:02d}" for i in range(N_CHROMA)]
)
N_AUDIO_FEATURES = len(AUDIO_FEATURE_NAMES)   # 33

# written to features/frontend.json and copied into every audio model
AUDIO_FRONTEND = {"kind": "audio", "frame_length": FRAME_LENGTH,
                  "hop_length": HOP_LENGTH, "sample_rate": TARGET_RATE}


class Spectrum(NamedTuple):
    """Single-sided magnitude spectrum: bin k sits at k*sample_rate/frame_length Hz."""
    freqs: np.ndarray
    mags: np.ndarray


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Cut the clip into overlapping frames, zero-padding the tail.

    Frame i covers samples [i*HOP_LENGTH, i*HOP_LENGTH + FRAME_LENGTH); the
    frame count is ceil(max(n - FRAME_LENGTH, 0) / HOP_LENGTH) + 1. Returns
    (n_frames, FRAME_LENGTH).
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    n = x.shape[0]
    count = int(np.ceil(max(n - FRAME_LENGTH, 0) / HOP_LENGTH)) + 1
    padded = np.zeros((count - 1) * HOP_LENGTH + FRAME_LENGTH, dtype=np.float64)
    padded[:n] = x
    return np.lib.stride_tricks.sliding_window_view(padded, FRAME_LENGTH)[::HOP_LENGTH].copy()


def energy(frame: np.ndarray) -> float:
    """Mean of squared amplitudes (sum of signal squares over frame length)."""
    frame = np.asarray(frame, dtype=np.float64)
    return float(np.sum(frame * frame) / frame.shape[0])


def zero_crossing_rate(frame: np.ndarray) -> float:
    """Fraction of adjacent sample pairs whose signs differ; sign(0) = +1."""
    frame = np.asarray(frame, dtype=np.float64)
    signs = np.where(frame >= 0.0, 1, -1)
    return float(np.count_nonzero(signs[1:] != signs[:-1]) / frame.shape[0])


def energy_entropy(frame: np.ndarray, n_sub: int = ENERGY_ENTROPY_SUBFRAMES) -> float:
    """Shannon entropy (bits) of the energy distribution over equal sub-frames.

    A zero-energy frame falls back to the uniform distribution, giving
    log2(n_sub) bits.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if n_sub < 1 or frame.shape[0] % n_sub != 0:
        raise BadSubframeCountError(f"{n_sub} sub-frames do not divide length {frame.shape[0]}")
    sub = frame.reshape(n_sub, -1)
    e = np.sum(sub * sub, axis=1)
    total = e.sum()
    if total == 0.0:
        p = np.full(n_sub, 1.0 / n_sub)
    else:
        p = e / total
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def magnitude_spectrum(frame: np.ndarray, sample_rate: int = TARGET_RATE) -> Spectrum:
    """Magnitudes of the real DFT, bins 0..len(frame)//2."""
    frame = np.asarray(frame, dtype=np.float64)
    mags = np.abs(np.fft.rfft(frame))
    freqs = np.fft.rfftfreq(frame.shape[0], 1.0 / sample_rate)
    return Spectrum(freqs=freqs, mags=mags)


def spectral_centroid_spread(spectrum: Spectrum) -> tuple[float, float]:
    """Magnitude-weighted mean frequency and its standard deviation, in Hz.

    An all-zero spectrum returns (0, 0) by convention.
    """
    m = spectrum.mags
    total = m.sum()
    if total == 0.0:
        return 0.0, 0.0
    centroid = float((spectrum.freqs * m).sum() / total)
    spread = float(np.sqrt((((spectrum.freqs - centroid) ** 2) * m).sum() / total))
    return centroid, spread


def spectral_entropy(spectrum: Spectrum, n_bands: int = SPECTRAL_ENTROPY_BANDS) -> float:
    """Shannon entropy (bits) of spectral energy over contiguous bands.

    Band j spans bins [j*L//n_bands, (j+1)*L//n_bands); a zero spectrum
    falls back to the uniform distribution.
    """
    power = spectrum.mags * spectrum.mags
    length = power.shape[0]
    bounds = [length * j // n_bands for j in range(n_bands + 1)]
    e = np.array([power[bounds[j]:bounds[j + 1]].sum() for j in range(n_bands)])
    total = e.sum()
    if total == 0.0:
        p = np.full(n_bands, 1.0 / n_bands)
    else:
        p = e / total
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def spectral_flux(current: Spectrum, previous: Spectrum) -> float:
    """Squared difference of unit-sum-normalized magnitudes between frames."""
    a, b = current.mags, previous.mags
    if a.shape != b.shape:
        raise LengthMismatchError(f"spectra of lengths {a.shape[0]} and {b.shape[0]}")

    def normed(m: np.ndarray) -> np.ndarray:
        s = m.sum()
        if s == 0.0:
            return np.full(m.shape[0], 1.0 / m.shape[0])
        return m / s

    d = normed(a) - normed(b)
    return float(np.sum(d * d))


def spectral_rolloff(spectrum: Spectrum, fraction: float = ROLLOFF_FRACTION) -> float:
    """Frequency below which `fraction` of the spectral energy lies.

    Smallest bin K with cumulative squared magnitude >= fraction * total;
    0 Hz for a zero spectrum.
    """
    if not 0.0 < fraction < 1.0:
        raise BadFractionError(f"rolloff fraction must be in (0, 1), got {fraction}")
    power = spectrum.mags * spectrum.mags
    cum = np.cumsum(power)
    total = cum[-1]
    if total == 0.0:
        return 0.0
    k = int(np.searchsorted(cum, fraction * total))
    return float(spectrum.freqs[k])


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(n_filters: int, freqs: np.ndarray) -> np.ndarray:
    """Triangular filters with centers equally spaced on the mel scale."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(freqs[-1]), n_filters + 2))
    bank = np.zeros((n_filters, freqs.shape[0]))
    for j in range(n_filters):
        lo, mid, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        bank[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _dct2_basis(n: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine basis (n_out, n) and per-row scale of the orthonormal DCT-II."""
    k = np.arange(n_out)[:, None]
    j = np.arange(n)[None, :]
    basis = np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    scale = np.full(n_out, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return basis, scale


def _dct2_ortho(x: np.ndarray, n_out: int) -> np.ndarray:
    basis, scale = _dct2_basis(x.shape[0], n_out)
    return scale * (basis @ x)


def mfcc(spectrum: Spectrum, n_filters: int = N_MFCC_FILTERS, n_coeffs: int = N_MFCC_COEFFS) -> np.ndarray:
    """Mel-frequency cepstral coefficients 0..12.

    Triangular mel filters are applied to the squared magnitudes, filter
    energies are log-compressed with a 1e-10 floor, and an orthonormal
    DCT-II decorrelates the log energies.
    """
    power = spectrum.mags * spectrum.mags
    energies = _mel_filterbank(n_filters, spectrum.freqs) @ power
    logs = np.log(np.maximum(energies, LOG_FLOOR))
    return _dct2_ortho(logs, n_coeffs)


def _pitch_classes(freqs: np.ndarray) -> np.ndarray:
    return (np.rint(12.0 * np.log2(freqs / 440.0)).astype(int) + 69) % 12


def chroma_vector(spectrum: Spectrum) -> np.ndarray:
    """12-bin pitch-class profile (C=0) of log-compressed class magnitudes.

    Bins at or above 20 Hz map to pitch class (rint(12*log2(f/440)) + 69)
    mod 12; each class yields log(mean magnitude + 1e-10) and an empty
    class yields log(1e-10).
    """
    out = np.full(N_CHROMA, np.log(LOG_FLOOR))
    mask = spectrum.freqs >= CHROMA_MIN_HZ
    if not mask.any():
        return out
    classes = _pitch_classes(spectrum.freqs[mask])
    mags = spectrum.mags[mask]
    for c in range(N_CHROMA):
        sel = classes == c
        if sel.any():
            out[c] = np.log(mags[sel].mean() + LOG_FLOOR)
    return out


def _hann(n: int) -> np.ndarray:
    # periodic form, matching the DFT length
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


class _Plan(NamedTuple):
    """Constants of the one frontend, shared by every clip."""
    window: np.ndarray
    freqs: np.ndarray
    mel_bank: np.ndarray
    dct_basis: np.ndarray
    dct_scale: np.ndarray
    band_bounds: tuple[int, ...]
    chroma_bins: tuple[np.ndarray, ...]   # spectrum bins of each pitch class, C=0


@functools.cache
def _plan() -> _Plan:
    freqs = np.fft.rfftfreq(FRAME_LENGTH, 1.0 / TARGET_RATE)
    length = freqs.shape[0]
    bins = np.flatnonzero(freqs >= CHROMA_MIN_HZ)
    classes = _pitch_classes(freqs[bins])
    plan = _Plan(_hann(FRAME_LENGTH), freqs, _mel_filterbank(N_MFCC_FILTERS, freqs),
                 *_dct2_basis(N_MFCC_FILTERS, N_MFCC_COEFFS),
                 tuple(length * j // SPECTRAL_ENTROPY_BANDS for j in range(SPECTRAL_ENTROPY_BANDS + 1)),
                 tuple(bins[classes == c] for c in range(N_CHROMA)))
    for a in (plan.window, plan.freqs, plan.mel_bank, plan.dct_basis, plan.dct_scale, *plan.chroma_bins):
        a.flags.writeable = False   # the cache hands the same arrays to every call
    return plan


def _entropy_rows(e: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of e taken as a distribution, as in
    `energy_entropy`: a zero row is uniform, and zero entries are left out."""
    total = e.sum(axis=1)
    live = total != 0.0
    p = np.full(e.shape, 1.0 / e.shape[1])
    p[live] = e[live] / total[live, None]
    out = np.empty(e.shape[0])
    full = (p > 0.0).all(axis=1)
    q = p[full]
    out[full] = -(q * np.log2(q)).sum(axis=1)
    # dropping a zero changes the pairwise grouping of the sum, so such rows
    # take the 1-D form of the reference
    for i in np.flatnonzero(~full):
        nz = p[i][p[i] > 0.0]
        out[i] = -np.sum(nz * np.log2(nz))
    return out


def extract_audio_features(clip: AudioClip) -> np.ndarray:
    """Per-frame features averaged into the fixed 33-value clip vector.

    Every feature is computed on the whole frame block; the result equals,
    bit for bit, applying the per-frame functions to each frame in turn.
    """
    plan = _plan()
    frames = frame_signal(clip)
    n = frames.shape[0]
    mags = np.abs(np.fft.rfft(frames * plan.window, axis=1))
    power = mags * mags
    total = mags.sum(axis=1)
    live = total != 0.0

    rows = np.empty((n, N_AUDIO_FEATURES))
    rows[:, 0] = (frames * frames).sum(axis=1) / FRAME_LENGTH
    signs = np.where(frames >= 0.0, 1, -1)
    rows[:, 1] = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1) / FRAME_LENGTH
    sub = frames.reshape(n, ENERGY_ENTROPY_SUBFRAMES, -1)
    rows[:, 2] = _entropy_rows((sub * sub).sum(axis=2))

    # dividing a zero spectrum by 1 gives its centroid and spread of (0, 0)
    safe = np.where(live, total, 1.0)
    centroid = (plan.freqs * mags).sum(axis=1) / safe
    rows[:, 3] = centroid
    rows[:, 4] = np.sqrt((((plan.freqs - centroid[:, None]) ** 2) * mags).sum(axis=1) / safe)

    bounds = plan.band_bounds
    rows[:, 5] = _entropy_rows(np.stack(
        [power[:, a:b].sum(axis=1) for a, b in zip(bounds[:-1], bounds[1:])], axis=1))

    normed = np.full(mags.shape, 1.0 / mags.shape[1])
    normed[live] = mags[live] / total[live, None]
    d = normed[1:] - normed[:-1]
    rows[0, 6] = 0.0
    rows[1:, 6] = (d * d).sum(axis=1)

    # a zero spectrum stops at bin 0, which is 0 Hz
    cum = np.cumsum(power, axis=1)
    rows[:, 7] = plan.freqs[np.argmax(cum >= ROLLOFF_FRACTION * cum[:, -1:], axis=1)]

    # one matrix-vector product per frame: a single matrix product would sum
    # in another order than the reference
    energies = np.array([plan.mel_bank @ p for p in power])
    logs = np.log(np.maximum(energies, LOG_FLOOR))
    rows[:, 8:8 + N_MFCC_COEFFS] = plan.dct_scale * np.array([plan.dct_basis @ x for x in logs])

    rows[:, 8 + N_MFCC_COEFFS:] = np.log(LOG_FLOOR)   # an empty pitch class
    for c, idx in enumerate(plan.chroma_bins):
        if idx.size:
            # the fancy-indexed block is not C-contiguous; averaging it in
            # place would change the order of the additions
            block = np.ascontiguousarray(mags[:, idx])
            rows[:, 8 + N_MFCC_COEFFS + c] = np.log(block.mean(axis=1) + LOG_FLOOR)
    return rows.mean(axis=0)
