"""Seeded synthetic demo corpus: WAV tones, PGM frames, lexicon-drawn text.

Stands in for a private video corpus. A corpus is set by its size and seed
alone (SyntheticCorpusSpec); every sample has one TARGET_RATE clip of
CLIP_SECONDS, N_FRAMES image frames and one transcript, and HATE_FRACTION
of the samples are hate. Per-class signal recipes:

  * audio: per-sample draws from a class-specific tone palette (one pitch
    class per tone) over a band-shaped noise floor
  * image: class-specific mean brightness plus pixel texture noise
  * text: word draws from a class lexicon mixed with common/stop words

Each modality independently degrades a small fraction of samples to a
boundary case (the *_AMBIGUITY rates), which keeps single-modality test
accuracy in the high-80s/low-90s while 2-of-3 voting stays above it. The
recipe constants are regression-frozen: the end-to-end acceptance
thresholds were verified against them at seed 42.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modhate.ingest import TARGET_RATE, ManifestRecord, write_manifest

HATE_FRACTION = 0.6
N_FRAMES = 2
CLIP_SECONDS = 1.0
AUDIO_AMBIGUITY = 0.15
IMAGE_AMBIGUITY = 0.15
TEXT_AMBIGUITY = 0.15

# One tone per pitch class, spread over the mel axis so each lands in its
# own filter region. Hate owns classes F#..B (upper octaves), calm owns
# C..F. Per-sample independent presence/amplitude draws give every chroma
# bin and mel region its own class-correlated variation.
HATE_TONES_HZ = (1975.5, 2960.0, 3520.0, 3729.3, 6271.9, 6644.9)  # B6 F#7 A7 A#7 G8 G#8
CALM_TONES_HZ = (1046.5, 1244.5, 1396.9, 2217.5, 2637.0, 4698.6)  # C6 D#6 F6 C#7 E7 D8

# noise-floor shaping bands (Hz); per-sample random band gains keep the
# floor spectrally varied without separating the classes
NOISE_BANDS_HZ = (0.0, 300.0, 700.0, 1500.0, 3000.0, 6000.0, 11025.1)

HATE_LEXICON = (
    "hate hateful idiot stupid disgusting awful trash pathetic worst ugly loser angry"
).split()
CALM_LEXICON = (
    "love kind wonderful great happy friend peace joy amazing gentle nice best"
).split()
COMMON_WORDS = "video day people world time thing way life story moment".split()
FILLER_WORDS = "the a and is to of in it that was".split()


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_samples: int = 300
    seed: int = 42


def _labels(spec: SyntheticCorpusSpec) -> np.ndarray:
    n_hate = int(round(spec.n_samples * HATE_FRACTION))
    labels = np.array([1] * n_hate + [0] * (spec.n_samples - n_hate), dtype=np.int64)
    rng = np.random.default_rng([spec.seed, 999])
    rng.shuffle(labels)
    return labels


def _shaped_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / TARGET_RATE)
    gain = np.ones_like(freqs)
    for b in range(len(NOISE_BANDS_HZ) - 1):
        mask = (freqs >= NOISE_BANDS_HZ[b]) & (freqs < NOISE_BANDS_HZ[b + 1])
        gain[mask] = rng.uniform(0.5, 1.5)
    return np.fft.irfft(spec * gain, n)


def _synth_audio(rng: np.random.Generator, label: int, ambiguous: bool, n: int) -> np.ndarray:
    t = np.arange(n) / TARGET_RATE
    sig = np.zeros(n)
    if ambiguous:
        scale = rng.uniform(0.05, 0.085)
        p_own = p_cross = 0.375
    else:
        scale = rng.uniform(0.07, 0.10) if label == 1 else rng.uniform(0.04, 0.07)
        p_own, p_cross = 0.65, 0.10
    own = HATE_TONES_HZ if label == 1 else CALM_TONES_HZ
    cross = CALM_TONES_HZ if label == 1 else HATE_TONES_HZ
    for pool, presence in ((own, p_own), (cross, p_cross)):
        for freq in pool:
            if rng.uniform() >= presence:
                continue
            # fast AM breaks up tone beats so energy entropy stays class-blind
            am = 1.0 + rng.uniform(0.0, 0.8) * np.sin(
                2.0 * np.pi * rng.uniform(40.0, 120.0) * t + rng.uniform(0.0, 2.0 * np.pi))
            sig += scale * rng.uniform(0.7, 1.3) * am * np.sin(
                2.0 * np.pi * (freq + rng.uniform(-10.0, 10.0)) * t + rng.uniform(0.0, 2.0 * np.pi))
    sig += scale * rng.uniform(0.08, 0.12) * _shaped_noise(rng, n)
    # class-blind transient: a noise burst of random strength and position;
    # with the noise ratio above it dominates the entropy/spread/flux
    # features, which is what lets mRMR rank them as expendable
    dur = int(rng.uniform(0.02, 0.05) * TARGET_RATE)
    start = int(rng.uniform(0.0, n - dur))
    strength = scale * rng.uniform(0.0, 3.0)
    env = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(dur) / dur)
    sig[start:start + dur] += strength * env * rng.standard_normal(dur)
    peak = np.abs(sig).max()
    if peak > 0.95:
        sig *= 0.95 / peak
    return sig


def _write_wav(path: Path, samples: np.ndarray) -> None:
    ints = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(TARGET_RATE)
        w.writeframes(ints.tobytes())


def _synth_frame(rng: np.random.Generator, label: int, ambiguous: bool) -> np.ndarray:
    if ambiguous:
        base = 0.50
    else:
        base = 0.62 if label == 1 else 0.38
    base += rng.normal(0.0, 0.04)
    px = base + 0.18 * rng.standard_normal((50, 50))
    return np.clip(np.round(px * 255.0), 0, 255).astype(np.uint8)


def _write_pgm(path: Path, grid: np.ndarray) -> None:
    h, w = grid.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + grid.tobytes())


def _synth_text(rng: np.random.Generator, label: int, ambiguous: bool) -> str:
    n_words = int(rng.integers(20, 40))
    words = []
    for _ in range(n_words):
        u = rng.uniform()
        if u < 0.45:
            if ambiguous:
                pool = HATE_LEXICON if rng.uniform() < 0.5 else CALM_LEXICON
            else:
                pool = HATE_LEXICON if label == 1 else CALM_LEXICON
        elif u < 0.80:
            pool = COMMON_WORDS
        else:
            pool = FILLER_WORDS
        words.append(pool[int(rng.integers(0, len(pool)))])
    # scruffy rendering: punctuation and casing the tokenizer must strip
    out = []
    for i, word in enumerate(words):
        if rng.uniform() < 0.15:
            word = word.upper()
        if rng.uniform() < 0.2:
            word += "!" if rng.uniform() < 0.5 else ","
        out.append(word)
        if i % 9 == 8:
            out.append("\n")
    return " ".join(out) + ".\n"


def generate_demo_corpus(spec: SyntheticCorpusSpec, out_dir: str | Path) -> Path:
    """Write the corpus under out_dir and return the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)
    (out_dir / "frames").mkdir(exist_ok=True)
    (out_dir / "text").mkdir(exist_ok=True)

    labels = _labels(spec)
    n_clip = int(round(CLIP_SECONDS * TARGET_RATE))
    records = []
    for i in range(spec.n_samples):
        sid = f"s{i:04d}"
        label = int(labels[i])

        rng_a = np.random.default_rng([spec.seed, i, 0])
        ambiguous_a = rng_a.uniform() < AUDIO_AMBIGUITY
        wav_path = out_dir / "audio" / f"{sid}.wav"
        _write_wav(wav_path, _synth_audio(rng_a, label, ambiguous_a, n_clip))

        rng_i = np.random.default_rng([spec.seed, i, 1])
        ambiguous_i = rng_i.uniform() < IMAGE_AMBIGUITY
        frame_dir = out_dir / "frames" / sid
        frame_dir.mkdir(exist_ok=True)
        for f in range(N_FRAMES):
            _write_pgm(frame_dir / f"f{f:02d}.pgm", _synth_frame(rng_i, label, ambiguous_i))

        rng_t = np.random.default_rng([spec.seed, i, 2])
        ambiguous_t = rng_t.uniform() < TEXT_AMBIGUITY
        text_path = out_dir / "text" / f"{sid}.txt"
        text_path.write_text(_synth_text(rng_t, label, ambiguous_t), encoding="utf-8")

        records.append(ManifestRecord(
            id=sid, audio_path=wav_path, image_dir=frame_dir,
            text_path=text_path, label=label, split="auto",
        ))

    manifest = out_dir / "manifest.csv"
    write_manifest(records, manifest, relative_to=out_dir)
    return manifest
