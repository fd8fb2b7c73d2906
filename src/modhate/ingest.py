"""Corpus ingestion: manifest parsing, raw modality readers, train/test split.

File formats handled here:
  * manifest: CSV with header ``id,audio_path,image_dir,text_path,label,split``,
    UTF-8, ``#``-prefixed comment lines ignored. Relative paths are resolved
    against the manifest's directory.
  * audio: RIFF/WAVE little-endian, PCM (format 1), 16-bit, mono.
  * image: binary PGM (``P5``), 8-bit, maxval 255.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modhate.errors import (
    BadLabelError,
    BadSplitError,
    CorruptHeaderError,
    DataError,
    DuplicateIdError,
    EmptyAudioError,
    MissingColumnError,
    NotPgmError,
    NotWavError,
    TooFewSamplesError,
    UnreadableFileError,
    UnsupportedEncodingError,
)

TARGET_RATE = 22050
IMAGE_SIZE = 50

MANIFEST_COLUMNS = ("id", "audio_path", "image_dir", "text_path", "label", "split")
TRAIN_FRACTION = 0.8
MIN_AUTO_RECORDS = 5


@dataclass(frozen=True)
class ManifestRecord:
    id: str
    audio_path: Path
    image_dir: Path
    text_path: Path
    label: int          # 1 = hate, 0 = non-hate
    split: str          # train | test | auto


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray        # float64 amplitudes in [-1, 1] at TARGET_RATE


@dataclass(frozen=True)
class ImageFrame:
    pixels: np.ndarray         # (50, 50) float64 in [0, 1]


@dataclass(frozen=True)
class SplitAssignment:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _parse_label(raw: str, line_no: int) -> int:
    v = raw.strip().lower()
    if v in ("hate", "1"):
        return 1
    if v in ("nonhate", "0"):
        return 0
    raise BadLabelError(line_no, raw)


def _parse_split(raw: str, line_no: int) -> str:
    v = raw.strip().lower()
    if v == "":
        return "auto"
    if v in ("train", "test", "auto"):
        return v
    raise BadSplitError(line_no, raw)


def read_text(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read or decoded is an UnreadableFileError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise UnreadableFileError(f"cannot read {what} {path}: {e}") from e


def read_json(path: str | Path, what: str):
    """The document in a UTF-8 JSON file; a file that is not one, or one nested
    past the recursion limit, is a DataError."""
    try:
        return json.loads(read_text(path, what))
    except (ValueError, RecursionError) as e:
        raise DataError(f"{what} {path} is not JSON: {e}") from e


def parse_manifest(path: str | Path) -> list[ManifestRecord]:
    """Read a manifest CSV into records, in file order."""
    path = Path(path)
    text = read_text(path, "manifest")
    base = path.parent

    lines = [
        (no, line) for no, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise MissingColumnError("manifest has no header line")
    header_no, header = lines[0]
    cols = [c.strip() for c in header.split(",")]
    for wanted in MANIFEST_COLUMNS:
        if wanted not in cols:
            raise MissingColumnError(f"manifest header lacks column {wanted!r}")
    idx = {c: i for i, c in enumerate(cols)}

    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for no, line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(cols):
            raise MissingColumnError(f"line {no}: expected {len(cols)} fields, got {len(fields)}")
        sid = fields[idx["id"]]
        if not sid:
            raise MissingColumnError(f"line {no}: empty id")
        if sid in seen:
            raise DuplicateIdError(f"line {no}: duplicate id {sid!r}")
        seen.add(sid)

        def respath(col: str) -> Path:
            p = Path(fields[idx[col]])
            return p if p.is_absolute() else base / p

        records.append(ManifestRecord(
            id=sid,
            audio_path=respath("audio_path"),
            image_dir=respath("image_dir"),
            text_path=respath("text_path"),
            label=_parse_label(fields[idx["label"]], no),
            split=_parse_split(fields[idx["split"]], no),
        ))
    return records


def write_manifest(records: list[ManifestRecord], path: str | Path, relative_to: str | Path | None = None) -> None:
    """Serialize records back to manifest CSV (inverse of parse_manifest)."""
    base = Path(relative_to) if relative_to is not None else None

    def fmt(p: Path) -> str:
        if base is not None:
            try:
                return p.relative_to(base).as_posix()
            except ValueError:
                pass
        return p.as_posix()

    out = [",".join(MANIFEST_COLUMNS)]
    for r in records:
        label = "hate" if r.label == 1 else "nonhate"
        out.append(f"{r.id},{fmt(r.audio_path)},{fmt(r.image_dir)},{fmt(r.text_path)},{label},{r.split}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


# ---- WAV ----

def read_wav(path: str | Path) -> AudioClip:
    """Read a 16-bit PCM mono WAV; resample to 22050 Hz by linear interpolation."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise UnreadableFileError(f"cannot read {path}: {e}") from e
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise NotWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)   # chunks are word-aligned
    if fmt is None or len(fmt) < 16:
        raise NotWavError(f"{path}: missing fmt chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1:
        raise UnsupportedEncodingError(f"{path}: audio format {audio_format}, expected PCM (1)")
    if channels != 1:
        raise UnsupportedEncodingError(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise UnsupportedEncodingError(f"{path}: {bits}-bit samples, expected 16")
    if rate == 0:
        raise CorruptHeaderError(f"{path}: sample rate 0")
    if data is None or len(data) < 2:
        raise EmptyAudioError(f"{path}: no audio samples")

    ints = np.frombuffer(data[:len(data) - (len(data) % 2)], dtype="<i2")
    samples = ints.astype(np.float64) / 32768.0
    if rate != TARGET_RATE:
        out_len = int(round(len(samples) * TARGET_RATE / rate))
        if out_len < 1:
            raise EmptyAudioError(f"{path}: too short to resample")
        positions = np.arange(out_len) * (rate / TARGET_RATE)
        samples = np.interp(positions, np.arange(len(samples)), samples)
    return AudioClip(samples=samples)


# ---- PGM ----

def read_image_frame(path: str | Path) -> ImageFrame:
    """Read a binary PGM and rescale to 50x50 in [0, 1] by bilinear interpolation."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise UnreadableFileError(f"cannot read {path}: {e}") from e
    if raw[0:2] != b"P5":
        raise NotPgmError(f"{path}: not a binary PGM (P5)")

    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed through the end of their line
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(raw):
            raise CorruptHeaderError(f"{path}: truncated header")
        c = raw[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise CorruptHeaderError(f"{path}: unterminated comment")
            pos = nl + 1
        elif c.isdigit():
            end = pos
            while end < len(raw) and raw[end:end + 1].isdigit():
                end += 1
            tokens.append(int(raw[pos:end]))
            pos = end
        else:
            raise CorruptHeaderError(f"{path}: unexpected byte {c!r} in header")
    width, height, maxval = tokens
    if width <= 0 or height <= 0:
        raise CorruptHeaderError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise CorruptHeaderError(f"{path}: maxval {maxval}, expected 255")
    pos += 1   # single whitespace byte after maxval
    payload = raw[pos:pos + width * height]
    if len(payload) < width * height:
        raise CorruptHeaderError(f"{path}: pixel payload truncated")

    grid = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).astype(np.float64)
    resized = _bilinear_resize(grid, IMAGE_SIZE, IMAGE_SIZE)
    return ImageFrame(pixels=resized / 255.0)


def _bilinear_resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel-center coordinate mapping."""
    in_h, in_w = grid.shape
    if (in_h, in_w) == (out_h, out_w):
        return grid.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1.0 - fx) + grid[np.ix_(y0, x1)] * fx
    bot = grid[np.ix_(y1, x0)] * (1.0 - fx) + grid[np.ix_(y1, x1)] * fx
    return top * (1.0 - fy) + bot * fy


# ---- split ----

def split_dataset(records: list[ManifestRecord], seed: int) -> SplitAssignment:
    """Partition record ids into train/test.

    Explicit split values are respected verbatim; 'auto' records are
    shuffled with a seeded RNG and cut at 80% train. Output order follows
    the manifest.
    """
    autos = [r.id for r in records if r.split == "auto"]
    if autos and len(autos) < MIN_AUTO_RECORDS:
        raise TooFewSamplesError(
            f"{len(autos)} auto-split records; need at least {MIN_AUTO_RECORDS}"
        )
    train = {r.id for r in records if r.split == "train"}
    test = {r.id for r in records if r.split == "test"}
    if autos:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(autos))
        n_train = int(round(len(autos) * TRAIN_FRACTION))
        train.update(autos[i] for i in perm[:n_train])
        test.update(autos[i] for i in perm[n_train:])
    return SplitAssignment(
        train_ids=tuple(r.id for r in records if r.id in train),
        test_ids=tuple(r.id for r in records if r.id in test),
    )
