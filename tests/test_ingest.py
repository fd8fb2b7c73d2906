import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhate import ingest
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
from tests.conftest import write_pgm, write_wav

HEADER = "id,audio_path,image_dir,text_path,label,split"


def make_manifest(tmp_path, rows, name="manifest.csv"):
    p = tmp_path / name
    p.write_text(HEADER + "\n" + "\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")
    return p


class TestReadText:
    def test_non_utf8_and_missing_files_are_unreadable(self, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\u00e9\n".encode("latin-1"))
        for path in (bad, tmp_path / "absent.txt", tmp_path):
            with pytest.raises(UnreadableFileError):
                ingest.read_text(path, "test file")

    def test_read_json_rejects_non_json(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{ not json", encoding="utf-8")
        with pytest.raises(DataError):
            ingest.read_json(p, "test file")

    def test_only_utf8_reader_in_the_package(self):
        # every UTF-8 read goes through read_text, which maps OSError and
        # UnicodeDecodeError to a DataError in one place
        package = Path(ingest.__file__).parent
        readers = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py")
                         if ".read_text(encoding=" in p.read_text(encoding="utf-8"))
        assert readers == ["ingest.py"]


class TestParseManifest:
    def test_single_valid_line(self, tmp_path):
        p = make_manifest(tmp_path, ["s1,a/s1.wav,f/s1,t/s1.txt,hate,train"])
        recs = ingest.parse_manifest(p)
        assert len(recs) == 1
        r = recs[0]
        assert r.id == "s1"
        assert r.label == 1
        assert r.split == "train"
        assert r.audio_path == tmp_path / "a/s1.wav"
        assert r.image_dir == tmp_path / "f/s1"

    def test_label_literals(self, tmp_path):
        rows = [
            "a,x.wav,d,x.txt,HATE,auto",
            "b,x.wav,d,x.txt,NonHate,auto",
            "c,x.wav,d,x.txt,1,auto",
            "d,x.wav,d,x.txt,0,auto",
        ]
        labels = [r.label for r in ingest.parse_manifest(make_manifest(tmp_path, rows))]
        assert labels == [1, 0, 1, 0]

    def test_bad_label_names_line(self, tmp_path):
        p = make_manifest(tmp_path, ["s1,a.wav,d,t.txt,maybe,auto"])
        with pytest.raises(BadLabelError) as ei:
            ingest.parse_manifest(p)
        assert ei.value.line_no == 2

    def test_duplicate_id(self, tmp_path):
        rows = [f"s{i},a.wav,d,t.txt,hate,auto" for i in range(8)]
        rows.append("s3,a.wav,d,t.txt,hate,auto")
        with pytest.raises(DuplicateIdError):
            ingest.parse_manifest(make_manifest(tmp_path, rows))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,audio_path,text_path,label,split\n", encoding="utf-8")
        with pytest.raises(MissingColumnError):
            ingest.parse_manifest(p)

    def test_bad_split_literal(self, tmp_path):
        p = make_manifest(tmp_path, ["s1,a.wav,d,t.txt,hate,validation"])
        with pytest.raises(BadSplitError):
            ingest.parse_manifest(p)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "# corpus v1\n" + HEADER + "\n\ns1,a.wav,d,t.txt,hate,auto\n# trailing\n",
            encoding="utf-8",
        )
        assert len(ingest.parse_manifest(p)) == 1

    def test_roundtrip(self, tmp_path):
        rows = [
            "s1,a/s1.wav,f/s1,t/s1.txt,hate,train",
            "s2,a/s2.wav,f/s2,t/s2.txt,nonhate,test",
            "s3,a/s3.wav,f/s3,t/s3.txt,1,auto",
        ]
        recs = ingest.parse_manifest(make_manifest(tmp_path, rows))
        out = tmp_path / "echo.csv"
        ingest.write_manifest(recs, out, relative_to=tmp_path)
        assert ingest.parse_manifest(out) == recs


class TestReadWav:
    def test_zero_signal(self, tmp_path):
        p = tmp_path / "z.wav"
        write_wav(p, np.zeros(22050, dtype=np.int16))
        clip = ingest.read_wav(p)
        assert clip.samples.shape == (22050,)
        assert np.all(clip.samples == 0.0)

    def test_amplitude_scaling(self, tmp_path):
        p = tmp_path / "s.wav"
        write_wav(p, np.array([-32768, 0, 16384, 32767], dtype=np.int16))
        clip = ingest.read_wav(p)
        assert clip.samples[0] == -1.0
        assert clip.samples[1] == 0.0
        assert clip.samples[2] == 0.5
        assert clip.samples[3] == 32767 / 32768

    def test_resample_length(self, tmp_path):
        p = tmp_path / "r.wav"
        write_wav(p, np.zeros(44100, dtype=np.int16), rate=44100)
        clip = ingest.read_wav(p)
        assert clip.samples.shape == (22050,)

    @pytest.mark.parametrize("rate,n", [(8000, 1234), (16000, 16000), (44100, 5000), (48000, 9999)])
    def test_resample_length_formula(self, tmp_path, rate, n):
        p = tmp_path / f"r{rate}.wav"
        write_wav(p, np.zeros(n, dtype=np.int16), rate=rate)
        assert ingest.read_wav(p).samples.shape == (round(n * 22050 / rate),)

    def test_resample_preserves_constant(self, tmp_path):
        p = tmp_path / "c.wav"
        write_wav(p, np.full(44100, 16384, dtype=np.int16), rate=44100)
        clip = ingest.read_wav(p)
        assert np.allclose(clip.samples, 0.5)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        write_wav(p, np.zeros(200, dtype=np.int16), channels=2)
        with pytest.raises(UnsupportedEncodingError):
            ingest.read_wav(p)

    def test_float_format_rejected(self, tmp_path):
        # hand-rolled IEEE-float wav (format code 3)
        fmt = struct.pack("<HHIIHH", 3, 1, 22050, 22050 * 4, 4, 32)
        data = b"\x00" * 64
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(data)) + data
        p = tmp_path / "f.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedEncodingError):
            ingest.read_wav(p)

    def test_zero_sample_rate_rejected(self, tmp_path):
        p = tmp_path / "r0.wav"
        write_wav(p, np.zeros(100, dtype=np.int16))
        raw = bytearray(p.read_bytes())
        raw[24:28] = struct.pack("<I", 0)        # fmt sample-rate field
        p.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeaderError):
            ingest.read_wav(p)

    def test_not_wav(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"this is not audio at all, not even close")
        with pytest.raises(NotWavError):
            ingest.read_wav(p)

    def test_empty_data(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 22050, 44100, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 0)
        p = tmp_path / "e.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(EmptyAudioError):
            ingest.read_wav(p)


def bilinear_oracle(grid, out_h, out_w):
    """Scalar reference resampler, same half-pixel-center convention."""
    in_h, in_w = grid.shape
    out = np.zeros((out_h, out_w))
    for r in range(out_h):
        for c in range(out_w):
            sy = min(max((r + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((c + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            top = grid[y0, x0] * (1 - fx) + grid[y0, x1] * fx
            bot = grid[y1, x0] * (1 - fx) + grid[y1, x1] * fx
            out[r, c] = top * (1 - fy) + bot * fy
    return out


class TestReadImageFrame:
    def test_identity_size_max_value(self, tmp_path):
        p = tmp_path / "w.pgm"
        write_pgm(p, np.full((50, 50), 255))
        frame = ingest.read_image_frame(p)
        assert frame.pixels.shape == (50, 50)
        assert np.all(frame.pixels == 1.0)

    def test_checkerboard_matches_oracle(self, tmp_path):
        rr, cc = np.meshgrid(np.arange(100), np.arange(100), indexing="ij")
        board = (((rr // 10 + cc // 10) % 2) * 255).astype(np.uint8)
        p = tmp_path / "b.pgm"
        write_pgm(p, board)
        frame = ingest.read_image_frame(p)
        assert np.all(frame.pixels >= 0.0) and np.all(frame.pixels <= 1.0)
        expected = bilinear_oracle(board.astype(float), 50, 50) / 255.0
        assert np.allclose(frame.pixels, expected, atol=1e-12)

    def test_header_comment(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        frame = ingest.read_image_frame(p)
        assert frame.pixels.shape == (50, 50)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n10 10\n255\n" + b"\x00" * 50)
        with pytest.raises(CorruptHeaderError):
            ingest.read_image_frame(p)

    def test_not_pgm(self, tmp_path):
        p = tmp_path / "n.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(NotPgmError):
            ingest.read_image_frame(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n100\n" + b"\x00" * 4)
        with pytest.raises(CorruptHeaderError):
            ingest.read_image_frame(p)

    @given(
        h=st.integers(min_value=1, max_value=120),
        w=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_values_in_unit_interval(self, tmp_path_factory, h, w, seed):
        grid = np.random.default_rng(seed).integers(0, 256, size=(h, w)).astype(np.uint8)
        p = tmp_path_factory.mktemp("pgm") / "r.pgm"
        write_pgm(p, grid)
        px = ingest.read_image_frame(p).pixels
        assert px.shape == (50, 50)
        assert np.all(px >= 0.0) and np.all(px <= 1.0)


def rec(i, split="auto"):
    from pathlib import Path
    return ingest.ManifestRecord(
        id=f"s{i}", audio_path=Path("a"), image_dir=Path("d"),
        text_path=Path("t"), label=i % 2, split=split,
    )


class TestSplitDataset:
    def test_auto_split_80_20_deterministic(self):
        records = [rec(i) for i in range(10)]
        a = ingest.split_dataset(records, seed=7)
        b = ingest.split_dataset(records, seed=7)
        assert len(a.train_ids) == 8 and len(a.test_ids) == 2
        assert a == b

    def test_explicit_passthrough(self):
        records = [rec(i, "train" if i < 6 else "test") for i in range(9)]
        s = ingest.split_dataset(records, seed=0)
        assert s.train_ids == tuple(f"s{i}" for i in range(6))
        assert s.test_ids == tuple(f"s{i}" for i in range(6, 9))

    def test_too_few_autos(self):
        with pytest.raises(TooFewSamplesError):
            ingest.split_dataset([rec(i) for i in range(3)], seed=0)

    def test_five_autos_allowed(self):
        s = ingest.split_dataset([rec(i) for i in range(5)], seed=1)
        assert len(s.train_ids) == 4 and len(s.test_ids) == 1

    def test_different_seeds_differ_somewhere(self):
        records = [rec(i) for i in range(50)]
        outs = {ingest.split_dataset(records, seed=s).train_ids for s in range(6)}
        assert len(outs) > 1

    @given(
        n_auto=st.integers(min_value=5, max_value=60),
        n_train=st.integers(min_value=0, max_value=10),
        n_test=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_auto, n_train, n_test, seed):
        records = (
            [rec(i) for i in range(n_auto)]
            + [rec(1000 + i, "train") for i in range(n_train)]
            + [rec(2000 + i, "test") for i in range(n_test)]
        )
        s = ingest.split_dataset(records, seed=seed)
        train, test = set(s.train_ids), set(s.test_ids)
        assert not train & test
        assert train | test == {r.id for r in records}
        auto_in_train = sum(1 for r in records if r.split == "auto" and r.id in train)
        assert abs(auto_in_train - 0.8 * n_auto) <= 1
