import hashlib
from pathlib import Path

import numpy as np

from modhate import ingest
from modhate.synthetic import N_FRAMES, SyntheticCorpusSpec, generate_demo_corpus


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_label_ratio_and_layout(tmp_path):
    spec = SyntheticCorpusSpec(n_samples=20, seed=3)
    manifest = generate_demo_corpus(spec, tmp_path / "c")
    records = ingest.parse_manifest(manifest)
    assert len(records) == 20
    assert sum(r.label for r in records) == 12   # round(20 * 0.6)
    assert all(r.split == "auto" for r in records)
    r = records[0]
    assert r.audio_path.exists() and r.image_dir.is_dir() and r.text_path.exists()
    assert len(list(r.image_dir.glob("*.pgm"))) == N_FRAMES


def test_same_seed_byte_identical(tmp_path):
    spec = SyntheticCorpusSpec(n_samples=8, seed=11)
    generate_demo_corpus(spec, tmp_path / "a")
    generate_demo_corpus(spec, tmp_path / "b")
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_different_seeds_differ(tmp_path):
    generate_demo_corpus(SyntheticCorpusSpec(n_samples=8, seed=1), tmp_path / "a")
    generate_demo_corpus(SyntheticCorpusSpec(n_samples=8, seed=2), tmp_path / "b")
    assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")


def test_generated_files_are_ingestable(tmp_path):
    manifest = generate_demo_corpus(SyntheticCorpusSpec(n_samples=6, seed=4), tmp_path / "c")
    for rec in ingest.parse_manifest(manifest):
        clip = ingest.read_wav(rec.audio_path)
        assert clip.samples.shape == (22050,)
        assert np.all(np.abs(clip.samples) <= 1.0)
        for pgm in sorted(rec.image_dir.glob("*.pgm")):
            frame = ingest.read_image_frame(pgm)
            assert frame.pixels.shape == (50, 50)
        assert rec.text_path.read_text(encoding="utf-8").strip()
