"""CSV tables shared by the CLI stages: feature matrices and split files.

Floats are written as repr() so values survive the round trip exactly;
byte-identical reruns depend on that. The readers check every row and
raise only DataError: a table that cannot be read, is not UTF-8 or is
malformed never reaches a later stage.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from modhate.errors import DataError
from modhate.ingest import SplitAssignment, read_text


def write_feature_csv(path: str | Path, names, ids, matrix: np.ndarray) -> None:
    lines = ["id," + ",".join(names)]
    for sid, row in zip(ids, matrix):
        lines.append(sid + "," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_feature_csv(path: str | Path):
    """Returns (ids, names, matrix); each row is a unique id and one finite float per name."""
    lines = read_text(path, "feature table").splitlines()
    if not lines or not lines[0].startswith("id,"):
        raise DataError(f"{path}: not a feature CSV")
    names = lines[0].split(",")[1:]
    rows: dict[str, list[float]] = {}
    for no, line in enumerate(lines[1:], start=2):
        sid, *cells = line.split(",")
        if len(cells) != len(names):
            raise DataError(f"{path} line {no}: {len(cells)} values for {len(names)} columns")
        if sid in rows:
            raise DataError(f"{path} line {no}: repeated id {sid!r}")
        try:
            rows[sid] = [float(v) for v in cells]
        except ValueError as e:
            raise DataError(f"{path} line {no}: {e}") from e
    matrix = np.array(list(rows.values()), dtype=np.float64) if rows else np.empty((0, len(names)))
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: a value is not finite")
    return list(rows), names, matrix


def write_split_csv(path: str | Path, split: SplitAssignment) -> None:
    lines = ["id,split"]
    lines += [f"{sid},train" for sid in split.train_ids]
    lines += [f"{sid},test" for sid in split.test_ids]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_split_csv(path: str | Path) -> dict[str, str]:
    """Returns id -> "train" | "test"; each row is a unique id and one of the two."""
    lines = read_text(path, "split table").splitlines()
    if not lines or lines[0] != "id,split":
        raise DataError(f"{path}: not a split CSV")
    out: dict[str, str] = {}
    for no, line in enumerate(lines[1:], start=2):
        sid, _, split = line.partition(",")
        if split not in ("train", "test") or sid in out:
            raise DataError(f"{path} line {no}: {line!r:.60} is not a new id followed by train or test")
        out[sid] = split
    return out
