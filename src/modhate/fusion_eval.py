"""Hard-vote fusion of the three modality decisions, plus metrics and reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modhate.errors import IncompleteResultsError, LengthMismatchError

SOURCES = ("image", "audio", "text", "multi-modal")


@dataclass(frozen=True)
class ModalityPredictions:
    image: np.ndarray
    audio: np.ndarray
    text: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        lengths = {self.image.shape[0], self.audio.shape[0], self.text.shape[0]}
        if self.ids is not None:
            lengths.add(len(self.ids))
        if len(lengths) != 1:
            raise LengthMismatchError(f"prediction lengths differ: {sorted(lengths)}")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def hard_vote(preds: ModalityPredictions) -> np.ndarray:
    """Label 1 iff at least two of the three modality labels are 1."""
    votes = preds.image + preds.audio + preds.text
    return (votes >= 2).astype(np.int64)


def confusion(y_true, y_pred) -> ConfusionCounts:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise LengthMismatchError(f"{y_true.shape[0]} truths vs {y_pred.shape[0]} predictions")
    return ConfusionCounts(
        tp=int(np.count_nonzero((y_true == 1) & (y_pred == 1))),
        fp=int(np.count_nonzero((y_true == 0) & (y_pred == 1))),
        fn=int(np.count_nonzero((y_true == 1) & (y_pred == 0))),
        tn=int(np.count_nonzero((y_true == 0) & (y_pred == 0))),
    )


def metrics(c: ConfusionCounts) -> tuple[float, float, float, float]:
    """(precision, recall, f1, accuracy) with 0/0 forms defined as 0."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (c.tp + c.tn) / c.total if c.total else 0.0
    return precision, recall, f1, accuracy


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    source: str
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        lines = ["algorithm,source,precision,recall,f1,accuracy"]
        for r in self.rows:
            lines.append(f"{r.algorithm},{r.source},{r.precision!r},{r.recall!r},{r.f1!r},{r.accuracy!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table in per-algorithm blocks of the four sources."""
        header = ("Algorithm", "Data", "Precision", "Recall", "F1Score", "Accuracy")
        body = []
        prev_algo = None
        for r in self.rows:
            algo = r.algorithm if r.algorithm != prev_algo else ""
            prev_algo = r.algorithm
            body.append((algo, r.source, f"{r.precision:.4f}", f"{r.recall:.4f}",
                         f"{r.f1:.4f}", f"{r.accuracy:.4f}"))
        widths = [max(len(header[i]), *(len(row[i]) for row in body)) for i in range(6)]
        sep = "-+-".join("-" * w for w in widths)
        out = [" | ".join(h.ljust(widths[i]) for i, h in enumerate(header)), sep]
        prev_algo = ""
        for row in body:
            if row[0] and prev_algo:
                out.append(sep)
            if row[0]:
                prev_algo = row[0]
            out.append(" | ".join(row[i].ljust(widths[i]) for i in range(6)))
        return "\n".join(out) + "\n"


def build_report(per_algorithm: dict[str, dict[str, ConfusionCounts]]) -> EvaluationReport:
    """Rows in Table-style blocks: one block per algorithm, four sources each."""
    rows = []
    for algo, by_source in per_algorithm.items():
        missing = [s for s in SOURCES if s not in by_source]
        if missing:
            raise IncompleteResultsError(f"algorithm {algo!r} lacks results for {missing}")
        for source in SOURCES:
            p, r, f1, acc = metrics(by_source[source])
            rows.append(ReportRow(algo, source, p, r, f1, acc))
    return EvaluationReport(rows=tuple(rows))


def parse_report_csv(text: str) -> EvaluationReport:
    """Inverse of EvaluationReport.to_csv; a malformed row is an IncompleteResultsError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "algorithm,source,precision,recall,f1,accuracy":
        raise IncompleteResultsError("unrecognized report CSV header")
    rows = []
    for ln in lines[1:]:
        try:
            algo, source, p, r, f1, acc = ln.split(",")
            rows.append(ReportRow(algo, source, float(p), float(r), float(f1), float(acc)))
        except ValueError as e:
            raise IncompleteResultsError(f"report row {ln!r:.60}: {e}") from e
    return EvaluationReport(rows=tuple(rows))
