"""Command-line pipeline: gen-demo | extract | select | train | evaluate | predict | report.

Conventions shared by the subcommands:

  * --out names a working directory; extract writes features/ under it and
    later stages read from there and add models/ and reports/.
  * extract records how it featurized each modality in features/frontend.json;
    train copies that into each model (and exits 2 without it: rerun
    extract), so a model file carries all that predict needs. A malformed
    frontend, or an audio one other than AUDIO_FRONTEND, is a data error.
  * each file a stage reads has one loader that checks it and raises only
    DataError, so a malformed artifact is exit 2 wherever it is read.
  * every command writes the RunConfig it executed as run_config.<cmd>.json,
    a record that no command reads.
  * exit codes: 0 ok, 1 usage error, 2 data error, 3 internal failure.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import sys
from pathlib import Path

import click
import numpy as np

from modhate import tables
from modhate.audio_features import AUDIO_FEATURE_NAMES, AUDIO_FRONTEND, extract_audio_features
from modhate.classifiers import ALGORITHM_TAGS, Hyperparams, fit_pipeline
from modhate.classifiers import predict as model_predict
from modhate.errors import (
    DataError,
    IncompleteResultsError,
    TooFewSamplesError,
    UsageError,
)
from modhate.fusion_eval import (
    EvaluationReport,
    ModalityPredictions,
    build_report,
    confusion,
    hard_vote,
    parse_report_csv,
)
from modhate.image_features import IMAGE_FEATURE_NAMES, extract_image_features
from modhate.ingest import parse_manifest, read_json, read_text, read_wav, split_dataset
from modhate.model_io import load_model, save_model
from modhate.synthetic import SyntheticCorpusSpec, generate_demo_corpus
from modhate.text_features import (
    DEFAULT_STOPWORDS,
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    normalize_and_tokenize,
    vectorize,
    write_vocabulary,
)
from modhate import feature_selection as fs

MODALITIES = ("image", "audio", "text")


def _tokens(front: dict, path: Path) -> list[str]:
    """A transcript's tokens under a text frontend's stop-words."""
    return normalize_and_tokenize(read_text(path, "transcript"), frozenset(front["stopwords"]))


def _featurizer(modality: str, front):
    """Check a frontend dict and return the function that computes one feature row.

    The function takes a WAV path (audio), a frame directory (image) or the
    tokens from `_tokens` (text). `extract` and `predict` both featurize
    through here. A missing, malformed or wrong-kind frontend, or an audio
    frontend other than AUDIO_FRONTEND, is a DataError.
    """
    if not isinstance(front, dict) or front.get("kind") != modality:
        raise DataError(f"no {modality} frontend in {front!r:.60}")
    if modality == "audio":
        if front != AUDIO_FRONTEND:
            raise DataError(f"audio frontend {front!r:.80} is not {AUDIO_FRONTEND}, the one extract writes")
        return lambda path: extract_audio_features(read_wav(path))
    if modality == "image":
        return extract_image_features
    try:
        mode, table, n_docs = front["mode"], front["vocabulary"], front["n_docs"]
        if mode not in ("count", "tfidf") or not all(isinstance(t, str) for t in front["stopwords"]):
            raise ValueError(f"text mode {mode!r} or a stop-word is not valid")
        doc_freq = {t: df for t, (_, df) in table.items()}
        # JSON ints (not bools) with 1 <= df <= n_docs keep every idf ln(n_docs/df) finite
        if type(n_docs) is not int or n_docs < 1 or not all(
                type(df) is int and 1 <= df <= n_docs for df in doc_freq.values()):
            raise ValueError(f"n_docs {n_docs!r:.20} is not a positive int, or a doc_freq is not in 1..n_docs")
        vocab = Vocabulary(index={t: operator.index(i) for t, (i, _) in table.items()},
                           doc_freq=doc_freq, n_docs=n_docs)
        if sorted(vocab.index.values()) != list(range(len(vocab))):
            raise ValueError("vocabulary columns are not 0..|V|-1")
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as e:
        raise DataError(f"malformed text frontend: {type(e).__name__}: {e}") from e
    return lambda doc: vectorize(doc, vocab, mode)


def _write_run_config(out_dir: Path, command: str, params: dict) -> None:
    doc = {"command": command, "params": params}
    path = out_dir / f"run_config.{command}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _labels_for(records, ids) -> np.ndarray:
    """Manifest labels of the given ids; ids the manifest lacks are a DataError."""
    by_id = {r.id: r.label for r in records}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise DataError(f"the manifest lacks {len(missing)} ids that the features hold: "
                        f"{', '.join(missing[:5])}{', ...' if len(missing) > 5 else ''}")
    return np.array([by_id[i] for i in ids], dtype=np.int64)


@click.group()
def cli():
    """Tri-modal (audio / image / text) hate-speech detection pipeline."""


@cli.command("gen-demo")
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--seed", default=42, show_default=True)
@click.option("--count", default=300, show_default=True)
def cmd_gen_demo(out, seed, count):
    """Write a seeded synthetic demo corpus (60/40 hate ratio)."""
    spec = SyntheticCorpusSpec(n_samples=count, seed=seed)
    manifest = generate_demo_corpus(spec, out)
    _write_run_config(out, "gen-demo", {"seed": seed, "count": count})
    click.echo(f"wrote {count} samples, manifest at {manifest}")


@cli.command("extract")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--seed", default=0, show_default=True, help="train/test split seed")
@click.option("--text-mode", type=click.Choice(["count", "tfidf"]), default="tfidf", show_default=True)
@click.option("--stopwords", "stopword_path", type=click.Path(path_type=Path), default=None)
def cmd_extract(manifest_path, out, seed, text_mode, stopword_path):
    """Extract per-modality feature CSVs, vocabulary, and the split file."""
    records = parse_manifest(manifest_path)
    split = split_dataset(records, seed=seed)
    feat_dir = out / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    stop = load_stopwords(stopword_path) if stopword_path else DEFAULT_STOPWORDS
    fronts = {"image": {"kind": "image"}, "audio": AUDIO_FRONTEND,
              "text": {"kind": "text", "mode": text_mode, "stopwords": sorted(stop)}}

    warnings: list[str] = []

    def run_stage(stage, fn, attr):
        good = []
        for rec in records:
            try:
                good.append((rec.id, fn(getattr(rec, attr))))
            except DataError as e:
                warnings.append(f"{rec.id},{stage},{e}")
        return good

    def write_rows(modality, names, rows):
        X = np.array([v for _, v in rows]) if rows else np.empty((0, len(names)))
        tables.write_feature_csv(feat_dir / f"{modality}.csv", names, [sid for sid, _ in rows], X)

    audio_rows = run_stage("audio", _featurizer("audio", fronts["audio"]), "audio_path")
    image_rows = run_stage("image", _featurizer("image", fronts["image"]), "image_dir")
    text_docs = run_stage("text", lambda path: _tokens(fronts["text"], path), "text_path")
    write_rows("audio", AUDIO_FEATURE_NAMES, audio_rows)
    write_rows("image", IMAGE_FEATURE_NAMES, image_rows)

    # vocabulary from readable train-split documents only
    train_ids = set(split.train_ids)
    train_docs = [doc for sid, doc in text_docs if sid in train_ids]
    if not train_docs:
        raise TooFewSamplesError("no readable training transcripts")
    vocab = build_vocabulary(train_docs)
    write_vocabulary(vocab, feat_dir / "vocabulary.csv")
    fronts["text"].update(n_docs=vocab.n_docs, vocabulary={
        t: [vocab.index[t], vocab.doc_freq[t]] for t in vocab.tokens})
    text_of = _featurizer("text", fronts["text"])
    write_rows("text", [f"t_{t}" for t in vocab.tokens], [(sid, text_of(doc)) for sid, doc in text_docs])
    (feat_dir / "frontend.json").write_text(
        json.dumps(fronts, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")

    tables.write_split_csv(feat_dir / "splits.csv", split)
    (out / "warnings.txt").write_text(
        "\n".join(warnings) + ("\n" if warnings else ""), encoding="utf-8")
    _write_run_config(out, "extract", {
        "manifest": str(manifest_path), "seed": seed, "text_mode": text_mode,
        "stopwords": str(stopword_path) if stopword_path else None,
    })
    click.echo(f"extracted {len(audio_rows)} audio / {len(image_rows)} image / "
               f"{len(text_docs)} text rows, |V|={len(vocab)}, {len(warnings)} warnings")


def _load_stage(out: Path, modality: str):
    ids, names, X = tables.read_feature_csv(out / "features" / f"{modality}.csv")
    return ids, names, X, tables.read_split_csv(out / "features" / "splits.csv")


def _train_matrix(ids, X, split, records):
    train_ids = [i for i in ids if split.get(i) == "train"]
    index = {sid: k for k, sid in enumerate(ids)}
    Xtr = X[[index[i] for i in train_ids]]
    ytr = _labels_for(records, train_ids)
    return train_ids, Xtr, ytr


@cli.command("select")
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--modality", type=click.Choice(MODALITIES), required=True)
@click.option("--select", "method", type=click.Choice(["rfe", "mrmr"]), required=True)
@click.option("--k", type=int, default=None, help="target feature count (default per modality)")
def cmd_select(out, manifest_path, modality, method, k):
    """Run feature selection on the train split and write a ranking report."""
    records = parse_manifest(manifest_path)
    ids, names, X, split = _load_stage(out, modality)
    _, Xtr, ytr = _train_matrix(ids, X, split, records)
    k = k if k is not None else _default_k(modality, X.shape[1])
    Ztr = fs.standardize_apply(fs.standardize_fit(Xtr), Xtr)
    result = fs.rfe_select(Ztr, ytr, k) if method == "rfe" else fs.mrmr_select(Ztr, ytr, k)

    report_dir = out / "reports"
    report_dir.mkdir(exist_ok=True)
    ranked, rest = ("eliminated", "kept") if method == "rfe" else ("selected", "dropped")
    lines = [f"# modality={modality} method={method} k={k}", "rank,feature_index,feature_name,action"]
    lines += [f"{rank},{f},{names[f]},{ranked}" for rank, f in enumerate(result.order, start=1)]
    lines += [f",{f},{names[f]},{rest}" for f in sorted(set(range(len(names))) - set(result.order))]
    path = report_dir / f"selection_{modality}_{method}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_config(out, "select", {"modality": modality, "method": method, "k": k,
                                      "manifest": str(manifest_path)})
    click.echo(f"kept {len(result.kept)} of {len(names)} features -> {path}")


def _default_k(modality: str, d: int) -> int:
    if modality == "audio":
        return min(29, d - 1)
    if modality == "image":
        return min(256, d - 1)
    return min(512, d - 1)


@cli.command("train")
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--algo", type=click.Choice(ALGORITHM_TAGS), required=True)
@click.option("--modality", type=click.Choice(MODALITIES + ("all",)), default="all", show_default=True)
@click.option("--select", "method", type=click.Choice(["none", "rfe", "mrmr"]), default="none", show_default=True)
@click.option("--k", type=int, default=None)
@click.option("--seed", default=0, show_default=True)
@click.option("--learning-rate", type=float, default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--l2", type=float, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--k-neighbors", type=int, default=None)
@click.option("--max-depth", type=int, default=None)
@click.option("--ensemble-size", type=int, default=None)
def cmd_train(out, manifest_path, algo, modality, method, k, seed, **hp_options):
    """Fit one algorithm per modality on the train split and save model files."""
    records = parse_manifest(manifest_path)
    # hyperparameter options left unset keep the Hyperparams defaults
    hp = Hyperparams(algorithm=algo, seed=seed,
                     **{name: v for name, v in hp_options.items() if v is not None})
    todo = MODALITIES if modality == "all" else (modality,)
    front_path = out / "features" / "frontend.json"
    fronts = read_json(front_path, "extract's frontend file")
    if not isinstance(fronts, dict) or not fronts.keys() >= set(todo):
        raise DataError(f"{front_path} lacks a frontend of {', '.join(todo)}; rerun extract")
    for mod in todo:   # write no model that predict could not featurize for
        _featurizer(mod, fronts[mod])
    model_dir = out / "models"
    model_dir.mkdir(parents=True, exist_ok=True)

    for mod in todo:
        ids, names, X, split = _load_stage(out, mod)
        _, Xtr, ytr = _train_matrix(ids, X, split, records)
        select_k = k if k is not None else (_default_k(mod, X.shape[1]) if method != "none" else None)
        model = fit_pipeline(algo, Xtr, ytr, hp, select=method, k=select_k)
        model = dataclasses.replace(model, frontend=fronts[mod])
        path = model_dir / f"{algo}_{mod}.json"
        save_model(model, path)
        click.echo(f"trained {algo} on {mod}: {Xtr.shape[0]} rows, {Xtr.shape[1]} features -> {path}")
    _write_run_config(out, "train", {
        "manifest": str(manifest_path), "algo": algo, "modality": modality,
        "select": method, "k": k, "hyperparams": dataclasses.asdict(hp),
    })


def _predictions_on_split(out, records, algo, which_split, model_paths=None):
    """Aligned per-modality predictions on one split; returns (ids, y, preds)."""
    per_mod = {}
    id_sets = []
    for mod in MODALITIES:
        model = load_model((model_paths or {}).get(mod) or out / "models" / f"{algo}_{mod}.json")
        ids, _, X, split = _load_stage(out, mod)
        keep = [i for i, sid in enumerate(ids) if split.get(sid) == which_split]
        sids = [ids[i] for i in keep]
        per_mod[mod] = (dict(zip(sids, model_predict(model, X[keep]))), model.algorithm)
        id_sets.append(set(sids))
    common = sorted(set.intersection(*id_sets))
    if not common:
        raise TooFewSamplesError(f"no samples with all three modalities in the {which_split} split")
    preds = {mod: np.array([per_mod[mod][0][sid] for sid in common]) for mod in MODALITIES}
    y = _labels_for(records, common)
    algos = {per_mod[mod][1] for mod in MODALITIES}
    return common, y, preds, algos


@cli.command("evaluate")
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--manifest", "manifest_path", required=True, type=click.Path(path_type=Path))
@click.option("--algo", type=click.Choice(ALGORITHM_TAGS), required=True)
@click.option("--image-model", type=click.Path(path_type=Path), default=None)
@click.option("--audio-model", type=click.Path(path_type=Path), default=None)
@click.option("--text-model", type=click.Path(path_type=Path), default=None)
@click.option("--mixed", is_flag=True, help="allow models trained with different algorithms")
def cmd_evaluate(out, manifest_path, algo, image_model, audio_model, text_model, mixed):
    """Score the three modality models plus the fused vote on the test split."""
    records = parse_manifest(manifest_path)
    model_paths = {"image": image_model, "audio": audio_model, "text": text_model}
    ids, y, preds, algos = _predictions_on_split(out, records, algo, "test", model_paths)
    if len(algos) > 1 and not mixed:
        raise UsageError(f"models trained with different algorithms {sorted(algos)}; pass --mixed to allow")

    fused = hard_vote(ModalityPredictions(image=preds["image"], audio=preds["audio"],
                                          text=preds["text"], ids=tuple(ids)))
    by_source = {mod: confusion(y, preds[mod]) for mod in MODALITIES}
    by_source["multi-modal"] = confusion(y, fused)
    report = build_report({algo: by_source})

    report_dir = out / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / f"report_{algo}.csv").write_text(report.to_csv(), encoding="utf-8")
    (report_dir / f"report_{algo}.txt").write_text(report.to_text(), encoding="utf-8")
    _write_run_config(out, "evaluate", {
        "manifest": str(manifest_path), "algo": algo, "mixed": mixed,
        "test_samples": len(ids),
    })
    click.echo(report.to_text(), nl=False)


@cli.command("predict")
@click.option("--models", "model_dir", required=True, type=click.Path(path_type=Path))
@click.option("--algo", type=click.Choice(ALGORITHM_TAGS), required=True)
@click.option("--audio", "audio_path", required=True, type=click.Path(path_type=Path))
@click.option("--frames", "frame_dir", required=True, type=click.Path(path_type=Path))
@click.option("--text", "text_path", required=True, type=click.Path(path_type=Path))
def cmd_predict(model_dir, algo, audio_path, frame_dir, text_path):
    """Classify one raw sample and fuse the three modality decisions."""
    votes = {}
    for mod in MODALITIES:
        model = load_model(model_dir / f"{algo}_{mod}.json")
        featurize = _featurizer(mod, model.frontend)
        source = _tokens(model.frontend, text_path) if mod == "text" else \
            {"audio": audio_path, "image": frame_dir}[mod]
        votes[mod] = model_predict(model, featurize(source).reshape(1, -1))

    fused = hard_vote(ModalityPredictions(**votes))[0]
    for mod in MODALITIES:
        click.echo(f"{mod}: {'hate' if votes[mod][0] else 'nonhate'}")
    click.echo(f"fused: {'hate' if fused else 'nonhate'} (votes {sum(votes.values())[0]}/3)")


@cli.command("report")
@click.option("--out", required=True, type=click.Path(path_type=Path))
def cmd_report(out):
    """Merge per-algorithm evaluation reports into one summary table."""
    report_dir = out / "reports"
    rows = []
    for algo in ALGORITHM_TAGS:
        path = report_dir / f"report_{algo}.csv"
        if path.exists():
            rows.extend(parse_report_csv(read_text(path, "report")).rows)
    if not rows:
        raise IncompleteResultsError(f"no report_<algo>.csv files under {report_dir}")
    merged = EvaluationReport(rows=tuple(rows))
    (report_dir / "summary.csv").write_text(merged.to_csv(), encoding="utf-8")
    (report_dir / "summary.txt").write_text(merged.to_text(), encoding="utf-8")
    _write_run_config(out, "report", {"algorithms": sorted({r.algorithm for r in rows})})
    click.echo(merged.to_text(), nl=False)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except UsageError as e:
        click.echo(f"usage error: {e}", err=True)
        return 1
    except (DataError, OSError) as e:   # by now an OSError is a failed write or mkdir
        click.echo(f"data error: {e}", err=True)
        return 2
    except Exception as e:  # noqa: BLE001 - last-resort exit-code mapping
        click.echo(f"internal error: {type(e).__name__}: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
