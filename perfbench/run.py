#!/usr/bin/env python3
"""Pipeline benchmark for modhate: drives the real CLI, one process per command.

    python3 perfbench/run.py --workload {extract,fit,predict} [--seed 42]
                             [--seconds 32] [--trace 0|1]

Run it from the root of a source checkout; the package is taken from ./src.
The corpus is generated with ``modhate.synthetic`` from --seed, and the
program sees only those files. One closed-loop client (this process) starts
one ``modhate`` command at a time through perfbench/launch.py and waits for
it, so the extract thread pool inside the program is the only concurrency.

Workloads (see perfbench/README.md for why each exists):
  extract  repeated ``modhate extract`` of the corpus
  fit      ``train`` + ``evaluate`` for all 7 algorithms, then
           ``train --algo nb --modality image --select mrmr --k 64``
  predict  single-sample ``modhate predict`` of test-split samples with
           logreg and knn models trained during set-up

--trace 0 prints the end-to-end metrics: set-up time, the time and child CPU
of one round of the workload's commands, and the peak child RSS. --trace 1
alternates untraced and traced rounds and prints the per-layer metrics from
the traced ones plus the tracing overhead. Human-readable lines come first;
the last line of stdout is the JSON result. Every run checks its outputs:
exit codes, artifact digests across repeats and across runs of one seed,
predict verdicts against the in-process classifier, and at seed 42 the
acceptance accuracy floors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCH = BENCH / "launch.py"
WORK_ROOT = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

# The corpus size and the mRMR k keep each run well under a minute, so that
# twenty-odd runs of each workload fit in an hour; perfbench/README.md gives
# the costs.
CORPUS_SAMPLES = 40
MRMR_K = 64
SETUP_REPEATS = 3
ALGOS = ("logreg", "nb", "knn", "dtree", "svm", "rforest", "adaboost")
PREDICT_ALGOS = ("logreg", "knn")
MODALITIES = ("image", "audio", "text")
FLOOR_SINGLE, FLOOR_FUSED = 0.80, 0.90
ACCEPTANCE_SEED = 42
COMMAND_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0
REFUSED_ENV = ("MODHATE_KERNELS", "MODHATE_THREADS")
# Set for this process and every child. With OpenBLAS's default of one
# thread per CPU, each process's numpy import took about 70 ms longer, but
# only in phases of the shared host lasting minutes; that flipped predict's
# round time by about 17% between runs. No matrix in these workloads is large
# enough for OpenBLAS to split across threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

LAYERS = ("cli", "ingest", "audio_features", "image_features", "text_features", "tables",
          "feature_selection", "classifiers", "kernels", "model_io", "fusion_eval")
CLI_COMMANDS = ("extract", "train", "evaluate", "predict")

# per-layer metric -> (span name, what to take from its spans)
SPAN_METRICS = {
    "ingest.parse_manifest_s": ("ingest.parse_manifest", "busy"),
    "ingest.read_wav_s": ("ingest.read_wav", "busy"),
    "audio_features.extract_s": ("audio_features.extract_audio_features", "busy"),
    "audio_features.frames": ("audio_features.extract_audio_features", "count"),
    "image_features.extract_s": ("image_features.extract_image_features", "busy"),
    "image_features.frames": ("ingest.read_image_frame", "calls"),
    "text_features.tokenize_s": ("text_features.normalize_and_tokenize", "busy"),
    "text_features.vectorize_s": ("text_features.vectorize", "busy"),
    "tables.read_feature_csv_s": ("tables.read_feature_csv", "busy"),
    "tables.read_bytes": ("tables.read_feature_csv", "count"),
    "tables.write_feature_csv_s": ("tables.write_feature_csv", "busy"),
    "tables.write_bytes": ("tables.write_feature_csv", "count"),
    "kernels.gini_best_split_calls": ("kernels.gini_best_split", "calls"),
    "kernels.gini_best_split_s": ("kernels.gini_best_split", "busy"),
    "kernels.joint_counts_calls": ("kernels.joint_counts", "calls"),
    "kernels.joint_counts_s": ("kernels.joint_counts", "busy"),
    "kernels.pairwise_sq_dists_calls": ("kernels.pairwise_sq_dists", "calls"),
    "kernels.pairwise_sq_dists_s": ("kernels.pairwise_sq_dists", "busy"),
    "feature_selection.mrmr_select_s": ("feature_selection.mrmr_select", "busy"),
    "classifiers.predict_s": ("classifiers.predict", "busy"),
    "model_io.load_model_s": ("model_io.load_model", "busy"),
    "model_io.model_bytes": ("model_io.load_model", "count"),
    "model_io.save_model_s": ("model_io.save_model", "busy"),
    **{f"classifiers.fit_s.{a}": (f"classifiers.train_{a}", "busy") for a in ALGOS},
}
VOCAB_SPANS = ("text_features.vectorize", "text_features.build_vocabulary",
               "text_features.read_vocabulary")
# counts that must repeat exactly across rounds and runs of one seed
EXACT_METRICS = tuple(m for m in SPAN_METRICS if not m.endswith("_s")) + ("text_features.vocab_size",)


def per_layer_names() -> list[str]:
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("busy_s", "self_s")]
    names += list(SPAN_METRICS) + ["text_features.vocab_size", "cli.import_s"]
    return names + [f"cli.{c}.self_s" for c in CLI_COMMANDS]


OVERHEAD_METRICS = ("tracing_overhead_s", "tracing_overhead_ratio")


def unit_of(name: str) -> str:
    if name.endswith("_s") or ".fit_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# ---------------------------------------------------------------- processes

@dataclass
class Invocation:
    key: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    rc: int
    stdout: str
    trace: dict | None


class Runner:
    """Starts one modhate command at a time and records what happened."""

    def __init__(self, work: Path):
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._seq = 0

    def run(self, key: str, args, *, trace: bool = False, sample: str | None = None) -> Invocation:
        self._seq += 1
        base = self.work / f"cmd{self._seq:05d}"
        trace_path = base.with_suffix(".trace.json")
        self.attempted += 1
        t0 = time.monotonic_ns()
        cmd = [sys.executable, str(LAUNCH), "--spawn-ns", str(t0)]
        if trace:
            cmd += ["--trace", str(trace_path)]
        if sample is not None:
            cmd += ["--sample", sample]
        cmd += ["--"] + [str(a) for a in args]
        with open(base.with_suffix(".out"), "wb") as out, open(base.with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            t1 = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = base.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
        stderr = base.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        doc = None
        if trace and trace_path.exists():
            doc = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        base.with_suffix(".out").unlink()
        base.with_suffix(".err").unlink()
        if proc.returncode != 0:
            self.failed += 1
            last = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.problems.append(f"{key}: exit {proc.returncode}: {last[0]}")
        elif trace and doc is None:
            self.problems.append(f"{key}: traced run wrote no trace")
        return Invocation(key, (t1 - t0) / 1e9, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss, proc.returncode, stdout, doc)


# ---------------------------------------------------------------- artifacts

def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def digest_files(root: Path, rels) -> dict[str, str]:
    return {rel: (sha(root / rel) if (root / rel).is_file() else "missing") for rel in rels}


def corpus_digest(corpus: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(corpus.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(corpus).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Digests:
    """Artifact digests that must be identical wherever a label repeats."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.seen: dict[str, str] = {}

    def add(self, label: str, digests: dict[str, str]):
        for rel, value in digests.items():
            key = f"{label}:{rel}"
            if key in self.seen and self.seen[key] != value:
                self.runner.problems.append(f"digest of {key} changed between repeats")
            self.seen.setdefault(key, value)


def read_manifest(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    return {r["id"]: {k: path.parent / r[k] for k in ("audio_path", "image_dir", "text_path")}
            for r in rows}


def read_feature_rows(path: Path) -> dict[str, list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {p[0]: [float(v) for v in p[1:]] for p in (line.split(",") for line in lines if line)}


def read_report(path: Path) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8", newline="") as f:
        return {r["source"]: {k: float(r[k]) for k in ("precision", "recall", "f1", "accuracy")}
                for r in csv.DictReader(f)}


def parse_verdicts(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        name, _, rest = line.partition(":")
        if name in MODALITIES + ("fused",) and rest.strip():
            out[name] = rest.split()[0]
    return out


# ---------------------------------------------------------------- workloads

def make_corpus(dest: Path, seed: int) -> Path:
    from modhate.synthetic import SyntheticCorpusSpec, generate_demo_corpus
    return generate_demo_corpus(SyntheticCorpusSpec(n_samples=CORPUS_SAMPLES, seed=seed), dest)


def set_up(runner: Runner, workload: str, seed: int, dest: Path):
    """Build the state a workload starts from; returns (manifest, out dir)."""
    manifest = make_corpus(dest / "corpus", seed)
    out = dest / "work"
    if workload in ("fit", "predict"):
        runner.run("setup.extract", ["extract", "--manifest", manifest, "--out", out, "--seed", seed])
    if workload == "predict":
        for algo in PREDICT_ALGOS:
            runner.run(f"setup.train.{algo}", ["train", "--out", out, "--manifest", manifest, "--algo", algo])
    return manifest, out


FEATURE_FILES = [f"features/{n}.csv" for n in ("audio", "image", "text", "vocabulary", "splits")]


def model_files(algo, modalities=MODALITIES):
    return [f"models/{algo}_{m}.json" for m in modalities]


class Workload:
    """One round of a workload's commands; subclasses define the round."""

    def __init__(self, runner: Runner, digests: Digests, manifest: Path, out: Path, seed: int):
        self.runner, self.digests = runner, digests
        self.manifest, self.out, self.seed = manifest, out, seed
        self.fused_f1_means: list[float] = []   # one per fit round

    def round(self, index: int, trace: bool) -> list[Invocation]:
        raise NotImplementedError


class ExtractWorkload(Workload):
    def round(self, index, trace):
        dest = self.out.parent / f"round{index}"
        inv = self.runner.run("extract", ["extract", "--manifest", self.manifest, "--out", dest,
                                          "--seed", self.seed], trace=trace)
        if inv.rc == 0:
            self.digests.add("extract", digest_files(dest, FEATURE_FILES))
        shutil.rmtree(dest, ignore_errors=True)
        return [inv]


class FitWorkload(Workload):
    def round(self, index, trace):
        invs = []
        base = ["--out", self.out, "--manifest", self.manifest]
        f1 = []
        for algo in ALGOS:
            invs.append(self.runner.run(f"train.{algo}", ["train", *base, "--algo", algo], trace=trace))
            self.digests.add(f"train.{algo}", digest_files(self.out, model_files(algo)))
            inv = self.runner.run(f"evaluate.{algo}", ["evaluate", *base, "--algo", algo], trace=trace)
            invs.append(inv)
            rel = [f"reports/report_{algo}.csv", f"reports/report_{algo}.txt"]
            self.digests.add(f"evaluate.{algo}", digest_files(self.out, rel))
            if inv.rc == 0:
                report = read_report(self.out / rel[0])
                f1.append(report["multi-modal"]["f1"])
                if algo == "logreg" and self.seed == ACCEPTANCE_SEED:
                    self.check_floors(report)
        invs.append(self.runner.run("train.mrmr", ["train", *base, "--algo", "nb", "--modality", "image",
                                                   "--select", "mrmr", "--k", MRMR_K], trace=trace))
        self.digests.add("train.mrmr", digest_files(self.out, model_files("nb", ("image",))))
        if len(f1) == len(ALGOS):
            self.fused_f1_means.append(statistics.fmean(f1))
        return invs

    def check_floors(self, report):
        for source in MODALITIES:
            if report[source]["accuracy"] < FLOOR_SINGLE:
                self.runner.problems.append(f"logreg {source} accuracy {report[source]['accuracy']:.4f} "
                                            f"< {FLOOR_SINGLE} at seed {ACCEPTANCE_SEED}")
        if report["multi-modal"]["accuracy"] < FLOOR_FUSED:
            self.runner.problems.append(f"logreg fused accuracy {report['multi-modal']['accuracy']:.4f} "
                                        f"< {FLOOR_FUSED} at seed {ACCEPTANCE_SEED}")


class PredictWorkload(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        import numpy as np
        from modhate.classifiers import predict
        from modhate.model_io import load_model
        self.records = read_manifest(self.manifest)
        feats = {m: read_feature_rows(self.out / "features" / f"{m}.csv") for m in MODALITIES}
        test = [line.split(",")[0] for line in
                (self.out / "features" / "splits.csv").read_text(encoding="utf-8").splitlines()[1:]
                if line.endswith(",test")]
        self.samples = [s for s in test if all(s in feats[m] for m in MODALITIES)]
        # expected verdicts: modhate.classifiers.predict on the extracted rows
        self.expected = {}
        for algo in PREDICT_ALGOS:
            models = {m: load_model(self.out / f"models/{algo}_{m}.json") for m in MODALITIES}
            for sid in self.samples:
                votes = {m: int(predict(models[m], np.array([feats[m][sid]]))[0]) for m in MODALITIES}
                verdict = {m: "hate" if v else "nonhate" for m, v in votes.items()}
                verdict["fused"] = "hate" if sum(votes.values()) >= 2 else "nonhate"
                self.expected[algo, sid] = verdict

    def round(self, index, trace):
        sid = self.samples[index % len(self.samples)]
        rec = self.records[sid]
        order = PREDICT_ALGOS if index % 2 == 0 else PREDICT_ALGOS[::-1]
        invs = []
        for algo in order:
            inv = self.runner.run(f"predict.{algo}", [
                "predict", "--models", self.out / "models", "--algo", algo,
                "--audio", rec["audio_path"], "--frames", rec["image_dir"], "--text", rec["text_path"],
            ], trace=trace, sample=sid)
            invs.append(inv)
            if inv.rc != 0:
                continue
            got = parse_verdicts(inv.stdout)
            if got != self.expected[algo, sid]:
                self.runner.problems.append(f"predict {algo} {sid}: got {got}, "
                                            f"classifiers.predict gives {self.expected[algo, sid]}")
            self.digests.add(f"predict.{algo}.{sid}", {"stdout": hashlib.sha256(
                inv.stdout.encode()).hexdigest()[:16]})
        return invs


WORKLOADS = {"extract": ExtractWorkload, "fit": FitWorkload, "predict": PredictWorkload}


# ---------------------------------------------------------------- traces

def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def analyse_trace(doc: dict) -> dict:
    """Per-layer busy and self time, span metrics and counts of one process."""
    spans = doc["spans"]
    children = defaultdict(list)
    for sid, name, t0, t1, parent, tid, sample, count in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    busy_iv = defaultdict(list)      # (layer, thread) -> intervals
    name_iv = defaultdict(list)      # (span name, thread) -> intervals
    layer_self = defaultdict(int)
    per_thread_self = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    vocab = 0
    root = None
    for sid, name, t0, t1, parent, tid, sample, count in spans:
        layer = name.split(".", 1)[0]
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        self_ns = (t1 - t0) - _union_ns(kids)
        layer_self[layer] += self_ns
        per_thread_self[layer, tid] += self_ns
        busy_iv[layer, tid].append((t0, t1))
        name_iv[name, tid].append((t0, t1))
        calls[name] += 1
        if count is not None:
            counts[name] += count
            if name in VOCAB_SPANS:
                vocab = max(vocab, count)
        if parent is None:
            root = (name, t0, t1, self_ns)
    busy = defaultdict(int)
    per_thread_busy = {}
    for (layer, tid), iv in busy_iv.items():
        per_thread_busy[layer, tid] = _union_ns(iv)
        busy[layer] += per_thread_busy[layer, tid]
    name_busy = defaultdict(int)
    for (name, tid), iv in name_iv.items():
        name_busy[name] += _union_ns(iv)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy.get(layer, 0) / 1e9
        out[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9
    for metric, (name, kind) in SPAN_METRICS.items():
        if kind == "busy":
            out[metric] = name_busy.get(name, 0) / 1e9
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
        else:
            out[metric] = counts.get(name, 0)
    out["text_features.vocab_size"] = vocab
    command = root[0].split(".", 1)[1]
    out[f"cli.{command}.self_s"] = root[3] / 1e9
    wall = (root[2] - root[1]) / 1e9
    return {
        "metrics": out,
        "command": command,
        "wall_s": wall,
        "import_s": (doc["main_ns"] - doc["spawn_ns"]) / 1e9,
        "sum_self_s": sum(layer_self.values()) / 1e9,
        "per_thread": {f"{layer}@{'main' if tid == doc['main_thread'] else 'worker'}": {
            "busy_s": per_thread_busy[layer, tid] / 1e9, "self_s": per_thread_self[layer, tid] / 1e9}
            for layer, tid in per_thread_busy},
    }


def sum_round(analyses: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round: summed over its commands, except the
    vocabulary size (largest seen) and import time (median per process)."""
    total = defaultdict(float)
    for a in analyses:
        for k, v in a["metrics"].items():
            if k == "text_features.vocab_size":
                total[k] = max(total[k], v)
            else:
                total[k] += v
    total["cli.import_s"] = statistics.median(a["import_s"] for a in analyses)
    return dict(total)


# ---------------------------------------------------------------- metrics

def round_figures(rounds: list[list[Invocation]]) -> tuple[float, float, float]:
    """(wall, cpu, peak rss MB) of one round: the sum over the round's
    commands of each command's median, and the largest child max RSS."""
    walls, cpus = defaultdict(list), defaultdict(list)
    peak = 0
    for invs in rounds:
        for inv in invs:
            if inv.rc == 0:
                walls[inv.key].append(inv.wall_s)
                cpus[inv.key].append(inv.cpu_s)
                peak = max(peak, inv.rss_kb)
    wall = sum(statistics.median(v) for v in walls.values())
    cpu = sum(statistics.median(v) for v in cpus.values())
    return wall, cpu, peak / 1024.0


def percentile_line(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    s = sorted(values)
    idx = max(0, math.ceil(q * len(s)) - 1)
    return s[idx], len(s) - idx - 1


def stage_metrics(workload: str, rounds: list[list[Invocation]], fused_f1_means: list[float],
                  runner: Runner) -> dict[str, tuple[float, str]]:
    """The per-stage figures this workload produces, under their stage names."""
    walls = defaultdict(list)
    for invs in rounds:
        for inv in invs:
            if inv.rc == 0:
                walls[inv.key].append(inv.wall_s)
    med = {k: statistics.median(v) for k, v in walls.items()}
    wall, cpu, rss = round_figures(rounds)
    out = {}
    if workload == "extract" and "extract" in med:
        out["extract_samples_per_s"] = (CORPUS_SAMPLES / med["extract"], "1/s")
    if workload == "fit":
        out["train_s"] = (sum(med.get(f"train.{a}", 0.0) for a in ALGOS), "s")
        out["evaluate_s"] = (sum(med.get(f"evaluate.{a}", 0.0) for a in ALGOS), "s")
        out["train_mrmr_s"] = (med.get("train.mrmr", 0.0), "s")
        if fused_f1_means:
            out["fused_f1_mean"] = (statistics.median(fused_f1_means), "ratio")
    if workload == "predict":
        for algo in PREDICT_ALGOS:
            vals = walls.get(f"predict.{algo}", [])
            if vals:
                for q in (0.5, 0.8):
                    v, beyond = percentile_line(vals, q)
                    out[f"predict_{algo}_p{int(q * 100)}_ms"] = (v * 1e3, f"ms (n={len(vals)}, {beyond} beyond)")
    out["cpu_s"] = (cpu, "s")
    out["peak_rss_mb"] = (rss, "MB")
    out["failed_ratio"] = (runner.failed / max(1, runner.attempted), "ratio")
    return out


def configuration() -> dict:
    import numpy
    try:
        import modhate._kernels as kernels
        backend = getattr(kernels, "BACKEND", "unknown")
    except ImportError:
        backend = "absent"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "kernels_backend": backend,
        "extract_threads_default": min(4, os.cpu_count() or 1),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{k.lower(): os.environ[k] for k in THREAD_ENV},
        "platform": platform.platform(),
        "corpus_samples": CORPUS_SAMPLES,
        "mrmr_k": MRMR_K,
        "setup_repeats": SETUP_REPEATS,
    }


# ---------------------------------------------------------------- state

def compare_with_earlier(runner: Runner, path: Path, current: dict, what: str):
    """Values recorded by an earlier run of this seed must be identical."""
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key, value in current.items():
        if key in earlier and earlier[key] != value:
            runner.problems.append(f"{what} {key} is {value}, an earlier run of this seed had {earlier[key]}")
    if not runner.problems:
        path.write_text(json.dumps({**earlier, **current}, sort_keys=True, indent=1), encoding="utf-8")


# ---------------------------------------------------------------- main

def set_up_all(runner: Runner, digests: Digests, workload: str, seed: int, work: Path):
    """Set up SETUP_REPEATS times from scratch; keep the first, time all."""
    times, kept = [], None
    for i in range(SETUP_REPEATS):
        dest = work / f"setup{i}"
        t0 = time.perf_counter()
        manifest, out = set_up(runner, workload, seed, dest)
        times.append(time.perf_counter() - t0)
        digests.add("corpus", {"all": corpus_digest(dest / "corpus")})
        rels = FEATURE_FILES if workload == "fit" else []
        if workload == "predict":
            rels = FEATURE_FILES + [f for a in PREDICT_ALGOS for f in model_files(a)]
        digests.add("setup", digest_files(out, rels))
        if kept is None:
            kept = (manifest, out)
        else:
            shutil.rmtree(dest, ignore_errors=True)
    return times, kept


def measure(wl: Workload, seconds: float, trace: bool, deadline: float):
    """Rounds until the next one would overrun `seconds`. With `trace`, each
    untraced round is followed by a traced one. Returns (untraced, traced,
    analyses), where analyses holds the per-command trace analyses of each
    fully traced round."""
    untraced, traced, analyses = [], [], []
    t_start = time.monotonic()
    index = 0
    while True:
        r0 = time.monotonic()
        try:
            untraced.append(wl.round(index, trace=False))
            index += 1
            failed = any(i.rc != 0 for i in untraced[-1])
            if trace:
                invs = wl.round(index, trace=True)
                index += 1
                traced.append(invs)
                failed = failed or any(i.rc != 0 for i in invs)
                if all(i.trace is not None for i in invs):
                    analyses.append([analyse_trace(i.trace) | {"process_s": i.wall_s} for i in invs])
        except Exception as e:  # noqa: BLE001 - unreadable output fails the run, not the benchmark
            wl.runner.problems.append(f"round {index}: {type(e).__name__}: {e}")
            failed = True
        now = time.monotonic()
        last = now - r0
        if failed or now - t_start + last > seconds or now + last > deadline:
            return untraced, traced, analyses


def layer_metrics(runner: Runner, untraced, traced, analyses) -> dict[str, float]:
    """Per-layer metrics per round, median over traced rounds, plus the
    tracing overhead: traced round wall minus untraced round wall."""
    per_round = [sum_round(a) for a in analyses]
    out = {}
    for name in per_layer_names():
        vals = [r.get(name, 0.0) for r in per_round]
        out[name] = statistics.median(vals) if vals else 0.0
        if name in EXACT_METRICS and len(set(vals)) > 1:
            runner.problems.append(f"count {name} differs between traced rounds: {sorted(set(vals))}")
    if not traced or not untraced:
        return out | dict.fromkeys(OVERHEAD_METRICS, 0.0)
    t_wall = statistics.median(sum(i.wall_s for i in invs) for invs in traced)
    u_wall = statistics.median(sum(i.wall_s for i in invs) for invs in untraced)
    out["tracing_overhead_s"] = t_wall - u_wall
    out["tracing_overhead_ratio"] = (t_wall - u_wall) / u_wall
    return out


def print_trace_report(layers: dict[str, float], analyses):
    print("  per layer, per round (median over traced rounds):")
    for name in per_layer_names() + list(OVERHEAD_METRICS):
        print(f"    {name:40s} {layers[name]:16.6f} {unit_of(name)}")
    if not analyses:
        return
    threads = defaultdict(lambda: [0.0, 0.0])
    commands = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for a in analyses[0]:
        for key, v in a["per_thread"].items():
            threads[key][0] += v["busy_s"]
            threads[key][1] += v["self_s"]
        c = commands[a["command"]]
        c[0] += 1
        c[1] += a["wall_s"]
        c[2] += a["metrics"][f"cli.{a['command']}.self_s"]
        c[3] += a["sum_self_s"] - a["metrics"][f"cli.{a['command']}.self_s"]
        c[4] += a["process_s"]
        c[5] += a["import_s"]
    print("  per thread, first traced round:            busy_s     self_s")
    for key, (b, s) in sorted(threads.items()):
        print(f"    {key:36s} {b:10.4f} {s:10.4f}")
    print("  accounting, first traced round: process wall = import + command span + exit;")
    print("  command span = cli self + (layer self summed over threads) / concurrency")
    for command, (n, wall, cli_self, layer_self, process, imports) in commands.items():
        print(f"    {command:9s} x{n:<3d} process {process:9.4f}s = import {imports:.4f}s + command "
              f"{wall:.4f}s + exit {process - imports - wall:.4f}s; command = cli self "
              f"{cli_self:.4f}s + layer self {layer_self:.4f}s / concurrency "
              f"{(cli_self + layer_self) / wall:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: results from other "
              f"configurations must not be compared", file=sys.stderr)
        return 2
    if not (SRC / "modhate" / "cli.py").is_file():
        print(f"no modhate source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)   # before numpy is first imported
    sys.path.insert(0, str(SRC))
    config = configuration()

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(work)
    digests = Digests(runner)
    try:
        setup_times, (manifest, out) = set_up_all(runner, digests, args.workload, args.seed, work)
        untraced, traced, analyses, wl = [], [], [], None
        if runner.failed == 0:
            try:
                wl = WORKLOADS[args.workload](runner, digests, manifest, out, args.seed)
            except Exception as e:  # noqa: BLE001 - set-up output the workload cannot read
                runner.problems.append(f"set-up output unreadable: {type(e).__name__}: {e}")
        if wl is not None:
            untraced, traced, analyses = measure(wl, args.seconds, bool(args.trace), deadline)

        wall, cpu, rss = round_figures(untraced)
        e2e = {"setup_s": (statistics.median(setup_times), "s"), "round_s": (wall, "s"),
               "cpu_s": (cpu, "s"), "peak_rss_mb": (rss, "MB")}
        stages = stage_metrics(args.workload, untraced, wl.fused_f1_means if wl else [], runner)
        layers = {}
        if args.trace:
            layers = layer_metrics(runner, untraced, traced, analyses)
            compare_with_earlier(runner, RESULTS / f"{args.workload}-seed{args.seed}.counts.json",
                                 {k: layers[k] for k in EXACT_METRICS}, "count")
        compare_with_earlier(runner, RESULTS / f"{args.workload}-seed{args.seed}.digests.json",
                             digests.seen, "digest of")

        print(f"modhate pipeline benchmark: workload={args.workload} seed={args.seed} "
              f"trace={args.trace} rounds={len(untraced)} untraced, {len(traced)} traced")
        print("configuration: " + ", ".join(f"{k}={v}" for k, v in config.items()))
        for name, (value, unit) in {**e2e, **stages}.items():
            print(f"  {name:34s} {value:14.6f} {unit}")
        if args.trace:
            print_trace_report(layers, analyses)
        for p in runner.problems:
            print(f"  PROBLEM: {p}")

        correct = not runner.problems and runner.failed == 0
        if args.trace:
            metrics = {k: {"value": float(v), "unit": unit_of(k)} for k, v in layers.items()}
        else:
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}
        (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "configuration": config, "correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "problems": runner.problems, "metrics": metrics,
            "stage_metrics": {k: v for k, (v, _) in stages.items()},
            "setup_s_each": setup_times, "digests": digests.seen,
            "invocations": [[i.key, i.wall_s, i.cpu_s, i.rss_kb, i.rc]
                            for invs in untraced + traced for i in invs],
        }, indent=1, sort_keys=True), encoding="utf-8")
        print(json.dumps({"correct": correct, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
