"""Run one ``modhate`` CLI command in this process, as the console script does.

    python3 perfbench/launch.py [--spawn-ns NS] [--trace FILE] [--sample ID] -- ARGS...

Without ``--trace`` this imports ``modhate.cli`` and calls ``main(ARGS)``,
which is what the installed ``modhate`` script does. With ``--trace`` it first
wraps the public functions that ``modhate.cli`` and ``modhate.classifiers``
call with span recorders. Each span is (id, name, start_ns, end_ns, parent_id,
thread_id, sample_id, count); spans stay in memory and are written to FILE as
JSON when the process exits. ``--spawn-ns`` is the parent's monotonic clock
reading just before it started this process, so the trace can report the time
from process start to ``cli.main`` entry. ``--sample`` tags every span that has
no sample of its own (single-sample ``predict``).
"""

import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


def _parse(argv):
    opts = {"--spawn-ns": None, "--trace": None, "--sample": None}
    i = 0
    while argv[i] != "--":
        if argv[i] not in opts:
            raise SystemExit(f"launch.py: unknown option {argv[i]!r}")
        opts[argv[i]] = argv[i + 1]
        i += 2
    return opts, argv[i + 1:]


class Recorder:
    """In-memory span store shared by every thread of the traced process."""

    ROOT = 0

    def __init__(self, root_sample=None):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._get_ident = threading.get_ident
        self.main_thread = threading.get_ident()
        self.root_sample = root_sample
        self.sample_of_obj = {}   # id(AudioClip) -> sample id, set by read_wav

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, sample_of=None, count_of=None):
        """Return fn wrapped so that each call records one span."""
        rec = self
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent, inherited = stack[-1]
            else:
                parent, inherited = rec.ROOT, rec.root_sample
            sample = sample_of(args) if sample_of else None
            if sample is None:
                sample = inherited
            sid = next(rec._ids)
            stack.append((sid, sample))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # a failed call (a skipped sample, say) still took its time
                stack.pop()
                rec.spans.append((sid, name, t0, clock(), parent, rec._get_ident(), sample, None))
                raise
            t1 = clock()
            stack.pop()
            count = count_of(args, kwargs, result, sample) if count_of else None
            rec.spans.append((sid, name, t0, t1, parent, rec._get_ident(), sample, count))
            return result

        traced.__wrapped__ = fn
        return traced


def _sample_from_path(path):
    """Sample id from the synthetic corpus layout: audio/<id>.wav,
    text/<id>.txt, frames/<id>/ and frames/<id>/<frame>.pgm."""
    p = Path(path)
    if p.parent.name in ("audio", "text"):
        return p.stem
    if p.parent.name == "frames":
        return p.name
    if p.parent.parent.name == "frames":
        return p.parent.name
    return None


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return None


def _audio_frames(args, kwargs, result, sample):
    """Frame count of one clip: ceil(max(n - frame_length, 0) / hop) + 1."""
    clip = args[0]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    wl = getattr(cfg, "frame_length", 512)
    hop = getattr(cfg, "hop_length", 256)
    n = len(clip.samples)
    return -(-max(n - wl, 0) // hop) + 1


def install(rec):
    """Wrap the functions modhate.cli and modhate.classifiers look up at call
    time. Names a later version of the package no longer has are skipped."""

    def layer_of(fn):
        mod = fn.__module__ or ""
        if mod.startswith("modhate._kernels"):
            return "kernels"
        parts = mod.split(".")
        return parts[1] if len(parts) > 1 else parts[0]

    def load(name):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    def remember_clip(args, kwargs, result, sample):
        """Not a count: note which sample the returned clip came from."""
        rec.sample_of_obj[id(result)] = sample
        return None

    def clip_sample(args):
        return rec.sample_of_obj.pop(id(args[0]), None) if args else None

    def path_arg(i):
        return lambda args: _sample_from_path(args[i]) if len(args) > i else None

    def path_bytes(i):
        return lambda args, kwargs, result, sample: _file_bytes(args[i]) if len(args) > i else None

    def vocab_len(args, kwargs, result, sample):
        return len(args[1]) if len(args) > 1 else None

    def result_len(args, kwargs, result, sample):
        return len(result)

    # (function name) -> (sample_of, count_of); default is neither
    hooks = {
        "read_wav": (path_arg(0), remember_clip),
        "read_image_frame": (path_arg(0), None),
        "extract_image_features": (path_arg(0), None),
        "extract_audio_features": (clip_sample, _audio_frames),
        "vectorize": (None, vocab_len),
        "build_vocabulary": (None, result_len),
        "read_vocabulary": (None, result_len),
        "read_feature_csv": (None, path_bytes(0)),
        "write_feature_csv": (None, path_bytes(0)),
        "load_model": (None, path_bytes(0)),
        "save_model": (None, path_bytes(1)),
    }

    def patch(module, attr):
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            return
        sample_of, count_of = hooks.get(fn.__name__, (None, None))
        setattr(module, attr, rec.wrap(f"{layer_of(fn)}.{fn.__name__}", fn, sample_of, count_of))

    cli = load("modhate.cli")
    for attr in ("parse_manifest", "split_dataset", "read_wav",
                 "extract_audio_features", "extract_image_features",
                 "normalize_and_tokenize", "build_vocabulary", "vectorize",
                 "write_vocabulary", "read_vocabulary", "load_stopwords",
                 "fit_pipeline", "model_predict", "load_model", "save_model",
                 "hard_vote", "confusion", "build_report", "parse_report_csv"):
        patch(cli, attr)
    tables = load("modhate.tables")
    for attr in ("read_feature_csv", "write_feature_csv", "read_split_csv", "write_split_csv"):
        patch(tables, attr)
    fs = load("modhate.feature_selection")
    for attr in ("mrmr_select", "rfe_select", "standardize_fit_apply"):
        patch(fs, attr)
    patch(load("modhate.image_features"), "read_image_frame")

    classifiers = load("modhate.classifiers")
    for attr in ("mrmr_select", "rfe_select", "standardize_fit", "standardize_apply"):
        patch(classifiers, attr)
    trainers = getattr(classifiers, "TRAINERS", None)
    if isinstance(trainers, dict):
        for algo, fn in list(trainers.items()):
            trainers[algo] = rec.wrap(f"{layer_of(fn)}.{fn.__name__}", fn)

    kernels = load("modhate._kernels")
    for attr in ("gini_best_split", "pairwise_sq_dists", "joint_counts"):
        patch(kernels, attr)


def main():
    spawn_ns = time.monotonic_ns()
    opts, args = _parse(sys.argv[1:])
    import modhate.cli
    main_ns = time.monotonic_ns()
    if opts["--trace"] is None:
        return modhate.cli.main(args)

    rec = Recorder(opts["--sample"])
    install(rec)
    command = args[0] if args else "none"
    rc = 3
    t0 = time.monotonic_ns()
    try:
        rc = modhate.cli.main(args)
    finally:
        t1 = time.monotonic_ns()
        rec.spans.append((rec.ROOT, f"cli.{command}", t0, t1, None,
                          rec.main_thread, rec.root_sample, None))
        doc = {
            "command": command,
            "exit_code": rc,
            "spawn_ns": int(opts["--spawn-ns"] or spawn_ns),
            "main_ns": main_ns,
            "main_thread": rec.main_thread,
            "spans": rec.spans,
        }
        with open(opts["--trace"], "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
