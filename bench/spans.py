"""In-memory span recorder and the wrappers that attach it to protodetect.

A span is (name, start, end, parent, op): op numbers the CLI command the
span ran under, and parent is the span that was open when it started.
The benchmark installs wrappers around the public functions of each
module from its own files; nothing under src/ changes, and `uninstall`
puts every original back. Scalar hot paths (`iou`, `augment_feature`)
are aggregated as call count plus busy time instead of one span per
call; that time still counts against the enclosing span's self time.

Spans live in flat arrays while the program runs and are written out
once, at the end, with `save`.
"""

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.hidden = array("d")   # aggregated calls made directly inside the span
        self.stack = []
        self.current_op = -1
        self.counts = defaultdict(float)
        self.aggregates = {}       # name -> [calls, busy seconds]
        self.probes = set()        # value-only episode_loss spans inside check_term

    def open(self, name):
        sid = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.hidden.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid):
        self.end[sid] = self.clock()
        self.stack.pop()

    def add_aggregate(self, name, seconds):
        entry = self.aggregates.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if self.stack:
            self.hidden[self.stack[-1]] += seconds

    @contextmanager
    def command(self, name):
        """Root span of one CLI command; its spans share a new op id."""
        self.current_op += 1
        sid = self.open("cli." + name)
        try:
            yield
        finally:
            self.close(sid)

    def span_name(self, sid):
        return self.names[self.name[sid]]

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))


def self_times(start, end, parent, hidden):
    """Per-span self time: duration minus the part of the span's interval
    covered by its children, minus aggregated calls made inside it."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered - hidden[i])
    return out


def span_stats(tracer):
    """{name: {"calls", "s", "self_s"}} summed over every span of that name."""
    own = self_times(tracer.start, tracer.end, tracer.parent, tracer.hidden)
    stats = {}
    for i, nid in enumerate(tracer.name):
        st = stats.setdefault(tracer.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += tracer.end[i] - tracer.start[i]
        st["self_s"] += own[i]
    for name, (calls, busy) in tracer.aggregates.items():
        stats[name] = {"calls": calls, "s": busy, "self_s": busy}
    return stats


# --- wrappers ----------------------------------------------------------------

def span_wrapper(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if count is not None:
            count(tracer, sid, args, kwargs, result)
        return result
    return wrapper


def aggregate_wrapper(tracer, name, fn):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_aggregate(name, clock() - t0)
    return wrapper


def _rows_of_arg(key, pos):
    def count(tracer, sid, args, kwargs, result):
        tracer.counts[key] += np.shape(args[pos])[0]
    return count


def _file_bytes(key):
    def count(tracer, sid, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[0])
    return count


def _count_train_steps(tracer, sid, args, kwargs, result):
    tracer.counts["trainer.train.steps"] += len(result.log)


def _count_clipped(tracer, sid, args, kwargs, result):
    max_norm = args[1]
    tracer.counts["trainer.clip_global_norm.clipped"] += 0 < max_norm < result


def _count_pool_rows(tracer, sid, args, kwargs, result):
    tracer.counts["prototypes.background_pool.rows"] += len(result)


def _count_detections(tracer, sid, args, kwargs, result):
    tracer.counts["inference.proposals"] += len(args[0].proposals)
    tracer.counts["inference.detections"] += len(result)


def _tag_probe(tracer, sid, args, kwargs, result):
    parent = tracer.parent[sid]
    if (kwargs.get("grad_weights") is None and parent >= 0
            and tracer.span_name(parent) == "gradcheck.check_term"):
        tracer.probes.add(sid)


AGGREGATE = "aggregate"

# (module, attribute, metric prefix, count hook or AGGREGATE)
LAYERS = (
    ("simulator", "iou", "simulator.iou", AGGREGATE),
    ("simulator", "augment_feature", "simulator.augment_feature", AGGREGATE),
    ("simulator", "generate_world", "simulator.generate_world", None),
    ("simulator", "save_world", "simulator.save_world",
     _file_bytes("simulator.save_world.bytes")),
    ("simulator", "load_world", "simulator.load_world",
     _file_bytes("simulator.load_world.bytes")),
    ("simulator", "label_proposals", "simulator.label_proposals", None),
    ("embedder", "EmbeddingNet.forward_batch", "embedder.forward_batch",
     _rows_of_arg("embedder.forward_batch.rows", 1)),
    ("embedder", "EmbeddingNet.backward_batch", "embedder.backward_batch",
     _rows_of_arg("embedder.backward_batch.rows", 2)),
    ("embedder", "save_checkpoint", "embedder.save_checkpoint", None),
    ("embedder", "load_checkpoint", "embedder.load_checkpoint", None),
    ("numeric", "sq_distances", "numeric.sq_distances", None),
    ("losses", "episode_loss", "losses.episode_loss", _tag_probe),
    ("losses", "matching_loss", "losses.matching_loss", None),
    ("losses", "kl_loss", "losses.kl_loss", None),
    ("losses", "alignment_loss", "losses.alignment_loss", None),
    ("prototypes", "build_prototypes", "prototypes.build_prototypes", None),
    ("prototypes", "background_pool", "prototypes.background_pool", _count_pool_rows),
    ("prototypes", "posteriors_batch", "prototypes.posteriors_batch", None),
    ("trainer", "train", "trainer.train", _count_train_steps),
    ("trainer", "make_episode", "trainer.make_episode", None),
    ("trainer", "AdamW.step", "trainer.adamw_step", None),
    ("trainer", "clip_global_norm", "trainer.clip_global_norm", _count_clipped),
    ("trainer", "scene_background_features", "trainer.scene_background_features", None),
    ("trainer", "heldout_accuracy", "trainer.heldout_accuracy", None),
    ("inference", "detect_scene", "inference.detect_scene", _count_detections),
    ("inference", "assemble_protocol", "inference.assemble_protocol", None),
    ("inference", "save_detections", "inference.save_detections", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "match_at_threshold", "evaluation.match_at_threshold", None),
    ("evaluation", "average_precision", "evaluation.average_precision", None),
    ("config", "load_run_config", "config.load_run_config", None),
    ("gradcheck", "check_term", "gradcheck.check_term", None),
)


def install(tracer):
    """Wrap every LAYERS entry wherever protodetect refers to it.

    Functions are replaced in every protodetect module that imported
    them by name; methods are replaced on their class. Returns the
    (owner, attribute, original) triples that `uninstall` restores.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "protodetect" or name.startswith("protodetect.")]
    restore = []
    for module, attr, name, hook in LAYERS:
        owner = importlib.import_module("protodetect." + module)
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        if hook is AGGREGATE:
            wrapped = aggregate_wrapper(tracer, name, original)
        else:
            wrapped = span_wrapper(tracer, name, original, hook)
        owners = ([owner] if cls_name else
                  [m for m in modules if m.__dict__.get(attr) is original])
        for o in owners:
            restore.append((o, attr, original))
            setattr(o, attr, wrapped)
    return restore


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# --- per-layer metrics ---------------------------------------------------------

# (name, unit, better, end-to-end metric and workload it should move)
PER_LAYER = (
    ("simulator.augment_feature.calls", "count", "lower", "train_s on a3-train"),
    ("simulator.augment_feature.s", "s", "lower", "train_s on a3-train"),
    ("embedder.forward_batch.calls", "count", "lower",
     "train_s on a3-train, gradcheck_s on gradcheck"),
    ("embedder.forward_batch.rows", "count", "lower",
     "eval_fewshot_s, eval_openset_s on large-world"),
    ("embedder.forward_batch.s", "s", "lower",
     "train_s on a3-train, gradcheck_s on gradcheck, eval_*_s on large-world"),
    ("embedder.backward_batch.calls", "count", "lower",
     "train_s on a3-train, gradcheck_s on gradcheck"),
    ("embedder.backward_batch.rows", "count", "lower", "train_s on a3-train"),
    ("embedder.backward_batch.s", "s", "lower",
     "train_s on a3-train, gradcheck_s on gradcheck"),
    ("losses.episode_loss.calls", "count", "lower", "gradcheck_s on gradcheck"),
    ("losses.episode_loss.s", "s", "lower",
     "train_s on a3-train, gradcheck_s on gradcheck"),
    ("losses.episode_loss.self_s", "s", "lower",
     "train_s on a3-train, gradcheck_s on gradcheck"),
    ("losses.matching_loss.s", "s", "lower", "train_s on a3-train, gradcheck_s on gradcheck"),
    ("losses.kl_loss.s", "s", "lower", "train_s on a3-train, gradcheck_s on gradcheck"),
    ("losses.alignment_loss.s", "s", "lower", "train_s on a3-train, gradcheck_s on gradcheck"),
    ("numeric.sq_distances.calls", "count", "lower", "gradcheck_s on gradcheck"),
    ("numeric.sq_distances.s", "s", "lower", "train_s on a3-train, gradcheck_s on gradcheck"),
    ("trainer.train.steps", "count", "higher", "train_s on a3-train (work count)"),
    ("trainer.train.s", "s", "lower", "train_s on a3-train"),
    ("trainer.step_ms", "ms", "lower", "train_s on a3-train"),
    ("trainer.make_episode.s", "s", "lower", "train_s on a3-train"),
    ("trainer.adamw_step.s", "s", "lower", "train_s on a3-train"),
    ("trainer.clip_global_norm.s", "s", "lower", "train_s on a3-train"),
    ("trainer.clip_global_norm.clipped", "count", "lower", "heldout_accuracy on a3-train"),
    ("prototypes.build_prototypes.calls", "count", "lower", "train_s on a3-train"),
    ("prototypes.build_prototypes.s", "s", "lower", "train_s on a3-train"),
    ("simulator.save_world.s", "s", "lower", "gen_data_s on large-world"),
    ("simulator.save_world.bytes", "bytes", "lower", "gen_data_s on large-world"),
    ("simulator.load_world.calls", "count", "lower", "train_s, eval_*_s on large-world"),
    ("simulator.load_world.s", "s", "lower", "train_s, eval_*_s on large-world"),
    ("simulator.load_world.bytes", "bytes", "lower", "train_s, eval_*_s on large-world"),
    ("simulator.generate_world.s", "s", "lower", "gen_data_s on large-world"),
    ("simulator.iou.calls", "count", "lower", "train_s, eval_*_s on large-world"),
    ("simulator.iou.s", "s", "lower", "train_s, eval_*_s on large-world"),
    ("simulator.label_proposals.calls", "count", "lower", "train_s on large-world"),
    ("simulator.label_proposals.s", "s", "lower", "train_s on large-world"),
    ("prototypes.background_pool.calls", "count", "lower", "train_s, eval_*_s on large-world"),
    ("prototypes.background_pool.rows", "count", "lower", "eval_*_s on large-world"),
    ("prototypes.background_pool.s", "s", "lower", "train_s, eval_*_s on large-world"),
    ("trainer.scene_background_features.calls", "count", "lower",
     "train_s, eval_*_s on large-world"),
    ("trainer.scene_background_features.s", "s", "lower", "train_s, eval_*_s on large-world"),
    ("trainer.heldout_accuracy.s", "s", "lower", "train_s on large-world"),
    ("inference.detect_scene.calls", "count", "lower", "eval_*_s on large-world"),
    ("inference.detect_scene.s", "s", "lower", "eval_*_s on large-world"),
    ("inference.proposals", "count", "higher", "eval_*_s on large-world (work count)"),
    ("inference.detections", "count", "lower", "eval_*_s on large-world"),
    ("inference.reject_ratio", "ratio", "higher", "fewshot_map, openset_map"),
    ("inference.assemble_protocol.s", "s", "lower", "eval_*_s on large-world"),
    ("prototypes.posteriors_batch.s", "s", "lower", "eval_*_s on large-world"),
    ("inference.save_detections.s", "s", "lower", "eval_*_s on large-world"),
    ("evaluation.evaluate.s", "s", "lower", "eval_*_s on large-world"),
    ("evaluation.match_at_threshold.calls", "count", "lower", "eval_*_s on large-world"),
    ("evaluation.match_at_threshold.s", "s", "lower", "eval_*_s on large-world"),
    ("evaluation.average_precision.calls", "count", "lower", "eval_*_s on large-world"),
    ("evaluation.average_precision.s", "s", "lower", "eval_*_s on large-world"),
    ("embedder.save_checkpoint.s", "s", "lower", "train_s"),
    ("embedder.load_checkpoint.s", "s", "lower", "eval_*_s"),
    ("config.load_run_config.s", "s", "lower", "setup_s"),
    ("gradcheck.check_term.calls", "count", "lower", "gradcheck_s on gradcheck"),
    ("gradcheck.check_term.s", "s", "lower", "gradcheck_s on gradcheck"),
    ("gradcheck.probes", "count", "lower", "gradcheck_s on gradcheck"),
    ("gradcheck.discarded_grad_ratio", "ratio", "lower", "gradcheck_s on gradcheck"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced minus untraced pass time"),
)


def _discarded_grad_ratio(tracer):
    """Backward calls made inside value-only gradcheck probes, over all
    backward calls made under gradcheck.check_term."""
    in_check = discarded = 0
    for sid in range(len(tracer.start)):
        if tracer.span_name(sid) != "embedder.backward_batch":
            continue
        p, probe, under_check = tracer.parent[sid], False, False
        while p >= 0:
            probe = probe or p in tracer.probes
            if tracer.span_name(p) == "gradcheck.check_term":
                under_check = True
                break
            p = tracer.parent[p]
        in_check += under_check
        discarded += under_check and probe
    return discarded / in_check if in_check else 0.0


def per_layer_metrics(tracer, overhead_ratio):
    """Every PER_LAYER metric as {name: {"value", "unit"}}."""
    stats = span_stats(tracer)
    values = dict(tracer.counts)
    for name, st in stats.items():
        for stat, v in st.items():
            values[f"{name}.{stat}"] = v
    steps = values.get("trainer.train.steps", 0)
    values["trainer.step_ms"] = (1000.0 * values.get("trainer.train.s", 0.0) / steps
                                 if steps else 0.0)
    proposals = values.get("inference.proposals", 0)
    values["inference.reject_ratio"] = (
        1.0 - values.get("inference.detections", 0) / proposals if proposals else 0.0)
    values["gradcheck.probes"] = len(tracer.probes)
    values["gradcheck.discarded_grad_ratio"] = _discarded_grad_ratio(tracer)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _better, _moves in PER_LAYER}
