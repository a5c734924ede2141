"""Tests of the benchmark itself (not collected by the repo's test suite):

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import functools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import protodetect.cli  # noqa: E402
import protodetect.gradcheck  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from session import Session  # noqa: E402
from workloads import (ACCEPTANCE_SEED, A3_TRAIN, GRADCHECK, LARGE_WORLD,  # noqa: E402
                       WORKLOADS)


# --- self time ------------------------------------------------------------------

def test_self_times_on_synthetic_span_tree():
    # 0 [0,10] has children 1 [1,4] and 2 [3,6] (overlapping: union 5 s)
    # and 4 [9,12], which runs past its parent (only 1 s counts);
    # 3 [1.5,2] is a grandchild; 0.5 s of aggregated calls ran inside 0.
    start = [0.0, 1.0, 3.0, 1.5, 9.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    hidden = [0.5, 0.0, 0.0, 0.0, 0.0]
    assert spans.self_times(start, end, parent, hidden) == \
        pytest.approx([3.5, 2.5, 3.0, 0.5, 3.0])


def test_tracer_nests_spans_and_charges_aggregates_to_the_parent():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.command("train"):                    # opens at 0
        sid = tracer.open("trainer.make_episode")    # 1
        tracer.add_aggregate("simulator.augment_feature", 0.25)
        tracer.add_aggregate("simulator.augment_feature", 0.25)
        tracer.close(sid)                            # 2
        sid = tracer.open("trainer.make_episode")    # 3
        tracer.close(sid)                            # 4
    #                                                  closes at 5
    stats = spans.span_stats(tracer)
    assert stats["cli.train"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert stats["trainer.make_episode"] == {"calls": 2, "s": 2.0, "self_s": 1.5}
    assert stats["simulator.augment_feature"] == {"calls": 2, "s": 0.5, "self_s": 0.5}
    assert list(tracer.op) == [0, 0, 0]


def test_install_wraps_every_reference_and_uninstall_restores():
    from protodetect import evaluation, prototypes, simulator
    originals = (simulator.iou, prototypes.iou, evaluation.iou)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert all(m.iou is not o for m, o in
                   zip((simulator, prototypes, evaluation), originals))
        box = simulator.Box(0.0, 0.0, 2.0, 2.0)
        evaluation.match_at_threshold([(box, 1.0)], [box], 0.5)
    finally:
        spans.uninstall(restore)
    assert (simulator.iou, prototypes.iou, evaluation.iou) == originals
    stats = spans.span_stats(tracer)
    assert stats["evaluation.match_at_threshold"]["calls"] == 1
    assert stats["simulator.iou"]["calls"] == 1


# --- reduced-size smoke runs and the correctness gate ---------------------------

SMALL = {
    # fewer steps than A3, still enough to clear the A3/A4 floors; no
    # weight on train, so a 5 s run also repeats the short commands
    "a3-train": dataclasses.replace(
        A3_TRAIN, train=dict(A3_TRAIN.train, stage1_steps=150, stage2_steps=50,
                             hidden_dim=256), weights=()),
    "large-world": dataclasses.replace(
        LARGE_WORLD, world=dict(LARGE_WORLD.world, n_train_scenes=4, n_test_scenes=4)),
    "gradcheck": GRADCHECK,
}


@pytest.fixture
def one_seed_gradcheck(monkeypatch):
    """The CLI audit over one instance instead of twenty."""
    monkeypatch.setattr(protodetect.cli, "run_suite",
                        functools.partial(protodetect.gradcheck.run_suite, seeds=range(1)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(name, tmp_path, one_seed_gradcheck):
    sess = Session(tmp_path, SMALL[name], seed=7, root=ROOT)
    sess.run(seconds=5)
    assert sess.failures() == []
    counts = {c: len(t) for c, t in sess.times.items()}
    assert min(counts.values()) >= 1
    # the short commands were issued again and matched their first output
    assert min(counts["gen-data"], counts["eval-fewshot"], counts["eval-openset"]) >= 2
    assert set(sess.quality) >= {"heldout_accuracy", "fewshot_map", "openset_map",
                                 "gradcheck_max_rel_err"}


def test_gate_fails_a_model_below_the_a3_floors(tmp_path):
    # class means 1 sigma apart and a single step: nowhere near the floors
    hard = dataclasses.replace(
        SMALL["a3-train"], world=dict(A3_TRAIN.world, delta=1.0),
        train=dict(SMALL["a3-train"].train, stage1_steps=1, stage2_steps=0))
    sess = Session(tmp_path, hard, seed=7, root=ROOT)
    sess.run_pass(gradcheck=False, setup=False)
    assert any("below the floor" in f for f in sess.failures())
    assert sess.failed >= 1


def test_unknown_recall_floor_is_gated_at_the_acceptance_seed_only(tmp_path,
                                                                 monkeypatch):
    monkeypatch.setattr(workloads, "MIN_UNKNOWN_RECALL50", 1.01)   # always missed
    quick = dataclasses.replace(
        SMALL["a3-train"], train=dict(SMALL["a3-train"].train, stage1_steps=1,
                                      stage2_steps=0))
    missed = {}
    for seed in (ACCEPTANCE_SEED, ACCEPTANCE_SEED + 1):
        sess = Session(tmp_path / str(seed), quick, seed=seed, root=ROOT)
        sess.run_pass(gradcheck=False, setup=False)
        assert "unknown_recall50" in sess.quality
        missed[seed] = "eval-openset: unknown_recall50" in " ".join(sess.failures())
    assert missed == {ACCEPTANCE_SEED: True, ACCEPTANCE_SEED + 1: False}


def test_gauge_samples_during_a_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Gauge(0.05) as gauge:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(gauge.samples) >= 4           # one before, the rest inside
    assert 0.0 < gauge.inside_s < 0.4
    assert gauge.slowdown() == pytest.approx(
        sum(gauge.samples) / len(gauge.samples) / reference.NOMINAL_S)
    assert len(reference.Gauge().samples) == 1


def test_gate_fails_a_gradient_error(tmp_path, monkeypatch):
    monkeypatch.setattr(protodetect.cli, "run_suite",
                        lambda: {"match": 1e-9, "kl": 1e-9, "align": 0.5, "total": 1e-9})
    sess = Session(tmp_path, GRADCHECK, seed=7, root=ROOT)
    sess.run_pass(gradcheck=True, setup=False)
    assert sess.failed == 1
    assert sess.failures() == ["gradcheck: exit 4",
                               "gradcheck: gradient error 5.000e-01 above 0.0001"]


def test_gate_fails_an_artifact_that_changes_between_passes(tmp_path, monkeypatch):
    calls = iter(range(100))
    provenance = protodetect.cli._provenance
    monkeypatch.setattr(protodetect.cli, "_provenance",
                        lambda *a: dict(provenance(*a), call=next(calls)))
    sess = Session(tmp_path, GRADCHECK, seed=7, root=ROOT)
    sess.run_pass(gradcheck=False, setup=False)
    sess.run_pass(gradcheck=False, setup=False)
    assert "train: ckpt.json differs from the first train" in sess.failures()


# --- the benchmark's contract ---------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [row[:3] for row in spans.PER_LAYER]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "a3-train"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
