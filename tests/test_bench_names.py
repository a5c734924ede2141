"""The benchmark's traced pass wraps protodetect functions by name
(`LAYERS` in bench/spans.py) and reads their arguments and results. A
rename, a deletion or a changed argument or result here would break
`bench/run.py --trace 1` without failing any other test."""

import importlib
import importlib.util
import inspect
import json
import os
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers():
    return load_spans().LAYERS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in load_layers()])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module("protodetect." + module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_backward_batch_takes_dq_third():
    # the rows hook reads args[2] of EmbeddingNet.backward_batch as dQ
    from protodetect.embedder import EmbeddingNet
    params = list(inspect.signature(EmbeddingNet.backward_batch).parameters)
    assert params[:3] == ["self", "cache", "dQ"]



def test_traced_pipeline_counts_match_the_dataset(tmp_path):
    # the hooks read len(args[0].proposals), len(background_pool(...)) and
    # the size of the file named by the first argument of save/load_world
    from protodetect.cli import main
    from protodetect.simulator import load_world
    from protodetect.trainer import scene_background_features

    spans = load_spans()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "world": {"c_seen": 3, "c_unseen": 2, "d": 8, "delta": 6.0, "sigma_f": 0.5,
                  "n_train_scenes": 4, "n_test_scenes": 4, "seed": 5},
        "train": {"stage1_steps": 4, "stage2_steps": 2, "hidden_dim": 16,
                  "emb_dim": 8, "seed": 1}}))
    data, ckpt = str(tmp_path / "data.npz"), str(tmp_path / "ckpt.json")
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert main(["gen-data", "--config", str(cfg), "--out", data]) == 0
        assert main(["train", "--config", str(cfg), "--dataset", data, "--out", ckpt]) == 0
        before_eval = dict(tracer.counts)
        assert main(["eval", "--config", str(cfg), "--dataset", data, "--checkpoint", ckpt,
                     "--mode", "fewshot", "--out-prefix", str(tmp_path / "r")]) == 0
    finally:
        spans.uninstall(restore)
    metrics = {k: m["value"] for k, m in spans.per_layer_metrics(tracer, 0.0).items()}

    world = load_world(data)
    size = os.path.getsize(data)
    assert metrics["simulator.save_world.bytes"] == size
    assert metrics["simulator.load_world.calls"] == 2
    assert metrics["simulator.load_world.bytes"] == 2 * size
    assert metrics["inference.proposals"] == sum(len(s.proposals) for s in world.test.scenes)
    assert metrics["inference.detect_scene.calls"] == len(world.test.scenes)
    # train pools every training scene once, before its steps, which
    # draw from those pools; eval takes p0 from the checkpoint and pools
    # no scene
    pool_rows = sum(len(scene_background_features(s)) for s in world.train.scenes)
    assert metrics["prototypes.background_pool.calls"] == len(world.train.scenes)
    assert metrics["prototypes.background_pool.rows"] == \
        before_eval["prototypes.background_pool.rows"] == pool_rows > 0


def test_traced_gradcheck_tags_value_only_probes():
    # _tag_probe counts an episode_loss call under check_term as a probe
    # when it passes no grad_weights: the gradient-path calls pass them,
    # the value-only sweep does not, and it runs no backward pass
    from protodetect import gradcheck

    spans = load_spans()
    inst = gradcheck.random_instance(0)       # d=8: one block, one probe
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        gradcheck.check_term(inst)
    finally:
        spans.uninstall(restore)
    metrics = {k: m["value"] for k, m in spans.per_layer_metrics(tracer, 0.0).items()}
    assert metrics["gradcheck.check_term.calls"] == 1
    assert metrics["gradcheck.probes"] == 1
    assert metrics["gradcheck.discarded_grad_ratio"] == 0.0
