import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import protodetect

from protodetect import archive, cli, embedder
from protodetect.cli import main, run_protocol
from protodetect.config import (ConfigError, RunConfig, apply_overrides, file_digest,
                                load_run_config)
from protodetect.embedder import load_checkpoint, save_checkpoint
from protodetect.inference import MODES, assemble_protocol, detect_scene, save_detections
from protodetect import simulator
from protodetect.simulator import load_world
from protodetect.trainer import background_prototype, scene_background_features

from helpers import force_cpus


BASE_CFG = {
    "world": {"c_seen": 3, "c_unseen": 2, "d": 8, "delta": 6.0,
              "sigma_f": 0.5, "n_train_scenes": 4, "n_test_scenes": 4,
              "seed": 5},
    "train": {"stage1_steps": 6, "stage2_steps": 3, "hidden_dim": 16,
              "emb_dim": 8, "seed": 1},
}


def write_cfg(path, doc=None):
    path.write_text(json.dumps(doc if doc is not None else BASE_CFG))
    return str(path)


# --- config loading ---------------------------------------------------------

# keys that no caller set to anything but their default, each with that
# default; they are constants of simulator.py and trainer.py now
REMOVED_KEYS = (("world", "scene_size", 100.0), ("world", "bg_feature_std", 1.0),
                ("world", "box_size_range", [8.0, 16.0]),
                ("world", "test_includes_unseen", True), ("train", "beta1", 0.9),
                ("train", "beta2", 0.999), ("train", "eps", 1e-8),
                ("train", "grad_clip", 10.0))


def test_config_defaults_from_empty_doc(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path / "c.json", {}))
    assert cfg.train.lr == 1e-4
    assert cfg.train.tau == 10.0
    # config_digest hashes this dict, so every provenance digest depends
    # on it: the world and train fields and the expected dataset digest
    doc = cfg.to_dict()
    assert sorted(doc) == ["expected_dataset_digest", "train", "world"]
    assert len(doc["world"]) + len(doc["train"]) + 1 == 27


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="top-level"):
        load_run_config(write_cfg(tmp_path / "a.json", {"worlds": {}}))
    with pytest.raises(ConfigError, match="world"):
        load_run_config(write_cfg(tmp_path / "b.json", {"world": {"bogus": 1}}))
    # the section that once chose eval's mode, which --mode alone does
    with pytest.raises(ConfigError, match=r"unknown top-level keys: \['protocol'\]"):
        load_run_config(write_cfg(tmp_path / "c.json",
                                  {"protocol": {"mode": "fewshot"}}))
    # a key that once switched augmentation off; augment_strength 0 does
    with pytest.raises(ConfigError, match="augment"):
        load_run_config(write_cfg(tmp_path / "d.json", {"train": {"augment": False}}))
    # keys that held fixed constants of the simulator and of AdamW
    cfg = write_cfg(tmp_path / "e.json")
    for section, key, value in REMOVED_KEYS:
        with pytest.raises(ConfigError, match=key):
            load_run_config(write_cfg(tmp_path / "f.json", {section: {key: value}}))
        with pytest.raises(ConfigError, match=key):
            load_run_config(cfg, [f"{section}.{key}={json.dumps(value)}"])
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d.npz"),
                     "--set", f"{section}.{key}={json.dumps(value)}"]) == 2
    assert not list(tmp_path.glob("d.npz*"))


def test_config_rejects_invalid_values(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(write_cfg(tmp_path / "a.json",
                                  {"train": {"lr": -1.0}}))
    # the loss weights and tau that training and the gradient audit read
    for key, value in (("tau", 0.0), ("lambda_kl", -0.1), ("lambda_align", -0.1)):
        with pytest.raises(ConfigError, match=key):
            load_run_config(write_cfg(tmp_path / "b.json", {"train": {key: value}}))


def test_readme_config_schema_loads():
    # the README's example config names only keys the loader accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    schema = readme.split("## Config schema", 1)[1]
    block = schema.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = RunConfig.from_dict(json.loads(block))
    assert cfg.train.mlp_depth == 2 and cfg.world.seed == 7


def test_config_overrides_dot_paths():
    doc = apply_overrides({}, ["train.lr=0.01", "world.c_seen=7"])
    cfg = RunConfig.from_dict(doc)
    assert cfg.train.lr == 0.01
    assert cfg.world.c_seen == 7


# the protocol section is gone, with every key it held: each exits 2 as
# an unknown key, in every command
@pytest.mark.parametrize("argv", [
    ["gen-data", "--set", 'protocol.unknown_includes_background="x"'],
    ["gen-data", "--set", "protocol.unknown_includes_background=1"],
    ["gen-data", "--set", 'protocol.mode="bogus"'],
    ["train", "--set", 'protocol.mode="bogus"'],
    # a key that once chose the open-set unknown prototype's composition
    ["gen-data", "--set", "protocol.unknown_includes_background=true"],
])
def test_protocol_section_checked_at_load(tmp_path, argv, capsys):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "d.json"
    extra = ["--out", str(out)] if argv[0] == "gen-data" else [
        "--dataset", str(tmp_path / "absent.json"), "--out", str(out)]
    assert main([argv[0], "--config", cfg, *argv[1:], *extra]) == 2
    assert "unknown top-level keys: ['protocol']" in capsys.readouterr().err
    assert not out.exists()


def test_config_override_bad_format():
    with pytest.raises(ConfigError, match="path=value"):
        apply_overrides({}, ["train.lr"])


def test_config_digest_changes_with_values(tmp_path):
    c1 = load_run_config(write_cfg(tmp_path / "c.json"))
    c2 = load_run_config(str(tmp_path / "c.json"), ["train.lr=0.5"])
    assert c1.digest() != c2.digest()
    assert c1.digest() == load_run_config(str(tmp_path / "c.json")).digest()


# --- gen-data ---------------------------------------------------------------

def test_gen_data_writes_deterministic_dataset(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json")
    d1, d2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-data", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()
    digest = hashlib.sha256(d1.read_bytes()).hexdigest()
    assert capsys.readouterr().out.count(f"dataset digest: {digest}") == 2
    # a v2 archive, written at exactly --out
    assert d1.read_bytes()[:4] == b"PK\x03\x04"
    assert not (tmp_path / "a.json.npz").exists()


def test_gen_data_bad_config_exit_2(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"world": {"nope": 1}})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 2


def test_gen_data_missing_config_exit_2(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "d.json")]) == 2


def test_gen_data_unwritable_out_exit_2(tmp_path):
    cfg = write_cfg(tmp_path / "c.json")
    out = tmp_path / "no_such_dir" / "d.json"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2


def test_failed_gen_data_keeps_the_previous_dataset(tmp_path, monkeypatch, capsys):
    # a write that fails half way, as on a full disk, leaves the dataset
    # already at --out as it was, and no temporary
    cfg, out = write_cfg(tmp_path / "c.json"), tmp_path / "d.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    good = out.read_bytes()

    def half_written(path, entries):
        with open(path, "wb") as f:
            f.write(good[:len(good) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(simulator, "save_archive", half_written)
    assert main(["gen-data", "--config", cfg, "--out", str(out),
                 "--set", "world.seed=6"]) == 2
    assert f"cannot write {out}: No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "d.npz"]


# --- train ------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg = write_cfg(root / "c.json")
    data = root / "data.json"
    ckpt = root / "ckpt.json"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(ckpt)]) == 0
    return cfg, data, ckpt, root


def test_train_writes_checkpoint_and_log(trained):
    cfg, data, ckpt, root = trained
    # a v2 archive, written at exactly --out
    assert ckpt.read_bytes()[:4] == b"PK\x03\x04"
    assert not (root / "ckpt.json.npz").exists()
    with np.load(ckpt, allow_pickle=False) as archive:
        assert str(archive["format"]) == "protodetect-checkpoint-v2"
        provenance = json.loads(str(archive["provenance"]))
    assert provenance["dataset_digest"] == hashlib.sha256(data.read_bytes()).hexdigest()
    assert "config_digest" in provenance
    lines = (root / "ckpt.json.log.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines]
    assert len(recs) == 6 + 3 + 1
    assert recs[-1]["final"] is True
    assert 0.0 <= recs[-1]["accuracy"] <= 1.0
    for rec in recs[:-1]:
        assert set(rec) >= {"step", "stage", "l_match", "l_kl", "l_align",
                            "l_total", "grad_norm"}


def test_stored_p0_equals_the_rebuilt_one(trained):
    _, data, ckpt, _ = trained
    net, _, p0 = load_checkpoint(ckpt)
    pools = [scene_background_features(s) for s in load_world(data).train.scenes]
    assert np.array_equal(p0, background_prototype(net, pools))


def test_train_rerun_byte_identical(trained, tmp_path):
    cfg, data, ckpt, _ = trained
    again = tmp_path / "again.json"
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(again), "--log", str(tmp_path / "l.jsonl")]) == 0
    assert again.read_bytes() == ckpt.read_bytes()


def test_train_dataset_digest_mismatch_exit_2(trained, tmp_path):
    cfg, data, _, _ = trained
    doc = dict(BASE_CFG)
    doc["expected_dataset_digest"] = "0" * 64
    bad = write_cfg(tmp_path / "bad.json", doc)
    assert main(["train", "--config", bad, "--dataset", str(data),
                 "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("digest", ["5", "false", "0", "[]", "{}"])
def test_non_string_dataset_digest_exit_2(trained, tmp_path, digest, capsys):
    # a falsy non-string digest used to turn the digest check off (exit 0)
    cfg, data, _, _ = trained
    out = tmp_path / "x.npz"
    assert main(["train", "--config", cfg, "--dataset", str(data), "--out", str(out),
                 "--set", f"expected_dataset_digest={digest}"]) == 2
    assert "'expected_dataset_digest' must be a string or null" in capsys.readouterr().err
    assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_train_without_scored_heldout_proposals_logs_null_accuracy(tmp_path, capsys):
    # every test proposal is one of its scene's GT boxes, of an unseen
    # class, so no held-out proposal is scored; the dataset passes every
    # loader check
    cfg = write_cfg(tmp_path / "c.json")
    world = simulator.generate_world(load_run_config(cfg).world)
    test = world.test
    test.proposals[:] = test.gt[:, np.arange(test.proposals.shape[1]) % test.gt.shape[1]]
    test.labels[:] = min(world.support_unseen)
    data, ckpt = tmp_path / "d.npz", tmp_path / "k.npz"
    simulator.save_world(data, world)
    assert main(["train", "--config", cfg, "--dataset", str(data), "--out", str(ckpt)]) == 0
    assert "final heldout accuracy: none\n" in capsys.readouterr().out
    last = (tmp_path / "k.npz.log.jsonl").read_text().splitlines()[-1]
    assert json.loads(last, parse_constant=_refuse_constant) == {"accuracy": None,
                                                                 "final": True}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_3(trained, tmp_path):
    cfg, data, _, _ = trained
    rc = main(["train", "--config", cfg, "--dataset", str(data),
               "--out", str(tmp_path / "x.json"), "--set", "train.lr=1e150"])
    assert rc == 3


@pytest.mark.parametrize("setting", ["train.weight_decay=1e308", "train.tau=5e-324"])
def test_train_overflow_in_a_step_exit_3(trained, tmp_path, setting, capsys):
    # the first step's decay factor overflows float32, or its similarities
    # S / tau overflow float64: divergence, reported without numpy's
    # warnings (tier-1 turns every warning into an error)
    cfg, data, _, _ = trained
    out = tmp_path / "x.npz"
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(out), "--set", setting]) == 3
    assert "training diverged: overflow encountered" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --- eval -------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["fewshot", "openset", "zs-uo", "zs-mpu",
                                  "zs-mps"])
def test_eval_modes_write_reports(trained, tmp_path, mode, capsys):
    cfg, data, ckpt, _ = trained
    prefix = str(tmp_path / mode)
    rc = main(["eval", "--config", cfg, "--dataset", str(data),
               "--checkpoint", str(ckpt), "--mode", mode,
               "--out-prefix", prefix])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mAP=" in out and "mAR=" in out
    report = json.loads((tmp_path / (mode + ".json")).read_text())
    assert report["provenance"]["mode"] == mode
    assert "config_digest" in report["provenance"]
    assert "dataset_digest" in report["provenance"]
    assert 0.0 <= report["mAP"] <= 1.0
    dets = json.loads((tmp_path / (mode + ".detections.json")).read_text())
    assert dets["format"] == "protodetect-detections-v1"
    assert (tmp_path / (mode + ".csv")).exists()
    if mode == "openset":
        assert "known" in out and "unknown" in out


@pytest.fixture(scope="module")
def trained_seen_only(tmp_path_factory):
    """(config, dataset, checkpoint) of a world with no unseen classes."""
    root = tmp_path_factory.mktemp("seen_only")
    doc = json.loads(json.dumps(BASE_CFG))
    doc["world"]["c_unseen"] = 0
    cfg = write_cfg(root / "c.json", doc)
    data, ckpt = root / "data.npz", root / "ckpt.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(data), "--out", str(ckpt)]) == 0
    return cfg, data, ckpt


@pytest.mark.parametrize("mode", ["fewshot", "openset", "zs-uo", "zs-mpu", "zs-mps"])
def test_eval_without_unseen_classes(trained_seen_only, tmp_path, mode, capsys):
    # fewshot alone needs no unseen support; every other mode exits 2
    # before writing
    cfg, data, ckpt = trained_seen_only
    rc = main(["eval", "--config", cfg, "--dataset", str(data), "--checkpoint", str(ckpt),
               "--mode", mode, "--out-prefix", str(tmp_path / "r")])
    if mode == "fewshot":
        assert rc == 0 and len(list(tmp_path.glob("r.*"))) == 3
    else:
        assert rc == 2
        assert capsys.readouterr().err == f"mode {mode} requires unseen support classes\n"
        assert not list(tmp_path.iterdir())


def test_eval_rerun_byte_identical(trained, tmp_path):
    cfg, data, ckpt, _ = trained
    p1, p2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for prefix in (p1, p2):
        assert main(["eval", "--config", cfg, "--dataset", str(data),
                     "--checkpoint", str(ckpt), "--mode", "fewshot",
                     "--out-prefix", prefix]) == 0
    for suffix in (".json", ".csv", ".detections.json"):
        assert (tmp_path / ("r1" + suffix)).read_bytes() == \
               (tmp_path / ("r2" + suffix)).read_bytes()


# sha256 of <prefix>.detections.json, .json and .csv for BASE_CFG in
# every mode. The evaluator and the JSON encoder may change only in ways
# that keep these bytes; the detection scores and the checkpoint they
# rest on are float products, so a numpy or BLAS build that rounds them
# differently moves them too (numpy 2.4 with OpenBLAS 0.3.31 on x86-64).
# Each file's provenance holds the dataset digest, so a change of the
# dataset's bytes alone (as from v3 to v4) moves all of them
PINNED_EVAL_ARTIFACTS = {
    "fewshot": ("28f5a71148a2b9f9b8cfe4b13210c02ec70ae992b1757069871798cc8d9e0358",
                "75c840b828cbffc7fd7ceee0d36a94e003bb11656476a49383b6bcc41e5045da",
                "03a8ff475d524de13f2dc95016a6a2e63ba6593cbd7ac71cb2e94c3df0e2f593"),
    "openset": ("2a1c4216224aceff518ddbebc9ef712947586a0384dcf087acaae82cf8baee82",
                "9124ceb04638b95c5d6e90c329ea77654324aec22b0c042d0d9da399910a736b",
                "e67af914f54f5bde12a9b9affae176f8ae143d48250f94e0173f4915ff9ee037"),
    "zs-uo": ("b5e8a128e5ffc36601d960e89c0d5ef60833c91d7c4285a6312d0a9b02815458",
              "aa436cbf24300d90a9441f8498c5010845ab4d0d8f0401f28fe6389e6abee7ac",
              "8404eb6a2dfa64b023742af38e66b7d86a96a450ea8d3087fee38039bcc56494"),
    "zs-mpu": ("82c06d2e13747e45b0c7517fa4f0d4a861ab346424172de4f41fab8fab3b72fc",
               "1eee563fa8a75e1c77455541c463e7a8aca2252a3ba39f73a145d28cc9659779",
               "842f86e0ed27b0f73ce2a829d51d0b373aa981da530a6f2605c47eb297c1582d"),
    "zs-mps": ("a4a4f0dae4974d2247a4cc3fbc81b1be234c285942490013acf66b319d0ff34a",
               "1e8654bb3b07a75112d33ddb906fa8488d3d101cbcb11e1525307aee9963d2d2",
               "fe09d66989ada53f2a5b7e0a0244c40bd19810f70b17f648ed70f4ceaa79e44f"),
}


def test_eval_artifacts_are_pinned(trained, tmp_path):
    cfg, data, ckpt, _ = trained
    for mode, pinned in PINNED_EVAL_ARTIFACTS.items():
        prefix = tmp_path / mode
        assert main(["eval", "--config", cfg, "--dataset", str(data), "--checkpoint",
                     str(ckpt), "--mode", mode, "--out-prefix", str(prefix)]) == 0
        digests = tuple(hashlib.sha256(Path(f"{prefix}{suffix}").read_bytes()).hexdigest()
                        for suffix in (".detections.json", ".json", ".csv"))
        assert digests == pinned, mode


# sha256 of the checkpoint and of the train log on the A3 world (d=64,
# hidden 512, emb 128, the benchmark's a3-train config) with a 10 + 5
# step schedule, seed 7: the training step at its full sizes, each of
# its products large enough for BLAS to block it. Like the pins above,
# they rest on float products, so a numpy or BLAS build that rounds them
# differently moves them (numpy 2.4 with OpenBLAS 0.3.31 on x86-64). The
# checkpoint's provenance holds the dataset digest; the log does not
A3_SHORT_CFG = {
    "world": {"c_seen": 5, "c_unseen": 2, "d": 64, "delta": 10.0, "sigma_f": 1.0,
              "shots": 5, "box_jitter": 0.0, "n_train_scenes": 20,
              "n_test_scenes": 20, "seed": 7},
    "train": {"lr": 1e-4, "weight_decay": 1e-4, "stage1_steps": 10, "stage2_steps": 5,
              "shots": 5, "queries_per_support": 4, "tau": 10.0, "seed": 7},
}
PINNED_A3_TRAIN = ("ba69604024c79208d653d95b9b781b16decae478d9e0a7b87406e9b4a198cee1",
                   "7e0f58c11d801c3c3b8cbe36c73b398eb13207913e0a09566202ecb823539495")


def test_a3_training_bytes_are_pinned(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", A3_SHORT_CFG)
    data, ckpt = tmp_path / "d.npz", tmp_path / "k.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(data), "--out", str(ckpt)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (ckpt, Path(f"{ckpt}.log.jsonl")))
    assert digests == PINNED_A3_TRAIN


@pytest.mark.parametrize("mode", MODES)
def test_detection_from_one_embed_equals_per_scene_forwards(trained, tmp_path, mode):
    # eval embeds every test scene in one pass; the detections file is
    # byte for byte the one a forward pass per scene gives
    _, data, ckpt, _ = trained
    world = load_world(data)
    net, _, p0 = load_checkpoint(ckpt)
    per_scene, _ = run_protocol(world, net, mode, p0)
    bank, _, _ = assemble_protocol(mode, world, net, p0)
    one_by_one = [detect_scene(s, net.forward_batch(s.features)[0], bank)
                  for s in world.test.scenes]
    save_detections(tmp_path / "one.json", per_scene)
    save_detections(tmp_path / "each.json", one_by_one)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "each.json").read_bytes()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_is_hashed_once(trained, tmp_path, monkeypatch, command):
    # the expected-digest check and the provenance header share one hash,
    # taken after the load or, from PARALLEL_HASH_BYTES on, beside it
    cfg, data, ckpt, _ = trained
    digest = hashlib.sha256(data.read_bytes()).hexdigest()
    force_cpus(monkeypatch, 2)
    args = {"train": ["--out", str(tmp_path / "c.npz")],
            "eval": ["--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "r")]}
    for hash_bytes in (cli.PARALLEL_HASH_BYTES, 0):
        monkeypatch.setattr(cli, "PARALLEL_HASH_BYTES", hash_bytes)
        calls = []
        monkeypatch.setattr(cli, "file_digest",
                            lambda path: calls.append(path) or digest)
        assert main([command, "--config", cfg, "--dataset", str(data), *args[command],
                     "--set", f"expected_dataset_digest={digest}"]) == 0
        assert calls == [str(data)]


def _counted(fn, calls):
    """fn, appending its name to `calls` on every call."""
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("case", ["missing", "truncated", "not_an_archive"])
def test_unreadable_dataset_hashed_beside_the_load_exit_2(trained, tmp_path, monkeypatch,
                                                          case, capsys):
    # a dataset the load refuses while the other thread hashes it is
    # reported as the serial path reports it, and no thread is left
    cfg, data, ckpt, _ = trained
    path = tmp_path / "d.npz"
    if case == "truncated":
        path.write_bytes(data.read_bytes()[:len(data.read_bytes()) // 2])
    elif case == "not_an_archive":
        path.write_text("{}")
    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "PARALLEL_HASH_BYTES", 0)
    calls = []
    monkeypatch.setattr(cli, "in_parallel", _counted(cli.in_parallel, calls))
    threads = threading.active_count()
    for argv in (["train", "--out", str(tmp_path / "c.npz")],
                 ["eval", "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "r")]):
        assert main([*argv[:1], "--config", cfg, "--dataset", str(path), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith("cannot read dataset: ")
        assert threading.active_count() == threads
    assert calls == ["in_parallel"] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if case == "missing" else ["d.npz"])


def test_artifacts_identical_with_and_without_a_second_thread(tmp_path, monkeypatch, capsys):
    # every command's files and printout are the same bytes whether the
    # process may use one CPU or two; with 8-row embed blocks and no
    # hash threshold, every embed of the 48 test rows and every dataset
    # hash takes the second thread when there are two, and none outlives
    # its command
    monkeypatch.setattr(embedder, "EMBED_BLOCK_ROWS", 8)
    monkeypatch.setattr(cli, "PARALLEL_HASH_BYTES", 0)
    calls = []
    for module in (cli, embedder):
        monkeypatch.setattr(module, "in_parallel", _counted(module.in_parallel, calls))
    cfg = write_cfg(tmp_path / "c.json")
    threads = threading.active_count()
    runs = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        d = tmp_path / f"cpus{cpus}"
        d.mkdir()
        data, ckpt = str(d / "data.npz"), str(d / "ckpt.npz")
        commands = [["gen-data", "--out", data], ["train", "--dataset", data, "--out", ckpt]]
        commands += [["eval", "--dataset", data, "--checkpoint", ckpt, "--mode", mode,
                      "--out-prefix", str(d / mode)] for mode in MODES]
        out, counts = [], []
        for argv in commands:
            assert main([argv[0], "--config", cfg, *argv[1:]]) == 0
            assert threading.active_count() == threads
            out.append(capsys.readouterr().out.replace(str(d), ""))
            counts.append(len(calls))
            del calls[:]
        runs.append((out, {p.name: p.read_bytes() for p in sorted(d.iterdir())}))
        # gen-data reads nothing back; with two CPUs, train and eval hash
        # the dataset and embed held-out or test rows on two threads each
        assert counts == [0] * len(counts) if cpus == 1 else (
            counts[0] == 0 and min(counts[1:]) >= 2)
    assert len(runs[0][1]) == 3 + 3 * len(MODES)
    assert runs[0] == runs[1]


def test_eval_mode_defaults_to_fewshot(trained, tmp_path):
    # without --mode, eval writes the fewshot reports, byte for byte
    cfg, data, ckpt, _ = trained
    for name, mode in (("default", []), ("fewshot", ["--mode", "fewshot"])):
        assert main(["eval", "--config", cfg, "--dataset", str(data), "--checkpoint",
                     str(ckpt), "--out-prefix", str(tmp_path / name), *mode]) == 0
    for suffix in (".detections.json", ".json", ".csv"):
        assert (tmp_path / ("default" + suffix)).read_bytes() == \
               (tmp_path / ("fewshot" + suffix)).read_bytes()
    doc = json.loads((tmp_path / "default.json").read_text())
    assert doc["provenance"]["mode"] == "fewshot"


def test_eval_bad_mode_in_config_exit_2(trained, tmp_path, capsys):
    # the config selects no mode: a protocol section is an unknown key
    cfg, data, ckpt, _ = trained
    for value in ("bogus", "zs-uo"):
        rc = main(["eval", "--config", cfg, "--dataset", str(data),
                   "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "x"),
                   "--set", f"protocol.mode={value}"])
        assert rc == 2
        assert "unknown top-level keys: ['protocol']" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_eval_missing_checkpoint_exit_2(trained, tmp_path):
    cfg, data, _, _ = trained
    rc = main(["eval", "--config", cfg, "--dataset", str(data),
               "--checkpoint", str(tmp_path / "absent.json"),
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2


# --- exit codes on malformed input -----------------------------------------

def test_train_non_numeric_lr_exit_2(trained, tmp_path, capsys):
    cfg, data, _, _ = trained
    rc = main(["train", "--config", cfg, "--dataset", str(data),
               "--out", str(tmp_path / "x.json"), "--set", 'train.lr="abc"'])
    assert rc == 2
    assert "train.lr" in capsys.readouterr().err


def test_zero_training_scenes_exit_2(trained, tmp_path):
    # a dataset whose training split holds no scene is refused too
    # (TRAIN_ENTRY_MUTATIONS["no_train_scenes"])
    cfg, _, _, _ = trained
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d.json"),
                 "--set", "world.n_train_scenes=0"]) == 2
    assert not list(tmp_path.iterdir())


def test_train_zero_hidden_dim_exit_2(trained, tmp_path):
    cfg, data, _, _ = trained
    out = tmp_path / "x.json"
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(out), "--set", "train.hidden_dim=0"]) == 2
    assert not out.exists()


def test_gen_data_delta_without_finite_draw_bound_exit_2(tmp_path, capsys):
    # class-mean norms are drawn from U[delta, 2 delta]; at delta = 1e308
    # numpy's draw raised OverflowError out of gen-data
    out = tmp_path / "d.npz"
    assert main(["gen-data", "--config", write_cfg(tmp_path / "c.json"), "--out", str(out),
                 "--set", "world.delta=1e308"]) == 2
    assert "delta out of range" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_features_beyond_float32_exit_2(tmp_path, capsys):
    # a dataset stores features in float32: delta = 1e39 is a valid,
    # finite float64 config, but its features cannot be stored, so
    # gen-data exits 2 naming them, writes nothing and prints no numpy
    # warning (tier-1 turns every warning into an error)
    out = tmp_path / "d.npz"
    assert main(["gen-data", "--config", write_cfg(tmp_path / "c.json"), "--out", str(out),
                 "--set", "world.delta=1e39"]) == 2
    err = capsys.readouterr().err
    assert err == ("proposal features beyond float32's range, the dtype a dataset stores "
                   "them in (overflow encountered in cast): lower world.delta or "
                   "world.sigma_f\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_train_augment_strength_without_finite_draw_width_exit_2(trained, tmp_path, capsys):
    # U[1 - s, 1 + s] at s = 1e308 has no finite width: numpy's draw
    # raised OverflowError out of the first training step
    cfg, data, _, _ = trained
    out = tmp_path / "x.npz"
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(out), "--set", "train.augment_strength=1e308"]) == 2
    assert "augment_strength out of range" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_dataset_dim_mismatch_exit_2(trained, tmp_path, capsys):
    cfg, _, ckpt, _ = trained      # trained at d=8
    wide = tmp_path / "wide.json"
    assert main(["gen-data", "--config", cfg, "--out", str(wide),
                 "--set", "world.d=16"]) == 0
    prefix = tmp_path / "r"
    assert main(["eval", "--config", cfg, "--dataset", str(wide),
                 "--checkpoint", str(ckpt), "--out-prefix", str(prefix)]) == 2
    assert "d=16" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def v2_entries(path):
    """The entries of a dataset or checkpoint archive."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def write_v2(dst, entries):
    with open(dst, "wb") as f:
        np.savez(f, **entries)
    return str(dst)


def run_on_dataset(trained, command, dataset, out):
    cfg, _, ckpt, _ = trained
    argv = (["--out", str(out)] if command == "train" else
            ["--checkpoint", str(ckpt), "--out-prefix", str(out)])
    return main([command, "--config", cfg, "--dataset", dataset, *argv])


# dataset archives: the entries np.savez wrote, changed and written again;
# the tiny world has 4 scenes a split, 12 proposals and 4 GT boxes a
# scene, d=8, 3 seen and 2 unseen classes of 5 shots


def _cast(name, dtype):
    def mutate(entries):
        entries[name] = entries[name].astype(dtype)
    return mutate


def _resized(name, index):
    def mutate(entries):
        entries[name] = entries[name][index]
    return mutate


def _dropped(name):
    def mutate(entries):
        del entries[name]
    return mutate


def _set_first(name, value):
    def mutate(entries):
        entries[name].reshape(-1)[0] = value
    return mutate


def _degenerate_box(entries):
    entries["test_gt"][0, 0, 2] = entries["test_gt"][0, 0, 0]


def _emptied(split):
    def mutate(entries):
        for name in ("proposals", "features", "gt", "labels"):
            entries[f"{split}_{name}"] = entries[f"{split}_{name}"][:0]
    return mutate


def _more_test_scenes_stored(entries):
    doc = json.loads(str(entries["config"]))
    doc["n_test_scenes"] += 1
    entries["config"] = np.array(json.dumps(doc))


def _config_wrong_type(entries):
    doc = json.loads(str(entries["config"]))
    doc["d"] = "x"
    entries["config"] = np.array(json.dumps(doc))


def _config_removed_key(entries):
    # a dataset written while the background feature scale was a key
    doc = json.loads(str(entries["config"]))
    doc["bg_feature_std"] = 1.0
    entries["config"] = np.array(json.dumps(doc))


def _shape_error(name, shape, expected, dtype="float64"):
    return f"{name}: {dtype} array of shape {shape}, expected {dtype} of shape {expected}"


# mutations of entries that train and eval both read, each with a part
# of the message it must give; the stored config fixes every shape
DATASET_MUTATIONS = {
    "truncated": (None, "corrupt dataset archive"),
    "object_dtype": (_cast("test_labels", object), "dataset entry 'test_labels' cannot be "
                                                   "loaded: Object arrays cannot be loaded"),
    "label_dtype": (_cast("test_labels", np.int32), "test_labels: int32 array of shape (4, 4), "
                                                    "expected int64 of shape (4, 4)"),
    "scene_count": (_resized("test_features", np.s_[:-1]),
                    _shape_error("test_features", "(3, 12, 8)", "(4, 12, 8)", "float32")),
    "proposal_count": (_resized("test_proposals", np.s_[:, :-1]),
                       _shape_error("test_proposals", "(4, 11, 4)", "(4, 12, 4)")),
    "gt_count": (_resized("test_gt", np.s_[:, 1:]),
                 _shape_error("test_gt", "(4, 3, 4)", "(4, 4, 4)")),
    "feature_dim": (_resized("test_features", np.s_[..., :-1]),
                    _shape_error("test_features", "(4, 12, 7)", "(4, 12, 8)", "float32")),
    # features are float32 since v4; a v4 file with float64 ones, as v3
    # stored them, is refused by its dtype
    "features_float64": (_cast("test_features", np.float64),
                         "test_features: float64 array of shape (4, 12, 8), "
                         "expected float32 of shape (4, 12, 8)"),
    "degenerate_box": (_degenerate_box, "test_gt: degenerate box"),
    "missing_entry": (_dropped("support_seen"), "no entry 'support_seen'"),
    "support_row_length": (_resized("support_seen", np.s_[..., :-1]),
                           _shape_error("support_seen", "(3, 5, 7)", "(3, 5, 8)")),
    "support_shots": (_resized("support_unseen", np.s_[:, 1:]),
                      _shape_error("support_unseen", "(2, 4, 8)", "(2, 5, 8)")),
    "support_class_empty": (_resized("support_seen", np.s_[:, :0]),
                            _shape_error("support_seen", "(3, 0, 8)", "(3, 5, 8)")),
    "support_empty": (_resized("support_seen", np.s_[:0]),
                      _shape_error("support_seen", "(0, 5, 8)", "(3, 5, 8)")),
    "config_type": (_config_wrong_type, "'config.d' must be of type int, got 'x'"),
    "config_removed_key": (_config_removed_key,
                           "unknown keys in 'config': ['bg_feature_std']"),
    # c_seen + c_unseen = 5 classes
    "test_label_unknown": (_set_first("test_labels", 6), "test_labels: a class id outside 1..5"),
    # each split's scene count is the stored n_train_scenes or
    # n_test_scenes (4 each), so neither split is empty
    "no_test_scenes": (_emptied("test"),
                       _shape_error("test_labels", "(0, 4)", "(4, 4)", "int64")),
    "stored_test_count_differs": (_more_test_scenes_stored,
                                  _shape_error("test_labels", "(4, 4)", "(5, 4)", "int64")),
}

# mutations of train_* entries only: train refuses each, eval reads none
# of them (test_eval_ignores_malformed_train_entries)
TRAIN_ENTRY_MUTATIONS = {
    "no_train_scenes": (_emptied("train"),
                        _shape_error("train_labels", "(0, 4)", "(4, 4)", "int64")),
    "train_label_background": (_set_first("train_labels", 0),
                               "train_labels: a class id outside 1..5"),
    "train_object_dtype": (_cast("train_labels", object), "dataset entry 'train_labels' "
                                                          "cannot be loaded: Object arrays "
                                                          "cannot be loaded"),
    "train_scene_count": (_resized("train_proposals", np.s_[1:]),
                          _shape_error("train_proposals", "(3, 12, 4)", "(4, 12, 4)")),
    "train_feature_dim": (_resized("train_features", np.s_[..., :-1]),
                          _shape_error("train_features", "(4, 12, 7)", "(4, 12, 8)",
                                       "float32")),
    "train_missing_entry": (_dropped("train_gt"), "no entry 'train_gt'"),
}


def write_mutated(trained, dst, mutate):
    """The trained dataset with `mutate` applied to its entries, at dst;
    None truncates the file to half its bytes instead."""
    data = trained[1]
    if mutate is None:
        dst.write_bytes(data.read_bytes()[:data.stat().st_size // 2])
        return str(dst)
    entries = v2_entries(data)
    mutate(entries)
    return write_v2(dst, entries)


# The name predates formats v3 and v4; it is kept so that the ids of the cases
# that carried over stay the same. Train refuses every mutation of both
# tables, eval those of entries it reads.
@pytest.mark.parametrize("command,case", [(command, case) for case in sorted(DATASET_MUTATIONS)
                                          for command in ("eval", "train")]
                         + [("train", case) for case in sorted(TRAIN_ENTRY_MUTATIONS)])
def test_malformed_v2_dataset_exit_2(trained, tmp_path, case, command, capsys):
    mutate, message = {**DATASET_MUTATIONS, **TRAIN_ENTRY_MUTATIONS}[case]
    bad = write_mutated(trained, tmp_path / "bad.npz", mutate)
    assert run_on_dataset(trained, command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cannot read dataset" in err and message in err
    # no output and no temporary beside one
    assert [p.name for p in tmp_path.iterdir()] == ["bad.npz"]


def _digest_masked(path, digest):
    return Path(path).read_bytes().replace(digest.encode(), b"<dataset digest>")


def test_eval_requests_no_train_entry(trained, tmp_path, monkeypatch):
    # eval asks the archive for the 9 entries of the test split, the
    # supports, the class means, the format and the config; train for
    # those and the 4 of the training split
    requested = []

    def spied(path, kind, from_entries):
        return archive.load_archive(path, kind, lambda entry: from_entries(
            lambda name: requested.append(name) or entry(name)))

    monkeypatch.setattr(simulator, "load_archive", spied)
    blocks = ["proposals", "features", "gt", "labels"]
    common = {"format", "config", "class_means", "support_seen", "support_unseen",
              *(f"test_{name}" for name in blocks)}
    for command, names in (("eval", common),
                           ("train", common | {f"train_{name}" for name in blocks})):
        requested.clear()
        assert run_on_dataset(trained, command, str(trained[1]), tmp_path / command) == 0
        assert set(requested) == names and len(requested) == len(names), command
    assert len(common) == 9


@pytest.mark.parametrize("case", sorted(TRAIN_ENTRY_MUTATIONS) + ["inf_train_feature"])
def test_eval_ignores_malformed_train_entries(trained, tmp_path, case, capsys):
    # eval never reads a train_* entry, so a dataset whose training split
    # is malformed evaluates as the intact one: exit 0 and the same
    # bytes once the provenance's dataset digest is masked
    mutate = (TRAIN_ENTRY_MUTATIONS[case][0] if case in TRAIN_ENTRY_MUTATIONS
              else _set_first(*NON_FINITE[case]))
    bad = write_mutated(trained, tmp_path / "bad.npz", mutate)
    outputs = []
    for name, data in (("good", str(trained[1])), ("bad", bad)):
        assert run_on_dataset(trained, "eval", data, tmp_path / name) == 0
        digest = file_digest(data)
        outputs.append([capsys.readouterr().out] + [
            _digest_masked(f"{tmp_path / name}{suffix}", digest)
            for suffix in (".detections.json", ".json", ".csv")])
    assert outputs[0] == outputs[1]
    assert file_digest(bad) != file_digest(trained[1])
    assert run_on_dataset(trained, "train", bad, tmp_path / "ckpt") == 2


def _retagged(tag):
    def mutate(entries):
        entries["format"] = np.array(tag)
    return mutate


# ids: the command alone for v2, as before v3 was retired too
@pytest.mark.parametrize("command,tag", [
    pytest.param(command, f"protodetect-dataset-{v}",
                 id=command if v == "v2" else f"{command}-{v}")
    for v in ("v2", "v3") for command in ("train", "eval")])
def test_v2_dataset_exit_2(trained, tmp_path, command, tag, capsys):
    # the retired formats are no longer read: ragged v2 (rows
    # concatenated, with per-scene offsets) and v3 (float64 features);
    # the tag is checked before any other entry
    bad = write_mutated(trained, tmp_path / "old.npz", _retagged(tag))
    assert run_on_dataset(trained, command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"format {tag} is no longer read: rerun gen-data" in err
    assert not list(tmp_path.glob("out*"))


def test_v1_json_dataset_exit_2(trained, tmp_path, capsys):
    # the JSON document of the retired v1 format, which is no longer read
    doc = {"format": "protodetect-dataset-v1", "config": {"d": 8},
           "class_models": [], "train_scenes": [], "test_scenes": [],
           "support_seen": {"1": [[0.0] * 8]}, "support_unseen": {}}
    bad = tmp_path / "v1.json"
    bad.write_text(json.dumps(doc))
    for command in ("train", "eval"):
        assert run_on_dataset(trained, command, str(bad), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "cannot read dataset" in err and "not an .npz archive" in err
    assert not list(tmp_path.glob("out*"))


# non-finite values

NAN, INF = float("nan"), float("inf")


NON_FINITE = {
    # the entry whose first value goes bad, and the value
    "nan_test_feature": ("test_features", NAN),
    "inf_train_feature": ("train_features", INF),
    "nan_support_row": ("support_seen", NAN),
}


# eval reads no train_* entry (test_eval_ignores_malformed_train_entries)
@pytest.mark.parametrize("command,case", [(command, case) for case in sorted(NON_FINITE)
                                          for command in ("eval", "train")
                                          if command == "train" or "train" not in case])
def test_non_finite_dataset_exit_2(trained, tmp_path, case, command, capsys):
    bad = write_mutated(trained, tmp_path / "bad.npz", _set_first(*NON_FINITE[case]))
    assert run_on_dataset(trained, command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cannot read dataset" in err and "non-finite" in err
    assert not list(tmp_path.glob("out*"))


def eval_on_checkpoint(trained, checkpoint, prefix, mode="fewshot"):
    cfg, data, _, _ = trained
    return main(["eval", "--config", cfg, "--dataset", str(data), "--mode", mode,
                 "--checkpoint", str(checkpoint), "--out-prefix", str(prefix)])


def test_v1_json_checkpoint_exit_2(trained, tmp_path, capsys):
    # the JSON document of the retired v1 format, which is no longer read
    doc = {"format": "protodetect-checkpoint-v1",
           "embedding_layers": [{"shape": [1, 8], "W": [0.0] * 8, "b": [0.0]}],
           "classifier": {"shape": [4, 1], "W": [0.0] * 4, "b": [0.0] * 4}}
    bad = tmp_path / "v1.json"
    bad.write_text(json.dumps(doc))
    assert eval_on_checkpoint(trained, bad, tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "cannot read checkpoint" in err and "not an .npz archive" in err
    assert not list(tmp_path.glob("r.*"))


def float64_checkpoint(trained, path):
    """A float64 v2 checkpoint of the trained weights and p0."""
    entries = v2_entries(trained[2])
    save_checkpoint(path, entries["theta"].astype(np.float64), entries["shapes"],
                    entries["p0"].astype(np.float64))
    return path


# v2 checkpoints: the entries np.savez wrote, changed and written again


def _first_value(name, value):
    def mutate(entries):
        entries[name][0] = value
    return mutate


def _unchained_shapes(entries):
    # a classifier that reads 11 inputs from the 8-wide net, in the same
    # number of parameters, so only the chain is wrong
    assert entries["shapes"][-1].tolist() == [4, 8]
    entries["shapes"][-1] = (3, 11)


def _one_layer(entries):
    # the first layer alone, with theta cut to its parameters
    n_out, n_in = entries["shapes"][0].tolist()
    entries["shapes"] = entries["shapes"][:1]
    entries["theta"] = entries["theta"][:n_out * (n_in + 1)]


V2_CHECKPOINT_MUTATIONS = {
    "truncated": None,
    "missing_entry": lambda e: e.pop("p0"),
    "retagged": lambda e: e.update(format=np.array("protodetect-checkpoint-v3")),
    "object_theta": lambda e: e.update(theta=e["theta"].astype(object)),
    "float16_theta": lambda e: e.update(theta=e["theta"].astype(np.float16)),
    "mixed_dtype": lambda e: e.update(theta=e["theta"].astype(np.float64)),
    "unchained_shapes": _unchained_shapes,
    "short_theta": lambda e: e.update(theta=e["theta"][:-1]),
    "long_theta": lambda e: e.update(theta=np.append(e["theta"], 0.0)),
    "nan_theta": _first_value("theta", NAN),
    "inf_theta": _first_value("theta", INF),
    "nan_p0": _first_value("p0", NAN),
    "inf_p0": _first_value("p0", -INF),
    "p0_length": lambda e: e.update(p0=e["p0"][:-1]),
    "one_layer": _one_layer,
}


@pytest.mark.parametrize("case", sorted(V2_CHECKPOINT_MUTATIONS))
def test_malformed_v2_checkpoint_exit_2(trained, tmp_path, case, capsys):
    ckpt, mutate = trained[2], V2_CHECKPOINT_MUTATIONS[case]
    bad = tmp_path / "bad.npz"
    if mutate is None:
        bad.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
    else:
        entries = v2_entries(ckpt)
        mutate(entries)
        write_v2(bad, entries)
    assert eval_on_checkpoint(trained, bad, tmp_path / "r") == 2
    assert "cannot read checkpoint" in capsys.readouterr().err
    assert not list(tmp_path.glob("r.*"))


def test_overflowing_checkpoint_exit_2(trained, tmp_path, capsys):
    # finite weights whose embeddings overflow are bad input, not divergence
    entries = v2_entries(trained[2])
    n_out, n_in = entries["shapes"][0]
    entries["theta"][:n_out * n_in] = 3e38       # the first layer's W, finite in float32
    bad = write_v2(tmp_path / "bad.npz", entries)
    assert eval_on_checkpoint(trained, bad, tmp_path / "r") == 2
    assert ("cannot evaluate: non-finite embeddings from the checkpoint weights "
            "or the dataset features" in capsys.readouterr().err)
    assert not list(tmp_path.glob("r.*"))


def test_checkpoint_stores_the_training_dtype(trained):
    with np.load(trained[2], allow_pickle=False) as archive:
        assert archive["theta"].dtype == archive["p0"].dtype == np.float32
    net, clf, p0 = load_checkpoint(trained[2])
    assert net.dtype == clf.W.dtype == p0.dtype == np.float32


def test_float64_v2_checkpoint_still_evaluates(trained, tmp_path, capsys):
    # checkpoints written before training moved to float32 hold float64
    # entries; eval then computes in float64
    ckpt = float64_checkpoint(trained, tmp_path / "c64.npz")
    net, clf, p0 = load_checkpoint(ckpt)
    assert net.dtype == clf.W.dtype == p0.dtype == np.float64
    assert net.forward_batch(np.zeros((1, net.in_dim)))[0].dtype == np.float64
    for mode in ("fewshot", "openset"):
        assert eval_on_checkpoint(trained, ckpt, tmp_path / mode, mode) == 0
        assert f"{mode}: mAP=" in capsys.readouterr().out
        assert (tmp_path / f"{mode}.detections.json").exists()


# --- outputs that cannot be written, a world without background -------------

@pytest.mark.parametrize("command", ["train_out", "train_log", "eval_out_prefix"])
def test_unwritable_output_exit_2(trained, tmp_path, command, capsys):
    cfg, data, ckpt, _ = trained
    missing = str(tmp_path / "no_such_dir" / "x")
    argv = {"train_out": ["train", "--dataset", str(data), "--out", missing],
            "train_log": ["train", "--dataset", str(data),
                          "--out", str(tmp_path / "c.npz"), "--log", missing],
            "eval_out_prefix": ["eval", "--dataset", str(data), "--checkpoint",
                                str(ckpt), "--out-prefix", missing]}[command]
    assert main([*argv, "--config", cfg]) == 2
    assert "cannot write" in capsys.readouterr().err
    # train renames its checkpoint into place only with its log
    assert not (tmp_path / "c.npz").exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("spelling", ["same", "dotted", "link"])
def test_train_out_and_log_one_file_exit_2(trained, tmp_path, spelling, capsys):
    # --out P --log P used to exit 0 and print "checkpoint: P" while P
    # held the log, since the log's rename came second
    cfg, data, _, _ = trained
    out = tmp_path / "c.npz"
    if spelling == "link":
        os.symlink(out, tmp_path / "l.jsonl")
    log = {"same": str(out), "dotted": str(tmp_path / "." / "c.npz"),
           "link": str(tmp_path / "l.jsonl")}[spelling]
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(out), "--log", log]) == 2
    assert f"cannot write {log}: same file as {out}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        (["l.jsonl"] if spelling == "link" else [])


def test_eval_report_path_a_directory_leaves_no_file(trained, tmp_path, capsys):
    # the second of eval's three files cannot be put in place, so none is
    (tmp_path / "r.json").mkdir()
    assert eval_on_checkpoint(trained, trained[2], tmp_path / "r") == 2
    assert f"cannot write {tmp_path / 'r.json'}: is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    assert not list((tmp_path / "r.json").iterdir())


def test_world_without_background_pool_exit_2(trained, tmp_path, capsys):
    # every proposal is a GT box (zero jitter), so no scene has a pool
    cfg = trained[0]
    data, out = tmp_path / "d.npz", tmp_path / "c.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(data),
                 "--set", "world.proposals_per_scene=4"]) == 0
    assert main(["train", "--config", cfg, "--dataset", str(data),
                 "--out", str(out)]) == 2
    assert "no background pool in training scenes" in capsys.readouterr().err
    assert not list(tmp_path.glob("c.npz*"))


def test_one_parser_serves_every_call(trained, tmp_path, capsys):
    # main reuses the parser it builds once per process: a run of
    # commands, one an argparse usage error and two with different
    # overrides, exits, prints and writes as with a fresh parser per call
    cfg, data, ckpt, _ = trained
    out = tmp_path / "out"
    out.mkdir()
    eval_argv = ["eval", "--config", cfg, "--dataset", str(data), "--checkpoint", str(ckpt),
                 "--out-prefix", str(out / "r")]
    runs = [["gen-data", "--config", cfg, "--out", str(out / "d.npz"),
             "--set", "world.n_test_scenes=3"],
            eval_argv + ["--mode", "openset"],
            ["eval", "--config", cfg, "--mode", "bogus"],
            ["train", "--config", cfg, "--dataset", str(data), "--out", str(out / "k.npz"),
             "--set", "train.stage2_steps=1"],
            eval_argv]

    def outcomes(fresh):
        for path in out.iterdir():
            path.unlink()
        seen = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as e:     # argparse's usage error
                rc = f"SystemExit {e.code}"
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())}
            seen.append((rc, *capsys.readouterr(), files))
        return seen

    assert cli.build_parser() is cli.build_parser()
    reused = outcomes(fresh=False)
    assert [o[0] for o in reused] == [0, 0, "SystemExit 2", 0, 0]
    assert "invalid choice: 'bogus'" in reused[2][2]
    assert outcomes(fresh=True) == reused


def test_python_m_protodetect_runs_the_cli():
    src = str(Path(protodetect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "protodetect", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: protodetect")
    for command in ("gen-data", "train", "eval", "gradcheck"):
        assert command in proc.stdout


# --- byte identity across BLAS thread counts ---------------------------------

def test_artifacts_identical_across_thread_counts(tmp_path):
    # A3 layer sizes (d=64, hidden 512, emb 128), so the matrix products
    # are large enough for BLAS to split them across threads
    cfg = write_cfg(tmp_path / "c.json", {
        "world": {"n_train_scenes": 4, "n_test_scenes": 2, "seed": 3},
        "train": {"stage1_steps": 3, "stage2_steps": 2, "seed": 3}})
    src = str(Path(protodetect.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        d = tmp_path / f"t{threads}"
        d.mkdir()
        for argv in (["gen-data", "--config", cfg, "--out", str(d / "data.json")],
                     ["train", "--config", cfg, "--dataset", str(d / "data.json"),
                      "--out", str(d / "ckpt.json")]):
            subprocess.run([sys.executable, "-m", "protodetect.cli", *argv],
                           env=env, check=True, capture_output=True, timeout=120)
        outputs.append([(d / n).read_bytes()
                        for n in ("ckpt.json", "ckpt.json.log.jsonl")])
    assert outputs[0] == outputs[1]


# --- gradcheck --------------------------------------------------------------

@pytest.fixture(scope="module")
def default_gradcheck(tmp_path_factory):
    cfg = write_cfg(tmp_path_factory.mktemp("gradcheck") / "c.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["gradcheck", "--config", cfg])
    return cfg, rc, out.getvalue()


def test_gradcheck_command_passes(default_gradcheck):
    _, rc, out = default_gradcheck
    assert rc == 0
    for term in ("match", "kl", "align", "total"):
        assert term in out
    assert "FAIL" not in out


def test_gradcheck_audits_configured_loss(default_gradcheck, capsys):
    cfg, _, default_out = default_gradcheck
    assert main(["gradcheck", "--config", cfg,
                 "--set", "train.mlp_depth=3", "--set", "train.tau=2.0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out != default_out


def test_gradcheck_nan_error_exits_4(default_gradcheck, capsys):
    # lambda_kl = 1e308 overflows the total gradient: every total error is
    # NaN, which the suite's max() used to drop and the exit code ignore
    cfg, _, _ = default_gradcheck
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["gradcheck", "--config", cfg, "--set", "train.lambda_kl=1e308"]) == 4
    captured = capsys.readouterr()
    assert "total    max relative error nan  FAIL" in captured.out
    assert "failed for: total" in captured.err
