import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import protodetect

from protodetect.cli import main
from protodetect.config import (ConfigError, RunConfig, apply_overrides,
                                load_run_config)
from protodetect.embedder import load_checkpoint, save_checkpoint
from protodetect import simulator
from protodetect.simulator import load_world
from protodetect.trainer import background_prototype, scene_background_features


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
    assert cfg.protocol.mode == "fewshot"
    # config_digest hashes this dict, so every provenance digest depends on it
    assert cfg.to_dict()["protocol"] == {"mode": "fewshot"}


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="top-level"):
        load_run_config(write_cfg(tmp_path / "a.json", {"worlds": {}}))
    with pytest.raises(ConfigError, match="world"):
        load_run_config(write_cfg(tmp_path / "b.json", {"world": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="protocol"):
        load_run_config(write_cfg(tmp_path / "c.json",
                                  {"protocol": {"modes": "x"}}))
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
    doc = apply_overrides({}, ["train.lr=0.01", "world.c_seen=7",
                               "protocol.mode=openset"])
    cfg = RunConfig.from_dict(doc)
    assert cfg.train.lr == 0.01
    assert cfg.world.c_seen == 7
    assert cfg.protocol.mode == "openset"


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
    assert "protocol" in capsys.readouterr().err
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
    pools = [scene_background_features(s) for s in load_world(data).train_scenes]
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
# differently moves them too (numpy 2.4 with OpenBLAS 0.3.31 on x86-64)
PINNED_EVAL_ARTIFACTS = {
    "fewshot": ("f1c0508973eb1c7a4ac6e7aead2a19e9298710a2734878a476d197e92a3b32cb",
                "ebd379188f8bc5eb7df8814bebeea25df42e03ee7d4788138ef00848aa43ab80",
                "4c176acc4dbb2eedeacda6e40d6599a52aceccf94713c0ac95aa06b4144896c7"),
    "openset": ("0bdb5678ab7ef7dc4515c9718c2905eac0e8db109896d3d5d4ce36a67f09bcbd",
                "bd11bd07e44aeb5804aae7325871235148f95cfc38ac284209cd6ab3d091842c",
                "4fcc0b0f821a7bb1939fedd40d3fe41879d83628934938a0de2990a3e39aeb7f"),
    "zs-uo": ("e8be4484793a1b636e0a1b8767e81d00affff73eaabdc4a6c1e720b0d43a8dd4",
              "18f95c1c6f65090fb78659e1df365e5deb0b43eefc6992c4ff0d4323f901d9de",
              "a1abe70f677baa1e7b4d80ad27d3c819e5562f99d5f9fccaeb6cb2e19cbd362a"),
    "zs-mpu": ("c8df235997ba80864c77db57c22dcc3efecf148d35fb55af467dd60ec1d7503e",
               "3ae77dcce00bda1c7d730d5dc07e2ad540fffb4fcfb5a470a82441c2ebe8a580",
               "75556f2fc678fd88323a96b05a6c7cc75fe1a5b3a69bd9849f140d60585b82f2"),
    "zs-mps": ("948b336a3bc79ef6a9ce62418cc4413841a4b5de2120468aba07dd2a765c3d90",
               "13a7996f078b0d3e57eaadaf4ee92a2a76b82b34d2c748749896a463209b67bf",
               "ab3476610f1b09c8b20488a4e61763caac4799ac1be2b1fc69561f3d90be94c2"),
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


def test_eval_mode_from_config_protocol(trained, tmp_path):
    cfg, data, ckpt, _ = trained
    prefix = str(tmp_path / "cfgmode")
    rc = main(["eval", "--config", cfg, "--dataset", str(data),
               "--checkpoint", str(ckpt), "--out-prefix", prefix,
               "--set", "protocol.mode=zs-uo"])
    assert rc == 0
    doc = json.loads((tmp_path / "cfgmode.json").read_text())
    assert doc["provenance"]["mode"] == "zs-uo"


def test_eval_bad_mode_in_config_exit_2(trained, tmp_path):
    cfg, data, ckpt, _ = trained
    rc = main(["eval", "--config", cfg, "--dataset", str(data),
               "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "x"),
               "--set", "protocol.mode=bogus"])
    assert rc == 2


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
    cfg, data, _, _ = trained
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d.json"),
                 "--set", "world.n_train_scenes=0"]) == 2
    # a v2 archive whose training split holds no scene is refused
    entries = v2_entries(data)
    for name in ("proposal", "gt"):
        entries[f"train_{name}_offsets"] = np.zeros(1, dtype=np.int64)
    for name in ("proposals", "features", "gt", "labels"):
        entries["train_" + name] = entries["train_" + name][:0]
    empty = write_v2(tmp_path / "empty.npz", entries)
    assert main(["train", "--config", cfg, "--dataset", empty,
                 "--out", str(tmp_path / "x.json")]) == 2


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


# v2 archives: the entries np.savez wrote, changed and written again


def _object_entry(entries):
    entries["train_labels"] = entries["train_labels"].astype(object)


def _shifted_offsets(entries):
    entries["test_proposal_offsets"][-1] -= 1


def _feature_dim(entries):
    entries["train_features"] = entries["train_features"][:, :-1]


def _degenerate_box(entries):
    entries["test_gt"][0, 2] = entries["test_gt"][0, 0]


def _missing_entry(entries):
    del entries["support_seen_offsets"]


def _support_row_length(entries):
    entries["support_seen"] = entries["support_seen"][:, :-1]


def _support_class_empty(entries):
    # the second class's rows go to the third
    entries["support_seen_offsets"][2] = entries["support_seen_offsets"][1]


def _support_empty(entries):
    for name, keep in (("support_seen", 0), ("support_seen_ids", 0),
                       ("support_seen_offsets", 1)):
        entries[name] = entries[name][:keep]


def _support_seen_id_zero(entries):
    entries["support_seen_ids"][0] = 0


def _support_unseen_id_seen(entries):
    # the first unseen class would replace seen class 1 in a mixed bank
    entries["support_unseen_ids"][0] = 1


def _test_label_unknown(entries):
    # c_seen + c_unseen = 5 classes
    entries["test_labels"][0] = 6


def _train_label_background(entries):
    entries["train_labels"][0] = 0


def _config_wrong_type(entries):
    doc = json.loads(str(entries["config"]))
    doc["d"] = "x"
    entries["config"] = np.array(json.dumps(doc))


def _config_removed_key(entries):
    # a dataset written while the background feature scale was a key
    doc = json.loads(str(entries["config"]))
    doc["bg_feature_std"] = 1.0
    entries["config"] = np.array(json.dumps(doc))


# each mutation, with a part of the message it must give
V2_DATASET_MUTATIONS = {
    "truncated": (None, "corrupt dataset archive"),
    "object_dtype": (_object_entry, "dataset entry 'train_labels' cannot be loaded: "
                                    "Object arrays cannot be loaded"),
    "offsets": (_shifted_offsets, "test_proposal_offsets"),
    "feature_dim": (_feature_dim, "train_features"),
    "degenerate_box": (_degenerate_box, "degenerate box"),
    "missing_entry": (_missing_entry, "no entry 'support_seen_offsets'"),
    "support_row_length": (_support_row_length, "support_seen"),
    "support_class_empty": (_support_class_empty, "a class has no support rows"),
    "support_empty": (_support_empty, "dataset has no seen support classes"),
    "config_type": (_config_wrong_type, "'config.d' must be of type int, got 'x'"),
    "config_removed_key": (_config_removed_key,
                           "unknown keys in 'config': ['bg_feature_std']"),
    "support_seen_id_zero": (_support_seen_id_zero,
                             "support_seen: class ids [0, 2, 3], expected [1, 2, 3]"),
    "support_unseen_id_seen": (_support_unseen_id_seen,
                               "support_unseen: class ids [1, 5], expected [4, 5]"),
    "test_label_unknown": (_test_label_unknown, "test_labels: a class id outside 1..5"),
    "train_label_background": (_train_label_background,
                               "train_labels: a class id outside 1..5"),
}


@pytest.mark.parametrize("case", sorted(V2_DATASET_MUTATIONS))
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_v2_dataset_exit_2(trained, tmp_path, case, command, capsys):
    data, (mutate, message) = trained[1], V2_DATASET_MUTATIONS[case]
    bad = tmp_path / "bad.npz"
    if mutate is None:
        bad.write_bytes(data.read_bytes()[:data.stat().st_size // 2])
    else:
        entries = v2_entries(data)
        mutate(entries)
        write_v2(bad, entries)
    assert run_on_dataset(trained, command, str(bad), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cannot read dataset" in err and message in err
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
        assert "cannot read dataset" in err and "not a v2 .npz archive" in err
    assert not list(tmp_path.glob("out*"))


# non-finite values

NAN, INF = float("nan"), float("inf")


NON_FINITE = {
    # the entry whose first value goes bad, and the value
    "nan_test_feature": ("test_features", NAN),
    "inf_train_feature": ("train_features", INF),
    "nan_support_row": ("support_seen", NAN),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_dataset_exit_2(trained, tmp_path, case, command, capsys):
    entry, value = NON_FINITE[case]
    entries = v2_entries(trained[1])
    entries[entry][0, 0] = value
    bad = write_v2(tmp_path / "bad.npz", entries)
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
    assert "cannot read checkpoint" in err and "not a v2 .npz archive" in err
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
