import contextlib
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
from protodetect.simulator import load_world

from helpers import world_to_v1, write_v1


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

def test_config_defaults_from_empty_doc(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path / "c.json", {}))
    assert cfg.train.lr == 1e-4
    assert cfg.train.tau == 10.0
    assert cfg.protocol.mode == "fewshot"
    # config_digest hashes this dict, so every provenance digest depends on it
    assert cfg.to_dict()["protocol"] == {"mode": "fewshot",
                                         "unknown_includes_background": True}


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="top-level"):
        load_run_config(write_cfg(tmp_path / "a.json", {"worlds": {}}))
    with pytest.raises(ConfigError, match="world"):
        load_run_config(write_cfg(tmp_path / "b.json", {"world": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="protocol"):
        load_run_config(write_cfg(tmp_path / "c.json",
                                  {"protocol": {"modes": "x"}}))


def test_config_rejects_invalid_values(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(write_cfg(tmp_path / "a.json",
                                  {"train": {"lr": -1.0}}))


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
    doc = json.loads(ckpt.read_text())
    assert doc["format"] == "protodetect-checkpoint-v1"
    assert "config_digest" in doc["provenance"]
    assert "dataset_digest" in doc["provenance"]
    lines = (root / "ckpt.json.log.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines]
    assert len(recs) == 6 + 3 + 1
    assert recs[-1]["final"] is True
    assert 0.0 <= recs[-1]["accuracy"] <= 1.0
    for rec in recs[:-1]:
        assert set(rec) >= {"step", "stage", "l_match", "l_kl", "l_align",
                            "l_total", "grad_norm"}


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_3(trained, tmp_path):
    cfg, data, _, _ = trained
    rc = main(["train", "--config", cfg, "--dataset", str(data),
               "--out", str(tmp_path / "x.json"), "--set", "train.lr=1e150"])
    assert rc == 3


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
    # a v1 dataset without training scenes is refused before training
    doc = world_to_v1(load_world(data))
    doc["config"]["n_train_scenes"] = 0
    doc["train_scenes"] = []
    empty = write_v1(tmp_path / "empty.json", doc)
    assert main(["train", "--config", cfg, "--dataset", empty,
                 "--out", str(tmp_path / "x.json")]) == 2
    # and so is a v2 archive whose training split holds no scene
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


def _mutated(src, dst, mutate):
    doc = json.loads(src.read_text())
    dst.write_text(json.dumps(mutate(doc) or doc))
    return str(dst)


def v2_entries(path):
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


# v1 documents: JSON written by the test-side writer, read by load_world

def _set_test_feature(doc):
    doc["test_scenes"][0]["proposals"][0]["feature"] = [1.0]


def _set_support_rows(doc):
    doc["support_seen"]["1"] = [[1.0] * 7 for _ in doc["support_seen"]["1"]]


def _set_support_class_empty(doc):
    doc["support_seen"]["1"] = []


def _set_support_empty(doc):
    doc["support_seen"] = {}


def _set_support_list(doc):
    doc["support_seen"] = list(doc["support_seen"].values())


@pytest.mark.parametrize("mutate", [
    _set_test_feature, _set_support_rows, _set_support_class_empty,
    _set_support_empty, _set_support_list, lambda doc: [doc],
], ids=["test_feature_length_1", "support_row_length", "support_class_empty",
        "support_empty", "support_list", "top_level_list"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_dataset_exit_2(trained, tmp_path, mutate, command, capsys):
    doc = world_to_v1(load_world(trained[1]))
    bad = write_v1(tmp_path / "bad.json", mutate(doc) or doc)
    out = tmp_path / "out"
    assert run_on_dataset(trained, command, bad, out) == 2
    assert "cannot read dataset" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_v1_dataset_gives_the_same_artifacts(trained, tmp_path):
    cfg, data, ckpt, root = trained
    v1 = write_v1(tmp_path / "v1.json", world_to_v1(load_world(data)))
    assert run_on_dataset(trained, "train", v1, tmp_path / "ckpt.json") == 0
    assert (tmp_path / "ckpt.json").read_bytes().replace(
        hashlib.sha256(open(v1, "rb").read()).hexdigest().encode(),
        hashlib.sha256(data.read_bytes()).hexdigest().encode()) == ckpt.read_bytes()


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


@pytest.mark.parametrize("mutate", [
    None, _object_entry, _shifted_offsets, _feature_dim, _degenerate_box,
    _missing_entry,
], ids=["truncated", "object_dtype", "offsets", "feature_dim", "degenerate_box",
        "missing_entry"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_v2_dataset_exit_2(trained, tmp_path, mutate, command, capsys):
    data = trained[1]
    bad = tmp_path / "bad.npz"
    if mutate is None:
        bad.write_bytes(data.read_bytes()[:data.stat().st_size // 2])
    else:
        entries = v2_entries(data)
        mutate(entries)
        write_v2(bad, entries)
    assert run_on_dataset(trained, command, str(bad), tmp_path / "out") == 2
    assert "cannot read dataset" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


# non-finite values, in either format

NAN, INF = float("nan"), float("inf")


NON_FINITE = {
    # v2 entry whose first value goes bad, the value, and the v1 row it is in
    "nan_test_feature": ("test_features", NAN,
                         lambda doc: doc["test_scenes"][0]["proposals"][0]["feature"]),
    "inf_train_feature": ("train_features", INF,
                          lambda doc: doc["train_scenes"][0]["proposals"][0]["feature"]),
    "nan_support_row": ("support_seen", NAN, lambda doc: doc["support_seen"]["1"][0]),
}


@pytest.mark.parametrize("fmt", ["v1", "v2"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_dataset_exit_2(trained, tmp_path, case, command, fmt, capsys):
    entry, value, v1_row = NON_FINITE[case]
    data = trained[1]
    if fmt == "v2":
        entries = v2_entries(data)
        entries[entry][0, 0] = value
        bad = write_v2(tmp_path / "bad.npz", entries)
    else:
        doc = world_to_v1(load_world(data))
        v1_row(doc)[0] = value
        bad = write_v1(tmp_path / "bad.json", doc)
    assert run_on_dataset(trained, command, bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cannot read dataset" in err and "non-finite" in err
    assert not list(tmp_path.glob("out*"))


def _set_nan_weight(doc):
    doc["embedding_layers"][0]["W"][0] = float("nan")


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(embedding_layers=[]), lambda doc: [doc],
    _set_nan_weight,
], ids=["no_layers", "top_level_list", "nan_weight"])
def test_malformed_checkpoint_exit_2(trained, tmp_path, mutate, capsys):
    cfg, data, ckpt, _ = trained
    bad = _mutated(ckpt, tmp_path / "bad.json", mutate)
    assert main(["eval", "--config", cfg, "--dataset", str(data),
                 "--checkpoint", bad, "--out-prefix", str(tmp_path / "r")]) == 2
    assert "cannot read checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_checkpoint_exit_2(trained, tmp_path, capsys):
    # finite weights whose embeddings overflow are bad input, not divergence
    cfg, data, ckpt, _ = trained

    def huge_first_layer(doc):
        layer = doc["embedding_layers"][0]
        layer["W"] = [1e308] * len(layer["W"])

    bad = _mutated(ckpt, tmp_path / "bad.json", huge_first_layer)
    assert main(["eval", "--config", cfg, "--dataset", str(data),
                 "--checkpoint", bad, "--out-prefix", str(tmp_path / "r")]) == 2
    assert ("cannot evaluate checkpoint: non-finite embeddings"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("r.*"))


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
                 "--set", "train.mlp_depth=3", "--set", "train.tau=2.0",
                 "--set", "train.kl_stop_teacher=true",
                 "--set", "train.align_include_background=false"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out != default_out
