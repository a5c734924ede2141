import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import protodetect

from protodetect.cli import main
from protodetect.config import (ConfigError, RunConfig, apply_overrides,
                                load_run_config)


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
    assert cfg.protocol["mode"] == "fewshot"


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
    assert cfg.protocol["mode"] == "openset"


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
    assert "dataset digest:" in capsys.readouterr().out


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
    # a dataset written without training scenes is refused before training
    doc = json.loads(data.read_text())
    doc["config"]["n_train_scenes"] = 0
    doc["train_scenes"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    assert main(["train", "--config", cfg, "--dataset", str(empty),
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
