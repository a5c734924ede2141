"""Smoke test of the demos: each `main` runs to the end and prints its
header lines. Training is cut to a few steps, through the real `train`
called with smaller step counts, so every demo runs its whole script."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from protodetect import trainer

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo file -> lines its output must contain
HEADERS = {
    "01_train_and_evaluate.py": ["generating world:", "training:",
                                 "held-out nearest-prototype accuracy:",
                                 "few-shot detection: mAP", "per-class AP at IoU 0.50:"],
    "02_open_set_rejection.py": ["closed few-shot baseline:", "open-set overall:",
                                 "unknown-class recall at IoU 0.50:"],
    "03_gradient_audit.py": ["auditing 20 seeded instances", "total    max relative error",
                             "corrupted total gradient reports"],
    "04_loss_ablation.py": ["loss-term ablation:", "all three terms", "embedder depth:",
                            "depth 4"],
}


def short_train(world, cfg):
    # demo 01 prints every tenth log record, so keep at least ten steps
    return trainer.train(world, dataclasses.replace(cfg, stage1_steps=6, stage2_steps=4))


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_demo_runs(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name[:2]}", DEMOS / name)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "train", short_train, raising=False)
    demo.main()
    out = capsys.readouterr().out
    for header in HEADERS[name]:
        assert header in out
    assert "FAIL" not in out and "MISSED" not in out
