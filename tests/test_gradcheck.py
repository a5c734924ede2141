import functools
import math

import numpy as np
import pytest

from protodetect import gradcheck
from protodetect.gradcheck import TERMS, check_term, random_instance, run_suite
from protodetect.losses import LossConfig, episode_loss

from helpers import per_entry_check_term

TAU2 = LossConfig.for_stage(2, 1.0, 1.0, tau=2.0)
CASES = ["stage1", "stage2", "depth3", "depth4"]


def _case(case):
    """A fresh gradient-check instance for each covered configuration."""
    return {"stage1": lambda: random_instance(3, cfg=LossConfig.for_stage(1)),
            "stage2": lambda: random_instance(4),
            "depth3": lambda: random_instance(8, depth=3),
            "depth4": lambda: random_instance(9, depth=4, cfg=TAU2)}[case]()


@functools.cache
def _reference(case):
    return per_entry_check_term(_case(case))


@pytest.mark.parametrize("blocks", ["one", "ragged"])
@pytest.mark.parametrize("case", CASES)
def test_stacked_sweep_equals_per_entry_sweep(case, blocks, monkeypatch):
    inst = _case(case)
    n = inst.theta.size
    if blocks == "ragged":   # five entries (ten probes) per value call
        assert n % 5 != 0
        monkeypatch.setattr(gradcheck, "PROBE_BLOCK_BYTES", 5 * 2 * inst.theta.nbytes)
    probes = []

    def recording(net, *args, **kw):
        if net.layers[0][0].ndim == 3:
            probes.append(net.layers[0][0].shape[0])
        return episode_loss(net, *args, **kw)

    monkeypatch.setattr(gradcheck, "episode_loss", recording)
    assert check_term(inst) == _reference(case)
    want = [2 * n] if blocks == "one" else [10] * (n // 5) + [2 * (n % 5)]
    assert probes == want


def test_sweep_leaves_the_instance_untouched(monkeypatch):
    inst = random_instance(2, depth=3, cfg=TAU2)
    before = inst.theta.tobytes()
    check_term(inst, corrupt=True)
    assert inst.theta.tobytes() == before
    for a in (*(x for pair in inst.net.layers for x in pair), inst.clf.W, inst.clf.b):
        assert np.shares_memory(a, inst.theta)

    # a sweep whose probe call fails leaves no entry moved either
    def failing(net, *args, **kw):
        if net.layers[0][0].ndim == 3:
            raise RuntimeError("probe failed")
        return episode_loss(net, *args, **kw)

    monkeypatch.setattr(gradcheck, "episode_loss", failing)
    with pytest.raises(RuntimeError, match="probe failed"):
        check_term(inst)
    assert inst.theta.tobytes() == before


def test_suite_keeps_a_nan_error():
    # a lambda_kl of 1e308 overflows the total gradient, so every
    # instance's total error is NaN; a plain max() would drop it
    cfg = LossConfig.for_stage(2, 1e308, 1.0, tau=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(check_term(random_instance(0, cfg=cfg), ("total",))["total"])
        results = run_suite(seeds=range(2), instance_kwargs={"cfg": cfg})
    assert math.isnan(results["total"])
    assert all(results[t] <= 1e-4 for t in TERMS if t != "total")
