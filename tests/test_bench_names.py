"""The benchmark's traced pass wraps protodetect functions by name
(`LAYERS` in bench/spans.py). A rename or deletion here would break
`bench/run.py --trace 1` without failing any other test."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
