"""The exit-code contract as a property: mutated inputs make the
commands return 0, 2, 3 or 4, and never raise.

Mutated config files go to `protodetect gradcheck`. Each example starts
from the full default config and applies one to three mutations: a leaf
replaced by a value of the wrong type, an unknown key at the top level
or inside a section, a section turned into a non-object or dropped, a
numeric leaf set out of range. Integers come from a small range, so no
mutation builds a large net.

Mutated v2 checkpoints go to `protodetect eval` on a tiny world. Each
example starts from a trained checkpoint's entries and applies one to
three mutations: an entry dropped or renamed, the format tag changed,
an entry cast to another dtype or given another shape, a NaN or an Inf
written into a float entry; the archive is then written, and maybe
truncated.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protodetect.archive import save_archive
from protodetect.cli import main
from protodetect.config import RunConfig

BASE = RunConfig.from_dict({}).to_dict()
SECTIONS = ("world", "train", "protocol")
EXIT_CODES = (0, 2, 3, 4)

small_ints = st.integers(-3, 6)
wrong_types = st.one_of(st.text(max_size=3), st.lists(small_ints, max_size=2), st.none(),
                        st.dictionaries(st.text(max_size=2), small_ints, max_size=2),
                        st.booleans())
non_objects = st.one_of(st.lists(small_ints, max_size=2), small_ints, st.text(max_size=3),
                        st.none(), st.booleans())
out_of_range = st.one_of(st.integers(-3, 0), st.sampled_from(
    [-1.0, -1e-9, 0.0, 5e-324, 1e308, -1e308, float("nan"), float("inf")]))


def _numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        sections = [s for s in SECTIONS if isinstance(doc.get(s), dict) and doc[s]]
        kind = draw(st.sampled_from(["type", "unknown", "section", "drop", "range"]
                                    if sections else ["unknown", "section", "drop"]))
        if kind == "type":
            section = doc[draw(st.sampled_from(sections))]
            section[draw(st.sampled_from(sorted(section)))] = draw(wrong_types)
        elif kind == "unknown":
            where = draw(st.sampled_from([None, *sections]))
            target = doc if where is None else doc[where]
            target[draw(st.text(min_size=1, max_size=4))] = draw(small_ints)
        elif kind == "section":
            doc[draw(st.sampled_from(SECTIONS))] = draw(non_objects)
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(SECTIONS)), None)
        else:
            numeric = [(s, k) for s in sections for k in sorted(doc[s]) if _numeric(doc[s][k])]
            if numeric:
                s, k = draw(st.sampled_from(numeric))
                doc[s][k] = draw(out_of_range)
    return doc


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(doc=mutated_configs())
def test_gradcheck_exit_code_on_mutated_configs(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["gradcheck", "--config", str(path)])
    assert rc in EXIT_CODES


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(config, dataset, checkpoint entries) of a tiny trained world."""
    d = tmp_path_factory.mktemp("tiny")
    cfg, data, ckpt = d / "c.json", d / "d.npz", d / "k.npz"
    cfg.write_text(json.dumps({
        "world": {"c_seen": 3, "c_unseen": 2, "d": 8, "n_train_scenes": 3,
                  "n_test_scenes": 3, "seed": 5},
        "train": {"stage1_steps": 2, "stage2_steps": 1, "hidden_dim": 8,
                  "emb_dim": 4, "seed": 1}}))
    assert _quiet_main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert _quiet_main(["train", "--config", str(cfg), "--dataset", str(data),
                        "--out", str(ckpt)]) == 0
    with np.load(ckpt) as archive:
        entries = {name: archive[name] for name in archive.files}
    return str(cfg), str(data), entries


CHECKPOINT_ENTRIES = ("format", "shapes", "theta", "p0", "provenance")
DTYPES = (np.float16, np.float32, np.float64, np.int64, np.int8, np.bool_,
          np.complex128, "U4")


def _reshaped(draw, a):
    flat = a.reshape(-1)
    return draw(st.sampled_from([
        flat[:-1], np.concatenate([flat, flat[:1]]), flat.reshape(1, -1),
        flat[:1].reshape(()) if flat.size else flat, flat[:0]]))


@st.composite
def mutated_checkpoints(draw, entries):
    """(entries, percent of the archive's bytes to keep)."""
    entries = dict(entries)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "rename", "retag", "dtype", "shape",
                                     "nonfinite"]))
        if kind == "retag":
            entries["format"] = np.array(draw(st.sampled_from(
                ["", "protodetect-checkpoint-v1", "protodetect-dataset-v2"])))
            continue
        if not entries:
            continue
        name = draw(st.sampled_from(sorted(entries)))
        a = entries[name]
        if kind == "drop":
            del entries[name]
        elif kind == "rename":
            entries[draw(st.sampled_from(CHECKPOINT_ENTRIES + ("bogus",)))] = entries.pop(name)
        elif kind == "dtype":
            try:
                with np.errstate(all="ignore"):
                    entries[name] = a.astype(draw(st.sampled_from(DTYPES)))
            except (TypeError, ValueError):   # a string that is no number
                pass
        elif kind == "shape":
            entries[name] = _reshaped(draw, a)
        elif a.dtype.kind in "fc" and a.size:
            a = a.copy()
            a.reshape(-1)[draw(st.integers(0, a.size - 1))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            entries[name] = a
    keep = draw(st.one_of(st.just(100), st.integers(0, 99)))
    return entries, keep


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data(), mode=st.sampled_from(["fewshot", "openset"]))
def test_eval_exit_code_on_mutated_checkpoints(tiny_run, data, mode):
    cfg, dataset, entries = tiny_run
    mutated, keep = data.draw(mutated_checkpoints(entries))
    path = f"{dataset}.mutated"
    save_archive(path, mutated)
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(blob[:len(blob) * keep // 100])
    rc = _quiet_main(["eval", "--config", cfg, "--dataset", dataset, "--checkpoint", path,
                      "--mode", mode, "--out-prefix", f"{dataset}.report"])
    assert rc in EXIT_CODES
