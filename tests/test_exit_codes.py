"""The exit-code contract as a property: mutated inputs make the
commands return 0, 2, 3 or 4, and never raise.

Mutated config files go to `protodetect gradcheck`, and to `gen-data`,
`train` and `eval` on a tiny world. Each example starts from a full
config (the default one for gradcheck, the tiny world's for the other
commands) and applies one to three mutations: a leaf replaced by a
value of the wrong type, an unknown key at the top level or inside a
section, a section turned into a non-object or dropped, a numeric leaf
set out of range. Integers come from a small range, so no mutation
builds a large net.

Mutated archives go to the commands that read them, on a tiny world:
v2 checkpoints to `protodetect eval`, v4 datasets to `protodetect train`
and `eval`. Each example starts from the entries of the tiny run's
archive and applies one to three mutations: an entry dropped or
renamed, the format tag changed, an entry cast to another dtype or
given another shape, a block's leading axis (a split's scenes, a
support set's classes) cut or grown by one row, a NaN or an Inf
written into a float entry (into a dataset also 1e39, which is finite
in its float64 entries but overflows the float32 net, and 3e38, which
is finite in its float32 features too), a leaf of a
JSON string entry (the dataset's config, the checkpoint's provenance)
replaced; the archive is then written, and maybe truncated.

A command that exits non-zero must leave none of its output files and
no temporary beside them; each example removes the outputs of the one
before it first.
"""

import contextlib
import copy
import glob
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protodetect.archive import save_archive
from protodetect.cli import main
from protodetect.config import RunConfig

BASE = RunConfig.from_dict({}).to_dict()
SECTIONS = ("world", "train")
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
def mutated_configs(draw, base=BASE, droppable=SECTIONS):
    """Mutations of the config document `base`; a "drop" removes one of
    the `droppable` sections, so that it takes its defaults."""
    doc = copy.deepcopy(base)
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
            doc.pop(draw(st.sampled_from(droppable)), None)
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


def _checked_main(argv, outputs):
    """main(argv), quietly, after removing `outputs`, the files the
    command writes; on a non-zero exit none of them and no temporary
    beside them may exist."""
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    rc = _quiet_main(argv)
    if rc != 0:
        assert not [p for p in outputs if os.path.exists(p)]
        assert not glob.glob(os.path.join(os.path.dirname(outputs[0]), "*.tmp"))
    return rc


def _train_outputs(ckpt):
    return [ckpt, ckpt + ".log.jsonl"]


def _eval_outputs(prefix):
    return [prefix + suffix for suffix in (".detections.json", ".json", ".csv")]


def _entries(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


TINY = {"world": {"c_seen": 3, "c_unseen": 2, "d": 8, "n_train_scenes": 3,
                  "n_test_scenes": 3, "seed": 5},
        "train": {"stage1_steps": 2, "stage2_steps": 1, "hidden_dim": 8,
                  "emb_dim": 4, "seed": 1}}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(config, dataset, checkpoint) paths of a tiny trained world, and
    the entries of the dataset and of the checkpoint."""
    d = tmp_path_factory.mktemp("tiny")
    cfg, data, ckpt = d / "c.json", d / "d.npz", d / "k.npz"
    cfg.write_text(json.dumps(TINY))
    assert _quiet_main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert _quiet_main(["train", "--config", str(cfg), "--dataset", str(data),
                        "--out", str(ckpt)]) == 0
    return str(cfg), str(data), str(ckpt), _entries(data), _entries(ckpt)


CHECKPOINT_TAGS = ("", "protodetect-checkpoint-v1", "protodetect-dataset-v2")
DATASET_TAGS = ("", "protodetect-dataset-v1", "protodetect-dataset-v2",
                "protodetect-dataset-v3", "protodetect-checkpoint-v2")
DTYPES = (np.float16, np.float32, np.float64, np.int64, np.int8, np.bool_,
          np.complex128, "U4")


def _reshaped(draw, a):
    flat = a.reshape(-1)
    return draw(st.sampled_from([
        flat[:-1], np.concatenate([flat, flat[:1]]), flat.reshape(1, -1),
        flat[:1].reshape(()) if flat.size else flat, flat[:0]]))


def _json_object(a):
    """The object a 0-d string entry holds as JSON, or None."""
    if a.dtype.kind != "U" or a.shape != ():
        return None
    try:
        doc = json.loads(str(a))
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and doc else None


NON_FINITE = (np.nan, np.inf, -np.inf)
DATASET_VALUES = NON_FINITE + (1e39, 3e38)


@st.composite
def mutated_archives(draw, entries, tags, values=NON_FINITE):
    """(entries, percent of the archive's bytes to keep); `tags` are the
    format tags a retag draws from, `values` those a float entry takes."""
    names = sorted(entries) + ["bogus"]
    entries = dict(entries)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "rename", "retag", "dtype", "shape",
                                     "leading", "value", "json"]))
        if kind == "retag":
            entries["format"] = np.array(draw(st.sampled_from(tags)))
            continue
        if kind == "leading":
            blocks = [n for n in sorted(entries) if entries[n].ndim >= 2 and len(entries[n])]
            if blocks:
                name = draw(st.sampled_from(blocks))
                a = entries[name]
                entries[name] = draw(st.sampled_from([a[:-1], np.concatenate([a, a[-1:]])]))
            continue
        if kind == "json":
            docs = {n: doc for n in sorted(entries)
                    if (doc := _json_object(entries[n])) is not None}
            if docs:
                name = draw(st.sampled_from(sorted(docs)))
                doc = docs[name]
                doc[draw(st.sampled_from(sorted(doc)))] = draw(
                    st.one_of(wrong_types, out_of_range, small_ints))
                entries[name] = np.array(json.dumps(doc))
            continue
        if not entries:
            continue
        name = draw(st.sampled_from(sorted(entries)))
        a = entries[name]
        if kind == "drop":
            del entries[name]
        elif kind == "rename":
            entries[draw(st.sampled_from(names))] = entries.pop(name)
        elif kind == "dtype":
            try:
                # errstate does not cover numpy's ComplexWarning, that a
                # complex to real cast drops the imaginary part
                with np.errstate(all="ignore"), warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "Casting complex values to real")
                    entries[name] = a.astype(draw(st.sampled_from(DTYPES)))
            except (TypeError, ValueError):   # a string that is no number
                pass
        elif kind == "shape":
            entries[name] = _reshaped(draw, a)
        elif a.dtype.kind in "fc" and a.size:
            a = a.copy()
            # 1e39 in an entry cast to float16 or float32 becomes inf
            with np.errstate(over="ignore"):
                a.reshape(-1)[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from(values))
            entries[name] = a
    keep = draw(st.one_of(st.just(100), st.integers(0, 99)))
    return entries, keep


def _write_mutated(path, entries, keep):
    save_archive(path, entries)
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(blob[:len(blob) * keep // 100])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data(), mode=st.sampled_from(["fewshot", "openset"]))
def test_eval_exit_code_on_mutated_checkpoints(tiny_run, data, mode):
    cfg, dataset, _, _, entries = tiny_run
    path = f"{dataset}.mutated"
    _write_mutated(path, *data.draw(mutated_archives(entries, CHECKPOINT_TAGS)))
    report = f"{dataset}.report"
    rc = _checked_main(["eval", "--config", cfg, "--dataset", dataset, "--checkpoint", path,
                        "--mode", mode, "--out-prefix", report], _eval_outputs(report))
    assert rc in EXIT_CODES


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data(), mode=st.sampled_from(["fewshot", "openset"]))
def test_train_and_eval_exit_code_on_mutated_datasets(tiny_run, data, mode):
    cfg, dataset, ckpt, entries, _ = tiny_run
    path = f"{dataset}.mutated"
    _write_mutated(path, *data.draw(mutated_archives(entries, DATASET_TAGS, DATASET_VALUES)))
    out, report = f"{dataset}.ckpt", f"{dataset}.report"
    rc = _checked_main(["train", "--config", cfg, "--dataset", path, "--out", out],
                       _train_outputs(out))
    assert rc in EXIT_CODES
    rc = _checked_main(["eval", "--config", cfg, "--dataset", path, "--checkpoint", ckpt,
                        "--mode", mode, "--out-prefix", report], _eval_outputs(report))
    assert rc in EXIT_CODES


# finite in the dataset's float32 features, so the reader accepts it, but
# the float32 net's first product overflows on it
BIG_FEATURE = 3e38


def test_train_heldout_features_overflowing_float32_exit_2(tiny_run, tmp_path, capsys):
    # held-out scoring refuses features whose embeddings overflow before
    # the checkpoint or its log is written
    cfg, _, _, entries, _ = tiny_run
    features = entries["test_features"].copy()
    features[0] = BIG_FEATURE
    data = tmp_path / "overflow.npz"
    save_archive(str(data), {**entries, "test_features": features})
    out = tmp_path / "ckpt.npz"
    assert main(["train", "--config", cfg, "--dataset", str(data), "--out", str(out)]) == 2
    assert ("cannot score held-out scenes: non-finite embeddings"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("ckpt*"))


def test_train_undrawn_training_features_overflowing_float32_exit_2(tmp_path, capsys):
    # one step draws one of six training pools; 3e38 in the scene it
    # draws diverges in that step (exit 3), while 3e38 in any other
    # scene first meets the net in the final bank's p0, which refuses it
    # as bad input (exit 2), both without numpy's warnings
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "world": {**TINY["world"], "n_train_scenes": 6},
        "train": {**TINY["train"], "stage1_steps": 1, "stage2_steps": 0}}))
    data = str(tmp_path / "d.npz")
    assert _quiet_main(["gen-data", "--config", str(cfg), "--out", data]) == 0
    entries = _entries(data)
    codes = []
    for scene in range(len(entries["train_features"])):
        features = entries["train_features"].copy()
        features[scene] = BIG_FEATURE
        save_archive(data, {**entries, "train_features": features})
        out = str(tmp_path / "ckpt.npz")
        codes.append(main(["train", "--config", str(cfg), "--dataset", data, "--out", out]))
        err = capsys.readouterr().err
        assert err == {2: "cannot embed training scenes: non-finite embeddings\n",
                       3: "training diverged: overflow encountered in matmul\n"}[codes[-1]]
        assert not list(tmp_path.glob("ckpt*"))
    assert sorted(codes) == [2, 2, 2, 2, 2, 3]


@pytest.mark.parametrize("mode", ["fewshot", "openset"])
def test_eval_test_features_overflowing_float32_exit_2(tiny_run, tmp_path, mode, capsys):
    # the same features reach eval through detection, which refuses
    # them before any report is written, without numpy's warnings
    cfg, _, ckpt, entries, _ = tiny_run
    features = entries["test_features"].copy()
    features[0] = BIG_FEATURE
    data = tmp_path / "overflow.npz"
    save_archive(str(data), {**entries, "test_features": features})
    prefix = str(tmp_path / "r")
    assert main(["eval", "--config", cfg, "--dataset", str(data), "--checkpoint", ckpt,
                 "--mode", mode, "--out-prefix", prefix]) == 2
    assert ("cannot evaluate: non-finite embeddings from the checkpoint weights "
            "or the dataset features" in capsys.readouterr().err)
    assert not list(tmp_path.glob("r*"))


# delta and sigma_f of ordinary sizes, or m * 10^e up to 1e308, where 2
# delta is no longer finite: features beyond float32's range are refused
scales = st.one_of(st.floats(0.01, 100.0), st.builds(lambda m, e: m * 10.0 ** e,
                                                     st.floats(1.0, 9.99),
                                                     st.integers(30, 307)))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(delta=scales, sigma_f=scales)
def test_gen_data_exit_code_on_large_scales(tmp_path_factory, delta, sigma_f):
    # gen-data exits 0 with a float32 dataset, or 2 writing nothing and
    # naming the out-of-range field or the features, without numpy's
    # warnings (tier-1 turns every warning into an error)
    d = tmp_path_factory.getbasetemp() / "scales"
    d.mkdir(exist_ok=True)
    cfg, out = d / "c.json", str(d / "d.npz")
    cfg.write_text(json.dumps({"world": {**TINY["world"], "delta": delta, "sigma_f": sigma_f}}))
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["gen-data", "--config", str(cfg), "--out", out])
    assert rc in (0, 2)
    if rc == 2:
        assert ("delta out of range" in err.getvalue()
                or "proposal features beyond float32's range" in err.getvalue())
        assert sorted(os.listdir(d)) == ["c.json"]
    else:
        with np.load(out) as archive:
            assert archive["train_features"].dtype == np.float32


# Requests of at least 1 PiB: numpy refuses them at once, before any
# memory is touched. gen-data's first array at d=2e14 takes 1.42 PiB,
# train's parameter vector at hidden 1e14 takes 9.24 PiB
@pytest.mark.parametrize("command,override", [
    ("gen-data", "world.d=200000000000000"),
    ("train", "train.hidden_dim=100000000000000"),
])
def test_impossible_allocation_exits_2(tiny_run, tmp_path, capsys, command, override):
    cfg, dataset, _, _, _ = tiny_run
    out = str(tmp_path / "out.npz")
    argv = [command, "--config", cfg, "--set", override, "--out", out]
    if command == "train":
        argv += ["--dataset", dataset]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and "PiB" in err
    assert not list(tmp_path.iterdir())


# every key of the tiny config; the default train section (700 steps at
# hidden 512) is never dropped in, so every example stays tiny
TINY_FULL = RunConfig.from_dict(TINY).to_dict()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(doc=mutated_configs(base=TINY_FULL, droppable=("world",)))
def test_pipeline_exit_code_on_mutated_configs(tiny_run, doc):
    # each command reads the mutated config; train and eval read the
    # tiny run's dataset and checkpoint
    _, dataset, ckpt, _, _ = tiny_run
    path = f"{dataset}.config.json"
    with open(path, "w") as f:
        json.dump(doc, f)
    gen, out, report = f"{dataset}.gen", f"{dataset}.ckpt", f"{dataset}.report"
    assert _checked_main(["gen-data", "--config", path, "--out", gen], [gen]) in EXIT_CODES
    assert _checked_main(["train", "--config", path, "--dataset", dataset, "--out", out],
                         _train_outputs(out)) in EXIT_CODES
    assert _checked_main(["eval", "--config", path, "--dataset", dataset, "--checkpoint", ckpt,
                          "--out-prefix", report], _eval_outputs(report)) in EXIT_CODES
