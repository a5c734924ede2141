"""Operator entry point.

    protodetect gen-data  --config cfg.json --out dataset.npz
    protodetect train     --config cfg.json --dataset dataset.npz --out ckpt.npz
    protodetect eval      --config cfg.json --dataset dataset.npz \
                          --checkpoint ckpt.npz --mode fewshot --out-prefix report
    protodetect gradcheck --config cfg.json

gen-data and train write their archive at exactly --out, whatever its
suffix. Every command writes its files under temporary names beside
them and renames them into place only after all are written, so a
command that fails leaves none of its files and keeps any earlier ones
at those paths. The checkpoint carries the background prototype p0, so
eval embeds no training scene: it reads only the dataset's test split
and supports. A dataset or checkpoint that is not an .npz archive, such
as a JSON file of the older formats, exits 2, as does a dataset of a
retired format: protodetect-dataset-v2 (ragged rows) or
protodetect-dataset-v3 (float64 features). gen-data exits 2 and writes
nothing when the world's features are beyond float32's range, the dtype
a dataset stores them in.

eval's `--mode`, fewshot by default, is the one input that selects the
protocol; the run config holds none. eval is assemble -> detect ->
evaluate: `inference.assemble_protocol`
reads the mode's row of `inference.PROTOCOLS` and returns the bank, the
scored class ids and the open-set unknown id, which `evaluate` takes as
they are; this module decides nothing per mode.

train and eval hash a dataset of 1 MB or more on a second thread while
they load it, and embed large inputs on two threads
(`EmbeddingNet.embed`), when the process may run on two or more CPUs;
every thread ends with its command. Every command is a pure function of
(config, input files, seed), whatever the CPU count; re-runs produce
byte-identical outputs. Exit codes: 0 ok, 2 config or
input error (an allocation the host cannot make included), 3 numerical
divergence, 4 gradient-check failure. `python -m protodetect` runs the
same command line.
"""

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from .config import ConfigError, file_digest, load_run_config
from .embedder import layout, load_checkpoint, save_checkpoint
from .evaluation import evaluate
from .gradcheck import run_suite
from .inference import FEWSHOT, MODES, assemble_protocol, detect_scenes, save_detections
from .parallel import has_second_cpu, in_parallel
from .prototypes import BACKGROUND_ID
from .simulator import SPLITS, generate_world, load_world, save_world
from .trainer import heldout_accuracy, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_GRADCHECK = 4
# dataset bytes from which the hash runs beside the load. Load and hash
# of the eval entries, serial -> two threads, 2-vCPU AMD EPYC: 0.24 MB
# 0.54 -> 0.70 ms, 0.6 MB 0.72 -> 0.62 ms, 2.3 MB 1.74 -> 1.48 ms
PARALLEL_HASH_BYTES = 1 << 20


class CliError(Exception):
    def __init__(self, msg, code=EXIT_CONFIG):
        super().__init__(msg)
        self.code = code


def _provenance(cfg, dataset_digest):
    return {"config_digest": cfg.digest(), "dataset_digest": dataset_digest}


@contextlib.contextmanager
def _staged(*paths):
    """A temporary name beside each of `paths` for the block to write.
    When the block succeeds and no path is a directory (the one target
    a rename would refuse), each temporary is renamed onto its path. On
    any error every temporary still there is removed, so a failed
    command leaves none of its files; an OSError becomes a CliError
    naming the path being written. Two paths that resolve to one file
    are refused before anything is written: the second rename would
    replace the first file."""
    seen = {}
    for i, path in enumerate(paths):
        first = seen.setdefault(os.path.realpath(path), i)
        if first != i:
            raise CliError(f"cannot write {path}: same file as {paths[first]}")
    temps = [f"{p}.{os.getpid()}.{i}.tmp" for i, p in enumerate(paths)]
    target = dict(zip(temps, paths))
    try:
        yield temps
        for path in paths:
            if os.path.isdir(path):
                raise CliError(f"cannot write {path}: is a directory")
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except OSError as e:
        raise CliError(f"cannot write {target.get(e.filename) or ', '.join(paths)}: "
                       f"{e.strerror or e}")
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def cmd_gen_data(args):
    cfg = load_run_config(args.config, args.set or ())
    with _staged(args.out) as (tmp,):
        try:
            save_world(tmp, generate_world(cfg.world))
        except (ValueError, RuntimeError) as e:
            raise CliError(str(e))
    print(f"dataset digest: {file_digest(args.out)}")
    return EXIT_OK


def _load_world_checked(cfg, dataset_path, splits):
    """(world, digest): the dataset's given splits and supports, and its
    file digest, hashed once for the expected-digest check and the
    provenance header alike. A file of `PARALLEL_HASH_BYTES` or more is
    hashed on a second thread while this one loads it, on a host that
    gives the process two or more CPUs. Either way a load error is
    reported first, then a hash error, then a digest mismatch."""
    def load():
        try:
            return load_world(dataset_path, splits)
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise CliError(f"cannot read dataset: {e}")

    size = 0
    with contextlib.suppress(OSError):   # load() reports the file
        size = os.path.getsize(dataset_path)
    if size >= PARALLEL_HASH_BYTES and has_second_cpu():
        digest, world = in_parallel(lambda: file_digest(dataset_path), load)
    else:
        world, digest = load(), file_digest(dataset_path)
    if cfg.expected_dataset_digest not in (None, digest):
        raise CliError(f"dataset digest mismatch: {digest}")
    return world, digest


def cmd_train(args):
    cfg = load_run_config(args.config, args.set or ())
    world, digest = _load_world_checked(cfg, args.dataset, SPLITS)
    try:
        result = train(world, cfg.train)
    except FloatingPointError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as e:
        raise CliError(str(e))
    try:
        with np.errstate(over="raise", invalid="raise"):
            acc = heldout_accuracy(result.net, result.bank, world.test)
    except FloatingPointError:
        # held-out features that overflow the net's dtype: bad input, and
        # nothing is written
        raise CliError("cannot score held-out scenes: non-finite embeddings")
    result.log.append({"final": True, "accuracy": acc})
    provenance = _provenance(cfg, digest)
    with _staged(args.out, args.log or (args.out + ".log.jsonl")) as (ckpt_tmp, log_tmp):
        save_checkpoint(ckpt_tmp, result.theta, layout(result.net, result.clf),
                        result.bank.get(BACKGROUND_ID), extra=provenance)
        result.write_log(log_tmp)
    print(f"checkpoint: {args.out}")
    print(f"final heldout accuracy: {'none' if acc is None else format(acc, '.4f')}")
    return EXIT_OK


def run_protocol(world, net, mode, p0):
    """Shared by cmd_eval and tests: detections + report for one mode.
    p0 is the background prototype of the trained bank, as the
    checkpoint stores it. An overflow or an invalid operation while
    embedding raises, so it exits 2 without numpy's warnings."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            bank, eval_ids, unknown_id = assemble_protocol(mode, world, net, p0)
            per_scene = detect_scenes(world.test, net, bank)
    except ValueError as e:
        raise CliError(str(e))
    except FloatingPointError:
        # finite weights or features whose activations overflow: bad
        # input, not divergence, and either input may be the bad one
        raise CliError("cannot evaluate: non-finite embeddings from the checkpoint "
                       "weights or the dataset features and supports")
    return per_scene, evaluate(per_scene, world.test.scenes, eval_ids, mode, unknown_id)


def cmd_eval(args):
    cfg = load_run_config(args.config, args.set or ())
    world, digest = _load_world_checked(cfg, args.dataset, ("test",))
    try:
        net, _, p0 = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CliError(f"cannot read checkpoint: {e}")
    if net.in_dim != world.config.d:
        raise CliError(f"checkpoint expects {net.in_dim}-dim features, "
                       f"dataset has d={world.config.d}")
    per_scene, report = run_protocol(world, net, args.mode, p0)
    header = _provenance(cfg, digest)
    header["mode"] = args.mode
    paths = [args.out_prefix + suffix for suffix in (".detections.json", ".json", ".csv")]
    with _staged(*paths) as (det_tmp, json_tmp, csv_tmp):
        save_detections(det_tmp, per_scene, header)
        report.save_json(json_tmp, header)
        report.save_csv(csv_tmp, header)
    print(f"{args.mode}: mAP={report.mAP:.4f} mAR={report.mAR:.4f}")
    for label, row in sorted(report.extra_rows.items()):
        print(f"  {label}: mAP={row['mAP']:.4f} mAR={row['mAR']:.4f}")
    return EXIT_OK


def cmd_gradcheck(args):
    cfg = load_run_config(args.config, args.set or ())
    # small d=8 shapes, but the depth and stage-2 loss the config trains
    train_cfg = cfg.train
    results = run_suite(instance_kwargs={
        "depth": train_cfg.mlp_depth, "tau": train_cfg.tau,
        "lambdas": (train_cfg.lambda_kl, train_cfg.lambda_align)})
    tol = 1e-4
    failed = [t for t, e in results.items() if not e <= tol]   # NaN fails
    for term, err in results.items():
        status = "ok" if err <= tol else "FAIL"
        print(f"{term:8s} max relative error {err:.3e}  {status}")
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


@functools.cache   # built once per process; every `main` call reuses it
def build_parser():
    p = argparse.ArgumentParser(prog="protodetect")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="override a config value by dot path")

    sp = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="run the two-stage training loop")
    common(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--log", help="run log path (default: <out>.log.jsonl)")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="run a protocol and write reports")
    common(sp)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mode", choices=MODES, default=FEWSHOT)
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(sp)
    sp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except MemoryError as e:
        # a config that asks for more memory than the host has is a
        # config error; every temporary is gone by now (`_staged`)
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
