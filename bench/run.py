"""protodetect benchmark: CLI-pipeline wall time and quality per workload,
or per-layer spans with --trace 1.

    python3 bench/run.py --workload a3-train --seed 7 --seconds 36 --trace 0

The benchmark drives the checkout that holds this file: it imports
protodetect from its src/ directory (there is nothing to build) and
works in .bench_work/, which it empties again before it exits. Each run
is one process with one closed-loop client issuing CLI commands in
sequence, with BLAS and OpenMP held to one thread.

--trace 0 issues the workload's commands, and fresh interpreters
that time the CLI's set-up, for --seconds (see session.py for the
order), and prints the median time of each command with its sample
count, peak RSS, the success rate, and the quality figures the
commands print. Each time is the command's wall time divided by the
host's slowdown while it ran, gauged by a fixed reference kernel (see
reference.py); the wall-clock median is printed beside it.

On a3-train, either mode then runs one untimed pass at the acceptance
seed, where the A4 unknown-recall floor is gated (see workloads.py);
its commands count as attempted, and as failed if they miss a check.

--trace 1 runs one pass untraced and one pass with every layer
wrapped, each command once (gradcheck only on the gradcheck workload),
requires the two passes to print and write identical output, prints
the per-layer metrics, and saves the spans to
.bench_work/traces/<workload>-seed<seed>.npz.

The last line of stdout is one JSON object: correct, attempted,
failed and metrics ({name: {"value", "unit"}}).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# numpy reads these when it is first imported
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# (name, unit); bounds and directions live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("gen_data_s", "s"),
    ("train_s", "s"),
    ("eval_fewshot_s", "s"),
    ("eval_openset_s", "s"),
    ("gradcheck_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("heldout_accuracy", "ratio"),
    ("fewshot_map", "ratio"),
    ("openset_map", "ratio"),
    ("gradcheck_max_rel_err", "ratio"),
)


def machine_info():
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def end_to_end_metrics(sess, attempted, failed):
    import reference
    from session import SETUP, median
    timed = {"setup_s": SETUP, "gen_data_s": "gen-data", "train_s": "train",
             "eval_fewshot_s": "eval-fewshot", "eval_openset_s": "eval-openset",
             "gradcheck_s": "gradcheck"}
    # times at the reference host speed; the wall-clock medians are printed
    values = {name: median(sess.scaled[c]) for name, c in timed.items()}
    wall = {name: median(sess.times[c]) for name, c in timed.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["success_rate"] = 1.0 - failed / attempted
    for name in ("heldout_accuracy", "fewshot_map", "openset_map",
                 "gradcheck_max_rel_err"):
        values[name] = sess.quality.get(name)
    print(f"host slowdown (reference kernel over {reference.NOMINAL_S} s): median "
          f"{median(sess.slowdown):.4f} over {len(sess.slowdown)} commands")
    for name, unit in END_TO_END:
        n = (f"  (median of {len(sess.times[timed[name]])}; wall {wall[name]:.4f} s)"
             if name in timed else "")
        print(f"{name:24s} {values[name]!r:>24} {unit}{n}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_untraced(workload, seed, seconds, workdir):
    from session import Session
    sess = Session(workdir, workload, seed, ROOT)
    sess.run(seconds)
    return sess


def run_traced(workload, seed, workdir):
    from session import Session
    from spans import Tracer, install, per_layer_metrics, uninstall
    sess = Session(workdir, workload, seed, ROOT)
    # trace what the workload repeats: on a3-train and large-world the
    # audit's ~150k embedder calls would bury the pipeline's own counts
    gradcheck = workload.trace_gradcheck
    sess.run_pass(gradcheck, setup=False)
    tracer = Tracer()
    restore = install(tracer)
    sess.tracer = tracer
    try:
        sess.run_pass(gradcheck, setup=False)
    finally:
        uninstall(restore)
        sess.tracer = None
    untraced, traced = sess.pass_seconds
    print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s, "
          f"{len(tracer.start)} spans")
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.save(traces / f"{workload.name}-seed{seed}.npz")
    metrics = per_layer_metrics(tracer, (traced - untraced) / untraced)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']!r:>24} {m['unit']}")
    return sess, metrics


def run_acceptance(workload, workdir):
    """Issue the pipeline once at the acceptance seed, untimed."""
    from session import Session
    from workloads import ACCEPTANCE_SEED
    sess = Session(workdir, workload, ACCEPTANCE_SEED, ROOT)
    sess.run_pass(gradcheck=False, setup=False)
    print(f"acceptance pass, seed {ACCEPTANCE_SEED}: " + ", ".join(
        f"{k} {v!r}" for k, v in sorted(sess.quality.items())))
    return sess


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "protodetect" / "cli.py").is_file():
        print(f"protodetect sources not found under {src}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            sess, metrics = run_traced(workload, args.seed, workdir)
        else:
            sess = run_untraced(workload, args.seed, args.seconds, workdir)
        if "unknown_recall50" in sess.quality:
            print(f"unknown_recall50 at seed {args.seed}: "
                  f"{sess.quality['unknown_recall50']!r} (gated at the acceptance seed)")
        sessions = [sess]
        if workload.a3_floors:
            sessions.append(run_acceptance(workload, workdir / "acceptance"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    if not args.trace:
        metrics = end_to_end_metrics(sess, attempted, failed)
    for line in (f for s in sessions for f in s.failures()):
        print(f"FAILED {line}")
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
