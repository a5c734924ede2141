"""One closed-loop client that drives `protodetect.cli.main` in-process.

A run starts with one pass that issues every command once, in the
order an operator would: gen-data -> train -> eval fewshot -> eval
openset -> gradcheck. After that, until the time is up, the client
issues whichever command has had the least wall time spent on it,
per unit of the workload's `weights`, so every command is sampled again
and again across the whole run rather than in one burst. Set-up time,
from fresh interpreters, is one of these commands. gradcheck runs only
in the first pass. A command whose longest run so far would end past
the deadline is not started, so a run ends close to its time.

Every command is timed around the `main` call alone; the checks on its
outputs run outside the timed region. Each time is also kept scaled
to a fixed host speed, gauged by reference.py. A command counts as
failed when it exits non-zero, raises, fails a correctness check, or
prints or writes anything (sha256 of each file) that differs from the
first time it ran in this session.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from protodetect.cli import main as cli_main

import reference
import workloads as wl

COMMANDS = ("gen-data", "train", "eval-fewshot", "eval-openset", "gradcheck")
SETUP = "setup"

# files each command writes, relative to the session directory
ARTIFACTS = {
    "gen-data": ("dataset.json",),
    "train": ("ckpt.json", "ckpt.json.log.jsonl"),
    "eval-fewshot": ("fewshot.json", "fewshot.csv", "fewshot.detections.json"),
    "eval-openset": ("openset.json", "openset.csv", "openset.detections.json"),
    "gradcheck": (),
}

_GRADCHECK_LINE = re.compile(r"^(\w+)\s+max relative error (\S+)", re.M)

# What every CLI call pays before it does any work: a fresh interpreter
# importing protodetect (and with it numpy) and loading the config.
SETUP_CODE = ("import sys; from protodetect.cli import main; "
              "from protodetect.config import load_run_config; "
              "load_run_config(sys.argv[1])")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else math.nan


class Invocation:
    def __init__(self, command):
        self.command = command
        self.reasons = []

    def fail(self, reason):
        self.reasons.append(reason)


class Session:
    def __init__(self, workdir, workload, seed, root, tracer=None):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.root = Path(root)
        self.workload = workload
        self.tracer = tracer
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config(seed), sort_keys=True))
        self.times = {c: [] for c in (SETUP,) + COMMANDS}
        self.pass_seconds = []
        self.scaled = {c: [] for c in (SETUP,) + COMMANDS}   # see reference.py
        self.slowdown = []
        self.cost = {c: [] for c in (SETUP,) + COMMANDS}
        self.invocations = []
        self.quality = {}
        self.reference = {}        # command -> what it printed and wrote first
        self._setup_warm = False

    @property
    def attempted(self):
        return len(self.invocations)

    @property
    def failed(self):
        return sum(1 for inv in self.invocations if inv.reasons)

    def failures(self):
        return [f"{inv.command}: {r}" for inv in self.invocations for r in inv.reasons]

    # --- passes --------------------------------------------------------------

    def run(self, seconds):
        """One pass, then the command with the least wall time spent on it
        per unit of weight, among those that still fit, until `seconds`
        have passed."""
        deadline = time.perf_counter() + seconds
        self.run_pass(gradcheck=True)
        weights = {c: 1.0 for c in (SETUP,) + COMMANDS[:4]}
        weights.update(self.workload.weights)
        while True:
            left = deadline - time.perf_counter()
            fits = [c for c in weights if max(self.cost[c]) < left]
            if not fits:
                break
            self.issue(min(fits, key=lambda c: sum(self.cost[c]) / weights[c]))

    def run_pass(self, gradcheck, setup=True):
        """Every command once, in the operator's order, starting with a
        set-up probe if `setup` and ending with gradcheck if `gradcheck`."""
        before = sum(sum(self.times[c]) for c in COMMANDS)
        for command in (((SETUP,) if setup else ()) + COMMANDS[:4]
                        + (("gradcheck",) if gradcheck else ())):
            self.issue(command)
        self.pass_seconds.append(sum(sum(self.times[c]) for c in COMMANDS) - before)

    def issue(self, command):
        """Issue one command and keep its wall time, checks included."""
        t0 = time.perf_counter()
        if command == SETUP:
            self.probe_setup()
        else:
            self.invoke(command)
        self.cost[command].append(time.perf_counter() - t0)

    def probe_setup(self):
        """Time one fresh interpreter paying the CLI's set-up. Before the
        first one, an unmeasured start compiles the bytecode caches, which
        an installed package ships with."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config_path)]
        for measured in ([True] if self._setup_warm else [False, True]):
            inv = Invocation(SETUP)
            gauge = reference.Gauge()
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.root, env=env,
                                      capture_output=True, timeout=120)
                rc, err = proc.returncode, proc.stderr.decode(errors="replace")
            except subprocess.TimeoutExpired:
                rc, err = "timeout", ""
            if measured:
                self._record(SETUP, time.perf_counter() - t0, gauge)
            if rc != 0:
                inv.fail(f"exit {rc}: {err.strip()[-200:]}")
            if measured or inv.reasons:
                self.invocations.append(inv)
        self._setup_warm = True

    def _record(self, command, seconds, gauge):
        self.times[command].append(seconds)
        self.slowdown.append(gauge.slowdown())
        self.scaled[command].append(seconds / self.slowdown[-1])

    # --- one command ---------------------------------------------------------

    def _argv(self, command):
        cfg = str(self.config_path)
        data, ckpt = str(self.dir / "dataset.json"), str(self.dir / "ckpt.json")
        if command == "gen-data":
            return ["gen-data", "--config", cfg, "--out", data]
        if command == "train":
            return ["train", "--config", cfg, "--dataset", data, "--out", ckpt]
        if command == "gradcheck":
            return ["gradcheck", "--config", cfg]
        mode = command.split("-", 1)[1]
        return ["eval", "--config", cfg, "--dataset", data, "--checkpoint", ckpt,
                "--mode", mode, "--out-prefix", str(self.dir / mode)]

    def invoke(self, command):
        """Run one command, time it and check what it printed and wrote."""
        for name in ARTIFACTS[command]:
            (self.dir / name).unlink(missing_ok=True)
        inv = Invocation(command)
        self.invocations.append(inv)
        out = io.StringIO()
        span = (self.tracer.command(command) if self.tracer is not None
                else contextlib.nullcontext())
        # no samples inside traced commands: they would sit in the spans
        gauge = reference.Gauge(reference.GAUGE_INTERVAL if self.tracer is None else None)
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), gauge:
                rc = cli_main(self._argv(command))
        except Exception:
            traceback.print_exc()
            rc = "exception"
        self._record(command, time.perf_counter() - t0 - gauge.inside_s, gauge)
        if rc != 0:
            inv.fail(f"exit {rc}")
        out = out.getvalue()
        getattr(self, "_check_" + command.replace("-", "_"))(inv, out)
        self._check_determinism(inv, out)

    # --- correctness checks --------------------------------------------------

    def _check_determinism(self, inv, out):
        seen = {"stdout": out}
        for name in ARTIFACTS[inv.command]:
            path = self.dir / name
            seen[name] = sha256_file(path) if path.exists() else None
        first = self.reference.setdefault(inv.command, seen)
        for key, value in seen.items():
            if value != first[key]:
                inv.fail(f"{key} differs from the first {inv.command}")

    def _ratio(self, inv, key, value, floor=None):
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            inv.fail(f"{key} {value!r} is not a ratio in [0, 1]")
            return
        self.quality[key] = value
        if floor is not None and value < floor:
            inv.fail(f"{key} {value:.4f} below the floor {floor}")

    def _check_gen_data(self, inv, out):
        path = self.dir / "dataset.json"
        if path.exists() and f"dataset digest: {sha256_file(path)}" not in out:
            inv.fail("printed dataset digest does not match the file")

    def _check_train(self, inv, out):
        try:
            with open(self.dir / "ckpt.json.log.jsonl") as f:
                final = json.loads(f.read().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            inv.fail(f"cannot read the train log: {e}")
            return
        floor = wl.MIN_HELDOUT_ACCURACY if self.workload.a3_floors else None
        self._ratio(inv, "heldout_accuracy", final.get("accuracy"), floor)

    def _check_report(self, inv, mode):
        try:
            with open(self.dir / f"{mode}.json") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            inv.fail(f"cannot read the {mode} report: {e}")
            return
        self._ratio(inv, f"{mode}_map", doc.get("mAP"))
        if not self.workload.a3_floors:
            return
        world = self.workload.world
        try:
            cells = {(c["class"], c["iou_threshold"]): c for c in doc["per_cell"]}
            if mode == "fewshot":
                ap50 = [cells[(c, 0.5)]["ap"] for c in range(1, world["c_seen"] + 1)]
                self._ratio(inv, "fewshot_ap50", sum(ap50) / len(ap50),
                            wl.MIN_FEWSHOT_AP50)
            else:
                unknown_id = world["c_seen"] + world["c_unseen"] + 1
                floor = (wl.MIN_UNKNOWN_RECALL50 if self.seed == wl.ACCEPTANCE_SEED
                         else None)
                self._ratio(inv, "unknown_recall50", cells[(unknown_id, 0.5)]["ar"],
                            floor)
        except (KeyError, TypeError) as e:
            inv.fail(f"{mode} report lacks the IoU 0.50 cells: {e!r}")

    def _check_eval_fewshot(self, inv, out):
        self._check_report(inv, "fewshot")

    def _check_eval_openset(self, inv, out):
        self._check_report(inv, "openset")

    def _check_gradcheck(self, inv, out):
        errors = {t: float(e) for t, e in _GRADCHECK_LINE.findall(out)}
        if set(errors) != {"match", "kl", "align", "total"}:
            inv.fail(f"gradcheck reported terms {sorted(errors)}")
            return
        worst = max(errors.values())
        if not worst <= wl.GRADCHECK_TOL:
            inv.fail(f"gradient error {worst:.3e} above {wl.GRADCHECK_TOL}")
        self.quality["gradcheck_max_rel_err"] = worst
