"""Benchmark workloads: the config each one hands the program, and why.

Every workload runs the operator's whole command sequence
(gen-data -> train -> eval fewshot -> eval openset, then gradcheck),
so every end-to-end metric exists on every workload. Workloads differ
in the config, which decides which layers carry the time, in which
command the client repeats most, and in whether the traced run
traces gradcheck.
The seed given to the benchmark becomes the world and training seed;
the program sees nothing but the config and the files it writes.
"""

from dataclasses import dataclass

# A3/A4 acceptance floors (tests/test_acceptance.py), gated on a3-train.
# The two A3 floors hold on every seed tried; the A4 unknown-recall floor
# is pinned to the acceptance seed, as in the tests and the ROADMAP. On
# other seeds it rests on a handful of unknown objects and can miss when
# an unseen class lands near a seen one (seed 1888765240: 7 of 15), so
# a3-train runs an untimed acceptance pass at that seed in every run.
MIN_HELDOUT_ACCURACY = 0.95
MIN_FEWSHOT_AP50 = 0.90
MIN_UNKNOWN_RECALL50 = 0.60
ACCEPTANCE_SEED = 7
GRADCHECK_TOL = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    world: dict
    train: dict
    # share of the wall time each repeated command gets, relative to the
    # others (default 1); gradcheck runs on the first pass only
    weights: tuple = ()
    trace_gradcheck: bool = False
    a3_floors: bool = False

    def config(self, seed):
        """The run config for one seed (the only input the program sees)."""
        return {"world": dict(self.world, seed=seed),
                "train": dict(self.train, seed=seed)}


A3_TRAIN = Workload(
    name="a3-train",
    why="A3 acceptance config: 700 training steps at d=64, hidden 512, so "
        "embedder, losses, augmentation and AdamW carry the run",
    world={"c_seen": 5, "c_unseen": 2, "d": 64, "delta": 10.0, "sigma_f": 1.0,
           "shots": 5, "box_jitter": 0.0, "n_train_scenes": 20,
           "n_test_scenes": 20},
    train={"lr": 1e-4, "weight_decay": 1e-4, "stage1_steps": 500,
           "stage2_steps": 200, "shots": 5, "queries_per_support": 4,
           "tau": 10.0},
    weights=(("train", 100.0),),
    a3_floors=True,
)

# The ROADMAP large world has 500 + 500 scenes; at about 40 s per pass
# it does not fit the run budget, so the scene count is cut while each
# scene keeps its shape (100 proposals, 4 objects, d=64). Dataset I/O,
# simulator, IoU and evaluation all scale with the scene count, so they
# keep their share of the time. At 40 + 40 scenes each command takes
# under a second, so a run gets several samples of each, spread in time.
LARGE_WORLD = Workload(
    name="large-world",
    why="many scenes of 100 proposals and only 30 training steps, so "
        "dataset JSON I/O, simulator, IoU and evaluation carry the run",
    world={"n_train_scenes": 40, "n_test_scenes": 40,
           "proposals_per_scene": 100, "objects_per_scene": 4, "d": 64},
    train={"stage1_steps": 20, "stage2_steps": 10},
)

# The default config, cut to 30 training steps, so the pipeline costs
# about a second and every command works on d=8 shapes, where the cost
# per call dominates. The finite-difference audit, about 29.5k
# episode_loss calls, is traced here only. It is not repeated: its one
# sample is steady once scaled (reference.py), and a second one would
# leave the pipeline commands a sample or two. 40 test scenes keep the
# quality figures steady from seed to seed.
GRADCHECK = Workload(
    name="gradcheck",
    why="default d=8 config and a traced gradcheck (~29.5k episode_loss calls), "
        "so per-call overhead carries the run",
    world={"n_test_scenes": 40},
    train={"stage1_steps": 20, "stage2_steps": 10},
    trace_gradcheck=True,
)

WORKLOADS = {w.name: w for w in (A3_TRAIN, LARGE_WORLD, GRADCHECK)}
