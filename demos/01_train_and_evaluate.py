"""Train a prototype head on a synthetic world and score it.

Walks the whole pipeline in one sitting: generate a separable feature
world, run the two-stage schedule, then report nearest-prototype
accuracy and few-shot detection quality on held-out scenes.
"""

import numpy as np

from protodetect.config import RunConfig
from protodetect.cli import run_protocol
from protodetect.inference import FEWSHOT
from protodetect.prototypes import BACKGROUND_ID
from protodetect.simulator import generate_world
from protodetect.trainer import heldout_accuracy, train


def main():
    cfg = RunConfig.from_dict({
        "world": {"c_seen": 5, "c_unseen": 2, "d": 64, "delta": 10.0,
                  "sigma_f": 1.0, "n_train_scenes": 20, "n_test_scenes": 20,
                  "seed": 7},
        "train": {"stage1_steps": 500, "stage2_steps": 200, "seed": 7},
    })
    print("generating world:", cfg.world.c_seen, "seen classes,",
          cfg.world.c_unseen, "held out, feature dim", cfg.world.d)
    world = generate_world(cfg.world)

    print("training:", cfg.train.stage1_steps, "stage-1 +",
          cfg.train.stage2_steps, "stage-2 steps")
    result = train(world, cfg.train)
    for rec in result.log[:: len(result.log) // 10]:
        print(f"  step {rec['step']:4d} stage {rec['stage']}  "
              f"l_total {rec['l_total']:.4f}  grad {rec['grad_norm']:.3f}")

    acc = heldout_accuracy(result.net, result.bank, world.test)
    print(f"\nheld-out nearest-prototype accuracy: {acc:.4f}")

    _, report = run_protocol(world, result.net, FEWSHOT,
                             result.bank.get(BACKGROUND_ID))
    print(f"few-shot detection: mAP {report.mAP:.4f}  mAR {report.mAR:.4f}")
    print("per-class AP at IoU 0.50:")
    for cid in sorted(world.support_seen):
        print(f"  class {cid}: {report.cells[(cid, 0.5)]['ap']:.4f}")


if __name__ == "__main__":
    main()
