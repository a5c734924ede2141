"""Compare the three loss terms by switching them off one at a time.

Runs the same world and schedule under four loss configurations
(matching only, +KL, +alignment, all three) and three embedder
depths, printing one report row per variant. Scores on a synthetic
world are close together by design; the point is that every variant
is reachable from configuration alone.
"""

from protodetect.config import RunConfig
from protodetect.cli import run_protocol
from protodetect.inference import FEWSHOT
from protodetect.prototypes import BACKGROUND_ID
from protodetect.simulator import generate_world
from protodetect.trainer import heldout_accuracy, train

BASE = {
    "world": {"c_seen": 5, "c_unseen": 2, "d": 64, "delta": 10.0,
              "sigma_f": 1.0, "n_train_scenes": 20, "n_test_scenes": 20,
              "seed": 7},
    "train": {"stage1_steps": 200, "stage2_steps": 100, "seed": 7},
}


def run_variant(name, overrides):
    doc = {"world": dict(BASE["world"]),
           "train": {**BASE["train"], **overrides}}
    cfg = RunConfig.from_dict(doc)
    world = generate_world(cfg.world)
    result = train(world, cfg.train)
    acc = heldout_accuracy(result.net, result.bank, world.test_scenes)
    _, report = run_protocol(world, result.net, FEWSHOT,
                             result.bank.get(BACKGROUND_ID))
    print(f"  {name:24s} accuracy {acc:.4f}  mAP {report.mAP:.4f}")


def main():
    print("loss-term ablation:")
    run_variant("matching only", {"lambda_kl": 0.0, "lambda_align": 0.0})
    run_variant("matching + KL", {"lambda_kl": 1.0, "lambda_align": 0.0})
    run_variant("matching + alignment", {"lambda_kl": 0.0, "lambda_align": 1.0})
    run_variant("all three terms", {"lambda_kl": 1.0, "lambda_align": 1.0})

    print("\nembedder depth:")
    for depth in (2, 3, 4):
        run_variant(f"depth {depth}", {"mlp_depth": depth})


if __name__ == "__main__":
    main()
