"""Open-set detection with a composed unknown prototype.

Trains on five seen classes, then evaluates scenes that also contain
two classes the model never saw. Proposals near the background
prototype are rejected outright; proposals nearest the composed
unknown prototype (mean of the seen prototypes and background) are
flagged as unknown. The interesting numbers are the background reject
rate, the unknown-class recall, and how little the seen classes pay
for the extra bank entry.
"""

from protodetect.config import RunConfig
from protodetect.cli import run_protocol
from protodetect.inference import FEWSHOT, OPENSET
from protodetect.prototypes import BACKGROUND_ID
from protodetect.simulator import generate_world
from protodetect.trainer import train


def main():
    cfg = RunConfig.from_dict({
        "world": {"c_seen": 5, "c_unseen": 2, "d": 64, "delta": 10.0,
                  "sigma_f": 1.0, "n_train_scenes": 20, "n_test_scenes": 20,
                  "seed": 7},
        "train": {"stage1_steps": 500, "stage2_steps": 200, "seed": 7},
    })
    world = generate_world(cfg.world)
    result = train(world, cfg.train)

    _, closed = run_protocol(cfg, world, result.net, FEWSHOT,
                             result.bank.get(BACKGROUND_ID))
    print(f"closed few-shot baseline: mAP {closed.mAP:.4f}")

    _, report = run_protocol(cfg, world, result.net, OPENSET,
                             result.bank.get(BACKGROUND_ID))
    print(f"open-set overall:         mAP {report.mAP:.4f}  mAR {report.mAR:.4f}")
    for label, row in sorted(report.extra_rows.items()):
        print(f"  {label:8s} mAP {row['mAP']:.4f}  mAR {row['mAR']:.4f}")

    recall50 = report.cells[(world.unknown_id, 0.5)]["ar"]
    print(f"unknown-class recall at IoU 0.50: {recall50:.4f}")


if __name__ == "__main__":
    main()
