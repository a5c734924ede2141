"""Test-time pipeline: embed proposals, assign each to its nearest
prototype, reject background, assemble protocol-specific prototype banks.

A proposal goes to the argmax of its `prototypes.posteriors_batch` row
(the nearest prototype, lowest id on ties). One assigned to the
background prototype is dropped as a spurious detection; everything
else is scored with that posterior over the full bank (background
included in the normalization, so scores are calibrated against it).
"""

import json
from dataclasses import dataclass

import numpy as np

from .prototypes import (BACKGROUND_ID, SupportSet, build_prototypes,
                         compose_unknown_prototype, posteriors_batch)

FEWSHOT = "fewshot"
OPENSET = "openset"
ZS_UO = "zs-uo"
ZS_MPU = "zs-mpu"
ZS_MPS = "zs-mps"
MODES = (FEWSHOT, OPENSET, ZS_UO, ZS_MPU, ZS_MPS)


@dataclass(frozen=True)
class Detection:
    box: object
    class_id: int
    score: float


@dataclass
class ProtocolSpec:
    mode: str
    unknown_id: int = None                 # reserved id for the composed prototype
    unknown_includes_background: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def detect_scene(scene, net, bank):
    """Embed every proposal; keep those whose nearest prototype is not p0."""
    if not bank.has(BACKGROUND_ID):
        raise ValueError("bank is missing the background prototype")
    if not scene.proposals:
        return []
    Q, _ = net.forward_batch(np.stack([f for _, f in scene.proposals]))
    probs = posteriors_batch(Q, bank)
    best = np.argmax(probs, axis=1)
    out = []
    for (box, _), j, row in zip(scene.proposals, best, probs):
        cid = bank.ids[j]
        if cid != BACKGROUND_ID:
            out.append(Detection(box=box, class_id=cid, score=float(row[j])))
    return out


def assemble_protocol(spec, seen_support, unseen_support, net, p0):
    """Frozen-parameter bank + evaluation class set for one protocol.

    fewshot: seen prototypes, eval on seen. zs-uo: unseen only, eval
    unseen. zs-mpu / zs-mps: seen+unseen prototypes, eval on unseen /
    seen. openset: seen prototypes plus a composed unknown prototype;
    unknowns are evaluated as one class under spec.unknown_id.
    """
    def bank_from(support_sets):
        merged = {}
        for s in support_sets:
            if s is None:
                raise ValueError("missing support set for requested mode")
            merged.update(s.by_class)
        bank = build_prototypes(net, SupportSet(merged))
        return bank.with_entry(BACKGROUND_ID, p0)

    if spec.mode == FEWSHOT:
        bank = bank_from([seen_support])
        eval_ids = list(seen_support.class_ids)
    elif spec.mode == ZS_UO:
        bank = bank_from([unseen_support])
        eval_ids = list(unseen_support.class_ids)
    elif spec.mode == ZS_MPU:
        bank = bank_from([seen_support, unseen_support])
        eval_ids = list(unseen_support.class_ids)
    elif spec.mode == ZS_MPS:
        bank = bank_from([seen_support, unseen_support])
        eval_ids = list(seen_support.class_ids)
    else:  # OPENSET
        bank = bank_from([seen_support])
        unk = compose_unknown_prototype(bank, spec.unknown_includes_background)
        unknown_id = spec.unknown_id
        if unknown_id is None:
            unknown_id = max(bank.ids) + 1
        bank = bank.with_entry(unknown_id, unk)
        eval_ids = list(seen_support.class_ids) + [unknown_id]
    return bank, eval_ids


def detections_to_dict(per_scene):
    """per_scene: list of detection lists, indexed by scene id."""
    return [
        {"scene_id": i,
         "detections": [{"box": d.box.to_list(), "class_id": d.class_id,
                         "score": d.score} for d in dets]}
        for i, dets in enumerate(per_scene)
    ]


def save_detections(path, per_scene, header=None):
    doc = {"format": "protodetect-detections-v1", "scenes": detections_to_dict(per_scene)}
    if header:
        doc["provenance"] = header
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
