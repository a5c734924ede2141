"""Test-time pipeline: embed proposals, classify by prototype distance,
reject background, assemble protocol-specific prototype banks.

A proposal whose nearest prototype is the background one is dropped
as a spurious detection; everything else is scored with its energy
posterior over the full bank (background included in the
normalization, so scores are calibrated against it).
"""

import json
from dataclasses import dataclass

import numpy as np

from .prototypes import (BACKGROUND_ID, PrototypeBank, build_prototypes,
                         compose_unknown_prototype, posteriors_batch)

REJECT = "reject"

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


def classify_proposal(q, bank):
    """(class_id, score) or (REJECT, score); ties go to the lowest id.

    Requires the background prototype in the bank.
    """
    if not bank.has(BACKGROUND_ID):
        raise ValueError("bank is missing the background prototype")
    probs = posteriors_batch(np.asarray(q, dtype=np.float64)[None, :], bank)[0]
    d = ((bank.P - np.asarray(q, dtype=np.float64)) ** 2).sum(axis=1)
    best = int(np.argmin(d))  # ids ascend, argmin takes the first minimum
    cid = bank.ids[best]
    score = float(probs[best])
    if cid == BACKGROUND_ID:
        return REJECT, score
    return cid, score


def detect_scene(scene, net, bank):
    """Embed every proposal and keep the non-rejected classifications."""
    if not scene.proposals:
        return []
    X = np.stack([f for _, f in scene.proposals])
    Q, _ = net.forward_batch(X)
    probs = posteriors_batch(Q, bank)
    d = ((Q[:, None, :] - bank.P[None, :, :]) ** 2).sum(axis=2)
    best = np.argmin(d, axis=1)
    out = []
    for i, (box, _) in enumerate(scene.proposals):
        cid = bank.ids[int(best[i])]
        if cid == BACKGROUND_ID:
            continue
        out.append(Detection(box=box, class_id=cid, score=float(probs[i, best[i]])))
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
        from .prototypes import SupportSet
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
