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
class Detections:
    """One scene's detections, row-aligned: boxes (n, 4), class ids (n,)
    and scores (n,)."""
    boxes: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray

    def __len__(self):
        return len(self.scores)


@dataclass
class ProtocolSpec:
    mode: str
    unknown_id: int = None                 # reserved id for the composed prototype
    unknown_includes_background: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == OPENSET and self.unknown_id is None:
            raise ValueError("openset needs an unknown_id")


def detect_scene(scene, net, bank):
    """Embed every proposal; keep those whose nearest prototype is not p0.

    FloatingPointError, from `posteriors_batch`, when an embedding is
    not finite.
    """
    if not bank.has(BACKGROUND_ID):
        raise ValueError("bank is missing the background prototype")
    ids = np.asarray(bank.ids)
    if not len(scene.proposals):
        return Detections(scene.proposals, ids[:0], np.empty(0))
    Q, _ = net.forward_batch(scene.features)
    probs = posteriors_batch(Q, bank)
    best = np.argmax(probs, axis=1)
    keep = ids[best] != BACKGROUND_ID
    return Detections(scene.proposals[keep], ids[best[keep]],
                      probs[np.arange(len(best)), best][keep])


def assemble_protocol(spec, seen_support, unseen_support, net, p0):
    """Frozen-parameter bank + evaluation class set for one protocol.

    fewshot: seen prototypes, eval on seen. zs-uo: unseen only, eval
    unseen. zs-mpu / zs-mps: seen+unseen prototypes, eval on unseen /
    seen. openset: seen prototypes plus a composed unknown prototype;
    unknowns are evaluated as one class under spec.unknown_id.
    FloatingPointError when a prototype is not finite.
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
        bank = bank.with_entry(spec.unknown_id, unk)
        eval_ids = list(seen_support.class_ids) + [spec.unknown_id]
    if not np.isfinite(bank.P).all():
        raise FloatingPointError("non-finite embeddings")
    return bank, eval_ids


def detections_to_dict(per_scene):
    """per_scene: list of Detections, indexed by scene id."""
    return [
        {"scene_id": i,
         "detections": [{"box": box, "class_id": cid, "score": score}
                        for box, cid, score in zip(dets.boxes.tolist(),
                                                   dets.class_ids.tolist(),
                                                   dets.scores.tolist())]}
        for i, dets in enumerate(per_scene)
    ]


def save_detections(path, per_scene, header=None):
    doc = {"format": "protodetect-detections-v1", "scenes": detections_to_dict(per_scene)}
    if header:
        doc["provenance"] = header
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
