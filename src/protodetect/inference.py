"""Test-time pipeline: embed proposals, assign each to its nearest
prototype, reject background, assemble protocol-specific prototype banks.

One table, `PROTOCOLS`, defines the five protocols: for each mode, the
support sets whose classes form the bank and the set whose classes are
evaluated. The open-set bank adds one unknown prototype, the mean of
the bank's prototypes (p0 included).

A proposal goes to its nearest prototype (`prototypes.nearest_prototype`,
lowest id on ties). One assigned to the background prototype is
dropped as a spurious detection; everything else is scored with that
posterior over the full bank (background included in the
normalization, so scores are calibrated against it).
"""

import json
from dataclasses import dataclass

import numpy as np

from .prototypes import (BACKGROUND_ID, SupportSet, build_prototypes,
                         compose_unknown_prototype, nearest_prototype)

FEWSHOT = "fewshot"
OPENSET = "openset"
ZS_UO = "zs-uo"
ZS_MPU = "zs-mpu"
ZS_MPS = "zs-mps"
SEEN, UNSEEN = 0, 1
# mode -> (the support sets whose classes form the bank, the set whose
# classes are evaluated); openset adds a composed unknown prototype
PROTOCOLS = {
    FEWSHOT: ((SEEN,), SEEN),
    OPENSET: ((SEEN,), SEEN),
    ZS_UO: ((UNSEEN,), UNSEEN),
    ZS_MPU: ((SEEN, UNSEEN), UNSEEN),
    ZS_MPS: ((SEEN, UNSEEN), SEEN),
}
MODES = tuple(PROTOCOLS)


@dataclass(frozen=True)
class Detections:
    """One scene's detections, row-aligned: boxes (n, 4), class ids (n,)
    and scores (n,)."""
    boxes: np.ndarray
    class_ids: np.ndarray
    scores: np.ndarray

    def __len__(self):
        return len(self.scores)


def detect_scene(scene, net, bank):
    """Embed every proposal; keep those whose nearest prototype is not p0.

    FloatingPointError, from `nearest_prototype`, when an embedding is
    not finite.
    """
    if not bank.has(BACKGROUND_ID):
        raise ValueError("bank is missing the background prototype")
    ids, scores = nearest_prototype(net.forward_batch(scene.features)[0], bank)
    keep = ids != BACKGROUND_ID
    return Detections(scene.proposals[keep], ids[keep], scores[keep])


def assemble_protocol(mode, seen_support, unseen_support, net, p0, unknown_id=None):
    """Frozen-parameter bank + evaluation class set for one protocol.

    The bank holds p0 and the class prototypes of the support sets
    that the mode's `PROTOCOLS` row names; the evaluated classes are
    those of the row's evaluated set. openset adds the composed unknown
    prototype under unknown_id, and its unknowns are evaluated as that
    one class. KeyError for a mode with no row; FloatingPointError when
    a prototype is not finite.
    """
    in_bank, evaluated = PROTOCOLS[mode]
    if mode == OPENSET and unknown_id is None:
        raise ValueError("openset needs an unknown_id")
    sets = (seen_support, unseen_support)
    merged = {}
    for i in in_bank:
        if sets[i] is None:
            raise ValueError("missing support set for requested mode")
        merged.update(sets[i].by_class)
    bank = build_prototypes(net, SupportSet(merged)).with_entry(BACKGROUND_ID, p0)
    eval_ids = list(sets[evaluated].class_ids)
    if mode == OPENSET:
        bank = bank.with_entry(unknown_id, compose_unknown_prototype(bank))
        eval_ids.append(unknown_id)
    if not np.isfinite(bank.P).all():
        raise FloatingPointError("non-finite embeddings")
    return bank, eval_ids


def save_detections(path, per_scene, header=None):
    """Write per_scene, a list of Detections indexed by scene id, as JSON."""
    scenes = [{"scene_id": i,
               "detections": [{"box": box, "class_id": cid, "score": score}
                              for box, cid, score in zip(dets.boxes.tolist(),
                                                         dets.class_ids.tolist(),
                                                         dets.scores.tolist())]}
              for i, dets in enumerate(per_scene)]
    doc = {"format": "protodetect-detections-v1", "scenes": scenes}
    if header:
        doc["provenance"] = header
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
