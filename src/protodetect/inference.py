"""Test-time pipeline: embed proposals, assign each to its nearest
prototype, reject background, assemble protocol-specific prototype banks.

One table, `PROTOCOLS`, decides everything a mode changes: the support
sets whose classes form the bank, the set whose classes are scored,
and whether the mode is open. An open bank adds one unknown prototype,
the mean of the bank's prototypes (p0 included), under the world's
unknown id, and `evaluation.evaluate` scores every GT class outside the
scored set as that one class. No other module decides anything by mode.

`detect_scenes` embeds the proposals of every scene of a split in one
pass, over a view of its feature block. A
proposal goes to its nearest prototype (`prototypes.nearest_prototype`,
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
# classes are scored, open: the bank adds a composed unknown prototype)
PROTOCOLS = {
    FEWSHOT: ((SEEN,), SEEN, False),
    OPENSET: ((SEEN,), SEEN, True),
    ZS_UO: ((UNSEEN,), UNSEEN, False),
    ZS_MPU: ((SEEN, UNSEEN), UNSEEN, False),
    ZS_MPS: ((SEEN, UNSEEN), SEEN, False),
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


def detect_scene(scene, emb, bank):
    """Keep the proposals of `scene` whose nearest prototype is not p0,
    which every bank `assemble_protocol` builds holds; emb holds the
    embedding of each proposal, row-aligned with scene.proposals.

    FloatingPointError, from `nearest_prototype`, when an embedding is
    not finite.
    """
    ids, scores = nearest_prototype(emb, bank)
    keep = ids != BACKGROUND_ID
    return Detections(scene.proposals[keep], ids[keep], scores[keep])


def detect_scenes(split, net, bank):
    """`detect_scene` of every scene of `split` (a `simulator.Split`), in
    order, from one `EmbeddingNet.embed` of its (S, P, d) feature block
    viewed as S P rows. The block is float32, as a dataset stores it and
    a trained net reads it, so embed copies no row; a float64 net casts
    each block of rows. The posteriors stay per scene: one Q P^T product
    over every row would block the float64 product otherwise and move
    scores in their last bits."""
    S, P, d = split.features.shape
    emb = net.embed(split.features.reshape(S * P, d)).reshape(S, P, net.out_dim)
    return [detect_scene(s, e, bank) for s, e in zip(split.scenes, emb)]


def assemble_protocol(mode, world, net, p0):
    """(bank, scored class ids, unknown id) of one protocol on `world`,
    with frozen parameters.

    The bank holds p0 and the class prototypes of the world's support
    sets that the mode's `PROTOCOLS` row names; the scored ids are
    those of the row's scored set. An open mode adds the composed
    unknown prototype under `world.unknown_id` and returns that id;
    every other mode returns None. ValueError when the mode is open or
    banks the unseen set and the world has no unseen support; KeyError
    for a mode with no row; FloatingPointError when a prototype is not
    finite.
    """
    in_bank, scored, is_open = PROTOCOLS[mode]
    # an open mode scores the unseen classes as its unknown
    if (is_open or UNSEEN in in_bank) and not world.support_unseen:
        raise ValueError(f"mode {mode} requires unseen support classes")
    sets = (world.support_seen, world.support_unseen)
    merged = {c: rows for i in in_bank for c, rows in sets[i].items()}
    bank = build_prototypes(net, SupportSet(merged)).with_entry(BACKGROUND_ID, p0)
    unknown_id = world.unknown_id if is_open else None
    if is_open:
        bank = bank.with_entry(unknown_id, compose_unknown_prototype(bank))
    if not np.isfinite(bank.P).all():
        raise FloatingPointError("non-finite embeddings")
    return bank, sorted(sets[scored]), unknown_id


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
    # json.dumps takes the C encoder; json.dump to a file never does
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True))
