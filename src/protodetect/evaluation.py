"""COCO-style detection metrics: AP/AR per class over IoU thresholds
0.50:0.05:0.95, 101-point interpolated precision, maxDets=100.

A report is scored in one pass over all its scenes: one stacked IoU
array of every scene's detections (capped at MAX_DETS by score)
against its GT boxes, padded to the largest counts and zeroed where
the classes differ, and one greedy pass (`match_at_threshold`) over
every scene at all thresholds at once. Detections in descending score
order (ties stable by input order) each take the highest-IoU unmatched
GT box of their class at or above the threshold; every GT box is
matched at most once. Each class then gets one `average_precision`
call for all thresholds. Classes with zero ground truth have no cells
and are excluded from the means.

An open-set report takes the unknown id: every GT box whose class is
not scored is relabelled to it, the unknown class is scored as one
more class, and the report adds known and unknown rows.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .simulator import iou

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)
MAX_DETS = 100


def match_at_threshold(ious, thresholds):
    """TP flags (scenes, n_det, T) of every scene's score-sorted
    detections, given their stacked IoU matrices (scenes, n_det, n_gt)
    against the scenes' GT boxes. In column t each detection takes the
    first unmatched GT box of maximal IoU, if that IoU is positive and
    at least thresholds[t]. The loop runs over detection rank, holding every
    scene's unmatched boxes at every threshold as one (scenes, T, n_gt)
    array.
    """
    t = np.asarray(thresholds, dtype=np.float64)
    n_scenes, n_det, n_gt = ious.shape
    flags = np.zeros((n_scenes, n_det, len(t)), dtype=bool)
    if n_gt:
        unmatched = np.ones((n_scenes, len(t), n_gt), dtype=bool)
        for i in range(n_det):
            rows = np.where(unmatched, ious[:, i, None, :], 0.0)
            j = np.argmax(rows, axis=2)
            best = np.take_along_axis(rows, j[..., None], axis=2)[..., 0]
            hit = flags[:, i] = (best > 0.0) & (best >= t)
            scene, col = np.nonzero(hit)
            unmatched[scene, col, j[scene, col]] = False
    return flags


def average_precision(flags, n_gt):
    """101-point interpolated AP of each column of ordered TP/FP flags
    (n, T), a boolean array, as a list of T, for n_gt >= 1 GT boxes."""
    if len(flags) == 0:
        aps = [0.0] * flags.shape[1]
    else:
        tp = np.cumsum(flags, axis=0)
        fp = np.cumsum(~flags, axis=0)
        recall = tp / n_gt
        precision = tp / (tp + fp)
        # precision envelope: running max from the right
        envelope = np.maximum.accumulate(precision[::-1], axis=0)[::-1]
        # interpolated precision at each grid recall: max precision among
        # points with recall >= r, 0 beyond the achieved recall; each
        # column's 101 values are summed as one contiguous 1-D array
        aps = []
        for rec, env in zip(recall.T, envelope.T):
            idx = np.searchsorted(rec, RECALL_GRID, side="left")
            interp = np.where(idx < len(env), env[np.minimum(idx, len(env) - 1)], 0.0)
            aps.append(float(np.sum(interp)) / len(RECALL_GRID))
    return aps


@dataclass
class EvalReport:
    protocol: str
    cells: dict = field(default_factory=dict)   # (class_id, threshold) -> {"ap","ar"}
    n_gt: dict = field(default_factory=dict)    # class_id -> gt count
    n_detections: int = 0
    n_matches: int = 0
    mAP: float = 0.0
    mAR: float = 0.0
    extra_rows: dict = field(default_factory=dict)  # label -> {"mAP","mAR"}

    def class_mean(self, class_ids, metric):
        vals = [self.cells[(c, t)][metric] for c in class_ids for t in IOU_THRESHOLDS
                if (c, t) in self.cells]
        return float(np.mean(vals)) if vals else 0.0

    def to_dict(self):
        return {
            "protocol": self.protocol,
            "mAP": self.mAP, "mAR": self.mAR,
            "per_cell": [{"class": c, "iou_threshold": t,
                          "ap": v["ap"], "ar": v["ar"]}
                         for (c, t), v in sorted(self.cells.items())],
            "gt_counts": {str(c): n for c, n in sorted(self.n_gt.items())},
            "n_detections": self.n_detections,
            "n_matches": self.n_matches,
            "extra_rows": self.extra_rows,
        }

    def save_json(self, path, header=None):
        doc = self.to_dict()
        if header:
            doc["provenance"] = header
        # json.dumps takes the C encoder; json.dump to a file never does
        with open(path, "w") as f:
            f.write(json.dumps(doc, sort_keys=True))

    def save_csv(self, path, header=None):
        with open(path, "w", newline="") as f:
            if header:
                f.write("# " + json.dumps(header, sort_keys=True) + "\n")
            w = csv.writer(f)
            w.writerow(["protocol", "class", "iou_threshold", "ap", "ar"])
            for (c, t), v in sorted(self.cells.items()):
                w.writerow([self.protocol, c, t, repr(v["ap"]), repr(v["ar"])])
            w.writerow([self.protocol, "aggregate", "0.50:0.95",
                        repr(self.mAP), repr(self.mAR)])
            for label, row in sorted(self.extra_rows.items()):
                w.writerow([self.protocol, label, "0.50:0.95",
                            repr(row["mAP"]), repr(row["mAR"])])


def _padded(rows, counts, width, fill):
    """Scene-major rows, counts[s] of them for scene s, as one
    (scenes, width, ...) array filled with fill past each count."""
    out = np.full((len(counts), width) + rows.shape[1:], fill, dtype=rows.dtype)
    out[np.arange(width) < counts[:, None]] = rows
    return out


def evaluate(per_scene_detections, scenes, eval_class_ids, protocol, unknown_id=None):
    """Score detections against scene ground truth.

    per_scene_detections: list (parallel to scenes) of Detections.
    GT outside eval_class_ids is not scored, and detections on it count
    as FP, unless unknown_id is given: then that GT is relabelled
    unknown_id and scored as one more class, and extra_rows holds the
    known (eval_class_ids) and unknown means.
    """
    if len(per_scene_detections) != len(scenes):
        raise ValueError("detections and scenes are not parallel")
    # per scene: the kept detections' boxes, class ids and scores by
    # rank, and the GT boxes and labels; the empty first part lets no
    # scenes concatenate
    parts = [(np.empty((0, 4)), np.empty(0, dtype=np.int64), np.empty(0),
              np.empty((0, 4)), np.empty(0, dtype=np.int64))]
    for dets, scene in zip(per_scene_detections, scenes):
        keep = np.argsort(-dets.scores, kind="stable")[:MAX_DETS]
        parts.append((dets.boxes[keep], dets.class_ids[keep], dets.scores[keep],
                      scene.gt, scene.labels))
    n_kept = np.array([len(p[2]) for p in parts[1:]], dtype=np.int64)
    n_gt = np.array([len(p[4]) for p in parts[1:]], dtype=np.int64)
    det_boxes, ids, scores, gt_boxes, labels = (np.concatenate(p) for p in zip(*parts))
    known = sorted(set(int(c) for c in eval_class_ids))
    eval_ids = known
    if unknown_id is not None:
        labels = np.where(np.isin(labels, known), labels, unknown_id)
        eval_ids = sorted(set(known) | {unknown_id})
    # one (scenes, R, G) IoU stack, R and G the largest per-scene counts;
    # padded detections take class -2 and padded GT label -1, so the
    # class mask zeroes every padded entry
    width, depth = int(n_kept.max(initial=0)), int(n_gt.max(initial=0))
    det_ids = _padded(ids, n_kept, width, -2)
    gt_labels = _padded(labels, n_gt, depth, -1)
    ious = iou(_padded(det_boxes, n_kept, width, 0.0), _padded(gt_boxes, n_gt, depth, 0.0))
    ious[det_ids[:, :, None] != gt_labels[:, None, :]] = 0.0
    # the kept detections' flags (n, T), in scene, then rank order
    flags = match_at_threshold(ious, IOU_THRESHOLDS)[np.arange(width) < n_kept[:, None]]

    report = EvalReport(protocol=protocol, n_detections=len(scores))
    for cid in eval_ids:
        n = int(np.count_nonzero(labels == cid))
        report.n_gt[cid] = n
        if n == 0:
            continue
        # the class's detections by descending score; ties by scene, then rank
        mine = ids == cid
        hits = flags[mine][np.argsort(-scores[mine], kind="stable")]
        for t, ap, tp in zip(IOU_THRESHOLDS, average_precision(hits, n),
                             hits.sum(axis=0).tolist()):
            report.cells[(cid, t)] = {"ap": ap, "ar": tp / n}
        report.n_matches += int(hits[:, 0].sum())
    report.mAP = report.class_mean(eval_ids, "ap")
    report.mAR = report.class_mean(eval_ids, "ar")
    if unknown_id is not None:
        report.extra_rows = {
            "known": {"mAP": report.class_mean(known, "ap"),
                      "mAR": report.class_mean(known, "ar")},
            "unknown": {"mAP": report.class_mean([unknown_id], "ap"),
                        "mAR": report.class_mean([unknown_id], "ar")},
        }
    return report
