"""COCO-style detection metrics: AP/AR per class over IoU thresholds
0.50:0.05:0.95, 101-point interpolated precision, maxDets=100.

Each scene is scored once: one IoU matrix of its detections (capped at
MAX_DETS by score) against every GT box, zeroed where the classes
differ, and one greedy pass (`match_at_threshold`) at all thresholds.
Detections in descending score order (ties stable by input order) each
take the highest-IoU unmatched GT box of their class at or above the
threshold; every GT box is matched at most once. Classes with zero
ground truth have no cells and are excluded from the means.
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
    """TP flags (n_det, T) of one scene's score-sorted detections, given
    their IoU matrix (n_det, n_gt) against its GT boxes. In column t each
    detection takes the first unmatched GT box of maximal IoU, if that
    IoU is positive and at least thresholds[t].
    """
    t = np.asarray(thresholds, dtype=np.float64)
    n_det, n_gt = ious.shape
    flags = np.zeros((n_det, len(t)), dtype=bool)
    if n_gt == 0:
        return flags
    cols, unmatched = np.arange(len(t)), np.ones((len(t), n_gt), dtype=bool)
    for i in range(n_det):
        rows = np.where(unmatched, ious[i], 0.0)
        j = np.argmax(rows, axis=1)
        best = rows[cols, j]
        hit = flags[i] = (best > 0.0) & (best >= t)
        unmatched[cols[hit], j[hit]] = False
    return flags


def average_precision(flags, n_gt):
    """101-point interpolated AP from ordered TP/FP flags.

    Returns None when n_gt == 0 (cell excluded from aggregation).
    """
    if n_gt == 0:
        return None
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0 or not flags.any():
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope: running max from the right
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    # interpolated precision at each grid recall: max precision among
    # points with recall >= r, 0 beyond the achieved recall
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    interp = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(np.sum(interp)) / len(RECALL_GRID)


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
        with open(path, "w") as f:
            json.dump(doc, f, sort_keys=True)

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


def evaluate(per_scene_detections, scenes, eval_class_ids, protocol="fewshot",
             gt_label_map=None):
    """Score detections against scene ground truth.

    per_scene_detections: list (parallel to scenes) of Detections.
    gt_label_map: optional relabeling of a scene's GT label array (open
    set maps unseen classes to the unknown id). GT outside
    eval_class_ids is not scored; detections on it count as FP.
    """
    if len(per_scene_detections) != len(scenes):
        raise ValueError("detections and scenes are not parallel")
    # per scene: the kept detections' class ids, scores and flags (n, T),
    # and the GT labels; the empty first part lets no scenes concatenate
    parts = [(np.empty(0, dtype=np.int64), np.empty(0),
              np.empty((0, len(IOU_THRESHOLDS)), dtype=bool), np.empty(0, dtype=np.int64))]
    for dets, scene in zip(per_scene_detections, scenes):
        keep = np.argsort(-dets.scores, kind="stable")[:MAX_DETS]
        labels = scene.labels if gt_label_map is None else gt_label_map(scene.labels)
        ious = iou(dets.boxes[keep], scene.gt)
        ious[dets.class_ids[keep][:, None] != labels] = 0.0
        parts.append((dets.class_ids[keep], dets.scores[keep],
                      match_at_threshold(ious, IOU_THRESHOLDS), labels))
    ids, scores, flags, gt_labels = (np.concatenate(p) for p in zip(*parts))

    report = EvalReport(protocol=protocol, n_detections=len(scores))
    eval_ids = sorted(set(int(c) for c in eval_class_ids))
    for cid in eval_ids:
        n_gt = int(np.count_nonzero(gt_labels == cid))
        report.n_gt[cid] = n_gt
        if n_gt == 0:
            continue
        # the class's detections by descending score; ties by scene, then rank
        mine = ids == cid
        hits = flags[mine][np.argsort(-scores[mine], kind="stable")]
        for t, col in zip(IOU_THRESHOLDS, hits.T):
            report.cells[(cid, t)] = {"ap": average_precision(col, n_gt),
                                      "ar": int(col.sum()) / n_gt}
        report.n_matches += int(hits[:, 0].sum())
    report.mAP = report.class_mean(eval_ids, "ap")
    report.mAR = report.class_mean(eval_ids, "ar")
    return report


def evaluate_openset(per_scene_detections, scenes, seen_ids, unknown_id,
                     unseen_ids):
    """Open-set report: all unseen GT collapses to the unknown class;
    adds separate Known / Unknown aggregate rows."""
    def relabel(labels):
        return np.where(np.isin(labels, list(unseen_ids)), unknown_id, labels)

    report = evaluate(per_scene_detections, scenes,
                      list(seen_ids) + [unknown_id], protocol="openset",
                      gt_label_map=relabel)
    report.extra_rows = {
        "known": {"mAP": report.class_mean(seen_ids, "ap"),
                  "mAR": report.class_mean(seen_ids, "ar")},
        "unknown": {"mAP": report.class_mean([unknown_id], "ap"),
                    "mAR": report.class_mean([unknown_id], "ar")},
    }
    return report
