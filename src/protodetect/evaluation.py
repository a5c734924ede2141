"""COCO-style detection metrics: AP/AR per class over IoU thresholds
0.50:0.05:0.95, 101-point interpolated precision, maxDets=100.

Matching is greedy per scene: detections in descending score order
(ties stable by input order) each take the highest-IoU unmatched
ground-truth box of their class at or above the threshold; every GT
box is matched at most once. The IoU matrix of each scene and class
is computed once and reused across the thresholds. Classes with zero
ground truth are excluded from the means.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .simulator import iou

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)
MAX_DETS = 100


def match_at_threshold(ious, threshold):
    """TP/FP flags (n_det,) for the score-sorted detections of one class
    in one scene, given their IoU matrix (n_det, n_gt) against its GT
    boxes (`simulator.iou`). Each detection takes the first unmatched GT
    box of maximal IoU, if that IoU is positive and at least threshold.
    """
    n_det, n_gt = ious.shape
    flags = np.zeros(n_det, dtype=bool)
    if n_gt == 0:
        return flags
    unmatched = np.ones(n_gt, dtype=bool)
    for i in range(n_det):
        row = np.where(unmatched, ious[i], 0.0)
        j = int(np.argmax(row))
        if row[j] > 0.0 and row[j] >= threshold:
            unmatched[j] = False
            flags[i] = True
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
    gt_label_map: optional relabeling of a scene's GT label array,
    applied before filtering (open-set maps unseen classes to the
    unknown id). GT outside eval_class_ids is dropped; detections on it
    count as FP.
    """
    if len(per_scene_detections) != len(scenes):
        raise ValueError("detections and scenes are not parallel")
    eval_ids = sorted(set(int(c) for c in eval_class_ids))

    # cap per scene at MAX_DETS by score (stable), highest first
    capped = []
    for dets in per_scene_detections:
        order = np.argsort(-dets.scores, kind="stable")[:MAX_DETS]
        capped.append((dets.boxes[order], dets.class_ids[order], dets.scores[order]))
    gt_labels = [s.labels if gt_label_map is None else gt_label_map(s.labels)
                 for s in scenes]

    report = EvalReport(protocol=protocol)
    report.n_detections = sum(len(scores) for _, _, scores in capped)

    for cid in eval_ids:
        # one IoU matrix per scene, shared by every threshold
        ious, scores = [], []
        for (boxes, ids, det_scores), scene, labels in zip(capped, scenes, gt_labels):
            mine = ids == cid
            ious.append(iou(boxes[mine], scene.gt[labels == cid]))
            scores.append(det_scores[mine])
        n_gt = sum(m.shape[1] for m in ious)
        report.n_gt[cid] = n_gt
        if n_gt == 0:
            continue
        # the class's detections by descending score; ties by scene, then rank
        order = np.argsort(-np.concatenate(scores), kind="stable")
        for t in IOU_THRESHOLDS:
            flags = np.concatenate([match_at_threshold(m, t) for m in ious])[order]
            n_tp = int(flags.sum())
            report.cells[(cid, t)] = {"ap": average_precision(flags, n_gt),
                                      "ar": n_tp / n_gt}
            if t == IOU_THRESHOLDS[0]:
                report.n_matches += n_tp

    with_gt = [c for c in eval_ids if report.n_gt.get(c, 0) > 0]
    report.mAP = report.class_mean(with_gt, "ap")
    report.mAR = report.class_mean(with_gt, "ar")
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
    known_with_gt = [c for c in seen_ids if report.n_gt.get(c, 0) > 0]
    report.extra_rows = {
        "known": {"mAP": report.class_mean(known_with_gt, "ap"),
                  "mAR": report.class_mean(known_with_gt, "ar")},
        "unknown": {"mAP": report.class_mean([unknown_id], "ap"),
                    "mAR": report.class_mean([unknown_id], "ar")},
    }
    return report
