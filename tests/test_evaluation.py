import itertools

import numpy as np
import pytest

from protodetect.evaluation import (IOU_THRESHOLDS, MAX_DETS, RECALL_GRID,
                                    average_precision, evaluate,
                                    evaluate_openset, match_at_threshold)
from protodetect.numeric import make_rng
from protodetect.simulator import iou

from helpers import boxes, make_detections, make_scene, scalar_iou


# --- independent oracles ----------------------------------------------------

def oracle_greedy_match(detections, gt_boxes, threshold):
    """Plain-loop re-derivation of greedy score-order matching over
    scalar IoUs."""
    taken = set()
    flags = []
    for box, _score in detections:
        candidates = [(scalar_iou(box, g), j) for j, g in enumerate(gt_boxes)
                      if j not in taken]
        candidates = [(v, j) for v, j in candidates if v >= threshold]
        if candidates:
            v, j = max(candidates, key=lambda t: (t[0], -t[1]))
            taken.add(j)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def oracle_ap(flags, n_gt):
    """Point-by-point PR-curve construction on the 101-recall grid."""
    if n_gt == 0:
        return None
    pts = []
    tp = fp = 0
    for f in flags:
        tp, fp = tp + bool(f), fp + (not f)
        pts.append((tp / n_gt, tp / (tp + fp)))
    interp = []
    for r in RECALL_GRID:
        best = 0.0
        for rec, prec in pts:
            if rec >= r and prec > best:
                best = prec
        interp.append(best)
    return float(np.sum(np.array(interp))) / len(RECALL_GRID)


# --- matching ---------------------------------------------------------------

def match(detections, gt_boxes, threshold):
    """match_at_threshold on [(box, score)] and [box], as flags."""
    ious = iou(boxes([b for b, _ in detections]), boxes(gt_boxes))
    return match_at_threshold(ious, threshold).tolist()


def test_match_perfect_single():
    flags = match([((0, 0, 2, 2), 0.9)], [(0, 0, 2, 2)], 0.5)
    assert flags == [True]


def test_match_second_detection_on_same_gt_is_fp():
    dets = [((0, 0, 2, 2), 0.9), ((0, 0, 2, 2), 0.5)]
    flags = match(dets, [(0, 0, 2, 2)], 0.5)
    assert flags == [True, False]


def test_match_respects_threshold():
    # IoU = 1/7 between these two boxes
    flags = match([((0, 0, 2, 2), 0.9)], [(1, 1, 3, 3)], 0.5)
    assert flags == [False]
    flags = match([((0, 0, 2, 2), 0.9)], [(1, 1, 3, 3)], 1.0 / 7.0)
    assert flags == [True]


def test_match_tie_takes_the_first_gt():
    # the first detection overlaps both GT boxes by IoU 1/3 and takes the
    # first; the second then finds only the other one, below threshold
    dets = [((0, 0, 10, 10), 0.9), ((6, 0, 16, 10), 0.8)]
    gts = [(5, 0, 15, 10), (0, 5, 10, 15)]
    ious = iou(boxes([b for b, _ in dets]), boxes(gts))
    assert ious[0, 0] == ious[0, 1]
    assert match(dets, gts, 0.3) == [True, False]
    assert match(dets, gts[::-1], 0.3) == [True, True]


def test_match_equals_loop_oracle_on_random_cases():
    rng = make_rng(0)
    for _ in range(300):
        n_det = int(rng.integers(0, 4))
        n_gt = int(rng.integers(0, 4))
        dets = []
        for i in range(n_det):
            x, y = rng.uniform(0, 8, size=2)
            w, h = rng.uniform(1, 6, size=2)
            dets.append(((x, y, x + w, y + h), 1.0 - i * 0.1))
        gts = []
        for _ in range(n_gt):
            x, y = rng.uniform(0, 8, size=2)
            w, h = rng.uniform(1, 6, size=2)
            gts.append((x, y, x + w, y + h))
        for t in (0.1, 0.5, 0.75):
            assert match(dets, gts, t) == oracle_greedy_match(dets, gts, t)


# --- average precision ------------------------------------------------------

def test_ap_all_tp():
    assert average_precision([True, True, True], 3) == 1.0


def test_ap_no_detections():
    assert average_precision([], 2) == 0.0


def test_ap_zero_gt_excluded():
    assert average_precision([True], 0) is None


def test_ap_hand_case_half():
    # 1 TP then 1 FP with 2 GT: precision 1 up to recall 0.5 -> 51/101
    ap = average_precision([True, False], 2)
    assert ap == 51.0 / 101.0


def test_ap_exhaustive_flag_sequences_match_oracle():
    for n in range(0, 4):
        for flags in itertools.product([True, False], repeat=n):
            for n_gt in range(0, 4):
                if sum(flags) > n_gt:
                    continue
                a = average_precision(list(flags), n_gt)
                b = oracle_ap(list(flags), n_gt)
                assert a == b, (flags, n_gt, a, b)


def test_ap_duplicate_lower_scored_detection_never_helps():
    base = [True, False, True]
    ap0 = average_precision(base, 3)
    ap1 = average_precision(base + [False], 3)  # duplicate comes last -> FP
    assert ap1 <= ap0


# --- evaluate ---------------------------------------------------------------

def one_gt_scene(cid=1):
    return make_scene(gt=[((0, 0, 10, 10), cid)])


def test_evaluate_perfect_detector():
    scenes = [one_gt_scene(), one_gt_scene(2)]
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9)]),
            make_detections([((0, 0, 10, 10), 2, 0.8)])]
    rep = evaluate(dets, scenes, [1, 2])
    assert rep.mAP == 1.0 and rep.mAR == 1.0


def test_evaluate_empty_detections():
    rep = evaluate([make_detections([])], [one_gt_scene()], [1])
    assert rep.mAP == 0.0 and rep.mAR == 0.0


def test_evaluate_shrunk_box_threshold_cells():
    # detection box covers exactly 0.6 of the GT -> TP at t <= 0.60
    dets = [make_detections([((0, 0, 6, 10), 1, 0.9)])]
    rep = evaluate(dets, [one_gt_scene()], [1])
    for t in IOU_THRESHOLDS:
        cell = rep.cells[(1, t)]
        expected = 1.0 if t <= 0.60 else 0.0
        assert cell["ap"] == expected and cell["ar"] == expected
    assert rep.mAP == pytest.approx(3.0 / 10.0)
    assert rep.mAR == pytest.approx(3.0 / 10.0)


def test_evaluate_input_order_invariant():
    scene = make_scene(gt=[((0, 0, 10, 10), 1), ((20, 20, 30, 30), 1)])
    d1 = ((0, 0, 10, 10), 1, 0.9)
    d2 = ((20, 20, 30, 30), 1, 0.4)
    d3 = ((40, 40, 50, 50), 1, 0.6)
    r1 = evaluate([make_detections([d1, d2, d3])], [scene], [1])
    r2 = evaluate([make_detections([d3, d2, d1])], [scene], [1])
    assert r1.cells == r2.cells and r1.mAP == r2.mAP


def test_evaluate_zero_gt_class_excluded_from_mean():
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9)])]
    rep = evaluate(dets, [one_gt_scene()], [1, 7])
    assert rep.n_gt[7] == 0
    assert (7, 0.5) not in rep.cells
    assert rep.mAP == 1.0


def test_evaluate_random_instances_match_oracle_pipeline():
    rng = make_rng(3)
    for _ in range(200):
        n_gt = int(rng.integers(0, 4))
        n_det = int(rng.integers(0, 4))
        gts = []
        for _ in range(n_gt):
            x, y = rng.uniform(0, 20, size=2)
            w, h = rng.uniform(2, 10, size=2)
            gts.append(((x, y, x + w, y + h), 1))
        scene = make_scene(gt=gts)
        dets = []
        for _ in range(n_det):
            x, y = rng.uniform(0, 20, size=2)
            w, h = rng.uniform(2, 10, size=2)
            dets.append(((x, y, x + w, y + h), 1, float(rng.uniform(0.1, 1.0))))
        rep = evaluate([make_detections(dets)], [scene], [1])
        if n_gt == 0:
            continue
        ordered = sorted(dets, key=lambda d: -d[2])
        for t in IOU_THRESHOLDS:
            flags = oracle_greedy_match([(box, score) for box, _, score in ordered],
                                        [b for b, _ in gts], t)
            assert rep.cells[(1, t)]["ap"] == oracle_ap(flags, n_gt)


def test_evaluate_openset_rows():
    scenes = [make_scene(gt=[((0, 0, 10, 10), 1), ((20, 20, 30, 30), 6)])]
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9),
                             ((20, 20, 30, 30), 99, 0.8)])]
    rep = evaluate_openset(dets, scenes, seen_ids=[1, 2], unknown_id=99,
                           unseen_ids=[6, 7])
    assert set(rep.extra_rows) == {"known", "unknown"}
    assert rep.extra_rows["known"]["mAP"] == 1.0
    assert rep.extra_rows["unknown"]["mAR"] == 1.0


def test_evaluate_caps_each_scene_at_max_dets_by_score():
    # 101 disjoint detections; GT lies under the lowest-scoring one (in
    # the middle of the list) and under the second-lowest: the cap drops
    # the lowest alone, so only the second-lowest can match
    scores = make_rng(4).permutation(MAX_DETS + 1) + 1.0
    low, second = np.argsort(scores)[:2]
    dets = [((20 * i, 0, 20 * i + 10, 10), 1, scores[i]) for i in range(MAX_DETS + 1)]
    assert 0 < low < MAX_DETS
    scene = make_scene(gt=[(dets[low][0], 1), (dets[second][0], 1)])
    rep = evaluate([make_detections(dets)], [scene], [1])
    assert MAX_DETS == 100 and rep.n_detections == 100
    assert rep.n_matches == 1 and rep.mAR == 0.5


def test_evaluate_mismatched_lengths():
    with pytest.raises(ValueError):
        evaluate([make_detections([])], [], [1])


def test_report_files(tmp_path):
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9)])]
    rep = evaluate(dets, [one_gt_scene()], [1])
    rep.save_csv(tmp_path / "r.csv", header={"config_digest": "x"})
    rep.save_json(tmp_path / "r.json")
    text = (tmp_path / "r.csv").read_text()
    assert "protocol,class,iou_threshold,ap,ar" in text
    assert "aggregate" in text
    import json
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["mAP"] == 1.0
