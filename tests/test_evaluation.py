import itertools

import numpy as np
import pytest

from protodetect import evaluation
from protodetect.evaluation import (IOU_THRESHOLDS, MAX_DETS, RECALL_GRID,
                                    average_precision, evaluate, match_at_threshold)
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
    """match_at_threshold on one scene of [(box, score)] and [box] at
    one threshold, as flags."""
    ious = iou(boxes([b for b, _ in detections]), boxes(gt_boxes))
    return match_at_threshold(ious[None], [threshold])[0, :, 0].tolist()


def ap(flags, n_gt):
    """average_precision of one column of flags."""
    return average_precision(np.asarray(flags, dtype=bool).reshape(-1, 1), n_gt)[0]


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
        # every threshold in one call; each column is its own greedy pass
        thresholds = (0.1, 0.5, 0.75) + IOU_THRESHOLDS
        ious = iou(boxes([b for b, _ in dets]), boxes(gts))
        flags = match_at_threshold(ious[None], thresholds)[0]
        assert flags.shape == (n_det, len(thresholds))
        for k, t in enumerate(thresholds):
            assert flags[:, k].tolist() == oracle_greedy_match(dets, gts, t)


def test_match_stack_equals_per_scene_calls():
    # a (scenes, R, G) stack, each scene's matrix padded with zero rows
    # and columns to the largest counts, gives each scene's own flags,
    # and no flag on a padded row; IoUs come from a few levels, so ties
    # within a row and values on a threshold are common
    rng = make_rng(5)
    levels = np.array([0.0, 0.0, 0.3, 0.5, 0.55, 0.7, 0.75, 0.95, 1.0])
    for _ in range(50):
        n_scenes = int(rng.integers(1, 7))
        shapes = [(int(rng.integers(0, 9)), int(rng.integers(0, 5))) for _ in range(n_scenes)]
        width, depth = max(r for r, _ in shapes), max(g for _, g in shapes)
        stack = np.zeros((n_scenes, width, depth))
        mats = []
        for s, (r, g) in enumerate(shapes):
            mats.append(rng.choice(levels, size=(r, g)))
            stack[s, :r, :g] = mats[-1]
        flags = match_at_threshold(stack, IOU_THRESHOLDS)
        assert flags.shape == (n_scenes, width, len(IOU_THRESHOLDS))
        for s, m in enumerate(mats):
            assert np.array_equal(flags[s, :len(m)],
                                  match_at_threshold(m[None], IOU_THRESHOLDS)[0])
            assert not flags[s, len(m):].any()


# --- average precision ------------------------------------------------------

def test_ap_all_tp():
    assert ap([True, True, True], 3) == 1.0


def test_ap_no_detections():
    assert ap([], 2) == 0.0


def test_ap_zero_gt_excluded():
    # a class with no GT box gets no cells and stays out of the means;
    # its detections count only toward n_detections
    scene = make_scene(gt=[((0, 0, 2, 2), 1)])
    dets = make_detections([((0, 0, 2, 2), 1, 0.9), ((5, 5, 7, 7), 2, 0.8)])
    rep = evaluate([dets], [scene], [1, 2], "fewshot")
    assert rep.n_gt == {1: 1, 2: 0}
    assert {c for c, _ in rep.cells} == {1}
    assert rep.mAP == rep.mAR == 1.0 and rep.n_detections == 2


def test_ap_hand_case_half():
    # 1 TP then 1 FP with 2 GT: precision 1 up to recall 0.5 -> 51/101
    assert ap([True, False], 2) == 51.0 / 101.0


def test_ap_exhaustive_flag_sequences_match_oracle():
    for n in range(0, 4):
        for flags in itertools.product([True, False], repeat=n):
            for n_gt in range(1, 4):
                if sum(flags) > n_gt:
                    continue
                a = ap(list(flags), n_gt)
                b = oracle_ap(list(flags), n_gt)
                assert a == b, (flags, n_gt, a, b)


def test_ap_columns_equal_single_column_calls():
    # (n, T) flags give each column's AP, bit for bit; n = 0 gives zeros
    rng = make_rng(6)
    for n in (0, 1, 5, 40, 300):
        flags = rng.random((n, 10)) < rng.random(10)
        for n_gt in (1, n // 2 + 1, n + 3):
            aps = average_precision(flags, n_gt)
            assert aps == [ap(col, n_gt) for col in flags.T]


def test_ap_duplicate_lower_scored_detection_never_helps():
    base = [True, False, True]
    ap0 = ap(base, 3)
    ap1 = ap(base + [False], 3)  # duplicate comes last -> FP
    assert ap1 <= ap0


# --- evaluate ---------------------------------------------------------------

def one_gt_scene(cid=1):
    return make_scene(gt=[((0, 0, 10, 10), cid)])


def test_evaluate_perfect_detector():
    scenes = [one_gt_scene(), one_gt_scene(2)]
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9)]),
            make_detections([((0, 0, 10, 10), 2, 0.8)])]
    rep = evaluate(dets, scenes, [1, 2], "fewshot")
    assert rep.mAP == 1.0 and rep.mAR == 1.0


def test_evaluate_empty_detections():
    rep = evaluate([make_detections([])], [one_gt_scene()], [1], "fewshot")
    assert rep.mAP == 0.0 and rep.mAR == 0.0


def test_evaluate_shrunk_box_threshold_cells():
    # detection box covers exactly 0.6 of the GT -> TP at t <= 0.60
    dets = [make_detections([((0, 0, 6, 10), 1, 0.9)])]
    rep = evaluate(dets, [one_gt_scene()], [1], "fewshot")
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
    r1 = evaluate([make_detections([d1, d2, d3])], [scene], [1], "fewshot")
    r2 = evaluate([make_detections([d3, d2, d1])], [scene], [1], "fewshot")
    assert r1.cells == r2.cells and r1.mAP == r2.mAP


def test_evaluate_zero_gt_class_excluded_from_mean():
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9)])]
    rep = evaluate(dets, [one_gt_scene()], [1, 7], "fewshot")
    assert rep.n_gt[7] == 0
    assert (7, 0.5) not in rep.cells
    assert rep.mAP == 1.0


def random_box(rng):
    x, y = rng.uniform(0, 20, size=2)
    w, h = rng.uniform(2, 10, size=2)
    return (x, y, x + w, y + h)


def oracle_cells(scenes_gt, scenes_dets, eval_ids, relabel):
    """{(class, threshold): (ap, ar)} and {class: n_gt}, class by class:
    each scene's detections, capped at MAX_DETS by score, then those of
    the class greedily matched to its GT of the class alone, then every
    scene's flags by score."""
    capped = [sorted(dets, key=lambda d: -d[2])[:MAX_DETS] for dets in scenes_dets]
    cells, n_gts = {}, {}
    for c in eval_ids:
        n_gt = n_gts[c] = sum(relabel(k) == c for gts in scenes_gt for _, k in gts)
        if n_gt == 0:
            continue
        for t in IOU_THRESHOLDS:
            scored = []
            for gts, dets in zip(scenes_gt, capped):
                mine = [(b, s) for b, k, s in dets if k == c]
                flags = oracle_greedy_match(mine, [b for b, k in gts if relabel(k) == c], t)
                scored += [(s, f) for (_, s), f in zip(mine, flags)]
            flags = [f for _, f in sorted(scored, key=lambda p: -p[0])]
            cells[(c, t)] = (oracle_ap(flags, n_gt), sum(flags) / n_gt)
    return cells, n_gts


def random_scene(rng, over_cap=False):
    """GT of up to three of the classes 1, 2, 3, 6 and 8 (or none) and
    up to eight detections of any of these classes and 99, about half
    jittered onto a GT box of any class; scores often repeat a value
    of another detection or scene. over_cap puts MAX_DETS disjoint
    detections far from every GT box ahead of those, so the cap drops
    the last of the detections tied at its lowest kept score."""
    classes = rng.choice([1, 2, 3, 6, 8], size=int(rng.integers(0, 4)), replace=False)
    gts = [(random_box(rng), int(c)) for c in classes
           for _ in range(int(rng.integers(1, 3)))]
    dets = []
    for _ in range(int(rng.integers(0, 9))):
        box = random_box(rng)
        if gts and rng.random() < 0.5:
            gt_box = gts[int(rng.integers(len(gts)))][0]
            box = tuple(np.add(gt_box, rng.uniform(-0.9, 0.9, size=4)))
        score = (float(rng.choice([0.25, 0.5, 0.75])) if rng.random() < 0.5
                 else float(rng.uniform(0.1, 1.0)))
        dets.append((box, int(rng.choice([1, 2, 3, 8, 99])), score))
    if over_cap:
        dets = [((100.0 + 20 * i, 0.0, 110.0 + 20 * i, 10.0), int(rng.choice([1, 2, 99])),
                 float(rng.choice([0.25, 0.5, 0.75, 0.9]))) for i in range(MAX_DETS)] + dets
    return gts, dets


def test_evaluate_random_instances_match_oracle_pipeline():
    # one to eight scenes; scenes without GT or without detections,
    # uneven detection counts and scores tied within and across scenes.
    # Classes 1, 2 and 3 are scored. The even trials are few-shot, where
    # classes 6 and 8 are never scored; the odd ones are open set, which
    # relabels every other class (6 and 8) to the unknown id 99. Every
    # tenth trial has one scene over MAX_DETS
    rng = make_rng(3)
    for trial in range(200):
        openset = trial % 2 == 1
        n_scenes = int(rng.integers(1, 9))
        big = int(rng.integers(n_scenes)) if trial % 10 == 0 else -1
        scenes_gt, scenes_dets = zip(*[random_scene(rng, s == big) for s in range(n_scenes)])
        relabel = (lambda k: k if k in (1, 2, 3) else 99) if openset else (lambda k: k)
        rep = evaluate([make_detections(d) for d in scenes_dets],
                       [make_scene(gt=g) for g in scenes_gt], [1, 2, 3],
                       "openset" if openset else "fewshot", 99 if openset else None)
        eval_ids = [1, 2, 3, 99] if openset else [1, 2, 3]
        cells, n_gts = oracle_cells(scenes_gt, scenes_dets, eval_ids, relabel)
        assert rep.n_gt == n_gts
        assert {k: (v["ap"], v["ar"]) for k, v in rep.cells.items()} == cells
        assert rep.n_detections == sum(min(len(d), MAX_DETS) for d in scenes_dets)


def test_evaluate_no_scenes_gives_the_empty_report():
    assert evaluate([], [], [1], "fewshot").to_dict() == {
        "protocol": "fewshot", "mAP": 0.0, "mAR": 0.0, "per_cell": [],
        "gt_counts": {"1": 0}, "n_detections": 0, "n_matches": 0, "extra_rows": {}}
    rep = evaluate([], [], [1, 2], "openset", unknown_id=99)
    assert rep.extra_rows == {"known": {"mAP": 0.0, "mAR": 0.0},
                              "unknown": {"mAP": 0.0, "mAR": 0.0}}


def test_evaluate_takes_one_iou_and_one_match_per_report(monkeypatch):
    calls = {"iou": 0, "match_at_threshold": 0}

    def counted(name):
        fn = getattr(evaluation, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(evaluation, name, counted(name))
    scene = make_scene(gt=[((0, 0, 10, 10), 1), ((20, 20, 30, 30), 2),
                           ((40, 40, 50, 50), 6)])
    dets = make_detections([((0, 0, 10, 10), 1, 0.9), ((20, 20, 30, 30), 99, 0.8),
                            ((40, 40, 50, 50), 99, 0.7)])
    rep = evaluate([dets] * 3, [scene] * 3, [1, 2], "openset", unknown_id=99)
    assert calls == {"iou": 1, "match_at_threshold": 1}
    assert rep.n_matches == 6


def test_evaluate_openset_rows():
    scenes = [make_scene(gt=[((0, 0, 10, 10), 1), ((20, 20, 30, 30), 6)])]
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9),
                             ((20, 20, 30, 30), 99, 0.8)])]
    rep = evaluate(dets, scenes, [1, 2], "openset", unknown_id=99)
    assert set(rep.extra_rows) == {"known", "unknown"}
    assert rep.extra_rows["known"]["mAP"] == 1.0
    assert rep.extra_rows["unknown"]["mAR"] == 1.0


def test_evaluate_unknown_id_scores_every_unscored_class_as_unknown():
    # GT of classes 3, 6 and 7, none of them scored, is all relabelled 99;
    # a detection labelled 6 matches nothing, since no GT keeps that label
    scenes = [make_scene(gt=[((0, 0, 10, 10), 1), ((20, 20, 30, 30), 3)]),
              make_scene(gt=[((0, 0, 10, 10), 6), ((20, 20, 30, 30), 7)])]
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9), ((20, 20, 30, 30), 99, 0.8)]),
            make_detections([((0, 0, 10, 10), 6, 0.9), ((20, 20, 30, 30), 99, 0.7)])]
    rep = evaluate(dets, scenes, [2, 1], "openset", unknown_id=99)
    assert rep.protocol == "openset"
    assert rep.n_gt == {1: 1, 2: 0, 99: 3}
    assert rep.cells[(99, 0.5)] == {"ap": ap([True, True], 3), "ar": 2 / 3}
    assert rep.n_matches == 3
    assert rep.extra_rows == {
        "known": {"mAP": 1.0, "mAR": 1.0},
        "unknown": {"mAP": rep.class_mean([99], "ap"), "mAR": rep.class_mean([99], "ar")}}
    assert rep.mAP == rep.class_mean([1, 99], "ap")
    # without the unknown id, the same GT is not scored and the report has no rows
    closed = evaluate(dets, scenes, [1, 2], "fewshot")
    assert closed.n_gt == {1: 1, 2: 0} and closed.extra_rows == {}


def test_evaluate_caps_each_scene_at_max_dets_by_score():
    # 101 disjoint detections; GT lies under the lowest-scoring one (in
    # the middle of the list) and under the second-lowest: the cap drops
    # the lowest alone, so only the second-lowest can match
    scores = make_rng(4).permutation(MAX_DETS + 1) + 1.0
    low, second = np.argsort(scores)[:2]
    dets = [((20 * i, 0, 20 * i + 10, 10), 1, scores[i]) for i in range(MAX_DETS + 1)]
    assert 0 < low < MAX_DETS
    scene = make_scene(gt=[(dets[low][0], 1), (dets[second][0], 1)])
    rep = evaluate([make_detections(dets)], [scene], [1], "fewshot")
    assert MAX_DETS == 100 and rep.n_detections == 100
    assert rep.n_matches == 1 and rep.mAR == 0.5


def test_evaluate_mismatched_lengths():
    with pytest.raises(ValueError):
        evaluate([make_detections([])], [], [1], "fewshot")


def test_report_files(tmp_path):
    dets = [make_detections([((0, 0, 10, 10), 1, 0.9)])]
    rep = evaluate(dets, [one_gt_scene()], [1], "fewshot")
    rep.save_csv(tmp_path / "r.csv", header={"config_digest": "x"})
    rep.save_json(tmp_path / "r.json")
    text = (tmp_path / "r.csv").read_text()
    assert "protocol,class,iou_threshold,ap,ar" in text
    assert "aggregate" in text
    import json
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["mAP"] == 1.0
