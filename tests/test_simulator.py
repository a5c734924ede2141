import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from protodetect.numeric import make_rng
from protodetect.simulator import (BOX_SIZES, IGNORE, SCENE_SIZE, WorldConfig,
                                   _place_means, _world_entries, augment_feature,
                                   generate_world, iou, label_proposals, load_world,
                                   save_world)

from helpers import assert_worlds_equal, boxes, make_scene, scalar_iou


def test_iou_identical_and_disjoint():
    a = boxes([(0, 0, 2, 2)])
    assert iou(a, a)[0, 0] == 1.0
    assert iou(a, boxes([(5, 5, 6, 6)]))[0, 0] == 0.0


def test_iou_hand_case():
    # areas 4 + 4, intersection 1 -> 1/7
    assert iou(boxes([(0, 0, 2, 2)]), boxes([(1, 1, 3, 3)]))[0, 0] == pytest.approx(1.0 / 7.0)


def test_iou_matrix_shape_and_empty_sides():
    a, b = boxes([(0, 0, 2, 2), (1, 1, 3, 3), (5, 5, 6, 6)]), boxes([(0, 0, 1, 1)] * 2)
    assert iou(a, b).shape == (3, 2)
    assert iou(a, boxes([])).shape == (3, 0)
    assert iou(boxes([]), b).shape == (0, 2)


def random_box_pairs(seed, n):
    """Box rows that include touching, nested, identical and disjoint pairs."""
    rng = make_rng(seed)
    xy = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    wh = rng.integers(1, 6, size=(n, 2)).astype(np.float64)
    grid = np.concatenate([xy, xy + wh], axis=1)          # integer corners touch often
    x = rng.uniform(0, 30, size=(n, 2))
    free = np.concatenate([x, x + rng.uniform(0.01, 10, size=(n, 2))], axis=1)
    nested = grid + np.array([0.25, 0.25, -0.25, -0.25])  # strictly inside a grid box
    return np.concatenate([grid, free, nested, boxes([(0, 0, 1, 1), (1, 0, 2, 1),
                                                      (0, 1, 1, 2), (50, 50, 51, 51)])])


def test_iou_matrix_equals_scalar_oracle():
    A, B = random_box_pairs(11, 60), random_box_pairs(12, 50)
    M = iou(A, B)
    expected = np.array([[scalar_iou(a, b) for b in B.tolist()] for a in A.tolist()])
    assert (M == expected).all()
    # the mix covers every kind of pair
    assert (M == 0).any() and (M == 1).any() and ((M > 0) & (M < 1)).any()
    touching = [(a, b) for a in A.tolist() for b in B.tolist()
                if (a[2] == b[0] or a[3] == b[1]) and scalar_iou(a, b) == 0.0]
    assert touching


def test_iou_stack_equals_per_slice_calls():
    # (scenes, n, 4) against (scenes, m, 4): each scene's slice is its
    # own call, bit for bit, and all-zero padding rows on either side
    # give 0
    A, B = random_box_pairs(13, 20), random_box_pairs(14, 12)
    n_a, n_b = [0, 9, 60, 3, 20], [5, 0, 11, 30, 1]
    stack_a, stack_b = np.zeros((5, max(n_a), 4)), np.zeros((5, max(n_b), 4))
    slices = []
    for s, (na, nb) in enumerate(zip(n_a, n_b)):
        a, b = A[s:s + na], B[2 * s:2 * s + nb]
        stack_a[s, :na], stack_b[s, :nb] = a, b
        slices.append((a, b))
    M = iou(stack_a, stack_b)
    assert M.shape == (5, max(n_a), max(n_b))
    for s, (a, b) in enumerate(slices):
        assert M[s, :len(a), :len(b)].tobytes() == iou(a, b).tobytes()
        assert not M[s, len(a):].any() and not M[s, :, len(b):].any()


def test_degenerate_box_rejected(tmp_path):
    # a world is checked before it is written: no file for a bad box
    for corners in ((0, 0, 0, 1), (0, 5, 1, 5), (0, 0, float("nan"), 1)):
        world = generate_world(small_world_cfg())
        world.train.scenes[0].proposals[0] = corners
        path = tmp_path / "w.npz"
        with pytest.raises(ValueError):
            save_world(path, world)
        assert not path.exists()


box_tuples = st.tuples(st.floats(0, 50), st.floats(0, 50),
                       st.floats(0.1, 50), st.floats(0.1, 50)).map(
    lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


def area(b):
    return (b[2] - b[0]) * (b[3] - b[1])


@given(box_tuples, box_tuples)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(boxes([a]), boxes([b]))[0, 0]
    assert v == iou(boxes([b]), boxes([a]))[0, 0] == scalar_iou(a, b)
    assert 0.0 <= v <= min(area(a), area(b)) / max(area(a), area(b)) + 1e-12


def small_world_cfg(**kw):
    defaults = dict(c_seen=3, c_unseen=2, d=8, delta=6.0, sigma_f=0.5,
                    n_train_scenes=4, n_test_scenes=4, seed=5)
    defaults.update(kw)
    return WorldConfig(**defaults)


def test_world_mean_separation():
    world = generate_world(small_world_cfg())
    means = world.class_means
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) >= world.config.delta


def test_world_zero_noise_features_equal_class_mean():
    world = generate_world(small_world_cfg(sigma_f=1e-300))
    scene = world.train.scenes[0]
    for cid, feat in zip(scene.labels, scene.features[:len(scene.gt)]):
        assert np.allclose(feat, world.class_means[cid - 1], atol=1e-290)


def test_world_without_background_proposals():
    cfg = small_world_cfg(objects_per_scene=3, proposals_per_scene=3)
    world = generate_world(cfg)
    from protodetect.trainer import scene_background_features
    # GT-aligned proposals only; with zero jitter none fall below IoU 0.3
    assert len(scene_background_features(world.train.scenes[0])) == 0


def test_world_determinism_byte_identical(tmp_path):
    cfg = small_world_cfg()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_world(p1, generate_world(cfg))
    save_world(p2, generate_world(small_world_cfg()))
    assert p1.read_bytes() == p2.read_bytes()


def test_world_stream_is_pinned():
    # every array a dataset stores, at the small world's config and seed;
    # the stored config is left out, since it lists the config's keys
    h = hashlib.sha256()
    for name, a in sorted(_world_entries(generate_world(small_world_cfg())).items()):
        if name != "config":
            a = np.ascontiguousarray(a)
            h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
            h.update(a.tobytes())
    assert h.hexdigest() == "3fb4c51b06713ed2fc0a7a1bfbf15337b41d83641de61d8170d5ec92cbf684af"


def test_world_roundtrip(tmp_path):
    # with and without GT jitter; writing the loaded world again gives
    # the same bytes
    for jitter in (0.0, 2.0):
        world = generate_world(small_world_cfg(box_jitter=jitter))
        path, again = tmp_path / f"w{jitter}.npz", tmp_path / f"again{jitter}.npz"
        save_world(path, world)
        w2 = load_world(path)
        assert_worlds_equal(w2, world)
        assert sorted(w2.support_seen) == [1, 2, 3] and sorted(w2.support_unseen) == [4, 5]
        assert w2.unknown_id == 6
        save_world(again, w2)
        assert again.read_bytes() == path.read_bytes()


def replayed_train_jitter(cfg):
    """The training split's GT jitter draws, U(-1, 1) of shape (S, k, 4),
    replayed in generate_world's order: class means, support rows, then
    the split's class ids, boxes and jitter."""
    rng = make_rng(cfg.seed)
    _place_means(rng, cfg.c_seen, cfg.c_unseen, cfg.d, cfg.delta)
    rng.normal(size=(cfg.c_seen + cfg.c_unseen, cfg.shots, cfg.d))
    S, k = cfg.n_train_scenes, cfg.objects_per_scene
    rng.integers(cfg.c_seen, size=(S, k))
    rng.random((S, cfg.proposals_per_scene, 4))
    return rng.uniform(-1.0, 1.0, size=(S, k, 4))


def test_features_are_the_float64_draw_rounded_to_float32():
    # features are drawn in float64, as before datasets stored them in
    # float32, and rounded once: replaying the training split's draw and
    # rounding it gives its features bit for bit
    cfg = small_world_cfg()
    rng = make_rng(cfg.seed)
    means = _place_means(rng, cfg.c_seen, cfg.c_unseen, cfg.d, cfg.delta)
    rng.normal(size=(cfg.c_seen + cfg.c_unseen, cfg.shots, cfg.d))
    S, k, P = cfg.n_train_scenes, cfg.objects_per_scene, cfg.proposals_per_scene
    labels = 1 + rng.integers(cfg.c_seen, size=(S, k))
    rng.random((S, P, 4))
    rng.uniform(-1.0, 1.0, size=(S, k, 4))
    features = rng.normal(size=(S, P, cfg.d))
    features[:, :k] = means[labels - 1] + features[:, :k] * cfg.sigma_f
    train = generate_world(cfg).train
    assert np.array_equal(train.labels, labels)
    assert train.features.dtype == np.float32
    assert train.features.tobytes() == features.astype(np.float32).tobytes()


def stacked(scenes, name):
    return np.stack([getattr(s, name) for s in scenes])


@pytest.mark.parametrize("jitter", [0.0, 2.0, 12.0])
def test_world_boxes_labels_and_gt_jitter(jitter):
    # 12 moves corners further than half the smallest box side, so some
    # jittered boxes would be degenerate and keep their GT box
    kw = dict(n_train_scenes=30, n_test_scenes=30)
    cfg = small_world_cfg(box_jitter=jitter, **kw)
    world, still = generate_world(cfg), generate_world(small_world_cfg(**kw))
    k = cfg.objects_per_scene
    for scenes, still_scenes, ids in ((world.train.scenes, still.train.scenes, {1, 2, 3}),
                                      (world.test.scenes, still.test.scenes,
                                       {1, 2, 3, 4, 5})):
        P, G = stacked(scenes, "proposals"), stacked(scenes, "gt")
        # jitter is drawn whatever its size, so it moves the GT-aligned
        # proposals and nothing else
        for name in ("gt", "labels", "features"):
            assert stacked(scenes, name).tobytes() == stacked(still_scenes, name).tobytes()
        assert P[:, k:].tobytes() == stacked(still_scenes, "proposals")[:, k:].tobytes()
        assert set(stacked(scenes, "labels").ravel().tolist()) == ids
        sizes = G[..., 2:] - G[..., :2]
        assert ((sizes >= BOX_SIZES[0] - 1e-9) & (sizes <= BOX_SIZES[1] + 1e-9)).all()
        for B in (G, P[:, k:]):
            assert ((B >= 0.0) & (B <= SCENE_SIZE)).all()
        assert ((P[..., 2] > P[..., 0]) & (P[..., 3] > P[..., 1])).all()
        assert (np.abs(P[:, :k] - G) <= jitter).all()
        if jitter == 0.0:
            assert P[:, :k].tobytes() == G.tobytes()
    G, P = stacked(world.train.scenes, "gt"), stacked(world.train.scenes, "proposals")[:, :k]
    moved = G + replayed_train_jitter(cfg) * jitter
    degenerate = (moved[..., 2] <= moved[..., 0]) | (moved[..., 3] <= moved[..., 1])
    assert np.array_equal(P[degenerate], G[degenerate])
    assert np.array_equal(P[~degenerate], moved[~degenerate])
    assert degenerate.any() == (jitter == 12.0)


def test_world_rejects_bad_config():
    with pytest.raises(ValueError):
        generate_world(small_world_cfg(proposals_per_scene=1, objects_per_scene=4))
    with pytest.raises(ValueError):
        generate_world(small_world_cfg(delta=-1.0))


def test_world_separation_failure_raises():
    # 30 classes at delta equal to the placement radius cannot all fit
    with pytest.raises(RuntimeError):
        generate_world(small_world_cfg(c_seen=300, d=2, delta=6.0))


def test_augment_zero_strength_is_identity():
    rng = make_rng(0)
    v = rng.normal(size=(1, 10))
    assert np.allclose(augment_feature(rng, v, 0.0), v, atol=1e-15)


def test_augment_rejects_negative_strength():
    with pytest.raises(ValueError):
        augment_feature(make_rng(0), np.zeros((1, 3)), -0.1)


def test_augment_displacement_grows_with_strength():
    rng = make_rng(1)
    v = rng.normal(size=(1, 16)) * 3.0
    means = []
    for strength in [0.1, 0.5, 1.0]:
        d = [np.linalg.norm(augment_feature(rng, v, strength) - v)
             for _ in range(1000)]
        means.append(np.mean(d))
    assert means[0] < means[1] < means[2]


def test_augment_rotation_only_preserves_norm():
    # sigma_f = 0 leaves scale and rotation: each row's norm is gamma_r |v_r|,
    # gamma being the batch's first draw
    rng = make_rng(2)
    V = rng.normal(size=(100, 8))
    state = rng.bit_generator.state
    out = augment_feature(rng, V, 0.3, sigma_f=0.0)
    rng.bit_generator.state = state
    gamma = rng.uniform(1.0 - 0.3, 1.0 + 0.3, size=100)
    assert np.allclose(np.linalg.norm(out, axis=1),
                       gamma * np.linalg.norm(V, axis=1), rtol=0.0, atol=1e-9)


def test_augment_zero_strength_is_identity_for_matrix():
    V = make_rng(3).normal(size=(7, 5))
    assert np.array_equal(augment_feature(make_rng(4), V, 0.0, sigma_f=2.0), V)


def test_augment_rotates_a_distinct_pair_per_row():
    rng = make_rng(5)
    V = rng.normal(size=(200, 6))
    state = rng.bit_generator.state
    out = augment_feature(rng, V, 0.8, sigma_f=0.0)
    # replay the draw order: gamma, first coordinate, offset of the second
    rng.bit_generator.state = state
    gamma = rng.uniform(1.0 - 0.8, 1.0 + 0.8, size=200)
    i = rng.integers(6, size=200)
    j = (i + rng.integers(1, 6, size=200)) % 6
    assert np.all(i != j)
    changed = out != gamma[:, None] * V
    expected = np.zeros_like(changed)
    expected[np.arange(200), i] = expected[np.arange(200), j] = True
    assert np.array_equal(changed, expected)
    assert len({(a, b) for a, b in zip(i, j)}) > 20   # pairs differ across rows


def test_label_proposals_bands():
    # width shrunk to give IoU = 0.4 (area 40 vs 100, fully inside)
    scene = make_scene(gt=[((0, 0, 10, 10), 3)],
                       proposals=[((0, 0, 10, 10), np.zeros(2)),     # exact
                                  ((50, 50, 60, 60), np.zeros(2)),   # disjoint
                                  ((0, 0, 4.0, 10), np.zeros(2))])   # band
    labels = label_proposals(scene)
    assert labels.tolist() == [3, 0, IGNORE]


def test_label_proposals_picks_best_gt():
    scene = make_scene(gt=[((0, 0, 10, 10), 1), ((8, 0, 18, 10), 2)],
                       proposals=[((7, 0, 17, 10), np.zeros(1))])
    assert label_proposals(scene).tolist() == [2]


def test_label_proposals_without_gt_are_background():
    scene = make_scene(proposals=[((0, 0, 1, 1), np.zeros(1))] * 3)
    assert label_proposals(scene).tolist() == [0, 0, 0]


def scalar_labels(scene):
    """label_proposals by its definition, one scalar IoU at a time."""
    out = []
    for box in scene.proposals.tolist():
        ious = [scalar_iou(box, g) for g in scene.gt.tolist()]
        best = max(ious, default=0.0)
        out.append(int(scene.labels[ious.index(best)]) if best >= 0.5
                   else 0 if best < 0.3 else IGNORE)
    return out


@pytest.mark.parametrize("kw", [{}, {"objects_per_scene": 0},
                                {"objects_per_scene": 4, "proposals_per_scene": 4}],
                         ids=["default", "no-objects", "gt-only"])
def test_label_proposals_of_a_split_equal_the_per_scene_calls(kw):
    world = generate_world(WorldConfig(**kw))
    for split in (world.train, world.test):
        labels = label_proposals(split)
        assert labels.dtype == np.int64 and labels.shape == split.proposals.shape[:2]
        assert np.array_equal(labels, np.stack([label_proposals(s) for s in split.scenes]))
        assert labels.tolist() == [scalar_labels(s) for s in split.scenes]
    if not kw:
        # the default world's scenes reach every band
        assert {0, IGNORE} < set(labels.ravel().tolist())
