"""Synthetic scene generation: determinism and structural guarantees."""
import numpy as np
import pytest

from segfuse import generate_scene


def test_same_seed_reproduces_everything_bitwise():
    a = generate_scene(42, 12, 10, 16, 5, 3, 0.2, 0.4)
    b = generate_scene(42, 12, 10, 16, 5, 3, 0.2, 0.4)
    assert np.array_equal(a.features.data, b.features.data)
    assert np.array_equal(a.gt.data, b.gt.data)
    assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)
    assert np.array_equal(a.evidence.mask_evidence.data, b.evidence.mask_evidence.data)
    assert np.array_equal(a.evidence.presence, b.evidence.presence)
    assert a.bank == b.bank


def test_different_seeds_differ():
    a = generate_scene(1, 8, 8, 8, 3, 2, 0.2, 0.4)
    b = generate_scene(2, 8, 8, 8, 3, 2, 0.2, 0.4)
    assert not np.array_equal(a.features.data, b.features.data)


def test_drift_zero_synonyms_equal_canonical():
    scene = generate_scene(7, 8, 8, 12, 4, 3, 0.0, 0.3)
    store = scene.embeddings
    for c in range(4):
        start, count = store.offsets[c]
        for j in range(count):
            assert np.array_equal(store.vectors[start + j], store.vectors[start])


def test_overlap_zero_features_equal_gt_embedding_bitwise():
    scene = generate_scene(7, 8, 8, 12, 4, 2, 0.0, 0.0)
    starts = [scene.embeddings.offsets[c][0] for c in range(4)]
    canon = scene.embeddings.vectors[starts]
    assert np.array_equal(scene.features.data, canon[scene.gt.data])


def test_overlap_zero_mask_logits_are_exact_margins():
    scene = generate_scene(3, 6, 6, 8, 3, 1, 0.0, 0.0)
    logits = scene.evidence.mask_evidence.data
    gt = scene.gt.data
    for c in range(3):
        hit = logits[:, :, c][gt == c]
        miss = logits[:, :, c][gt != c]
        assert (hit == np.float32(2.5)).all()
        assert (miss == np.float32(-2.5)).all()


def test_gt_labels_in_range_and_shapes():
    scene = generate_scene(11, 9, 13, 6, 4, 2, 0.1, 0.5)
    assert scene.gt.data.max() < 4
    assert scene.features.dims == (9, 13, 6)
    assert scene.evidence.mask_evidence.dims == (9, 13, 4)
    assert scene.evidence.presence.shape == (4,)
    assert scene.bank.num_classes == 4
    assert scene.embeddings.num_vectors == scene.bank.total_synonyms


def test_feature_grid_can_differ_from_evidence_grid():
    scene = generate_scene(5, 12, 12, 8, 3, 2, 0.2, 0.3,
                           feature_height=6, feature_width=7)
    assert scene.features.dims == (6, 7, 8)
    assert scene.evidence.mask_evidence.dims == (12, 12, 3)


def test_presence_tracks_occupancy_rank():
    scene = generate_scene(19, 16, 16, 8, 4, 1, 0.0, 0.0)
    occupancy = np.bincount(scene.gt.data.ravel(), minlength=4)
    order_occ = np.argsort(occupancy, kind="stable")
    order_z = np.argsort(scene.evidence.presence, kind="stable")
    assert np.array_equal(order_occ, order_z)


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_scene(0, 0, 4, 4, 2, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        generate_scene(0, 4, 4, 4, 2, 1, -0.1, 0.0)


def test_bank_is_parse_clean():
    from segfuse import parse_prompt_file
    from segfuse.prompts import format_prompt_file
    scene = generate_scene(23, 6, 6, 6, 5, 4, 0.3, 0.2)
    assert parse_prompt_file(format_prompt_file(scene.bank)) == scene.bank
