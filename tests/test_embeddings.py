"""Embedding store loading, normalization and class slicing."""
import numpy as np
import pytest

from segfuse import (DenseGrid, EmbeddingError, load_embeddings, save_grid,
                     parse_prompt_file, store_from_array)
from segfuse.embeddings import canonical_vectors, normalize_rows


def _bank(text="cat, kitty\ndog, puppy, hound\n"):
    return parse_prompt_file(text)


def test_axis_vectors_normalized():
    bank = parse_prompt_file("cat\ndog\n")
    store = store_from_array(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), bank)
    assert np.allclose(store.vectors, [[1, 0, 0], [0, 1, 0]])


def test_zero_row_rejected():
    bank = parse_prompt_file("cat\ndog\n")
    with pytest.raises(EmbeddingError) as err:
        store_from_array(np.array([[1.0, 0.0], [0.0, 0.0]]), bank)
    assert err.value.code == "zero_norm_embedding"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_row_rejected(bad):
    bank = parse_prompt_file("cat\ndog\n")
    rows = np.ones((2, 3))
    rows[1, 2] = bad
    with pytest.raises(EmbeddingError) as err:
        store_from_array(rows, bank)
    assert err.value.code == "nonfinite_values"


def test_row_count_mismatch():
    bank = _bank()  # 5 synonyms total
    with pytest.raises(EmbeddingError) as err:
        store_from_array(np.ones((4, 3)), bank)
    assert err.value.code == "row_count_mismatch"


def test_zero_width_rows_rejected():
    bank = parse_prompt_file("cat\ndog\n")
    with pytest.raises(EmbeddingError) as err:
        store_from_array(np.ones((2, 0)), bank)
    assert err.value.code == "bad_embedding_dim"


def test_load_from_file(tmp_path):
    bank = _bank()
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((bank.total_synonyms, 8)).astype(np.float32)
    path = tmp_path / "emb.cft1"
    save_grid(DenseGrid(rows), path)
    store = load_embeddings(path, bank)
    assert store.num_vectors == 5
    assert store.dim == 8
    assert store.offsets == ((0, 2), (2, 3))


def test_load_rejects_3_axis_file(tmp_path):
    bank = _bank()
    path = tmp_path / "emb.cft1"
    save_grid(DenseGrid(np.ones((5, 2, 2), dtype=np.float32)), path)
    with pytest.raises(EmbeddingError) as err:
        load_embeddings(path, bank)
    assert err.value.code == "bad_embedding_shape"


def test_random_rows_unit_norm():
    bank = parse_prompt_file("\n".join(f"w{i}" for i in range(50)))
    rng = np.random.default_rng(17)
    store = store_from_array(rng.standard_normal((50, 12)) * 10.0, bank)
    norms = np.sqrt((store.vectors.astype(np.float64) ** 2).sum(axis=1))
    assert np.abs(norms - 1.0).max() < 1e-6


def test_normalize_idempotent():
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((30, 7))
    once = normalize_rows(rows)
    twice = normalize_rows(once)
    assert np.abs(once.astype(np.float64) - twice.astype(np.float64)).max() < 1e-7


def test_self_cosine_is_one():
    rng = np.random.default_rng(31)
    rows = normalize_rows(rng.standard_normal((20, 9)))
    cos = (rows.astype(np.float64) * rows.astype(np.float64)).sum(axis=1)
    assert np.abs(cos - 1.0).max() < 1e-6


def _class_rows(store, class_index):
    start, count = store.offsets[class_index]
    return store.vectors[start:start + count]


def test_class_slice_offsets():
    bank = _bank()
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((5, 6))
    store = store_from_array(rows, bank)
    assert store.offsets == ((0, 2), (2, 3))
    assert _class_rows(store, 0).shape == (2, 6)
    assert np.array_equal(_class_rows(store, 1), normalize_rows(rows[2:5]))


def test_singleton_class_slice():
    bank = parse_prompt_file("cat\n")
    store = store_from_array(np.ones((1, 3)), bank)
    assert store.offsets == ((0, 1),)
    assert _class_rows(store, 0).shape == (1, 3)


def test_slices_concat_to_full_table():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n_classes = int(rng.integers(1, 7))
        lines = []
        for i in range(n_classes):
            m = int(rng.integers(1, 5))
            lines.append(", ".join([f"k{i}"] + [f"k{i}v{j}" for j in range(1, m)]))
        bank = parse_prompt_file("\n".join(lines))
        store = store_from_array(
            rng.standard_normal((bank.total_synonyms, 5)), bank)
        stacked = np.concatenate(
            [_class_rows(store, c) for c in range(bank.num_classes)], axis=0)
        assert np.array_equal(stacked, store.vectors)


def test_canonical_vectors_picks_first_rows():
    bank = _bank()
    rng = np.random.default_rng(8)
    store = store_from_array(rng.standard_normal((5, 4)), bank)
    canon = canonical_vectors(store)
    assert np.array_equal(canon[0], store.vectors[0])
    assert np.array_equal(canon[1], store.vectors[2])
