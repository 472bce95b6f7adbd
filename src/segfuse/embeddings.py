"""Per-synonym text embeddings aligned to a prompt bank.

Rows arrive in the bank's flat synonym order and are L2-normalized once, at
load time, in float64.  The store is immutable after construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SegfuseError, check_choice, check_equal, check_finite, check_int
from .grid import _real_array, load_grid, normalize_pixels_array
from .prompts import PromptBank


@dataclass
class EmbeddingStore:
    vectors: np.ndarray  # (total_synonyms, dim) float32, unit rows
    offsets: tuple[tuple[int, int], ...]  # per class (start, count)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.offsets)


def _offsets(counts) -> tuple[tuple[int, int], ...]:
    """Per-class (start, count) of consecutive row segments of `counts` rows."""
    return tuple(zip(itertools.accumulate(counts, initial=0), counts))


def store_from_array(rows: np.ndarray, bank: PromptBank) -> EmbeddingStore:
    """Build a store from an in-memory (total_synonyms, dim) row table."""
    rows = _real_array("embedding table", rows)
    check_choice("bad_embedding_shape", "embedding axis count", rows.ndim, (2,))
    check_int("bad_embedding_dim", "embedding dim", rows.shape[1], 1)
    check_equal("row_count_mismatch", "row counts", embeddings=rows.shape[0],
                synonyms=bank.total_synonyms)
    check_finite("nonfinite_values", "embedding rows", rows)
    unit, zero_rows = normalize_pixels_array(rows)
    if zero_rows:
        raise SegfuseError("zero_norm_embedding", f"{zero_rows} rows have zero norm")
    return EmbeddingStore(unit.astype(np.float32),
                          _offsets([len(cls) for cls in bank.classes]))


def load_embeddings(path, bank: PromptBank) -> EmbeddingStore:
    """Load a CFT1 row table [total_synonyms x dim] and normalize it."""
    return store_from_array(load_grid(path).data, bank)


def canonical_vectors(store: EmbeddingStore) -> np.ndarray:
    """The first (canonical) embedding row of every class, stacked (C, dim)."""
    idx = np.array([start for start, _ in store.offsets], dtype=np.int64)
    return store.vectors[idx]
