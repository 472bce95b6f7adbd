"""Per-synonym text embeddings aligned to a prompt bank.

Rows arrive in the bank's flat synonym order and are L2-normalized once, at
load time, in float64.  The store is immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SegfuseError
from .grid import _all_finite, load_grid
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


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Unit-normalize each row in float64; zero rows are rejected."""
    rows64 = np.asarray(rows, dtype=np.float64)
    norms = np.sqrt((rows64 * rows64).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise SegfuseError("zero_norm_embedding", f"row {zero[0]} has zero norm")
    return (rows64 / norms[:, None]).astype(np.float32)


def store_from_array(rows: np.ndarray, bank: PromptBank) -> EmbeddingStore:
    """Build a store from an in-memory (total_synonyms, dim) row table."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise SegfuseError("bad_embedding_shape", f"need 2 axes, got {rows.ndim}")
    if rows.shape[1] < 1:
        raise SegfuseError("bad_embedding_dim", f"dim {rows.shape[1]} < 1")
    if rows.shape[0] != bank.total_synonyms:
        raise SegfuseError(
            "row_count_mismatch",
            f"{rows.shape[0]} embedding rows for {bank.total_synonyms} synonyms")
    if not _all_finite(rows):
        raise SegfuseError("nonfinite_values", "embedding rows hold NaN or Inf")
    offsets = []
    start = 0
    for cls in bank.classes:
        offsets.append((start, len(cls)))
        start += len(cls)
    return EmbeddingStore(normalize_rows(rows), tuple(offsets))


def load_embeddings(path, bank: PromptBank) -> EmbeddingStore:
    """Load a CFT1 row table [total_synonyms x dim] and normalize it."""
    grid = load_grid(path)
    if grid.data.ndim != 2:
        raise SegfuseError(
            "bad_embedding_shape", f"{path}: need a 2-axis tensor, got {grid.data.ndim}")
    return store_from_array(grid.data, bank)


def canonical_vectors(store: EmbeddingStore) -> np.ndarray:
    """The first (canonical) embedding row of every class, stacked (C, dim)."""
    idx = np.array([start for start, _ in store.offsets], dtype=np.int64)
    return store.vectors[idx]
