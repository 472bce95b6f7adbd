"""Controlled inter-class competition: competitor selection and sweeps.

For a target class and a ratio p, the competitor set is the target plus the
ceil(p * (C - 1)) non-target classes ranked by canonical-embedding cosine
similarity (descending for "easy" negatives, ascending for "hard" ones).  A
sweep re-runs the restricted pipeline for every setting combination and
reports mIoU against the ground truth with non-competitor pixels either
ignored or merged into a background class.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingStore, canonical_vectors, store_from_array
from .fusion import EvidenceBundle, FusionConfig, fuse_and_decode
from .grid import DenseGrid, LabelMap
from .metrics import ConfusionMatrix, miou
from .prior import Aggregation, build_prior
from .prompts import PromptBank, PromptClass
from .synth import SyntheticScene

SELECTION_MODES = ("easy", "hard")
EXCLUDED_MODES = ("ignore", "merge-background")


@dataclass(frozen=True)
class CompetitionSpec:
    target_class: int
    ratio: float  # fraction p of non-target classes admitted as competitors
    selection: str = "easy"

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio must lie in [0, 1], got {self.ratio}")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}")


@dataclass(frozen=True)
class SweepRow:
    p: float
    selection: str
    lambda_prior: float
    tau_s: float
    aggregation: str
    feature_source: str
    miou: float


def select_competitors(store: EmbeddingStore, bank: PromptBank,
                       spec: CompetitionSpec) -> list[int]:
    """Target class plus the top ceil(p * (C - 1)) ranked negatives.

    Ranking uses cosine similarity between canonical embeddings only; easy
    keeps the most similar negatives first, hard the least similar.  Ties
    break toward the smaller class index.  The ceiling guarantees p=1 admits
    every negative and that the sets nest as p grows.
    """
    n = bank.num_classes
    if not 0 <= spec.target_class < n:
        raise ValueError(f"target class {spec.target_class} out of range 0..{n - 1}")
    canon = canonical_vectors(store).astype(np.float64)
    sims = canon @ canon[spec.target_class]
    negatives = [c for c in range(n) if c != spec.target_class]
    if spec.selection == "easy":
        negatives.sort(key=lambda c: (-sims[c], c))
    else:
        negatives.sort(key=lambda c: (sims[c], c))
    k = min(math.ceil(spec.ratio * (n - 1)), n - 1)
    return [spec.target_class] + negatives[:k]


def restrict_to_classes(bank: PromptBank, store: EmbeddingStore,
                        evidence: EvidenceBundle,
                        classes: Sequence[int]) -> tuple[PromptBank,
                                                         EmbeddingStore,
                                                         EvidenceBundle]:
    """Project bank, store and evidence onto a class subset, re-indexed 0..k-1."""
    kept = list(classes)
    new_classes = []
    row_blocks = []
    for new_index, ci in enumerate(kept):
        cls = bank.classes[ci]
        new_classes.append(PromptClass(new_index, cls.canonical, cls.synonyms))
        start, count = store.offsets[ci]
        row_blocks.append(store.vectors[start:start + count])
    sub_bank = PromptBank(tuple(new_classes))
    sub_store = store_from_array(np.concatenate(row_blocks, axis=0), sub_bank)
    sub_evidence = EvidenceBundle(
        DenseGrid(np.ascontiguousarray(evidence.mask_evidence.data[:, :, kept])),
        evidence.evidence_kind,
        evidence.presence[kept])
    return sub_bank, sub_store, sub_evidence


def _run_setting(scene: SyntheticScene, target_class: int, setting, *,
                 normalize_order: str, excluded: str) -> SweepRow:
    p, selection, lam, tau, agg_kind, (source_name, features) = setting
    spec = CompetitionSpec(target_class, p, selection)
    competitors = sorted(select_competitors(scene.embeddings, scene.bank, spec))
    sub_bank, sub_store, sub_evidence = restrict_to_classes(
        scene.bank, scene.embeddings, scene.evidence, competitors)

    mode = Aggregation(agg_kind, tau) if agg_kind == "lse" else Aggregation(agg_kind)
    prior = build_prior(features, sub_store, sub_bank, mode,
                        scene.height, scene.width,
                        normalize_order=normalize_order)
    pred_sub = fuse_and_decode(sub_evidence, prior, FusionConfig(lambda_prior=lam))
    pred = LabelMap(np.asarray(competitors, dtype=np.uint32)[pred_sub.data])

    in_set = np.isin(scene.gt.data, np.asarray(competitors, dtype=np.uint32))
    n = scene.num_classes
    if excluded == "ignore":
        cm = ConfusionMatrix(n, ignore_index=n)
        gt = LabelMap(np.where(in_set, scene.gt.data, np.uint32(n)))
    else:  # merge-background: excluded gt pixels become an extra class n
        cm = ConfusionMatrix(n + 1)
        gt = LabelMap(np.where(in_set, scene.gt.data, np.uint32(n)))
    cm.accumulate(gt, pred)
    return SweepRow(p, selection, lam, tau, agg_kind, source_name, miou(cm))


def run_sweep(scene: SyntheticScene, *,
              target_class: int = 0,
              p_values: Sequence[float],
              selections: Sequence[str] = SELECTION_MODES,
              lambda_values: Sequence[float] = (0.7,),
              tau_values: Sequence[float] = (0.10,),
              aggregations: Sequence[str] = ("lse",),
              feature_sources: Mapping[str, DenseGrid] | None = None,
              normalize_order: str = "both",
              excluded: str = "ignore",
              threads: int = 1) -> list[SweepRow]:
    """Evaluate every axis combination on one scene.

    Rows come out in lexicographic axis order (p, selection, lambda_prior,
    tau_s, aggregation, feature_source) with each axis in its given order.
    Settings are independent, so they may run on a thread pool; results are
    collected in submission order and do not depend on the thread count.
    """
    if excluded not in EXCLUDED_MODES:
        raise ValueError(f"excluded must be one of {EXCLUDED_MODES}")
    for axis_name, axis in (("p", p_values), ("selection", selections),
                            ("lambda_prior", lambda_values),
                            ("tau_s", tau_values),
                            ("aggregation", aggregations)):
        if len(axis) == 0:
            raise ValueError(f"sweep axis '{axis_name}' is empty")
    sources = dict(feature_sources) if feature_sources else {"primary": scene.features}
    settings = list(itertools.product(p_values, selections, lambda_values,
                                      tau_values, aggregations, sources.items()))

    def one(setting):
        return _run_setting(scene, target_class, setting,
                            normalize_order=normalize_order, excluded=excluded)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, settings))
    return [one(s) for s in settings]


SWEEP_CSV_HEADER = "p,selection,lambda_prior,tau_s,aggregation,feature_source,miou"


def format_sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.p:.6f},{r.selection},{r.lambda_prior:.6f},"
                     f"{r.tau_s:.6f},{r.aggregation},{r.feature_source},"
                     f"{r.miou:.6f}")
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(format_sweep_csv(rows))
