"""Controlled inter-class competition: competitor selection and sweeps.

For a target class and a ratio p, the competitor set is the target plus the
ceil(p * (C - 1)) non-target classes ranked by canonical-embedding cosine
similarity (descending for "easy" negatives, ascending for "hard" ones).  A
sweep runs the restricted pipeline for every setting combination and reports
mIoU against the ground truth with non-competitor pixels either ignored or
merged into a background class.  Intra-class pooling never looks at the other
classes, so the sweep pools once over every class and runs only the
inter-class steps (log-softmax, fusion, decode) on the competitors' columns.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import (EmbeddingStore, _check_class_counts, _offsets,
                         canonical_vectors)
from .errors import SegfuseError, check_choice
from .fusion import (DEFAULT_LAMBDA, EvidenceBundle, FusionConfig,
                     fuse_and_decode)
from .grid import DenseGrid, LabelMap
from .metrics import ConfusionMatrix, miou
from .prior import (DEFAULT_TAU, Aggregation, check_tau_s, check_threads,
                    log_prior_array, pooled_scores)
from .prompts import PromptBank
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
            raise SegfuseError("bad_ratio",
                               f"ratio must lie in [0, 1], got {self.ratio}")
        check_choice("bad_selection", "selection", self.selection, SELECTION_MODES)


def _check_class_indices(classes: Sequence[int], n: int) -> list[int]:
    """The one check on a class subset: not empty, each index in 0..n-1."""
    kept = list(classes)
    if not kept:
        raise SegfuseError("empty_class_subset", "class subset is empty")
    bad = [ci for ci in kept if not 0 <= ci < n]
    if bad:
        raise SegfuseError("bad_class_index",
                           f"class indices {bad} out of range 0..{n - 1}")
    return kept


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
    _check_class_counts(store=store.num_classes, bank=bank.num_classes)
    n = bank.num_classes
    _check_class_indices([spec.target_class], n)
    canon = canonical_vectors(store).astype(np.float64)
    sims = canon @ canon[spec.target_class]
    negatives = [c for c in range(n) if c != spec.target_class]
    if spec.selection == "easy":
        negatives.sort(key=lambda c: (-sims[c], c))
    else:
        negatives.sort(key=lambda c: (sims[c], c))
    k = min(math.ceil(spec.ratio * (n - 1)), n - 1)
    return [spec.target_class] + negatives[:k]


def _restrict_evidence(evidence: EvidenceBundle,
                       kept: Sequence[int]) -> EvidenceBundle:
    return EvidenceBundle(
        DenseGrid(np.ascontiguousarray(evidence.mask_evidence.data[:, :, kept])),
        evidence.evidence_kind,
        evidence.presence[kept])


def restrict_to_classes(bank: PromptBank, store: EmbeddingStore,
                        evidence: EvidenceBundle,
                        classes: Sequence[int]) -> tuple[PromptBank,
                                                         EmbeddingStore,
                                                         EvidenceBundle]:
    """Project bank, store and evidence onto a class subset, re-indexed 0..k-1.

    The store keeps the parent's unit rows as they are.
    """
    _check_class_counts(store=store.num_classes, bank=bank.num_classes,
                        evidence=evidence.mask_evidence.dims[2])
    kept = _check_class_indices(classes, bank.num_classes)
    sub_bank = PromptBank(tuple(bank.classes[ci] for ci in kept))
    spans = [store.offsets[ci] for ci in kept]
    rows = [store.vectors[start:start + count] for start, count in spans]
    sub_store = EmbeddingStore(np.concatenate(rows),
                               _offsets([count for _, count in spans]))
    return sub_bank, sub_store, _restrict_evidence(evidence, kept)


def run_sweep(scene: SyntheticScene, *,
              target_class: int = 0,
              p_values: Sequence[float],
              selections: Sequence[str] = SELECTION_MODES,
              lambda_values: Sequence[float] = (DEFAULT_LAMBDA,),
              tau_values: Sequence[float] = (DEFAULT_TAU,),
              aggregations: Sequence[str] = ("lse",),
              feature_sources: Mapping[str, DenseGrid] | None = None,
              normalize_order: str = "both",
              excluded: str = "ignore",
              threads: int = 1) -> list[SweepRow]:
    """Evaluate every axis combination on one scene.

    Rows come out in lexicographic axis order (p, selection, lambda_prior,
    tau_s, aggregation, feature_source) with each axis in its given order.
    Pooled class scores depend only on (feature source, aggregation), never
    on who competes, so they are built once each over every class.  Each
    (p, selection) group then log-softmaxes its competitors' columns, and
    every setting in it only fuses, decodes and scores.  `threads` is
    passed to `pooled_scores`.
    """
    check_choice("bad_excluded", "excluded", excluded, EXCLUDED_MODES)
    check_threads(threads)
    for axis_name, axis in (("p", p_values), ("selection", selections),
                            ("lambda_prior", lambda_values),
                            ("tau_s", tau_values),
                            ("aggregation", aggregations)):
        if len(axis) == 0:
            raise SegfuseError("empty_sweep_axis",
                               f"sweep axis '{axis_name}' is empty")
    for tau in tau_values:  # max and average ignore tau_s, but it is still checked
        check_tau_s(tau)
    # Every competitor set is picked first, so a bad ratio, selection or
    # target fails before any pooled build.
    groups = [(p, selection, sorted(select_competitors(
        scene.embeddings, scene.bank, CompetitionSpec(target_class, p, selection))))
        for p, selection in itertools.product(p_values, selections)]
    sources = dict(feature_sources) if feature_sources else {"primary": scene.features}
    fusions = {lam: FusionConfig(lambda_prior=lam) for lam in lambda_values}
    # format_sweep_csv prints these axes at 6 decimals: two distinct values
    # that print alike would give rows no reader can tell apart.
    for axis_name, axis in (("p", p_values), ("lambda_prior", lambda_values),
                            ("tau_s", tau_values)):
        printed = {}
        for value in axis:
            first = printed.setdefault(f"{value:.6f}", value)
            if first != value:
                raise SegfuseError(
                    "indistinct_sweep_values",
                    f"sweep axis '{axis_name}' values {first!r} and {value!r} "
                    f"both print as {value:.6f}")
    modes = {(tau, kind): Aggregation(kind, tau)
             for tau in tau_values for kind in aggregations}
    pooled = {(name, mode): pooled_scores(features, scene.embeddings, mode,
                                          scene.height, scene.width,
                                          normalize_order=normalize_order,
                                          threads=threads)
              for name, features in sources.items()
              for mode in dict.fromkeys(modes.values())}

    n = scene.num_classes
    # merge-background scores excluded gt pixels as an extra class n.
    cm_args = (n, n) if excluded == "ignore" else (n + 1, None)
    rows = []
    competitors = None
    for p, selection, group in groups:
        if group != competitors:
            competitors = group
            evidence = _restrict_evidence(scene.evidence, competitors)
            kept = np.asarray(competitors, dtype=np.uint32)
            gt = LabelMap(np.where(np.isin(scene.gt.data, kept),
                                   scene.gt.data, np.uint32(n)))
            log_pis = {key: DenseGrid(log_prior_array(u[..., competitors])
                                      .astype(np.float32))
                       for key, u in pooled.items()}
        for lam, tau, kind, name in itertools.product(
                lambda_values, tau_values, aggregations, sources):
            prior = log_pis[name, modes[tau, kind]]
            pred = fuse_and_decode(evidence, prior, fusions[lam])
            cm = ConfusionMatrix(*cm_args)
            cm.accumulate(gt, LabelMap(kept[pred.data]))
            rows.append(SweepRow(p, selection, lam, tau, kind, name, miou(cm)))
    return rows


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
