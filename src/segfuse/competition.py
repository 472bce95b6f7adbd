"""Controlled inter-class competition: competitor selection and sweeps.

For a target class and a ratio p, the competitor set is the target plus the
ceil(p * (C - 1)) non-target classes ranked by canonical-embedding cosine
similarity (descending for "easy" negatives, ascending for "hard" ones).  A
sweep runs the restricted pipeline for every setting combination and reports
mIoU against the ground truth with non-competitor pixels either ignored or
merged into a background class.  Intra-class pooling never looks at the other
classes, so the sweep builds each feature source's similarities once, pools
them once per aggregation over every class, and runs only the inter-class
steps (log-softmax, fusion, decode) on the competitors' columns.  Settings
that share a competitor set, lambda_prior, feature source and aggregation
give the same mIoU, so each such key is scored once.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingStore, _offsets, canonical_vectors
from .errors import SegfuseError, check_choice, check_equal, check_float, check_int
from .fusion import (DEFAULT_LAMBDA, EvidenceBundle, FusionConfig,
                     fuse_and_decode)
from .grid import DenseGrid, LabelMap
from .metrics import ConfusionMatrix, miou
from .prior import DEFAULT_TAU, Aggregation, log_prior_array, pooled_scores
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
        check_float("bad_ratio", "ratio", self.ratio, 0.0, 1.0)
        check_choice("bad_selection", "selection", self.selection, SELECTION_MODES)


def _check_class_indices(classes: Sequence[int], n: int) -> list[int]:
    """The one check on a class subset: not empty, each index in 0..n-1."""
    kept = list(classes)
    check_int("empty_class_subset", "class subset size", len(kept), 1)
    for ci in kept:
        check_int("bad_class_index", "class index", ci, 0, n - 1)
    # as Python ints: numpy indexes with floats if a uint64 meets an int
    return [int(ci) for ci in kept]


@dataclass(frozen=True)
class SweepRow:
    p: float
    selection: str
    lambda_prior: float
    tau_s: float
    aggregation: str
    feature_source: str
    miou: float


# The sweep CSV's columns, in order: a `SweepRow` field and its format.  The
# axes come first, in `run_sweep`'s order, and `miou` last.
_SWEEP_COLUMNS = (("p", "{:.6f}"), ("selection", "{}"), ("lambda_prior", "{:.6f}"),
                  ("tau_s", "{:.6f}"), ("aggregation", "{}"),
                  ("feature_source", "{}"), ("miou", "{:.6f}"))


def select_competitors(store: EmbeddingStore, bank: PromptBank,
                       spec: CompetitionSpec) -> list[int]:
    """Target class plus the top ceil(p * (C - 1)) ranked negatives.

    Ranking uses cosine similarity between canonical embeddings only; easy
    keeps the most similar negatives first, hard the least similar.  Ties
    break toward the smaller class index.  The ceiling guarantees p=1 admits
    every negative and that the sets nest as p grows.
    """
    check_equal("shape_mismatch", "class counts", store=store.num_classes,
                bank=bank.num_classes)
    n = bank.num_classes
    target, = _check_class_indices([spec.target_class], n)
    canon = canonical_vectors(store).astype(np.float64)
    sims = canon @ canon[target]
    # the stable sort keeps tied classes in index order
    order = np.argsort(-sims if spec.selection == "easy" else sims, kind="stable")
    negatives = order[order != target].tolist()
    k = min(math.ceil(spec.ratio * (n - 1)), n - 1)
    return [target] + negatives[:k]


def _restrict_evidence(evidence: EvidenceBundle,
                       kept: Sequence[int]) -> EvidenceBundle:
    return EvidenceBundle(
        DenseGrid(np.take(evidence.mask_evidence.data, kept, axis=2)),
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
    check_equal("shape_mismatch", "class counts", store=store.num_classes,
                bank=bank.num_classes, evidence=evidence.mask_evidence.dims[2])
    kept = _check_class_indices(classes, bank.num_classes)
    sub_bank = PromptBank(tuple(bank.classes[ci] for ci in kept))
    spans = [store.offsets[ci] for ci in kept]
    rows = [store.vectors[start:start + count] for start, count in spans]
    sub_store = EmbeddingStore(np.concatenate(rows),
                               _offsets([count for _, count in spans]))
    return sub_bank, sub_store, _restrict_evidence(evidence, kept)


def _score_group(scene: SyntheticScene, competitors: tuple[int, ...],
                 gt_data: np.ndarray, pooled, fusions,
                 excluded: str) -> dict[tuple, float]:
    """The mIoU of every (lambda_prior, source, `Aggregation`) key on one
    competitor set, scored in local labels 0..k-1.

    The restricted evidence and the ground truth are made once, and one log
    prior at a time.  Every ground-truth label outside the set becomes k.
    Fusion runs per source, then per `Aggregation`, then per lambda_prior.
    """
    kept = np.asarray(competitors)
    k = len(kept)
    local = np.full(scene.num_classes + 1, k, dtype=np.uint32)
    local[kept] = np.arange(k, dtype=np.uint32)
    gt = LabelMap(local[gt_data])
    evidence = _restrict_evidence(scene.evidence, kept)
    # merge-background scores the excluded pixels as an extra class k.
    cm_args = (k, k) if excluded == "ignore" else (k + 1, None)
    scores = {}
    for name, by_mode in pooled.items():
        for mode, u in by_mode.items():
            prior = DenseGrid(log_prior_array(u[..., kept]).astype(np.float32))
            for lam, cfg in fusions.items():
                pred = fuse_and_decode(evidence, prior, cfg)
                scores[lam, name, mode] = miou(
                    ConfusionMatrix(*cm_args).accumulate(gt, pred))
    return scores


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
    `feature_sources` defaults to the scene's own features, named
    `primary`; a name must not hold a comma or a line break.

    A row's mIoU depends only on its key (competitor set, lambda_prior,
    feature source, `Aggregation`), so each distinct key is scored once and
    every repeat row copies its mIoU: average and max ignore tau_s, and p = 0
    or 1 picks the same set under either selection.  Pooled class scores
    depend only on (feature source, aggregation), never on who competes, so
    one `pooled_scores` call per source builds its similarities once and
    pools them once per distinct `Aggregation`, over every class.  A (p,
    selection) group with a new competitor set then restricts the evidence
    and re-indexes the ground truth once, log-softmaxes its competitors'
    columns once per source and `Aggregation`, and only fuses, decodes and
    scores each setting, in local labels.  A group's arrays are dropped
    before the next group starts, and a group whose set came earlier needs
    none.  `threads` is passed to `pooled_scores`.
    """
    check_choice("bad_excluded", "excluded", excluded, EXCLUDED_MODES)
    check_int("bad_threads", "threads", threads, 1)
    sources = ({"primary": scene.features} if feature_sources is None
               else dict(feature_sources))
    for name in sources:  # the CSV would split or break the row
        if not isinstance(name, str) or any(ch in name for ch in ",\r\n"):
            raise SegfuseError("bad_alt_features",
                               f"feature source name {name!r} must be a string "
                               "with no comma or line break")
    for tau in tau_values:  # max and average ignore tau_s, but it is still checked
        Aggregation("lse", tau)
    # Every competitor set is picked first, so a bad ratio, selection or
    # target fails before any pooled build.
    groups = [(p, selection, tuple(sorted(select_competitors(
        scene.embeddings, scene.bank, CompetitionSpec(target_class, p, selection)))))
        for p, selection in itertools.product(p_values, selections)]
    fusions = {lam: FusionConfig(lambda_prior=lam) for lam in lambda_values}
    # Every axis needs a value, and two distinct values that format_sweep_csv
    # prints alike would give rows no reader can tell apart.
    for (axis_name, shown), axis in zip(_SWEEP_COLUMNS, (
            p_values, selections, lambda_values, tau_values, aggregations,
            sources)):
        check_int("empty_sweep_axis", f"sweep axis '{axis_name}' value count",
                  len(axis), 1)
        printed = {}
        for value in axis:
            first = printed.setdefault(shown.format(value), value)
            if first != value:
                raise SegfuseError(
                    "indistinct_sweep_values",
                    f"sweep axis '{axis_name}' values {first!r} and {value!r} "
                    f"both print as {shown.format(value)}")
    modes = {(tau, kind): Aggregation(kind, tau)
             for tau in tau_values for kind in aggregations}
    distinct_modes = tuple(dict.fromkeys(modes.values()))
    pooled = {name: dict(zip(distinct_modes, pooled_scores(
        features, scene.embeddings, distinct_modes, scene.height, scene.width,
        normalize_order=normalize_order, threads=threads)))
        for name, features in sources.items()}

    # A label past the class range is excluded, as every non-competitor is.
    gt_data = np.minimum(scene.gt.data, scene.num_classes)
    scored = {}  # competitor set -> its scores
    rows = []
    for p, selection, competitors in groups:
        if competitors not in scored:
            scored[competitors] = _score_group(scene, competitors, gt_data,
                                               pooled, fusions, excluded)
        scores = scored[competitors]
        for lam, tau, kind, name in itertools.product(
                lambda_values, tau_values, aggregations, sources):
            rows.append(SweepRow(p, selection, lam, tau, kind, name,
                                 scores[lam, name, modes[tau, kind]]))
    return rows


SWEEP_CSV_HEADER = ",".join(name for name, _ in _SWEEP_COLUMNS)


def format_sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(",".join(shown.format(getattr(r, name))
                              for name, shown in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(format_sweep_csv(rows))
