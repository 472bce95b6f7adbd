"""Competitor selection and the restricted-competition sweep."""
import itertools
import math

import numpy as np
import pytest

from segfuse import (Aggregation, CompetitionSpec, ConfusionMatrix, DenseGrid,
                     EvidenceBundle, FusionConfig, LabelMap, SegfuseError,
                     build_prior, format_sweep_csv, fuse_and_decode,
                     generate_scene, miou, parse_prompt_file, pooled_scores,
                     restrict_to_classes, run_sweep, select_competitors,
                     store_from_array)
from segfuse import competition
from segfuse import prior as prior_module
from segfuse.competition import SweepRow
from segfuse.metrics import per_class_iou
from segfuse.prior import log_prior_array

from scenes import confusable_scene


def _store_with_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    bank = parse_prompt_file("\n".join(f"cls{i}" for i in range(rows.shape[0])))
    return store_from_array(rows, bank), bank


def test_p_zero_is_target_only():
    store, bank = _store_with_rows(np.eye(4))
    got = select_competitors(store, bank, CompetitionSpec(2, 0.0, "easy"))
    assert got == [2]


def test_p_one_is_every_class():
    store, bank = _store_with_rows(np.eye(5))
    for mode in ("easy", "hard"):
        got = select_competitors(store, bank, CompetitionSpec(1, 1.0, mode))
        assert sorted(got) == [0, 1, 2, 3, 4]
        assert got[0] == 1


def test_hand_placed_ranking_easy_and_hard():
    # cos to class 0: class1=0.9, class2=0.5, class3=0.0
    rows = np.array([
        [1.0, 0.0],
        [0.9, math.sqrt(1 - 0.81)],
        [0.5, math.sqrt(0.75)],
        [0.0, 1.0],
    ])
    store, bank = _store_with_rows(rows)
    # brute-force ranking oracle
    unit = store.vectors.astype(np.float64)
    sims = unit @ unit[0]
    easy_rank = sorted([1, 2, 3], key=lambda c: (-sims[c], c))
    hard_rank = sorted([1, 2, 3], key=lambda c: (sims[c], c))
    assert easy_rank == [1, 2, 3]
    assert hard_rank == [3, 2, 1]
    # ceil(0.34 * 3) = 2 negatives under the ceiling rule
    assert select_competitors(store, bank, CompetitionSpec(0, 0.34, "easy")) == [0, 1, 2]
    assert select_competitors(store, bank, CompetitionSpec(0, 0.34, "hard")) == [0, 3, 2]
    # one negative needs p <= 1/3
    assert select_competitors(store, bank, CompetitionSpec(0, 1.0 / 3.0, "easy")) == [0, 1]
    assert select_competitors(store, bank, CompetitionSpec(0, 1.0 / 3.0, "hard")) == [0, 3]


def test_selection_matches_brute_force_on_random_stores():
    rng = np.random.default_rng(37)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        store, bank = _store_with_rows(rng.standard_normal((n, 6)))
        target = int(rng.integers(0, n))
        p = float(rng.uniform(0, 1))
        unit = store.vectors.astype(np.float64)
        sims = unit @ unit[target]
        k = math.ceil(p * (n - 1))
        for mode in ("easy", "hard"):
            key = (lambda c: (-sims[c], c)) if mode == "easy" else (lambda c: (sims[c], c))
            expect = [target] + sorted(
                (c for c in range(n) if c != target), key=key)[:k]
            got = select_competitors(store, bank, CompetitionSpec(target, p, mode))
            assert got == expect


def test_competitor_sets_nest_with_p():
    rng = np.random.default_rng(41)
    store, bank = _store_with_rows(rng.standard_normal((7, 5)))
    for mode in ("easy", "hard"):
        previous = set()
        for p in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            current = set(select_competitors(store, bank,
                                             CompetitionSpec(3, p, mode)))
            assert previous <= current
            previous = current


def test_spec_validation():
    for ratio in (1.5, -0.1, math.nan):
        with pytest.raises(SegfuseError) as err:
            CompetitionSpec(0, ratio, "easy")
        assert err.value.code == "bad_ratio"
    with pytest.raises(SegfuseError) as err:
        CompetitionSpec(0, 0.5, "easiest")
    assert err.value.code == "bad_selection"


def test_target_class_out_of_range():
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)
    for target in (3, -1):
        with pytest.raises(SegfuseError) as err:
            select_competitors(scene.embeddings, scene.bank,
                               CompetitionSpec(target, 0.5))
        assert err.value.code == "bad_class_index"


def test_restrict_to_classes_reindexes():
    scene = generate_scene(5, 6, 6, 8, 4, 3, 0.2, 0.3)
    keep = [1, 3]
    bank, store, evidence = restrict_to_classes(
        scene.bank, scene.embeddings, scene.evidence, keep)
    assert bank.num_classes == 2
    assert bank.classes == tuple(scene.bank.classes[ci] for ci in keep)
    assert bank.classes[0][0] == scene.bank.classes[1][0]
    assert store.num_vectors == bank.total_synonyms
    assert np.array_equal(evidence.mask_evidence.data,
                          scene.evidence.mask_evidence.data[:, :, keep])
    assert np.array_equal(evidence.presence, scene.evidence.presence[keep])
    old_start, old_count = scene.embeddings.offsets[3]
    new_start, new_count = store.offsets[1]
    assert old_count == new_count
    assert np.allclose(store.vectors[new_start:new_start + new_count],
                       scene.embeddings.vectors[old_start:old_start + old_count],
                       atol=1e-7)


@pytest.mark.parametrize("bad", [-1, 4])
def test_restrict_to_classes_rejects_out_of_range_index(bad):
    scene = generate_scene(5, 6, 6, 8, 4, 3, 0.2, 0.3)
    with pytest.raises(SegfuseError) as err:
        restrict_to_classes(scene.bank, scene.embeddings, scene.evidence,
                            [0, bad])
    assert err.value.code == "bad_class_index"


def _sweep(scene, **kwargs):
    defaults = dict(target_class=0, p_values=[0.0, 0.5, 1.0],
                    selections=["easy", "hard"], lambda_values=[0.7],
                    tau_values=[0.1], aggregations=["lse"])
    defaults.update(kwargs)
    return run_sweep(scene, **defaults)


def test_sweep_is_deterministic():
    scene = generate_scene(3, 12, 12, 12, 5, 3, 0.3, 0.7)
    assert _sweep(scene) == _sweep(scene)


_GRID = dict(target_class=0, p_values=[0.0, 0.3, 0.6, 1.0],
             selections=["easy", "hard"], lambda_values=[0.3, 0.9],
             tau_values=[0.05, 0.1], aggregations=["lse", "average", "max"])


def test_sweep_pools_once_per_source_and_aggregation(monkeypatch):
    scene = generate_scene(3, 12, 12, 12, 5, 3, 0.3, 0.7)
    other = generate_scene(4, 12, 12, 12, 5, 3, 0.3, 1.2)
    built = []

    def counting(features, store, mode, *args, **kwargs):
        built.append((id(features), mode))
        return pooled_scores(features, store, mode, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_sweep must not build a full prior")

    monkeypatch.setattr(competition, "pooled_scores", counting)
    monkeypatch.setattr(prior_module, "build_prior", forbidden)
    monkeypatch.setattr(competition, "build_prior", forbidden, raising=False)
    rows = run_sweep(scene, feature_sources={"primary": scene.features,
                                             "other": other.features}, **_GRID)
    assert len(rows) == 4 * 2 * 2 * 2 * 3 * 2
    # two sources x {lse(0.05), lse(0.1), average, max}: average and max
    # ignore tau, so they are pooled once across the tau axis
    assert len(built) == len(set(built)) == 2 * 4


def test_sweep_labels_are_log_softmax_of_pooled_columns(monkeypatch):
    scene = generate_scene(8, 14, 13, 10, 6, 3, 0.3, 0.6)
    labels = []

    def record(evidence, prior, cfg):
        out = fuse_and_decode(evidence, prior, cfg)
        labels.append(out.data)
        return out

    monkeypatch.setattr(competition, "fuse_and_decode", record)
    rows = run_sweep(scene, **_GRID)
    assert len(labels) == len(rows)
    pooled = {}
    for row, got in zip(rows, labels):
        mode = Aggregation(row.aggregation, row.tau_s)
        if mode not in pooled:
            pooled[mode] = pooled_scores(scene.features, scene.embeddings,
                                         mode, 14, 13)
        comp = sorted(select_competitors(
            scene.embeddings, scene.bank, CompetitionSpec(0, row.p, row.selection)))
        log_pi = log_prior_array(pooled[mode][..., comp]).astype(np.float32)
        evidence = EvidenceBundle(
            DenseGrid(scene.evidence.mask_evidence.data[:, :, comp]),
            "logits", scene.evidence.presence[comp])
        want = fuse_and_decode(evidence, DenseGrid(log_pi),
                               FusionConfig(row.lambda_prior))
        assert np.array_equal(got, want.data), row


def _restricted_reference(scene, sources, excluded, normalize_order):
    """The sweep written out through a full restricted prior per setting."""
    n = scene.num_classes
    rows = []
    for p, sel, lam, tau, kind, (name, features) in itertools.product(
            _GRID["p_values"], _GRID["selections"], _GRID["lambda_values"],
            _GRID["tau_values"], _GRID["aggregations"], sources.items()):
        comp = sorted(select_competitors(scene.embeddings, scene.bank,
                                         CompetitionSpec(0, p, sel)))
        bank, store, evidence = restrict_to_classes(
            scene.bank, scene.embeddings, scene.evidence, comp)
        prior = build_prior(features, store, bank, Aggregation(kind, tau),
                            scene.height, scene.width,
                            normalize_order=normalize_order)
        sub = fuse_and_decode(evidence, prior, FusionConfig(lam))
        pred = LabelMap(np.asarray(comp, dtype=np.uint32)[sub.data])
        gt = LabelMap(np.where(np.isin(scene.gt.data, comp), scene.gt.data, n))
        cm = (ConfusionMatrix(n, ignore_index=n) if excluded == "ignore"
              else ConfusionMatrix(n + 1))
        cm.accumulate(gt, pred)
        rows.append(SweepRow(p, sel, lam, tau, kind, name, miou(cm)))
    return rows


@pytest.mark.parametrize("excluded", ["ignore", "merge-background"])
@pytest.mark.parametrize("seed, shape, normalize_order", [
    (3, (12, 12, 12, 5, 3, None), "both"),
    (8, (14, 13, 10, 6, 3, None), "before"),
    (15, (16, 16, 12, 7, 4, 6), "after"),   # 6x6 features upsampled
])
def test_sweep_matches_restricted_prior_reference(seed, shape, normalize_order,
                                                  excluded):
    h, w, dim, c, m, fsize = shape
    scene = generate_scene(seed, h, w, dim, c, m, 0.3, 0.6, fsize, fsize)
    other = generate_scene(seed + 1, h, w, dim, c, m, 0.3, 1.2, fsize, fsize)
    sources = {"primary": scene.features, "other": other.features}
    rows = run_sweep(scene, feature_sources=sources, excluded=excluded,
                     normalize_order=normalize_order, **_GRID)
    assert rows == _restricted_reference(scene, sources, excluded,
                                         normalize_order)


def test_sweep_row_order_is_lexicographic():
    scene = generate_scene(9, 8, 8, 8, 4, 2, 0.2, 0.5)
    rows = run_sweep(scene, target_class=0, p_values=[0.0, 1.0],
                     selections=["easy", "hard"], lambda_values=[0.0, 0.7],
                     tau_values=[0.1], aggregations=["lse", "max"])
    keys = [(r.p, r.selection, r.lambda_prior, r.tau_s, r.aggregation,
             r.feature_source) for r in rows]
    assert len(rows) == 2 * 2 * 2 * 1 * 2
    expect = [(p, s, lam, 0.1, agg, "primary")
              for p in (0.0, 1.0) for s in ("easy", "hard")
              for lam in (0.0, 0.7) for agg in ("lse", "max")]
    assert keys == expect


def test_p_zero_rows_agree_across_selection_modes():
    scene = generate_scene(13, 10, 10, 10, 5, 2, 0.3, 0.6)
    rows = _sweep(scene, p_values=[0.0])
    easy = [r for r in rows if r.selection == "easy"]
    hard = [r for r in rows if r.selection == "hard"]
    assert len(easy) == len(hard) == 1
    assert easy[0].miou == hard[0].miou


def test_perfect_evidence_full_competition_is_perfect():
    scene = generate_scene(21, 12, 12, 16, 4, 2, 0.0, 0.0)
    rows = _sweep(scene, p_values=[1.0], selections=["easy"],
                  lambda_values=[0.0])
    assert rows[0].miou == pytest.approx(1.0)


def test_lambda_zero_presence_zero_is_structural_argmax():
    scene = generate_scene(17, 10, 10, 8, 4, 2, 0.2, 0.8)
    silent = EvidenceBundle(scene.evidence.mask_evidence, "logits",
                            np.zeros(4, dtype=np.float32))
    scene.evidence = silent
    rows = _sweep(scene, p_values=[1.0], selections=["easy"],
                  lambda_values=[0.0])
    baseline = np.argmax(scene.evidence.mask_evidence.data, axis=2)
    from segfuse import ConfusionMatrix, LabelMap, miou
    cm = ConfusionMatrix(4)
    cm.accumulate(scene.gt, LabelMap(baseline.astype(np.uint32)))
    assert rows[0].miou == pytest.approx(miou(cm), abs=0.0)


def test_alt_feature_source_axis():
    scene = generate_scene(25, 8, 8, 8, 3, 2, 0.2, 0.4)
    blurred = generate_scene(26, 8, 8, 8, 3, 2, 0.2, 1.5)
    rows = _sweep(scene, p_values=[1.0], selections=["easy"],
                  feature_sources={"primary": scene.features,
                                   "noisy": blurred.features})
    assert [r.feature_source for r in rows] == ["primary", "noisy"]


def test_merge_background_mode_scores_excluded_pixels():
    scene = generate_scene(29, 10, 10, 8, 5, 2, 0.2, 0.4)
    ignore_rows = _sweep(scene, p_values=[0.4], selections=["easy"])
    merge_rows = _sweep(scene, p_values=[0.4], selections=["easy"],
                        excluded="merge-background")
    # excluded pixels count as unrecoverable background errors, so the merge
    # variant can only do worse
    assert merge_rows[0].miou <= ignore_rows[0].miou


def test_sweep_csv_shape():
    scene = generate_scene(31, 8, 8, 8, 4, 2, 0.2, 0.4)
    rows = _sweep(scene)
    text = format_sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "p,selection,lambda_prior,tau_s,aggregation,feature_source,miou"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0.000000"
    assert first[1] == "easy"
    assert len(first) == 7


def test_empty_axis_rejected():
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)
    with pytest.raises(SegfuseError) as err:
        run_sweep(scene, p_values=[], selections=["easy"])
    assert err.value.code == "empty_sweep_axis"
    with pytest.raises(SegfuseError) as err:
        run_sweep(scene, p_values=[0.5], excluded="drop")
    assert err.value.code == "bad_excluded"


@pytest.mark.parametrize("changes, code", [
    ({"p_values": [0.5, 2.0]}, "bad_ratio"),
    ({"selections": ["easy", "medium"]}, "bad_selection"),
    ({"target_class": 3}, "bad_class_index"),
    # average and max ignore tau_s, but a bad one is still refused
    ({"tau_values": [-1.0], "aggregations": ["max"]}, "bad_tau_s"),
    ({"tau_values": [math.nan, 0.1], "aggregations": ["average"]}, "bad_tau_s"),
    ({"tau_values": [0.1, 1e-40]}, "bad_tau_s"),
])
def test_sweep_checks_every_setting_before_pooling(monkeypatch, changes, code):
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("pooled before every setting was checked")

    monkeypatch.setattr(competition, "pooled_scores", forbidden)
    with pytest.raises(SegfuseError) as err:
        run_sweep(scene, **{"p_values": [0.0, 1.0], **changes})
    assert err.value.code == code


def _target_iou(scene, p, selection, target=0):
    comp = sorted(select_competitors(scene.embeddings, scene.bank,
                                     CompetitionSpec(target, p, selection)))
    bank, store, evidence = restrict_to_classes(
        scene.bank, scene.embeddings, scene.evidence, comp)
    prior = build_prior(scene.features, store, bank, Aggregation("lse", 0.1),
                        scene.height, scene.width)
    pred_sub = fuse_and_decode(evidence, prior, FusionConfig(0.7))
    pred = LabelMap(np.asarray(comp, dtype=np.uint32)[pred_sub.data])
    n = scene.num_classes
    gt = LabelMap(np.where(np.isin(scene.gt.data, np.asarray(comp, np.uint32)),
                           scene.gt.data, np.uint32(n)))
    cm = ConfusionMatrix(n, ignore_index=n).accumulate(gt, pred)
    return per_class_iou(cm)[target]


def test_easy_negatives_hurt_the_target_more_than_hard_ones():
    # With a near-duplicate class pair, admitting the confuser first (easy)
    # must not beat keeping it out (hard) on the target's own IoU.
    scene = confusable_scene()
    for p in (0.2, 0.4, 0.6, 0.8):
        easy = _target_iou(scene, p, "easy")
        hard = _target_iou(scene, p, "hard")
        assert easy <= hard
