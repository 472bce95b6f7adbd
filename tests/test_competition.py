"""Competitor selection and the restricted-competition sweep."""
import hashlib
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

from scenes import bench_module, confusable_scene, traced_peak


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


def _check_selection_by_brute_force(rows, target, p):
    store, bank = _store_with_rows(rows)
    n = len(rows)
    unit = store.vectors.astype(np.float64)
    sims = unit @ unit[target]
    k = math.ceil(p * (n - 1))
    for mode in ("easy", "hard"):
        key = (lambda c: (-sims[c], c)) if mode == "easy" else (lambda c: (sims[c], c))
        expect = [target] + sorted(
            (c for c in range(n) if c != target), key=key)[:k]
        got = select_competitors(store, bank, CompetitionSpec(target, p, mode))
        assert got == expect


def test_selection_matches_brute_force_on_random_stores():
    rng = np.random.default_rng(37)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        rows = rng.standard_normal((n, 6))
        _check_selection_by_brute_force(rows, int(rng.integers(0, n)),
                                        float(rng.uniform(0, 1)))
    # Repeated rows tie their cosines exactly, and ties go to the smaller
    # index.  From 17 items numpy's default sort is no longer stable (below,
    # it is an insertion sort), so these stores are 17 to 150 classes.
    for _ in range(20):
        n = int(rng.integers(17, 151))
        distinct = rng.standard_normal((int(rng.integers(2, 6)), 6))
        rows = distinct[rng.integers(0, len(distinct), size=n)]
        _check_selection_by_brute_force(rows, int(rng.integers(0, n)),
                                        float(rng.uniform(0, 1)))


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
    for target in (3, -1, 0.5, True):
        with pytest.raises(SegfuseError) as err:
            select_competitors(scene.embeddings, scene.bank,
                               CompetitionSpec(target, 0.5))
        assert err.value.code == "bad_class_index"


def test_restrict_to_classes_reindexes():
    # In the D16 scene, normalizing class 0's last row again moves its bits.
    # A numpy unsigned index mixed with Python ints counts as its int.
    for scene, given in ((generate_scene(5, 6, 6, 8, 4, 3, 0.2, 0.3), [1, 3]),
                         (generate_scene(3, 6, 6, 16, 8, 4, 0.2, 0.3), [5, 0]),
                         (generate_scene(5, 6, 6, 8, 4, 3, 0.2, 0.3),
                          [np.uint64(1), 0])):
        keep = [int(ci) for ci in given]
        bank, store, evidence = restrict_to_classes(
            scene.bank, scene.embeddings, scene.evidence, given)
        assert bank.num_classes == 2
        assert bank.classes == tuple(scene.bank.classes[ci] for ci in keep)
        assert store.num_vectors == bank.total_synonyms
        assert np.array_equal(evidence.mask_evidence.data,
                              scene.evidence.mask_evidence.data[:, :, keep])
        assert np.array_equal(evidence.presence, scene.evidence.presence[keep])
        for new, old in enumerate(keep):
            old_start, old_count = scene.embeddings.offsets[old]
            new_start, new_count = store.offsets[new]
            assert old_count == new_count
            assert np.array_equal(
                store.vectors[new_start:new_start + new_count],
                scene.embeddings.vectors[old_start:old_start + old_count])


def test_class_counts_must_agree():
    three = generate_scene(5, 6, 6, 8, 3, 2, 0.2, 0.3)
    five = generate_scene(5, 6, 6, 8, 5, 2, 0.2, 0.3)
    calls = [
        lambda: select_competitors(three.embeddings, five.bank,
                                   CompetitionSpec(0, 1.0)),
        lambda: restrict_to_classes(five.bank, three.embeddings,
                                    five.evidence, [0, 4]),
        # the evidence's class axis is checked too
        lambda: restrict_to_classes(three.bank, five.embeddings,
                                    three.evidence, [0, 2]),
        lambda: restrict_to_classes(three.bank, three.embeddings,
                                    five.evidence, [0, 2]),
        lambda: build_prior(three.features, three.embeddings, five.bank,
                            Aggregation("lse"), 6, 6),
    ]
    for call in calls:
        with pytest.raises(SegfuseError) as err:
            call()
        assert err.value.code == "shape_mismatch"


def test_numpy_unsigned_target_counts_as_its_int():
    # Mixed with Python ints, a uint64 would make numpy index with floats.
    scene = generate_scene(5, 6, 6, 8, 4, 3, 0.2, 0.3)
    for p in (0.0, 0.5, 1.0):
        got = select_competitors(scene.embeddings, scene.bank,
                                 CompetitionSpec(np.uint64(1), p))
        assert got == select_competitors(scene.embeddings, scene.bank,
                                         CompetitionSpec(1, p))
        assert all(type(ci) is int for ci in got)
    assert (run_sweep(scene, p_values=[0.5, 1.0], target_class=np.uint64(1))
            == run_sweep(scene, p_values=[0.5, 1.0], target_class=1))


def test_restrict_to_an_empty_subset_fails_with_a_code():
    scene = generate_scene(5, 6, 6, 8, 4, 3, 0.2, 0.3)
    with pytest.raises(SegfuseError) as err:
        restrict_to_classes(scene.bank, scene.embeddings, scene.evidence, [])
    assert err.value.code == "empty_class_subset"


@pytest.mark.parametrize("bad", [-1, 4, 2.0, True])
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

    def counting(features, store, modes, *args, **kwargs):
        built.append((id(features), tuple(modes)))
        return pooled_scores(features, store, modes, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_sweep must not build a full prior")

    monkeypatch.setattr(competition, "pooled_scores", counting)
    monkeypatch.setattr(prior_module, "build_prior", forbidden)
    monkeypatch.setattr(competition, "build_prior", forbidden, raising=False)
    rows = run_sweep(scene, feature_sources={"primary": scene.features,
                                             "other": other.features}, **_GRID)
    assert len(rows) == 4 * 2 * 2 * 2 * 3 * 2
    # one similarity build per source, pooled with every distinct
    # aggregation: average and max ignore tau, so they are pooled once
    # across the tau axis
    every_mode = {Aggregation("lse", 0.05), Aggregation("lse", 0.1),
                  Aggregation("average"), Aggregation("max")}
    assert [source for source, _ in built] == [id(scene.features),
                                               id(other.features)]
    for _, modes in built:
        assert len(modes) == len(every_mode) and set(modes) == every_mode


def test_sweep_labels_are_log_softmax_of_pooled_columns(monkeypatch):
    scene = generate_scene(8, 14, 13, 10, 6, 3, 0.3, 0.6)
    other = generate_scene(9, 14, 13, 10, 6, 3, 0.3, 1.2)
    sources = {"primary": scene.features, "other": other.features}
    labels = []

    def record(evidence, prior, cfg):
        out = fuse_and_decode(evidence, prior, cfg)
        labels.append(out.data)
        return out

    monkeypatch.setattr(competition, "fuse_and_decode", record)
    rows = run_sweep(scene, feature_sources=sources, **_GRID)
    # Each distinct (competitor set, source, Aggregation, lambda_prior) is
    # fused once: per new competitor set in row order, then per source,
    # Aggregation and lambda_prior, each in order of first appearance.
    ranks = ({}, {}, {}, {})
    settings = set()
    for row in rows:
        key = (tuple(sorted(select_competitors(
                   scene.embeddings, scene.bank,
                   CompetitionSpec(0, row.p, row.selection)))),
               row.feature_source, Aggregation(row.aggregation, row.tau_s),
               row.lambda_prior)
        for rank, part in zip(ranks, key):
            rank.setdefault(part, len(rank))
        settings.add(key)
    order = sorted(settings, key=lambda key: tuple(
        rank[part] for rank, part in zip(ranks, key)))
    assert len(labels) == len(order) < len(rows)
    for (comp, name, mode, lam), got in zip(order, labels):
        pooled, = pooled_scores(sources[name], scene.embeddings, (mode,), 14, 13)
        log_pi = log_prior_array(pooled[..., comp]).astype(np.float32)
        evidence = EvidenceBundle(
            DenseGrid(scene.evidence.mask_evidence.data[:, :, comp]),
            "logits", scene.evidence.presence[list(comp)])
        want = fuse_and_decode(evidence, DenseGrid(log_pi), FusionConfig(lam))
        assert np.array_equal(got, want.data), (comp, name, mode, lam)


def test_sweep_fuses_each_distinct_setting_once(monkeypatch):
    # p = 0 and p = 1 pick the same competitor set under easy and hard, and
    # average and max ignore tau_s: 48 settings hold 16 distinct keys.
    scene = generate_scene(3, 12, 12, 12, 5, 3, 0.3, 0.7)
    calls = {"fuse_and_decode": 0, "log_prior_array": 0}
    for name in calls:
        def counting(*args, name=name, fn=getattr(competition, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(competition, name, counting)
    axes = dict(p_values=[0.0, 0.5, 1.0], selections=["easy", "hard"],
                lambda_values=[0.3, 0.9], tau_values=[0.05, 0.1],
                aggregations=["average", "max"])
    rows = run_sweep(scene, **axes)
    sets = {tuple(sorted(select_competitors(scene.embeddings, scene.bank,
                                            CompetitionSpec(0, p, selection))))
            for p in axes["p_values"] for selection in axes["selections"]}
    assert len(rows) == 48 and len(sets) == 4
    # one log prior per competitor set and aggregation, one fusion per key
    assert calls == {"log_prior_array": 4 * 2, "fuse_and_decode": 4 * 2 * 2}


def test_sweep_memory_does_not_grow_with_the_group_count():
    # Only one competitor set's arrays are held at a time, so ten distinct
    # sets peak where one does.  Keeping every set's log priors would add
    # about 1.3 MB to a peak of about 1.7 MB here.
    scene = generate_scene(3, 32, 32, 96, 20, 3, 0.2, 0.5)
    axes = dict(selections=["easy", "hard"], lambda_values=[0.3, 0.5, 0.7, 0.9],
                tau_values=[0.05, 0.1], aggregations=["lse", "average", "max"])
    one = traced_peak(lambda: run_sweep(scene, p_values=[1.0], **axes))
    six = traced_peak(lambda: run_sweep(
        scene, p_values=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], **axes))
    assert six <= 1.1 * one, (one, six)


# sha256 of `format_sweep_csv` for the bench's five sweep axes on
# generate_scene(seed, 24, 24, 16, 8, 3, 0.2, 0.5), targeting the class
# with the most pixels, as the bench does.  They were recorded from a sweep
# that scored every setting on its own, so a repeat row must copy exactly
# what scoring it would give.  The thread count must not move them.
SWEEP_DIGESTS = {
    (1, "ignore"): "621d94b0c24dacbb2a1bd966b7ba023d72bd374fac0c0cf0d7e62f1a9a40c05b",
    (1, "merge-background"):
        "9017d1647a37584d39575473e15440f4bdc597c0211d090222f4540b28623b2e",
    (104729, "ignore"):
        "fa3af275db38e1c557096335388c43119f9ddea03f1103fc4dc98fec0116555e",
    (104729, "merge-background"):
        "a9a0b4f7ab32c990a95303f81fb6164cd2c8cfb1d5b2dd8ba9891d783d263d0a",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed, excluded", sorted(SWEEP_DIGESTS))
def test_sweep_csv_bytes_match_recorded_digests(seed, excluded, threads):
    scene = generate_scene(seed, 24, 24, 16, 8, 3, 0.2, 0.5)
    target = int(np.argmax(np.bincount(scene.gt.data.ravel(), minlength=8)))
    rows = run_sweep(scene, target_class=target,
                     p_values=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                     selections=["easy", "hard"],
                     lambda_values=[0.3, 0.5, 0.7, 0.9], tau_values=[0.05, 0.1],
                     aggregations=["lse", "average", "max"],
                     excluded=excluded, threads=threads)
    digest = hashlib.sha256(format_sweep_csv(rows).encode("utf-8")).hexdigest()
    assert digest == SWEEP_DIGESTS[seed, excluded]


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
    # no feature source is an empty axis too; None means the scene's own
    with pytest.raises(SegfuseError, match="feature_source") as err:
        run_sweep(scene, p_values=[0.5], feature_sources={})
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
    # distinct values that the CSV's 6 decimals print alike
    ({"tau_values": [1e-7, 2e-7]}, "indistinct_sweep_values"),
    ({"p_values": [0.5, 0.5000001]}, "indistinct_sweep_values"),
    ({"lambda_values": [0.3, 0.7, 0.3000004]}, "indistinct_sweep_values"),
    # in range, but not an integer
    ({"target_class": 1.5}, "bad_class_index"),
    ({"target_class": True}, "bad_class_index"),
    ({"threads": 1.5}, "bad_threads"),
    # a source name must be a string; a bool is not a real setting
    ({"feature_sources": {1: None}}, "bad_alt_features"),
    ({"lambda_values": [True]}, "bad_lambda_prior"),
    ({"p_values": [True]}, "bad_ratio"),
])
def test_sweep_checks_every_setting_before_pooling(monkeypatch, changes, code):
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("pooled before every setting was checked")

    monkeypatch.setattr(competition, "pooled_scores", forbidden)
    with pytest.raises(SegfuseError) as err:
        run_sweep(scene, **{"p_values": [0.0, 1.0], **changes})
    assert err.value.code == code


@pytest.mark.parametrize("name", ["a,b", "a\nb", "b\r"])
def test_sweep_rejects_a_source_name_the_csv_cannot_hold(monkeypatch, name):
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("pooled before every source name was checked")

    monkeypatch.setattr(competition, "pooled_scores", forbidden)
    with pytest.raises(SegfuseError) as err:
        run_sweep(scene, p_values=[1.0],
                  feature_sources={"primary": scene.features, name: scene.features})
    assert err.value.code == "bad_alt_features"


def test_sweep_checks_threads_before_picking_competitors(monkeypatch):
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("competitors picked before threads was checked")

    monkeypatch.setattr(competition, "select_competitors", forbidden)
    for threads in (0, -1):
        with pytest.raises(SegfuseError) as err:
            run_sweep(scene, p_values=[0.0, 1.0], threads=threads)
        assert err.value.code == "bad_threads"


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


def test_sweep_repeats_a_value_that_prints_alike():
    # only distinct values that print alike are refused
    scene = generate_scene(1, 6, 6, 6, 3, 1, 0.0, 0.0)
    rows = run_sweep(scene, p_values=[0.5, 0.5], tau_values=[1e-7, 1e-7])
    assert len(rows) == 2 * 2 * 2 and rows[:4] == rows[4:]


def test_bench_check_sweep_accepts_the_library_csv():
    # The bench checks its sweep with `select_competitors`,
    # `restrict_to_classes` and `build_prior`; a change to them that the
    # bench would refuse shows here first.
    checks = bench_module("checks")
    scene = generate_scene(2, 8, 8, 8, 4, 2, 0.2, 0.4)
    axes = ((0.0, 0.5, 1.0), ("easy", "hard"), (0.3, 0.7), (0.05, 0.1),
            ("lse", "max"))
    rows = run_sweep(scene, target_class=1, p_values=axes[0],
                     selections=axes[1], lambda_values=axes[2],
                     tau_values=axes[3], aggregations=axes[4])
    text = format_sweep_csv(rows)
    assert checks.check_sweep(text, scene, 1, axes, {0, 13, 47}) == []
    lines = text.splitlines()
    head, _, value = lines[9].rpartition(",")
    lines[9] = f"{head},{float(value) + 1e-3:.6f}"
    problems = checks.check_sweep("\n".join(lines) + "\n", scene, 1, axes, set())
    assert len(problems) == 1 and "row 8 miou" in problems[0]
