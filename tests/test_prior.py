"""Similarity, synonym aggregation and log-prior behavior."""
import ctypes
import glob
import hashlib
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from segfuse import (Aggregation, DenseGrid, SegfuseError, build_prior,
                     parse_prompt_file, pooled_scores, store_from_array)
from segfuse import grid as grid_module
from segfuse import prior as prior_module
from segfuse.prior import MIN_TAU, log_prior_array, normalize_pixels_array
from segfuse.synth import generate_scene

import oracle
from scenes import pool_synonyms, traced_peak


# --- similarity --------------------------------------------------------------

def _similarity(feats, embedding):
    """Cosine map of an (H, W, D) field against one embedding.

    A one-class, one-synonym store pooled with max is the similarity itself.
    """
    feats = np.asarray(feats, dtype=np.float32)
    bank = parse_prompt_file("only\n")
    store = store_from_array(np.asarray(embedding, dtype=np.float64)[None, :],
                             bank)
    h, w = feats.shape[:2]
    return pooled_scores(DenseGrid(feats), store, (Aggregation("max"),),
                         h, w)[0][:, :, 0]


def test_similarity_identity_direction():
    out = _similarity([[[1.0, 0.0]]], [1.0, 0.0])
    assert out[0, 0] == pytest.approx(1.0)


def test_similarity_orthogonal():
    out = _similarity([[[1.0, 0.0]]], [0.0, 1.0])
    assert out[0, 0] == pytest.approx(0.0)


def test_similarity_cosine_value():
    out = _similarity([[[4.0, 3.0]]], [3.0, 4.0])
    assert out[0, 0] == pytest.approx(0.96, abs=1e-6)


def test_similarity_dim_mismatch():
    with pytest.raises(SegfuseError) as err:
        _similarity(np.zeros((1, 1, 3)), [1.0, 0.0])
    assert err.value.code == "dim_mismatch"


def test_similarity_bounded_for_unit_inputs():
    rng = np.random.default_rng(41)
    out = _similarity(rng.standard_normal((6, 7, 10)), rng.standard_normal(10))
    assert out.min() >= -1.0 - 1e-6
    assert out.max() <= 1.0 + 1e-6


def test_normalize_pixels_zero_rows_counted():
    feats = np.zeros((2, 2, 3))
    feats[0, 0] = [3.0, 4.0, 0.0]
    out, zeros = normalize_pixels_array(feats)
    assert zeros == 3
    assert np.allclose(out[0, 0], [0.6, 0.8, 0.0])
    assert (out[1, 1] == 0.0).all()
    # the input is copied, not normalized in place
    assert feats[0, 0, 0] == 3.0


def test_normalize_pixels_block_size_is_irrelevant(monkeypatch):
    feats = np.random.default_rng(43).standard_normal((7, 5, 12))
    feats[2, 3] = 0.0
    norms = np.sqrt((feats * feats).sum(axis=-1))
    want = feats / np.where(norms == 0.0, 1.0, norms)[..., None]
    for rows in (1, 2, 6, 35):
        monkeypatch.setattr(grid_module, "_TILE_BYTES", rows * 12 * 8)
        out, zeros = normalize_pixels_array(feats)
        assert out.tobytes() == want.tobytes(), rows
        assert zeros == 1


@pytest.mark.parametrize("layout", [np.asfortranarray,
                                    lambda a: a.transpose(1, 0, 2)],
                         ids=["fortran", "transposed"])
def test_normalize_pixels_ignores_memory_layout(layout):
    feats = layout(np.random.default_rng(47).standard_normal((6, 5, 4)))
    out, zeros = normalize_pixels_array(feats)
    want, _ = normalize_pixels_array(np.ascontiguousarray(feats))
    assert zeros == 0
    assert out.tobytes() == want.tobytes()
    assert np.allclose((out * out).sum(axis=-1), 1.0)


# --- aggregation -------------------------------------------------------------

def test_lse_singleton_is_scaled_score():
    out = pool_synonyms(np.array([[0.5]]), Aggregation("lse", 0.1))
    assert out[0] == pytest.approx(5.0, abs=0.0)


def test_lse_two_zeros_is_ln2():
    out = pool_synonyms(np.array([[0.0, 0.0]]), Aggregation("lse", 1.0))
    assert out[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_max_mode_and_small_tau_limit():
    u = np.array([[0.9, 0.1]])
    assert pool_synonyms(u, Aggregation("max"))[0] == pytest.approx(0.9)
    lse = pool_synonyms(u, Aggregation("lse", 0.001))[0]
    assert abs(lse - 0.9 / 0.001) < 1e-6


def test_average_mode():
    out = pool_synonyms(np.array([[0.2, 0.4, 0.9]]), Aggregation("average"))
    assert out[0] == pytest.approx(0.5)


def test_aggregation_matches_reference():
    rng = np.random.default_rng(5)
    for kind in ("lse", "average", "max"):
        mode = Aggregation(kind, 0.1)
        for _ in range(50):
            u = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 7)))
            got = pool_synonyms(u[None, :], mode)[0]
            ref = oracle.aggregate(u, kind, 0.1)
            assert got == pytest.approx(ref, abs=1e-9)


def test_lse_bounds():
    rng = np.random.default_rng(53)
    tau = 0.1
    for _ in range(200):
        m = int(rng.integers(1, 8))
        u = rng.uniform(-1e4, 1e4, size=m)
        lse = pool_synonyms(u[None, :], Aggregation("lse", tau))[0]
        assert np.isfinite(lse)
        assert u.max() / tau <= lse + 1e-9
        assert lse <= u.max() / tau + math.log(m) + 1e-9


def test_lse_strictly_monotone_in_each_score():
    u = np.array([0.3, -0.2, 0.8])
    base = pool_synonyms(u[None, :], Aggregation("lse", 0.1))[0]
    for j in range(3):
        bumped = u.copy()
        bumped[j] += 0.05
        assert pool_synonyms(bumped[None, :], Aggregation("lse", 0.1))[0] > base


def _sum_in_turn(u):
    """The sum of (..., m) scores along their last axis, added in turn."""
    total = u[..., 0].copy()
    for j in range(1, u.shape[-1]):
        total += u[..., j]
    return total


def _pool_class_by_class(sims, offsets, mode):
    """Each class's own (..., m) synonym scores pooled along their last axis,
    its sums adding them in turn."""
    pooled = []
    for start, count in offsets:
        u = sims[..., start:start + count].copy()
        if mode.kind == "max":
            pooled.append(u.max(axis=-1))
        elif mode.kind == "average":
            pooled.append((_sum_in_turn(u) + 0.0) / count)
        else:
            u /= mode.tau_s
            peak = u.max(axis=-1, keepdims=True)
            u -= peak
            np.exp(u, out=u)
            pooled.append(peak[..., 0] + np.log(_sum_in_turn(u)))
    return np.stack(pooled, axis=-1)


_POOL_MODES = (Aggregation("lse", 0.1), Aggregation("lse", 0.05),
               Aggregation("average"), Aggregation("max"))


def test_synonym_major_pooling_matches_class_by_class_bits():
    # numpy sums 8 or more scores pairwise, so counts from 8 up tell the
    # in-turn rule from numpy's.  A prompt file caps a class at 10 synonyms,
    # but a library caller can build a store with more, as 17, 129 and 130
    # are.
    counts = [1, 2, 3, 5, 2, 1, 5, 3, 8, 9, 10, 17, 129, 130]
    offsets = tuple(zip(itertools.accumulate([0] + counts[:-1]), counts))
    rng = np.random.default_rng(211)
    sims = rng.uniform(-1.0, 1.0, (3, 7, sum(counts)))
    sims[0, 0] = 0.0  # a zero-norm pixel: similarity 0 to every synonym
    sims[2, 0] = -0.0  # whose mean is +0.0, as the reduction's is
    for start, count in offsets[:4]:  # tied synonyms
        sims[1, :, start:start + count] = sims[1, :, start:start + 1]
    groups, columns, positions = prior_module._synonym_major(offsets)
    planar = np.ascontiguousarray(np.moveaxis(sims[..., columns], -1, 0))
    before = planar.copy()
    for mode in _POOL_MODES:
        want = _pool_class_by_class(sims, offsets, mode)
        got = prior_module._pool_tile(planar, groups, positions, mode, False)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), mode
        assert planar.tobytes() == before.tobytes(), mode
        scratch = planar.copy()
        got = prior_module._pool_tile(scratch, groups, positions, mode, True)
        assert got.tobytes() == want.tobytes(), mode
        # One-pixel tiles: there the 17-, 129- and 130-synonym groups are
        # (m, 1, 1, 1) slabs, which np.add.reduce would sum pairwise.
        for y, x in itertools.product(range(3), range(7)):
            got = prior_module._pool_tile(planar[:, y:y + 1, x:x + 1], groups,
                                          positions, mode, False)
            assert got.tobytes() == want[y:y + 1, x:x + 1].tobytes(), (mode, y, x)
        assert planar.tobytes() == before.tobytes(), mode


def test_pooled_average_adds_each_class_synonyms_in_turn():
    # Classes of 5, 6, 8, 10, 1, 2, 9, 10 and 3 synonyms on an identity grid:
    # each pooled score is the float64 mean of the class's cosines, their
    # sum made in synonym order.  The product is small enough that OpenBLAS
    # makes it on one thread, with the bits of the kernel's row products.
    scene = generate_scene(1, 20, 20, 32, 9, 10, 0.3, 0.5)
    store = scene.embeddings
    assert [m for _, m in store.offsets] == [5, 6, 8, 10, 1, 2, 9, 10, 3]
    got, = pooled_scores(scene.features, store, (Aggregation("average"),),
                         20, 20, normalize_order="before")
    sims = (normalize_pixels_array(scene.features.data)[0]
            @ store.vectors.astype(np.float64).T)
    want = np.stack([(_sum_in_turn(sims[..., start:start + m]) + 0.0) / m
                     for start, m in store.offsets], axis=-1)
    assert got.tobytes() == want.tobytes()


# sha256 of the float32 `build_prior` output on
# generate_scene(1, 48, 48, 32, 9, 10, 0.3, 0.5, 20, 20), whose 20 x 20
# features are resized to 48 x 48, per (mode, normalize_order).  Its classes
# hold 5, 6, 8, 10, 1, 2, 9, 10 and 3 synonyms.  The thread count must not
# move them.  Rounding to float32 can hide a last-bit float64 change; the
# pooling tests above catch those.
PRIOR_DIGESTS = {
    ("lse 0.1", "before"):
        "50507ea8906a9b8ee1844bb95d53d4a9642aea5497c007735468d5dcd008f164",
    ("lse 0.1", "after"):
        "e838ca4b542b21aee069b62b847e54485408ec5328e2ff14f793cbc4c5a4eada",
    ("lse 0.1", "both"):
        "284817cbf2558c47f786073a638aaca972400b4b9539dc53e550ed115a8d8ad6",
    ("lse 0.05", "before"):
        "73620411b518046d9073eb2357014c05e3452f522f1548fcaf7daaf443be6740",
    ("lse 0.05", "after"):
        "3f899c847db5e57c88785d0db3883a4c59ef4cf1e71293cad2da97534225c8b7",
    ("lse 0.05", "both"):
        "228adb1d6c6b940f53ba008f78bf824f181c487793132b798ffce45d277906ce",
    ("average", "before"):
        "65d0e9e0434b3011a60a4d63a3f3d4715a57ba28f9d834dc7e5789d67e9e45e4",
    ("average", "after"):
        "fe6f9e42f3b81fd4080fb002b63dbe8a51b388ef9bf10181e07ea0e1e9e94e51",
    ("average", "both"):
        "4e0ff870dc5b2675c13963345145e3ae901a4d40a47aaf111163e09d742b4290",
    ("max", "before"):
        "c77ed760e89ead35c0898e0f8be3c6e2d850c2943c09c7020da56cf2b4fc6a65",
    ("max", "after"):
        "63fdaa52e2da5661a989b8333ad0c5b8b8d89a148a94fb5258f17d89bdaf4156",
    ("max", "both"):
        "5bef215aaac62df81fd7c29eaac2dc79f1d2c32625a9d05c9545ad8d6b0775ec",
}


@pytest.fixture(scope="module")
def many_synonym_scene():
    scene = generate_scene(1, 48, 48, 32, 9, 10, 0.3, 0.5, 20, 20)
    assert [m for _, m in scene.embeddings.offsets] == [5, 6, 8, 10, 1, 2, 9, 10, 3]
    return scene


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("mode, order", sorted(PRIOR_DIGESTS))
def test_prior_bytes_match_recorded_digests(many_synonym_scene, mode, order,
                                            threads):
    kind, _, tau = mode.partition(" ")
    aggregation = Aggregation(kind, float(tau)) if tau else Aggregation(kind)
    scene = many_synonym_scene
    prior = build_prior(scene.features, scene.embeddings, scene.bank,
                        aggregation, 48, 48, normalize_order=order,
                        threads=threads)
    digest = hashlib.sha256(prior.data.tobytes()).hexdigest()
    assert digest == PRIOR_DIGESTS[mode, order]


def test_multi_mode_pooled_scores_equal_single_mode_calls():
    # On an identity grid a tile's similarities are a view of the kernel's
    # feature-resolution array, so a mode that wrote to them would change the
    # next mode's input.
    rng = np.random.default_rng(223)
    _, store, feats = _scene_pieces(rng, 9, 7, 6, [1, 2, 3, 5, 2])
    data = feats.data.copy()
    data[2, 3] = 0.0
    feats = DenseGrid(data)
    for out_h, out_w in ((9, 7), (13, 11)):
        together = pooled_scores(feats, store, _POOL_MODES, out_h, out_w)
        for mode, got in zip(_POOL_MODES, together):
            alone, = pooled_scores(feats, store, (mode,), out_h, out_w)
            assert got.tobytes() == alone.tobytes(), (mode, out_h)


def test_aggregate_class_grids():
    # one class's synonym similarity grids, stacked on the last axis
    sims = np.stack([np.full((2, 3), 0.5), np.full((2, 3), 0.1)], axis=-1)
    out = pool_synonyms(sims, Aggregation("max"))
    assert out.shape == (2, 3)
    assert (out == 0.5).all()


def test_aggregation_validation():
    with pytest.raises(SegfuseError) as err:
        Aggregation("median")
    assert err.value.code == "bad_aggregation"
    for tau in (0.0, -1.0, math.nan, math.inf, 1e-40, MIN_TAU / 2):
        with pytest.raises(SegfuseError) as err:
            Aggregation("lse", tau)
        assert err.value.code == "bad_tau_s"
    assert Aggregation("lse", MIN_TAU).tau_s == MIN_TAU
    # average and max carry no temperature
    assert Aggregation("max", 0.0) == Aggregation("max", 0.5)
    assert Aggregation("average", math.nan) == Aggregation("average")
    assert Aggregation("lse", 0.5) != Aggregation("lse", 0.25)


# --- log prior ---------------------------------------------------------------

def test_uniform_scores_give_uniform_prior():
    log_pi = log_prior_array(np.zeros((2, 2, 3)))
    assert np.allclose(log_pi, -math.log(3.0), atol=1e-12)


def test_log_prior_closed_form():
    u = np.zeros((1, 1, 2))
    u[0, 0] = [math.log(2.0), 0.0]
    log_pi = log_prior_array(u)
    assert log_pi[0, 0, 0] == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)
    assert log_pi[0, 0, 1] == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)


def test_log_prior_huge_inputs_stay_finite_and_symmetric():
    log_pi = log_prior_array(np.full((1, 1, 2), 1000.0))
    assert np.isfinite(log_pi).all()
    assert np.allclose(log_pi, -math.log(2.0), atol=1e-12)


def test_log_prior_overflow_safety_pm_1e4():
    rng = np.random.default_rng(61)
    u = rng.uniform(-1e4, 1e4, size=(4, 4, 6))
    out = log_prior_array(u)
    assert np.isfinite(out).all()
    assert (out <= 1e-7).all()


def test_log_prior_normalizes():
    rng = np.random.default_rng(67)
    u = rng.standard_normal((5, 6, 7)) * 5.0
    log_pi = log_prior_array(u)
    total = np.exp(log_pi).sum(axis=2)
    assert np.abs(total - 1.0).max() < 1e-12
    assert (log_pi <= 0.0).all()


def test_log_prior_shift_invariance():
    rng = np.random.default_rng(71)
    u = rng.standard_normal((3, 3, 5)) * 3.0
    a = log_prior_array(u)
    b = log_prior_array(u + 37.0)
    assert np.abs(a - b).max() < 1e-6


def test_log_prior_single_class_is_zero():
    assert (log_prior_array(np.full((2, 2, 1), 9.5)) == 0.0).all()


def test_log_prior_matches_reference():
    rng = np.random.default_rng(73)
    u = rng.standard_normal(6) * 4.0
    got = log_prior_array(u[None, None, :])[0, 0]
    ref = oracle.log_softmax(u)
    assert np.allclose(got, ref, atol=1e-12)


# --- build_prior -------------------------------------------------------------

def _scene_pieces(rng, h, w, d, class_synonyms):
    lines = []
    for i, m in enumerate(class_synonyms):
        lines.append(", ".join([f"c{i}"] + [f"c{i}v{j}" for j in range(1, m)]))
    bank = parse_prompt_file("\n".join(lines))
    store = store_from_array(rng.standard_normal((bank.total_synonyms, d)), bank)
    feats = DenseGrid(rng.standard_normal((h, w, d)).astype(np.float32))
    return bank, store, feats


def _entries(bank):
    """Both prior entries, each called as (features, store, mode, ...)."""
    return (lambda feats, store, *args, **kwargs:
            build_prior(feats, store, bank, *args, **kwargs),
            lambda feats, store, mode, *args, **kwargs:
            pooled_scores(feats, store, (mode,), *args, **kwargs)[0])


def test_build_prior_single_class_is_zero():
    rng = np.random.default_rng(81)
    bank, store, feats = _scene_pieces(rng, 4, 4, 8, [2])
    log_pi = build_prior(feats, store, bank, Aggregation("lse", 0.1), 4, 4)
    assert (log_pi.data == 0.0).all()


def test_build_prior_dominant_class_wins():
    bank = parse_prompt_file("up\nright\n")
    store = store_from_array(np.array([[1.0, 0.0], [0.0, 1.0]]), bank)
    feats = np.zeros((3, 3, 2), dtype=np.float32)
    feats[:, :, 0] = 1.0  # every pixel equals the class-0 embedding
    log_pi = build_prior(DenseGrid(feats), store, bank, Aggregation("lse", 1.0), 3, 3)
    assert (np.argmax(log_pi.data, axis=2) == 0).all()


def test_build_prior_matches_reference():
    rng = np.random.default_rng(97)
    bank, store, feats = _scene_pieces(rng, 8, 8, 16, [3, 1, 2, 3])
    for kind in ("lse", "average", "max"):
        mode = Aggregation(kind, 0.1)
        log_pi = build_prior(feats, store, bank, mode, 8, 8)
        ref_log_pi, _, _ = oracle.pipeline(
            feats.data, store.vectors, store.offsets,
            np.zeros((8, 8, 4)), np.zeros(4),
            lam=1.0, tau_s=0.1, aggregation=kind)
        assert np.abs(log_pi.data.astype(np.float64) - ref_log_pi).max() < 1e-5


def test_build_prior_resize_path_matches_reference():
    rng = np.random.default_rng(101)
    bank, store, feats = _scene_pieces(rng, 5, 6, 12, [2, 2, 1])
    log_pi = build_prior(feats, store, bank, Aggregation("lse", 0.1), 9, 11)
    ref_log_pi, _, _ = oracle.pipeline(
        feats.data, store.vectors, store.offsets,
        np.zeros((9, 11, 3)), np.zeros(3),
        lam=1.0, tau_s=0.1, aggregation="lse")
    assert np.abs(log_pi.data.astype(np.float64) - ref_log_pi).max() < 1e-5


def test_build_prior_tile_height_is_irrelevant(monkeypatch):
    rng = np.random.default_rng(103)
    bank, store, feats = _scene_pieces(rng, 9, 8, 32, [3, 2, 4, 1])
    # identity, upsampling, downsampling, then one identity axis
    for out_h, out_w in ((9, 8), (13, 11), (4, 5), (9, 13)):
        row_bytes = out_w * store.num_vectors * 8
        for kind in ("lse", "average", "max"):
            mode = Aggregation(kind, 0.1)
            for order in ("before", "after", "both"):
                outputs = set()
                for rows in sorted({1, 2, min(7, out_h), out_h}):
                    monkeypatch.setattr(grid_module, "_TILE_BYTES",
                                        rows * row_bytes)
                    assert prior_module._row_tiles(out_h, row_bytes)[0] == slice(0, rows)
                    # also compare the float64 pooled scores, before rounding
                    pooled = []

                    def record(u, pooled=pooled):
                        pooled.append(u)
                        return log_prior_array(u)

                    monkeypatch.setattr(prior_module, "log_prior_array", record)
                    log_pi = build_prior(feats, store, bank, mode, out_h, out_w,
                                         normalize_order=order)
                    full, = pooled_scores(feats, store, (mode,), out_h, out_w,
                                          normalize_order=order)
                    outputs.add((np.concatenate(pooled).tobytes(),
                                 log_pi.data.tobytes(), full.tobytes()))
                assert len(outputs) == 1, (out_h, kind, order)


def test_build_prior_thread_count_is_irrelevant(monkeypatch):
    rng = np.random.default_rng(103)
    bank, store, feats = _scene_pieces(rng, 9, 8, 32, [3, 2, 4, 1])
    for out_h, out_w in ((9, 8), (13, 11), (4, 5), (9, 13)):
        # one-row tiles, so there are more tiles than threads
        monkeypatch.setattr(grid_module, "_TILE_BYTES",
                            out_w * store.num_vectors * 8)
        for kind in ("lse", "average", "max"):
            mode = Aggregation(kind, 0.1)
            for order in ("before", "after", "both"):
                outputs = {
                    (build_prior(feats, store, bank, mode, out_h, out_w,
                                 normalize_order=order,
                                 threads=threads).data.tobytes(),
                     pooled_scores(feats, store, (mode,), out_h, out_w,
                                   normalize_order=order,
                                   threads=threads)[0].tobytes())
                    for threads in (1, 2, 3)}
                assert len(outputs) == 1, (out_h, out_w, kind, order)


def test_pooled_scores_pools_every_mode_from_one_build(monkeypatch):
    # Each tile pools every mode from the same similarities; on an identity
    # grid those are a view of the source similarities, divided in place.
    # The tiles fill their own rows of the shared outputs, here from more
    # threads than cores that switch often.
    rng = np.random.default_rng(107)
    bank, store, feats = _scene_pieces(rng, 9, 8, 32, [3, 2, 4, 1])
    modes = (Aggregation("lse", 0.05), Aggregation("max"), Aggregation("lse", 0.1),
             Aggregation("average"), Aggregation("max"))
    kernel = prior_module._tiled_kernel
    built = []

    def counting(features, store, modes, *args, **kwargs):
        built.append(modes)
        return kernel(features, store, modes, *args, **kwargs)

    monkeypatch.setattr(prior_module, "_tiled_kernel", counting)
    default_budget = grid_module._TILE_BYTES
    cases = itertools.product(((9, 8), (13, 11), (9, 13)), (True, False),
                              ("before", "after", "both"), (1, 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for (out_h, out_w), one_row, order, threads in cases:
            monkeypatch.setattr(grid_module, "_TILE_BYTES",
                                out_w * store.num_vectors * 8 if one_row
                                else default_budget)
            built.clear()
            alone = [pooled_scores(feats, store, (mode,), out_h, out_w,
                                   normalize_order=order,
                                   threads=threads)[0].tobytes()
                     for mode in modes]
            together = pooled_scores(feats, store, modes, out_h, out_w,
                                     normalize_order=order, threads=threads)
            assert built == [(mode,) for mode in modes] + [modes]
            assert [u.tobytes() for u in together] == alone, (
                out_h, out_w, one_row, order, threads)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
def test_build_prior_rejects_non_positive_threads(threads):
    rng = np.random.default_rng(104)
    bank, store, feats = _scene_pieces(rng, 3, 3, 4, [1, 2])
    for build in _entries(bank):
        with pytest.raises(SegfuseError, match="threads") as err:
            build(feats, store, Aggregation("lse", 0.1), 3, 3, threads=threads)
        assert err.value.code == "bad_threads"


def _direct_pooled(feats, store, mode, out_h, out_w, order):
    """Pooled scores in the straight order: resize, re-normalize, then dot."""
    src = feats.data.astype(np.float64)
    if order in ("before", "both"):
        src, _ = normalize_pixels_array(src)
    resized = oracle.bilinear(src, out_h, out_w)
    if order in ("after", "both"):
        resized, _ = normalize_pixels_array(resized)
    sims = resized @ store.vectors.astype(np.float64).T
    pooled = np.empty(sims.shape[:-1] + (len(store.offsets),))
    for idx in np.ndindex(sims.shape[:-1]):
        pooled[idx] = [oracle.aggregate(sims[idx][start:start + count],
                                        mode.kind, mode.tau_s)
                       for start, count in store.offsets]
    return pooled


@pytest.mark.parametrize("in_hw,out_hw", [
    ((5, 6), (9, 11)),   # upsampling
    ((9, 8), (4, 5)),    # downsampling
    ((5, 6), (5, 13)),   # identity rows
    ((7, 4), (3, 4)),    # identity columns
    ((1, 6), (4, 9)),    # 1-pixel-high source
    ((6, 1), (9, 3)),    # 1-pixel-wide source
])
def test_pooled_scores_match_direct_resize(in_hw, out_hw):
    """Products at feature resolution equal products of resized features."""
    rng = np.random.default_rng(131)
    bank, store, feats = _scene_pieces(rng, *in_hw, 24, [3, 1, 2])
    modes = [Aggregation(kind, 0.1) for kind in ("lse", "average", "max")]
    for order in ("before", "after", "both"):
        got = pooled_scores(feats, store, modes, *out_hw, normalize_order=order)
        for mode, pooled in zip(modes, got, strict=True):
            want = _direct_pooled(feats, store, mode, *out_hw, order)
            assert np.abs(pooled - want).max() < 1e-12, (mode, order)


def _logged_zero_norm_count(caplog, build):
    """`build()` and the zero-norm count its prior warning reports (0 if none)."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=prior_module.__name__):
        result = build()
    records = [r for r in caplog.records
               if r.name == prior_module.__name__ and "zero-norm" in r.msg]
    assert len(records) <= 1
    # the warning comes once, from the calling thread
    assert all(r.thread == threading.get_ident() for r in records)
    return result, sum(r.args[0] for r in records)


def test_zero_norm_count_under_upsampling(caplog, monkeypatch):
    rng = np.random.default_rng(137)
    bank, store, feats = _scene_pieces(rng, 6, 7, 8, [2, 1])
    feats.data[:3, :4] = 0.0
    # one-row tiles: the count is taken once per call, not per tile
    monkeypatch.setattr(grid_module, "_TILE_BYTES", 15 * store.num_vectors * 8)
    for order, before in (("after", 0), ("both", 12)):
        resized = oracle.bilinear(feats.data, 13, 15)
        _, after = normalize_pixels_array(resized)
        assert after > 0
        for threads in (1, 3):
            log_pi, count = _logged_zero_norm_count(caplog, lambda: build_prior(
                feats, store, bank, Aggregation("lse", 0.1), 13, 15,
                normalize_order=order, threads=threads))
            assert count == before + after, threads
            assert np.isfinite(log_pi.data).all()


_ROW_PRODUCT_SCRIPT = """
import numpy as np
rng = np.random.default_rng(7)
for rows, width, dim, n in ((4, 256, 512, 300), (4, 64, 512, 312),
                            (64, 64, 512, 312), (9, 64, 64, 60), (5, 8, 12, 5),
                            (3, 1, 33, 7), (6, 7, 10, 1)):
    tile = rng.standard_normal((rows, width, dim))
    vectors_t = rng.standard_normal((n, dim)).T
    stacked = tile @ vectors_t
    for r in range(rows):
        assert stacked[r].tobytes() == (tile[r] @ vectors_t).tobytes(), (rows, width, r)
    for r0 in range(0, rows, 2):
        assert (stacked[r0:r0 + 2].tobytes()
                == (tile[r0:r0 + 2] @ vectors_t).tobytes()), (rows, width, r0)
print("ok")
"""


def test_stacked_matmul_is_one_product_per_row():
    """A stacked product is one BLAS product per row.

    A (rows, W, D) @ (D, N) product must give every row the bytes of that
    row's own (W, D) @ (D, N) product, at any BLAS thread count.  The prior
    kernel makes one such product per block of source rows (64 x 512 @
    512 x 312 per row on the large bench scene), so its bytes are those of
    one product per row, however the rows are grouped into blocks.
    """
    cpus = len(os.sched_getaffinity(0))
    for threads in sorted({1, min(2, cpus)}):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        done = subprocess.run([sys.executable, "-c", _ROW_PRODUCT_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, (threads, done.stderr)
        assert done.stdout.strip() == "ok"


_PRIOR_HASH_SCRIPT = """
import hashlib
from segfuse import Aggregation, build_prior, generate_scene
scene = generate_scene(1, 256, 256, 512, 150, 3, 0.2, 0.4, 64, 64)
log_pi = build_prior(scene.features, scene.embeddings, scene.bank,
                     Aggregation("lse"), 256, 256)
print(hashlib.sha256(log_pi.data.tobytes()).hexdigest())
"""


def test_build_prior_bytes_ignore_blas_threads():
    """The large bench scene's log prior is the same at 1 and 2 BLAS threads."""
    cpus = len(os.sched_getaffinity(0))
    src = os.path.dirname(os.path.dirname(prior_module.__file__))
    digests = set()
    for threads in sorted({1, min(2, cpus)}):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _PRIOR_HASH_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, (threads, done.stderr)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def _openblas_threads():
    """numpy's bundled OpenBLAS thread-count (get, set) pair, or a skip."""
    found = glob.glob(prior_module._OPENBLAS)
    if not found:
        pytest.skip("numpy bundles no scipy-openblas here")
    blas = ctypes.CDLL(found[0])
    get_threads = blas.scipy_openblas_get_num_threads64_
    set_threads = blas.scipy_openblas_set_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def _blas_threads_in_sink(monkeypatch, get_threads):
    """The bytes of a 3-row-tile log prior on 2 workers, and the BLAS thread
    counts its sink saw."""
    monkeypatch.setattr(grid_module, "_TILE_BYTES", 3 * 24 * 4 * 8)
    rng = np.random.default_rng(227)
    _, store, feats = _scene_pieces(rng, 8, 8, 16, [1, 3])
    seen, rows_out = [], []

    def sink(rows, values):
        seen.append(get_threads())
        rows_out.append(values[0])

    prior_module._tiled_kernel(feats, store, (Aggregation("lse"),), 24, 24,
                               "both", 2, prior_module._log_prior32, sink)
    return np.concatenate(rows_out).tobytes(), seen


def test_kernel_restores_the_callers_blas_threads():
    get_threads, set_threads = _openblas_threads()
    caller = get_threads()
    try:
        set_threads(2)
        want = get_threads()
        rng = np.random.default_rng(229)
        bank, store, feats = _scene_pieces(rng, 6, 6, 8, [2, 1])
        build_prior(feats, store, bank, Aggregation("lse"), 12, 12, threads=2)
        assert get_threads() == want

        def failing_sink(rows, values):
            assert get_threads() == 1
            raise OSError("sink full")

        with pytest.raises(OSError, match="sink full"):
            prior_module._tiled_kernel(feats, store, (Aggregation("max"),),
                                       12, 12, "both", 2,
                                       prior_module._log_prior32, failing_sink)
        assert get_threads() == want
    finally:
        set_threads(caller)


def test_overlapping_kernel_calls_restore_the_callers_blas_threads(monkeypatch):
    """Call B starts inside call A and ends after it.  Both run at one BLAS
    thread throughout, and the caller's count is back once B ends."""
    get_threads, set_threads = _openblas_threads()
    monkeypatch.setattr(grid_module, "_TILE_BYTES", 3 * 24 * 4 * 8)
    seen, lock = set(), threading.Lock()
    real = prior_module._map_in_order

    def recording(fn, items, pool, workers, consume):
        def counted(item):
            with lock:
                seen.add((fn.__name__, get_threads()))
            return fn(item)
        real(counted, items, pool, workers, consume)

    monkeypatch.setattr(prior_module, "_map_in_order", recording)
    rng = np.random.default_rng(233)
    _, store, feats = _scene_pieces(rng, 8, 8, 16, [1, 3])
    a_running, b_running, a_returned = (threading.Event() for _ in range(3))

    def sink_a(rows, values):
        a_running.set()
        assert b_running.wait(30)

    def sink_b(rows, values):
        b_running.set()
        assert a_returned.wait(30)

    def kernel(sink):
        prior_module._tiled_kernel(feats, store, (Aggregation("lse"),), 24, 24,
                                   "both", 2, prior_module._log_prior32, sink)

    def call_a():
        try:
            kernel(sink_a)
        finally:
            a_returned.set()

    def call_b():
        assert a_running.wait(30)
        kernel(sink_b)

    caller = get_threads()
    try:
        set_threads(2)
        want = get_threads()
        with ThreadPoolExecutor(2) as pool:
            calls = [pool.submit(call_a), pool.submit(call_b)]
        for call in calls:
            call.result()
        assert get_threads() == want
        assert seen == {("product", 1), ("tile", 1)}
    finally:
        set_threads(caller)


def test_blas_hold_under_many_overlapping_blocks():
    """More threads than cores enter and leave the hold at random, with a
    short switch interval: each block sees one thread, and once the last
    has left, the caller's count is back."""
    get_threads, set_threads = _openblas_threads()
    inside = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            with prior_module._one_blas_thread():
                inside.append(get_threads())
                time.sleep(rng.random() * 1e-4)

    caller, interval = get_threads(), sys.getswitchinterval()
    try:
        set_threads(2)
        want = get_threads()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(4 * len(os.sched_getaffinity(0)))]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(60)
        assert not any(thread.is_alive() for thread in workers)
        assert len(inside) == 50 * len(workers)
        assert set(inside) == {1}
        assert get_threads() == want
    finally:
        sys.setswitchinterval(interval)
        set_threads(caller)


def test_kernel_without_blas_thread_control_keeps_its_bytes(monkeypatch, tmp_path):
    get_threads, set_threads = _openblas_threads()
    caller = get_threads()
    try:
        set_threads(2)
        want = get_threads()
        held, seen = _blas_threads_in_sink(monkeypatch, get_threads)
        assert set(seen) == {1}
        monkeypatch.setattr(prior_module, "_OPENBLAS",
                            str(tmp_path / "libscipy_openblas64_*.so"))
        free, seen = _blas_threads_in_sink(monkeypatch, get_threads)
        assert set(seen) == {want}  # the helper left the count alone
        assert free == held
    finally:
        set_threads(caller)


_KERNEL_BLAS_SCRIPT = """
import ctypes, glob, json, threading
from segfuse import Aggregation, build_prior, generate_scene
from segfuse import prior
blas = ctypes.CDLL(glob.glob(prior._OPENBLAS)[0])
get_threads = blas.scipy_openblas_get_num_threads64_
seen, lock = {}, threading.Lock()
real = prior._map_in_order

def recording(fn, items, pool, workers, consume):
    def counted(item):
        with lock:
            seen.setdefault(fn.__name__, set()).add(get_threads())
        return fn(item)
    real(counted, items, pool, workers, consume)

prior._map_in_order = recording
scene = generate_scene(3, 24, 24, 32, 5, 3, 0.2, 0.4, 8, 8)
before = get_threads()
build_prior(scene.features, scene.embeddings, scene.bank, Aggregation("lse"),
            24, 24, threads=2)
print(json.dumps({"before": before, "after": get_threads(),
                  "seen": {k: sorted(v) for k, v in seen.items()}}))
"""


def test_kernel_product_runs_at_one_blas_thread():
    """Under `OPENBLAS_NUM_THREADS=2` the product blocks and the tiles run at
    one BLAS thread, and the count is 2 again after the call."""
    _openblas_threads()
    cpus = len(os.sched_getaffinity(0))
    src = os.path.dirname(os.path.dirname(prior_module.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _KERNEL_BLAS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert record["before"] == record["after"] == min(2, cpus)
    assert record["seen"] == {"product": [1], "tile": [1]}


def test_build_prior_holds_no_full_resolution_similarities():
    rng = np.random.default_rng(139)
    in_h, in_w, out_h, out_w, dim = 32, 32, 256, 256, 64
    bank, store, feats = _scene_pieces(rng, in_h, in_w, dim, [6] * 10)
    n = store.num_vectors
    # the float32 output, two float64 feature copies, the feature-resolution
    # similarities and a few tile budgets
    bound = (out_h * out_w * store.num_classes * 4 + 2 * in_h * in_w * dim * 8
             + in_h * in_w * n * 8 + 4 * grid_module._TILE_BYTES)
    # the float64 similarities at output resolution would be 30 MiB here
    assert out_h * out_w * n * 8 > 3 * bound
    for threads in (1, 2):
        # each extra worker holds one more tile working set
        threaded_bound = bound + 4 * grid_module._TILE_BYTES * (threads - 1)
        for order in ("before", "after", "both"):
            peak = traced_peak(lambda: build_prior(
                feats, store, bank, Aggregation("lse", 0.1), out_h, out_w,
                normalize_order=order, threads=threads))
            assert peak < threaded_bound, (threads, order)


def test_build_prior_frees_the_features_before_the_output():
    """At most one float64 feature copy, and never beside the output: the
    float32 log prior of `build_prior` or the float64 scores of
    `pooled_scores`, both made at the first finished tile."""
    rng = np.random.default_rng(149)
    in_h, in_w, out_h, out_w, dim = 64, 64, 256, 256, 512
    bank, store, feats = _scene_pieces(rng, in_h, in_w, dim, [3] * 100)
    mode = Aggregation("lse", 0.1)
    builds = {  # output bytes per score -> build
        4: lambda order: build_prior(feats, store, bank, mode, out_h, out_w,
                                     normalize_order=order),
        8: lambda order: pooled_scores(feats, store, (mode,), out_h, out_w,
                                       normalize_order=order)}
    feature_copy = in_h * in_w * dim * 8
    for score_bytes, build in builds.items():
        out_bytes = out_h * out_w * store.num_classes * score_bytes
        # the output, the feature-resolution similarities and a few tile
        # budgets
        bound = (out_bytes + in_h * in_w * store.num_vectors * 8
                 + 4 * grid_module._TILE_BYTES)
        # 12 MiB below the output beside two feature copies (57 or 82 MiB)
        assert bound <= out_bytes + 2 * feature_copy - 12 * 2**20
        for order in ("before", "both"):
            peak = traced_peak(lambda: build(order))
            assert peak < bound, (score_bytes, order)


def test_build_prior_normalize_orders():
    rng = np.random.default_rng(107)
    bank, store, feats = _scene_pieces(rng, 4, 4, 8, [2, 2])
    for order in ("before", "after", "both"):
        log_pi = build_prior(feats, store, bank, Aggregation("lse", 0.1), 7, 7,
                             normalize_order=order)
        ref_log_pi, _, _ = oracle.pipeline(
            feats.data, store.vectors, store.offsets,
            np.zeros((7, 7, 2)), np.zeros(2),
            lam=1.0, tau_s=0.1, aggregation="lse", normalize_order=order)
        assert np.abs(log_pi.data.astype(np.float64) - ref_log_pi).max() < 1e-5


def test_build_prior_rejects_unknown_normalize_order():
    rng = np.random.default_rng(109)
    bank, store, feats = _scene_pieces(rng, 3, 3, 4, [1, 2])
    for build in _entries(bank):
        with pytest.raises(SegfuseError) as err:
            build(feats, store, Aggregation("lse", 0.1), 3, 3,
                  normalize_order="never")
        assert err.value.code == "bad_normalize_order"


def _in_flight_peak(workers: int) -> int:
    """Most items started but not yet consumed when the sink is slow."""
    lock = threading.Lock()
    started, consumed, most_ahead = [], [], []

    def fn(item):
        with lock:
            started.append(item)
        return item * item

    def consume(item, result):
        # a slow sink: the pool must wait for it, not run ahead
        time.sleep(0.002)
        with lock:
            most_ahead.append(len(started) - len(consumed))
        consumed.append((item, result))

    with ThreadPoolExecutor(workers) as pool:
        prior_module._map_in_order(fn, range(40), pool, workers, consume)
    assert consumed == [(i, i * i) for i in range(40)]
    return max(most_ahead)


def test_map_in_order_bounds_the_results_in_flight():
    # one worker runs on the pool too, under the same bound
    for workers in (1, 3):
        assert _in_flight_peak(workers) <= 2 * workers


def _stops_and_joins_on_failure(workers: int) -> None:
    lock = threading.Lock()
    started = []
    before = threading.active_count()

    def fn(item):
        with lock:
            started.append(item)
        if item == 3:
            raise MemoryError("tile 3")
        return item

    consumed = []
    with pytest.raises(MemoryError, match="tile 3"), \
            ThreadPoolExecutor(workers) as pool:
        prior_module._map_in_order(fn, range(100), pool, workers,
                                   lambda item, result: consumed.append(item))
    assert consumed == [0, 1, 2]
    # the tiles not yet started were cancelled, and the pool was joined
    assert len(started) <= 4 + 2 * workers
    assert threading.active_count() == before

    def failing_sink(item, result):
        raise OSError("sink full")

    with pytest.raises(OSError, match="sink full"), \
            ThreadPoolExecutor(workers) as pool:
        prior_module._map_in_order(lambda item: item, range(100), pool,
                                   workers, failing_sink)
    assert threading.active_count() == before


def test_map_in_order_stops_and_joins_on_failure():
    for workers in (1, 2):
        _stops_and_joins_on_failure(workers)


def test_build_prior_counts_zero_pixels(caplog):
    bank = parse_prompt_file("a\nb\n")
    store = store_from_array(np.eye(2), bank)
    feats = np.zeros((2, 2, 2), dtype=np.float32)
    feats[0, 0] = [1.0, 0.0]
    log_pi, count = _logged_zero_norm_count(caplog, lambda: build_prior(
        DenseGrid(feats), store, bank, Aggregation("lse", 0.1), 2, 2))
    # 3 zero pixels seen before the resize and again after it
    assert count == 6
    assert np.isfinite(log_pi.data).all()


def test_build_prior_rejects_bad_target():
    rng = np.random.default_rng(111)
    bank, store, feats = _scene_pieces(rng, 2, 2, 4, [1])
    # Sizes above a CFT1 extent fail before anything is allocated.
    for out_h, out_w in ((0, 4), (4, 0), (-1, 2), (4.5, 4), (4, 2.0),
                         (2**32, 4), (4, 10**30)):
        with pytest.raises(SegfuseError) as err:
            build_prior(feats, store, bank, Aggregation("lse", 0.1), out_h, out_w)
        assert err.value.code == "shape_mismatch"
        with pytest.raises(SegfuseError) as err:
            pooled_scores(feats, store, (Aggregation("lse", 0.1),), out_h, out_w)
        assert err.value.code == "shape_mismatch"


def test_build_prior_rejects_a_bank_of_another_class_count():
    rng = np.random.default_rng(113)
    _, store, feats = _scene_pieces(rng, 2, 2, 4, [1, 2])
    with pytest.raises(SegfuseError) as err:
        build_prior(feats, store, parse_prompt_file("a\n"),
                    Aggregation("lse", 0.1), 2, 2)
    assert err.value.code == "shape_mismatch"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_build_prior_rejects_nonfinite_features(bad):
    rng = np.random.default_rng(112)
    bank, store, feats = _scene_pieces(rng, 3, 3, 4, [1, 2])
    feats.data[1, 2, 3] = bad
    for build in _entries(bank):
        with pytest.raises(SegfuseError) as err:
            build(feats, store, Aggregation("lse", 0.1), 3, 3)
        assert err.value.code == "nonfinite_values"


def test_build_prior_dim_mismatch():
    rng = np.random.default_rng(109)
    bank, store, _ = _scene_pieces(rng, 4, 4, 8, [2])
    feats = DenseGrid(rng.standard_normal((4, 4, 5)).astype(np.float32))
    with pytest.raises(SegfuseError) as err:
        build_prior(feats, store, bank, Aggregation("lse", 0.1), 4, 4)
    assert err.value.code == "dim_mismatch"


def test_argmax_consistent_across_modes_for_singletons():
    rng = np.random.default_rng(113)
    bank, store, feats = _scene_pieces(rng, 6, 6, 9, [1, 1, 1, 1])
    argmaxes = []
    for kind in ("lse", "average", "max"):
        mode = Aggregation(kind, 0.1)
        log_pi = build_prior(feats, store, bank, mode, 6, 6)
        argmaxes.append(np.argmax(log_pi.data, axis=2))
    assert np.array_equal(argmaxes[0], argmaxes[1])
    assert np.array_equal(argmaxes[1], argmaxes[2])
