"""Similarity, synonym aggregation and log-prior behavior."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from segfuse import (Aggregation, DenseGrid, SegfuseError, ShapeError,
                     aggregate_array, aggregate_class, build_prior, log_prior,
                     log_prior_array, normalize_pixels_array, parse_prompt_file,
                     similarity_map, store_from_array)
from segfuse import prior as prior_module

import oracle


def _grid(values):
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return DenseGrid(arr)


# --- similarity --------------------------------------------------------------

def test_similarity_identity_direction():
    feats = _grid(np.zeros((1, 1, 2)))
    feats.data[0, 0] = [1.0, 0.0]
    out = similarity_map(feats, np.array([1.0, 0.0]))
    assert out.data[0, 0, 0] == pytest.approx(1.0)


def test_similarity_orthogonal():
    feats = _grid(np.zeros((1, 1, 2)))
    feats.data[0, 0] = [1.0, 0.0]
    out = similarity_map(feats, np.array([0.0, 1.0]))
    assert out.data[0, 0, 0] == pytest.approx(0.0)


def test_similarity_cosine_value():
    f = np.array([4.0, 3.0]) / 5.0
    e = np.array([3.0, 4.0]) / 5.0
    feats = _grid(np.zeros((1, 1, 2)))
    feats.data[0, 0] = f
    out = similarity_map(feats, e)
    assert out.data[0, 0, 0] == pytest.approx(0.96, abs=1e-6)


def test_similarity_dim_mismatch():
    feats = _grid(np.zeros((1, 1, 3)))
    with pytest.raises(ShapeError) as err:
        similarity_map(feats, np.array([1.0, 0.0]))
    assert err.value.code == "dim_mismatch"


def test_similarity_bounded_for_unit_inputs():
    rng = np.random.default_rng(41)
    feats, _ = normalize_pixels_array(rng.standard_normal((6, 7, 10)))
    e = rng.standard_normal(10)
    e = e / np.linalg.norm(e)
    out = similarity_map(DenseGrid(feats.astype(np.float32)), e)
    assert out.data.min() >= -1.0 - 1e-6
    assert out.data.max() <= 1.0 + 1e-6


def test_normalize_pixels_zero_rows_counted():
    feats = np.zeros((2, 2, 3))
    feats[0, 0] = [3.0, 4.0, 0.0]
    out, zeros = normalize_pixels_array(feats)
    assert zeros == 3
    assert np.allclose(out[0, 0], [0.6, 0.8, 0.0])
    assert (out[1, 1] == 0.0).all()


# --- aggregation -------------------------------------------------------------

def test_lse_singleton_is_scaled_score():
    out = aggregate_array(np.array([[0.5]]), Aggregation.lse(0.1))
    assert out[0] == pytest.approx(5.0, abs=0.0)


def test_lse_two_zeros_is_ln2():
    out = aggregate_array(np.array([[0.0, 0.0]]), Aggregation.lse(1.0))
    assert out[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_max_mode_and_small_tau_limit():
    u = np.array([[0.9, 0.1]])
    assert aggregate_array(u, Aggregation.maximum())[0] == pytest.approx(0.9)
    lse = aggregate_array(u, Aggregation.lse(0.001))[0]
    assert abs(lse - 0.9 / 0.001) < 1e-6


def test_average_mode():
    out = aggregate_array(np.array([[0.2, 0.4, 0.9]]), Aggregation.average())
    assert out[0] == pytest.approx(0.5)


def test_aggregation_matches_reference():
    rng = np.random.default_rng(5)
    for kind in ("lse", "average", "max"):
        mode = Aggregation(kind, 0.1) if kind == "lse" else Aggregation(kind)
        for _ in range(50):
            u = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 7)))
            got = aggregate_array(u[None, :], mode)[0]
            ref = oracle.aggregate(u, kind, 0.1)
            assert got == pytest.approx(ref, abs=1e-9)


def test_lse_bounds():
    rng = np.random.default_rng(53)
    tau = 0.1
    for _ in range(200):
        m = int(rng.integers(1, 8))
        u = rng.uniform(-1e4, 1e4, size=m)
        lse = aggregate_array(u[None, :], Aggregation.lse(tau))[0]
        assert np.isfinite(lse)
        assert u.max() / tau <= lse + 1e-9
        assert lse <= u.max() / tau + math.log(m) + 1e-9


def test_lse_strictly_monotone_in_each_score():
    u = np.array([0.3, -0.2, 0.8])
    base = aggregate_array(u[None, :], Aggregation.lse(0.1))[0]
    for j in range(3):
        bumped = u.copy()
        bumped[j] += 0.05
        assert aggregate_array(bumped[None, :], Aggregation.lse(0.1))[0] > base


def test_empty_synonym_set_rejected():
    with pytest.raises(SegfuseError) as err:
        aggregate_array(np.zeros((2, 0)), Aggregation.lse(0.1))
    assert err.value.code == "empty_synonym_set"
    with pytest.raises(SegfuseError):
        aggregate_class([], Aggregation.lse(0.1))


def test_aggregate_class_grids():
    sims = [_grid([[0.5]]), _grid([[0.1]])]
    out = aggregate_class(sims, Aggregation.maximum())
    assert out.dims == (1, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(0.5)


def test_aggregation_validation():
    with pytest.raises(ValueError):
        Aggregation("median")
    with pytest.raises(ValueError):
        Aggregation.lse(0.0)


# --- log prior ---------------------------------------------------------------

def test_uniform_scores_give_uniform_prior():
    stack = log_prior(_grid(np.zeros((2, 2, 3), dtype=np.float32)))
    assert np.allclose(stack.log_pi.data, -math.log(3.0), atol=1e-7)


def test_log_prior_closed_form():
    u = np.zeros((1, 1, 2), dtype=np.float32)
    u[0, 0] = [math.log(2.0), 0.0]
    stack = log_prior(DenseGrid(u))
    assert stack.log_pi.data[0, 0, 0] == pytest.approx(math.log(2.0 / 3.0), abs=1e-7)
    assert stack.log_pi.data[0, 0, 1] == pytest.approx(math.log(1.0 / 3.0), abs=1e-7)


def test_log_prior_huge_inputs_stay_finite_and_symmetric():
    u = np.full((1, 1, 2), 1000.0, dtype=np.float32)
    stack = log_prior(DenseGrid(u))
    assert np.isfinite(stack.log_pi.data).all()
    assert np.allclose(stack.log_pi.data, -math.log(2.0), atol=1e-7)


def test_log_prior_overflow_safety_pm_1e4():
    rng = np.random.default_rng(61)
    u = rng.uniform(-1e4, 1e4, size=(4, 4, 6))
    out = log_prior_array(u)
    assert np.isfinite(out).all()
    assert (out <= 1e-7).all()


def test_log_prior_normalizes():
    rng = np.random.default_rng(67)
    u = rng.standard_normal((5, 6, 7)).astype(np.float32) * 5.0
    stack = log_prior(DenseGrid(u))
    total = np.exp(stack.log_pi.data.astype(np.float64)).sum(axis=2)
    assert np.abs(total - 1.0).max() < 1e-5
    assert (stack.log_pi.data <= 1e-7).all()


def test_log_prior_shift_invariance():
    rng = np.random.default_rng(71)
    u = rng.standard_normal((3, 3, 5)) * 3.0
    a = log_prior_array(u)
    b = log_prior_array(u + 37.0)
    assert np.abs(a - b).max() < 1e-6


def test_log_prior_single_class_is_zero():
    stack = log_prior(_grid(np.full((2, 2, 1), 9.5, dtype=np.float32)))
    assert (stack.log_pi.data == 0.0).all()


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


def test_build_prior_single_class_is_zero():
    rng = np.random.default_rng(81)
    bank, store, feats = _scene_pieces(rng, 4, 4, 8, [2])
    stack = build_prior(feats, store, bank, Aggregation.lse(0.1), 4, 4)
    assert (stack.log_pi.data == 0.0).all()


def test_build_prior_dominant_class_wins():
    bank = parse_prompt_file("up\nright\n")
    store = store_from_array(np.array([[1.0, 0.0], [0.0, 1.0]]), bank)
    feats = np.zeros((3, 3, 2), dtype=np.float32)
    feats[:, :, 0] = 1.0  # every pixel equals the class-0 embedding
    stack = build_prior(DenseGrid(feats), store, bank, Aggregation.lse(1.0), 3, 3)
    assert (np.argmax(stack.log_pi.data, axis=2) == 0).all()


def test_build_prior_matches_reference():
    rng = np.random.default_rng(97)
    bank, store, feats = _scene_pieces(rng, 8, 8, 16, [3, 1, 2, 3])
    for kind in ("lse", "average", "max"):
        mode = Aggregation(kind, 0.1) if kind == "lse" else Aggregation(kind)
        stack = build_prior(feats, store, bank, mode, 8, 8)
        ref_log_pi, _, _ = oracle.pipeline(
            feats.data, store.vectors, store.offsets,
            np.zeros((8, 8, 4)), np.zeros(4),
            lam=1.0, tau_s=0.1, aggregation=kind)
        assert np.abs(stack.log_pi.data.astype(np.float64) - ref_log_pi).max() < 1e-5


def test_build_prior_resize_path_matches_reference():
    rng = np.random.default_rng(101)
    bank, store, feats = _scene_pieces(rng, 5, 6, 12, [2, 2, 1])
    stack = build_prior(feats, store, bank, Aggregation.lse(0.1), 9, 11)
    ref_log_pi, _, _ = oracle.pipeline(
        feats.data, store.vectors, store.offsets,
        np.zeros((9, 11, 3)), np.zeros(3),
        lam=1.0, tau_s=0.1, aggregation="lse")
    assert np.abs(stack.log_pi.data.astype(np.float64) - ref_log_pi).max() < 1e-5


def test_build_prior_tile_height_is_irrelevant(monkeypatch):
    rng = np.random.default_rng(103)
    bank, store, feats = _scene_pieces(rng, 9, 8, 32, [3, 2, 4, 1])
    for out_h, out_w in ((9, 8), (13, 11)):  # identity, then upsampling
        row_bytes = out_w * max(store.dim, store.num_vectors) * 8
        for kind in ("lse", "average", "max"):
            mode = Aggregation(kind, 0.1) if kind == "lse" else Aggregation(kind)
            for order in ("before", "after", "both"):
                outputs = set()
                for rows in (1, 2, 7, out_h):
                    monkeypatch.setattr(prior_module, "_TILE_BYTES",
                                        rows * row_bytes)
                    assert prior_module._tile_rows(
                        out_h, out_w, store.dim, store.num_vectors) == rows
                    # also compare the float64 pooled scores, before rounding
                    pooled = []

                    def record(u, pooled=pooled):
                        pooled.append(u)
                        return log_prior_array(u)

                    monkeypatch.setattr(prior_module, "log_prior_array", record)
                    stack = build_prior(feats, store, bank, mode, out_h, out_w,
                                        normalize_order=order)
                    outputs.add((np.concatenate(pooled).tobytes(),
                                 stack.log_pi.data.tobytes(),
                                 stack.aggregated_u.data.tobytes()))
                assert len(outputs) == 1, (out_h, kind, order)


_ROW_PRODUCT_SCRIPT = """
import numpy as np
rng = np.random.default_rng(7)
for rows, width, dim, n in ((4, 256, 512, 300), (9, 64, 64, 60), (5, 8, 12, 5),
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
    """The BLAS property the tile invariance of `build_prior` rests on.

    A (rows, W, D) @ (D, N) product must give every row the bytes of that
    row's own (W, D) @ (D, N) product, at any BLAS thread count, so that a
    tile of any height reproduces the same rows.
    """
    cpus = len(os.sched_getaffinity(0))
    for threads in sorted({1, min(2, cpus)}):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        done = subprocess.run([sys.executable, "-c", _ROW_PRODUCT_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, (threads, done.stderr)
        assert done.stdout.strip() == "ok"


def test_build_prior_normalize_orders():
    rng = np.random.default_rng(107)
    bank, store, feats = _scene_pieces(rng, 4, 4, 8, [2, 2])
    for order in ("before", "after", "both"):
        stack = build_prior(feats, store, bank, Aggregation.lse(0.1), 7, 7,
                            normalize_order=order)
        ref_log_pi, _, _ = oracle.pipeline(
            feats.data, store.vectors, store.offsets,
            np.zeros((7, 7, 2)), np.zeros(2),
            lam=1.0, tau_s=0.1, aggregation="lse", normalize_order=order)
        assert np.abs(stack.log_pi.data.astype(np.float64) - ref_log_pi).max() < 1e-5


def test_build_prior_counts_zero_pixels():
    bank = parse_prompt_file("a\nb\n")
    store = store_from_array(np.eye(2), bank)
    feats = np.zeros((2, 2, 2), dtype=np.float32)
    feats[0, 0] = [1.0, 0.0]
    stack = build_prior(DenseGrid(feats), store, bank, Aggregation.lse(0.1), 2, 2)
    # 3 zero pixels seen before the resize and again after it
    assert stack.zero_norm_pixels == 6
    assert np.isfinite(stack.log_pi.data).all()


def test_build_prior_dim_mismatch():
    rng = np.random.default_rng(109)
    bank, store, _ = _scene_pieces(rng, 4, 4, 8, [2])
    feats = DenseGrid(rng.standard_normal((4, 4, 5)).astype(np.float32))
    with pytest.raises(ShapeError) as err:
        build_prior(feats, store, bank, Aggregation.lse(0.1), 4, 4)
    assert err.value.code == "dim_mismatch"


def test_argmax_consistent_across_modes_for_singletons():
    rng = np.random.default_rng(113)
    bank, store, feats = _scene_pieces(rng, 6, 6, 9, [1, 1, 1, 1])
    argmaxes = []
    for kind in ("lse", "average", "max"):
        mode = Aggregation(kind, 0.1) if kind == "lse" else Aggregation(kind)
        stack = build_prior(feats, store, bank, mode, 6, 6)
        argmaxes.append(np.argmax(stack.log_pi.data, axis=2))
    assert np.array_equal(argmaxes[0], argmaxes[1])
    assert np.array_equal(argmaxes[1], argmaxes[2])
