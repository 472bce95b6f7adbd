"""Unified-scale fusion, decoding and the PGM export."""
import math

import numpy as np
import pytest

from segfuse import (Background, DenseGrid, EvidenceBundle, FusionConfig,
                     LabelMap, SegfuseError, fuse_and_decode,
                     write_pgm)
from segfuse import fusion as fusion_module
from segfuse import grid as grid_module
from segfuse.prior import log_prior_array

import oracle
from scenes import fused_scores, traced_peak


def _bundle(logits, presence=None, kind="logits"):
    return EvidenceBundle(DenseGrid(np.asarray(logits, dtype=np.float32)),
                          kind, presence)


def _prior(u):
    """Log-prior grid of pooled scores `u`, as `build_prior` rounds it."""
    return DenseGrid(log_prior_array(np.asarray(u, dtype=np.float32))
                     .astype(np.float32))


def _uniform_prior(h, w, c):
    return _prior(np.zeros((h, w, c)))


def _decode(values, background=None):
    """`fuse_and_decode` with lambda = 0 and zero presence: the scores it
    decodes equal `values` bit for bit."""
    return fuse_and_decode(_bundle(values), _uniform_prior(*np.shape(values)),
                           FusionConfig(0.0, background))


def _reference_decode(scores, cfg):
    """Argmax with first-wins ties, then background rejection, in numpy."""
    labels = np.argmax(scores, axis=2).astype(np.uint32)
    if cfg.background is not None:
        labels[scores.max(axis=2) < cfg.background.threshold] = scores.shape[2]
    return labels


# --- mask logits -------------------------------------------------------------

def _logits(p, kind="probabilities"):
    return fusion_module._mask_logits(np.asarray(p, dtype=np.float32), kind)


def test_logit_midpoint():
    assert _logits(np.full((1, 1, 1), 0.5))[0, 0, 0] == pytest.approx(0.0, abs=1e-7)


def test_logit_of_one_is_clamped():
    v = _logits(np.full((1, 1, 1), 1.0))[0, 0, 0]
    assert np.isfinite(v)
    assert v == pytest.approx(13.815509557935018, abs=1e-4)


def test_logit_kind_passes_through_bitwise():
    data = np.full((1, 1, 1), 3.2, dtype=np.float32)
    assert _logits(data, "logits").tobytes() == data.tobytes()


def test_logit_matches_reference():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.0, 1.0, size=(4, 4, 2)).astype(np.float32)
    out = _logits(p)
    for idx in np.ndindex(4, 4, 2):
        assert out[idx] == pytest.approx(oracle.prob_to_logit(p[idx]), abs=1e-5)


def _converting_calls(bundle):
    """The calls that convert probability evidence: each must fail."""
    prior = _uniform_prior(*bundle.mask_evidence.dims)
    return (lambda: _logits(bundle.mask_evidence.data),
            lambda: fused_scores(bundle, prior, FusionConfig()),
            lambda: fuse_and_decode(bundle, prior, FusionConfig()))


def test_probability_range_validated():
    for call in _converting_calls(_bundle(np.full((1, 1, 1), 1.5),
                                           kind="probabilities")):
        with pytest.raises(SegfuseError) as err:
            call()
        assert err.value.code == "probability_out_of_range"


def test_nan_probability_rejected():
    values = np.full((2, 2, 2), 0.5)
    values[1, 0, 1] = np.nan
    for call in _converting_calls(_bundle(values, kind="probabilities")):
        with pytest.raises(SegfuseError) as err:
            call()
        assert err.value.code == "probability_out_of_range"


# --- fused scores ------------------------------------------------------------

def test_degenerate_fusion_returns_mask_logits():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 4, 3)).astype(np.float32)
    prior = _uniform_prior(4, 4, 3)
    out = fused_scores(_bundle(logits), prior, FusionConfig(lambda_prior=0.0))
    assert out.tobytes() == logits.tobytes()


def test_uniform_prior_closed_form():
    prior = _uniform_prior(2, 2, 2)
    evidence = _bundle(np.full((2, 2, 2), 0.5), kind="probabilities")
    out = fused_scores(evidence, prior, FusionConfig(lambda_prior=0.7))
    assert np.allclose(out, 0.7 * math.log(0.5), atol=1e-6)
    assert out[0, 0, 0] == pytest.approx(-0.48520302639196167, abs=1e-6)


def test_presence_bias_dominates_equal_logits():
    evidence = _bundle(np.ones((3, 3, 2)), presence=[1.0, -1.0])
    prior = _uniform_prior(3, 3, 2)
    labels = fuse_and_decode(evidence, prior, FusionConfig(lambda_prior=0.0))
    assert (labels.data == 0).all()


def test_shape_mismatch_rejected():
    prior = _uniform_prior(2, 2, 3)
    with pytest.raises(SegfuseError) as err:
        fuse_and_decode(_bundle(np.zeros((2, 2, 2))), prior, FusionConfig())
    assert err.value.code == "shape_mismatch"


def test_evidence_without_class_axis_rejected():
    with pytest.raises(SegfuseError) as err:
        EvidenceBundle(DenseGrid(np.zeros((2, 3), np.float32)))
    assert err.value.code == "shape_mismatch"


def test_presence_length_validated():
    with pytest.raises(SegfuseError) as err:
        _bundle(np.zeros((2, 2, 2)), presence=[1.0, 2.0, 3.0])
    assert err.value.code == "shape_mismatch"


def test_unknown_evidence_kind_rejected():
    with pytest.raises(SegfuseError) as err:
        _bundle(np.zeros((2, 2, 2)), kind="odds")
    assert err.value.code == "bad_evidence_kind"


# --- decode ------------------------------------------------------------------

def test_decode_argmax():
    assert _decode([[[1.0, 2.0]]]).data[0, 0] == 1


def test_decode_tie_goes_to_smallest_index():
    assert _decode([[[2.0, 2.0]]]).data[0, 0] == 0


def test_background_threshold_minus_inf_is_vacuous():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((4, 4, 3)).astype(np.float32)
    plain = _decode(values)
    rejected = _decode(values, Background(float("-inf")))
    assert np.array_equal(plain.data, rejected.data)


def test_background_threshold_plus_inf_rejects_everything():
    labels = _decode(np.ones((2, 2, 2)), Background(float("inf")))
    assert (labels.data == 2).all()


# float32 cannot hold these thresholds: they compare as +-inf, with no warning.
@pytest.mark.parametrize("threshold", [1e300, 10**300, -1e300, -10**300],
                         ids=["1e300", "10**300", "-1e300", "-10**300"])
def test_threshold_beyond_float32_compares_as_infinity(threshold):
    values = np.random.default_rng(13).standard_normal((4, 4, 3))
    labels = _decode(values, Background(threshold))
    want = np.full((4, 4), 3) if threshold > 0 else _decode(values).data
    assert np.array_equal(labels.data, want)


def test_background_rejection_threshold():
    values = np.zeros((1, 2, 2), dtype=np.float32)
    values[0, 0] = [3.0, 1.0]   # confident pixel
    values[0, 1] = [-1.0, -2.0]  # weak pixel
    labels = _decode(values, Background(0.0))
    assert labels.data[0, 0] == 0
    assert labels.data[0, 1] == 2


@pytest.mark.parametrize("lam", [-0.5, math.inf, math.nan])
def test_lambda_prior_must_be_finite_and_non_negative(lam):
    with pytest.raises(SegfuseError) as err:
        FusionConfig(lambda_prior=lam)
    assert err.value.code == "bad_lambda_prior"


def test_nan_background_threshold_rejected():
    with pytest.raises(SegfuseError) as err:
        Background(math.nan)
    assert err.value.code == "bad_background_threshold"


@pytest.mark.parametrize("index", [-1, 2**32, 4.5, True])
def test_background_index_must_fit_uint32(index):
    with pytest.raises(SegfuseError) as err:
        Background(-1.0, index)
    assert err.value.code == "bad_background_index"
    assert Background(-1.0, 2**32 - 1).index == 2**32 - 1


def test_background_index_collision():
    with pytest.raises(SegfuseError) as err:
        _decode(np.ones((1, 1, 3)), Background(0.0, index=1))
    assert err.value.code == "background_index_collision"


def test_fuse_and_decode_equals_two_step():
    rng = np.random.default_rng(13)
    for trial in range(10):
        logits = rng.standard_normal((6, 5, 4)).astype(np.float32)
        presence = rng.standard_normal(4).astype(np.float32)
        prior = _prior(rng.standard_normal((6, 5, 4)).astype(np.float32))
        cfg = FusionConfig(lambda_prior=0.7,
                           background=Background(0.5) if trial % 2 else None)
        one = fuse_and_decode(_bundle(logits, presence), prior, cfg)
        two = _reference_decode(fused_scores(_bundle(logits, presence), prior,
                                             cfg), cfg)
        assert np.array_equal(one.data, two)


def _tile_scene(rng, kind, shape=(9, 5, 4)):
    if kind == "logits":
        values = rng.standard_normal(shape) * 3.0
    else:
        values = rng.uniform(0.0, 1.0, shape)
        values.flat[::5] = 0.0
        values.flat[2::7] = 1.0
    presence = rng.standard_normal(shape[2]).astype(np.float32)
    return (_bundle(values.astype(np.float32), presence, kind),
            _prior(rng.standard_normal(shape) * 2.0))


def test_fuse_tile_height_is_irrelevant(monkeypatch):
    rng = np.random.default_rng(41)
    height, width, n_classes = 9, 5, 4
    row_bytes = width * n_classes * fusion_module._TILE_BYTES_PER_SCORE
    for kind in ("logits", "probabilities"):
        evidence, prior = _tile_scene(rng, kind)
        for background in (None, Background(0.5)):
            cfg = FusionConfig(0.7, background)
            outputs = set()
            for rows in (1, 2, 7, height):
                monkeypatch.setattr(grid_module, "_TILE_BYTES", rows * row_bytes)
                assert fusion_module._row_tiles(height, row_bytes)[0] == slice(0, rows)
                scores = fused_scores(evidence, prior, cfg)
                labels = fuse_and_decode(evidence, prior, cfg)
                assert np.array_equal(labels.data,
                                      _reference_decode(scores, cfg))
                outputs.add((scores.tobytes(), labels.data.tobytes()))
            assert len(outputs) == 1, (kind, background)


def test_nan_in_last_tile_fails_decode(monkeypatch):
    rng = np.random.default_rng(43)
    height, width, n_classes = 9, 5, 4
    row_bytes = width * n_classes * fusion_module._TILE_BYTES_PER_SCORE
    evidence, prior = _tile_scene(rng, "logits")
    evidence.mask_evidence.data[height - 1, width - 1, 1] = np.nan
    for rows in (1, 2, 7, height):
        monkeypatch.setattr(grid_module, "_TILE_BYTES", rows * row_bytes)
        for background in (None, Background(0.0)):
            with pytest.raises(SegfuseError) as err:
                fuse_and_decode(evidence, prior, FusionConfig(0.7, background))
            assert err.value.code == "nonfinite_scores"


@pytest.mark.parametrize("kind", ["logits", "probabilities"])
def test_fuse_and_decode_holds_no_full_stack(kind):
    rng = np.random.default_rng(47)
    shape = (64, 64, 150)
    evidence, prior = _tile_scene(rng, kind, shape)
    cfg = FusionConfig(0.7, Background(0.0))
    peak = traced_peak(lambda: fuse_and_decode(evidence, prior, cfg))
    # one float64 (H, W, C) stack is 4.7 MiB here
    assert peak < math.prod(shape) * 8 / 4


@pytest.mark.parametrize("where", ["evidence", "presence", "prior"])
def test_nan_score_fails_decode(where):
    rng = np.random.default_rng(37)
    logits = rng.standard_normal((2, 2, 2)).astype(np.float32)
    presence = np.zeros(2, dtype=np.float32)
    u = rng.standard_normal((2, 2, 2))
    if where == "evidence":
        logits[1, 1, 0] = np.nan
    elif where == "presence":
        presence[1] = np.nan
    prior = _prior(u)
    if where == "prior":
        prior.data[0, 1, 1] = np.nan
    for background in (None, Background(0.0)):
        with pytest.raises(SegfuseError) as err:
            fuse_and_decode(_bundle(logits, presence), prior,
                            FusionConfig(0.7, background))
        assert err.value.code == "nonfinite_scores"


def test_overflowing_best_score_fails_decode_without_warning():
    # 1e308 * log_pi is finite in float64 and -inf in float32, for every
    # class; pyproject turns a RuntimeWarning into a test error
    rng = np.random.default_rng(53)
    logits = rng.standard_normal((3, 4, 5)).astype(np.float32)
    prior = _prior(rng.standard_normal((3, 4, 5)))
    for background in (None, Background(0.0)):
        with pytest.raises(SegfuseError) as err:
            fuse_and_decode(_bundle(logits), prior,
                            FusionConfig(1e308, background))
        assert err.value.code == "nonfinite_scores"


def test_overflow_below_the_best_score_still_decodes():
    # 2**126 scales exactly, so the best class stays finite and the argmax is
    # the prior's, while classes whose log prior is below -4 overflow
    rng = np.random.default_rng(59)
    logits = rng.standard_normal((3, 4, 5)).astype(np.float32)
    prior = _prior(3.0 * rng.standard_normal((3, 4, 5)))
    cfg = FusionConfig(2.0**126)
    assert np.isneginf(fused_scores(_bundle(logits), prior, cfg)).any()
    labels = fuse_and_decode(_bundle(logits), prior, cfg)
    assert np.array_equal(labels.data, np.argmax(prior.data, axis=2))


def test_single_class_decodes_to_zero():
    labels = _decode(np.full((3, 3, 1), -2.0))
    assert (labels.data == 0).all()


def test_pipeline_labels_match_reference_on_random_fixture():
    rng = np.random.default_rng(17)
    logits = rng.standard_normal((16, 16, 5)).astype(np.float32)
    presence = rng.standard_normal(5).astype(np.float32)
    u = rng.standard_normal((16, 16, 5)).astype(np.float32) * 3.0
    prior = _prior(u)
    labels = fuse_and_decode(_bundle(logits, presence), prior, FusionConfig(0.7))
    # reference: float64 scores from the same inputs, argmax with first-wins ties
    ref_scores = (logits.astype(np.float64)
                  + 0.7 * np.asarray([[oracle.log_softmax(u[i, j])
                                       for j in range(16)] for i in range(16)])
                  + presence.astype(np.float64))
    assert np.array_equal(labels.data, np.argmax(ref_scores, axis=2).astype(np.uint32))


# --- invariants --------------------------------------------------------------

def test_constant_shift_does_not_change_labels():
    rng = np.random.default_rng(19)
    values = rng.standard_normal((5, 5, 4)).astype(np.float32)
    base = _decode(values)
    shifted = _decode(values + np.float32(11.0))
    assert np.array_equal(base.data, shifted.data)


def test_score_monotone_in_log_pi():
    logits = np.zeros((1, 1, 2), dtype=np.float32)
    lo = np.zeros((1, 1, 2), dtype=np.float32)
    hi = lo.copy()
    hi[0, 0, 0] = 1.0
    cfg = FusionConfig(lambda_prior=0.5)
    s_lo = fused_scores(_bundle(logits), _prior(lo), cfg)
    s_hi = fused_scores(_bundle(logits), _prior(hi), cfg)
    assert s_hi[0, 0, 0] >= s_lo[0, 0, 0]


def test_lambda_continuity_on_clear_gaps():
    rng = np.random.default_rng(23)
    logits = rng.standard_normal((8, 8, 3)).astype(np.float32)
    prior = _prior(rng.standard_normal((8, 8, 3)).astype(np.float32))
    a = fused_scores(_bundle(logits), prior, FusionConfig(0.7))
    la = fuse_and_decode(_bundle(logits), prior, FusionConfig(0.7))
    lb = fuse_and_decode(_bundle(logits), prior, FusionConfig(0.7 + 1e-9))
    sorted_scores = np.sort(a, axis=2)
    gap = sorted_scores[:, :, -1] - sorted_scores[:, :, -2]
    clear = gap > 1e-6
    assert np.array_equal(la.data[clear], lb.data[clear])


def test_presence_broadcast_uniform_over_pixels():
    rng = np.random.default_rng(29)
    logits = rng.standard_normal((4, 4, 3)).astype(np.float32)
    prior = _prior(rng.standard_normal((4, 4, 3)).astype(np.float32))
    z = np.array([0.5, -1.5, 2.0], dtype=np.float32)
    with_z = fused_scores(_bundle(logits, z), prior, FusionConfig(0.7))
    without = fused_scores(_bundle(logits), prior, FusionConfig(0.7))
    diff = with_z.astype(np.float64) - without.astype(np.float64)
    # per class, the shift is the same at every pixel
    spread = diff.max(axis=(0, 1)) - diff.min(axis=(0, 1))
    assert spread.max() < 1e-6


def test_kind_equivalence_where_gap_is_clear():
    rng = np.random.default_rng(31)
    logits = (rng.standard_normal((8, 8, 3)) * 3.0).astype(np.float32)
    probs = (1.0 / (1.0 + np.exp(-logits.astype(np.float64)))).astype(np.float32)
    prior = _prior(rng.standard_normal((8, 8, 3)).astype(np.float32))
    cfg = FusionConfig(0.7)
    s_logit = fused_scores(_bundle(logits), prior, cfg)
    l_logit = fuse_and_decode(_bundle(logits), prior, cfg)
    l_prob = fuse_and_decode(_bundle(probs, kind="probabilities"), prior, cfg)
    sorted_scores = np.sort(s_logit, axis=2)
    gap = sorted_scores[:, :, -1] - sorted_scores[:, :, -2]
    clear = gap > 1e-4
    assert clear.any()
    assert np.array_equal(l_logit.data[clear], l_prob.data[clear])


# --- PGM export --------------------------------------------------------------

def test_pgm_export(tmp_path):
    labels = LabelMap(np.array([[0, 1], [2, 3]], dtype=np.uint32))
    path = tmp_path / "out.pgm"
    write_pgm(labels, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert raw[-4:] == bytes([0, 1, 2, 3])


def test_pgm_rejects_wide_labels(tmp_path):
    labels = LabelMap(np.array([[300]], dtype=np.uint32))
    with pytest.raises(SegfuseError) as err:
        write_pgm(labels, tmp_path / "x.pgm")
    assert err.value.code == "pgm_label_overflow"
