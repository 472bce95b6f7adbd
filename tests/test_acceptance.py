"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The float64 references live in oracle.py and were written before the
package implementation; expected values are computed there, never assumed.
"""
import math
import time

import numpy as np
import pytest

from segfuse import (Aggregation, ConfusionMatrix, DenseGrid, EvidenceBundle,
                     FusionConfig, LabelMap, SegfuseError, build_prior,
                     fuse_and_decode,
                     generate_scene, load_grid, miou,
                     parse_prompt_file, pooled_scores, run_sweep, save_grid,
                     select_competitors, CompetitionSpec, format_sweep_csv)
from segfuse.cli import main
from segfuse.metrics import per_class_iou
from segfuse.prior import log_prior_array
from segfuse.prompts import format_prompt_file

import oracle
from scenes import confusable_scene, fused_scores, pool_synonyms, scene_params

N_SCENES = 120
LAMBDA = 0.7
TAU = 0.10


def _report(number, name, ok):
    print(f"\n[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def pipeline_runs():
    """Scene + pipeline + reference outputs for the oracle-equivalence suite."""
    runs = []
    started = time.time()
    for seed in range(N_SCENES):
        scene = generate_scene(**scene_params(seed))
        prior = build_prior(scene.features, scene.embeddings, scene.bank,
                            Aggregation("lse", TAU), scene.height, scene.width)
        scores = fused_scores(scene.evidence, prior, FusionConfig(LAMBDA))
        labels = fuse_and_decode(scene.evidence, prior, FusionConfig(LAMBDA))
        ref_log_pi, ref_scores, ref_labels = oracle.pipeline(
            scene.features.data, scene.embeddings.vectors,
            scene.embeddings.offsets, scene.evidence.mask_evidence.data,
            scene.evidence.presence, lam=LAMBDA, tau_s=TAU, aggregation="lse")
        runs.append((scene, prior, scores, labels,
                     ref_log_pi, ref_scores, ref_labels))
    return runs, time.time() - started


def test_criterion_1_oracle_equivalence(pipeline_runs):
    runs, elapsed = pipeline_runs
    ok = len(runs) >= 100 and elapsed < 60.0
    worst_score = 0.0
    for scene, prior, scores, labels, ref_log_pi, ref_scores, ref_labels in runs:
        ok = ok and np.array_equal(labels.data.astype(np.int64), ref_labels)
        score_err = np.abs(scores.astype(np.float64)
                           - ref_scores).max()
        prior_err = np.abs(prior.data.astype(np.float64)
                           - ref_log_pi).max()
        worst_score = max(worst_score, score_err, prior_err)
        ok = ok and score_err < 1e-5 and prior_err < 1e-5
    _report(1, "oracle equivalence", ok)
    assert ok, (f"{len(runs)} scenes, elapsed {elapsed:.1f}s, "
                f"worst tensor error {worst_score:.3e}")


def test_criterion_2_normalization_suite(pipeline_runs):
    runs, _ = pipeline_runs
    ok = True
    for scene, prior, *_ in runs:
        total = np.exp(prior.data.astype(np.float64)).sum(axis=2)
        ok = ok and bool(np.abs(total - 1.0).max() < 1e-5)
        u, = pooled_scores(scene.features, scene.embeddings,
                           (Aggregation("lse", TAU),), scene.height, scene.width)
        drifted = log_prior_array(u + 37.0)
        ok = ok and bool(np.abs(log_prior_array(u) - drifted).max() < 1e-6)
    _report(2, "prior normalization and shift invariance", ok)
    assert ok


def test_criterion_3_lse_properties():
    rng = np.random.default_rng(2024)
    ok = True
    checked = 0
    for m in range(1, 11):
        u = rng.uniform(-1e4, 1e4, size=(1000, m))
        lse = pool_synonyms(u, Aggregation("lse", TAU))
        ok = ok and bool(np.isfinite(lse).all())
        peak = u.max(axis=1)
        ok = ok and bool((peak <= lse * TAU + 1e-9).all())
        ok = ok and bool((lse * TAU <= peak + TAU * math.log(m) + 1e-9).all())
        sharp = pool_synonyms(u, Aggregation("lse", 1e-3))
        ok = ok and bool(np.abs(sharp - peak / 1e-3).max() < 1e-3)
        checked += u.shape[0]
    _report(3, "lse bounds, finiteness and max limit", ok and checked == 10_000)
    assert ok and checked == 10_000


def test_criterion_4_aggregation_ablation_parity():
    ok = True
    for seed in range(10):
        scene = generate_scene(300 + seed, 12, 12, 12, 5, 4, 0.0,
                               0.3 + 0.02 * seed)
        outputs = {}
        for kind in ("lse", "average", "max"):
            mode = Aggregation(kind, TAU)
            prior = build_prior(scene.features, scene.embeddings, scene.bank,
                                mode, scene.height, scene.width)
            outputs[kind] = fuse_and_decode(scene.evidence, prior,
                                            FusionConfig(LAMBDA)).data
        ok = ok and np.array_equal(outputs["lse"], outputs["average"])
        ok = ok and np.array_equal(outputs["average"], outputs["max"])
    _report(4, "aggregation modes agree when synonyms are identical", ok)
    assert ok


def test_criterion_5_fusion_degenerations():
    scene = generate_scene(777, 14, 14, 10, 5, 3, 0.3, 0.7)
    silent = EvidenceBundle(scene.evidence.mask_evidence, "logits",
                            np.zeros(5, dtype=np.float32))
    prior = build_prior(scene.features, scene.embeddings, scene.bank,
                        Aggregation("lse", TAU), 14, 14)
    labels = fuse_and_decode(silent, prior, FusionConfig(lambda_prior=0.0))
    baseline = np.argmax(scene.evidence.mask_evidence.data, axis=2)
    ok = np.array_equal(labels.data, baseline.astype(np.uint32))

    flat = EvidenceBundle(DenseGrid(np.ones((6, 6, 4), dtype=np.float32)),
                          "logits", np.array([-0.5, 2.0, 0.25, -3.0]))
    other = generate_scene(778, 6, 6, 8, 4, 1, 0.0, 0.5)
    flat_prior = build_prior(other.features, other.embeddings, other.bank,
                             Aggregation("lse", TAU), 6, 6)
    bias_labels = fuse_and_decode(flat, flat_prior, FusionConfig(lambda_prior=0.0))
    ok = ok and bool((bias_labels.data == 1).all())  # argmax_c z_c == 1
    _report(5, "lambda=0 and presence-bias degenerations", ok)
    assert ok


def test_criterion_6_competition_protocol(tmp_path):
    scene = confusable_scene(seed=404)
    kwargs = dict(target_class=0, p_values=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                  selections=["easy", "hard"], lambda_values=[LAMBDA],
                  tau_values=[TAU], aggregations=["lse"])
    rows = run_sweep(scene, **kwargs)
    again = run_sweep(scene, **kwargs)
    ok = rows == again and len(rows) == 12

    csv_text = format_sweep_csv(rows)
    ok = ok and len(csv_text.strip().split("\n")) == 13

    for mode in ("easy", "hard"):
        previous = set()
        for p in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            current = set(select_competitors(
                scene.embeddings, scene.bank, CompetitionSpec(0, p, mode)))
            ok = ok and previous <= current
            previous = current

    p0 = [r.miou for r in rows if r.p == 0.0]
    ok = ok and p0[0] == p0[1]

    p1 = {r.selection: r.miou for r in rows if r.p == 1.0}
    moved = [r for r in rows if abs(r.miou - p1[r.selection]) > 0.01]
    ok = ok and len(moved) >= 1
    _report(6, "competition protocol shape", ok)
    assert ok, csv_text


def test_criterion_7_miou_correctness():
    cm = ConfusionMatrix(2)
    cm.accumulate(LabelMap(np.array([[0, 0], [1, 1]], dtype=np.uint32)),
                  LabelMap(np.array([[0, 1], [1, 1]], dtype=np.uint32)))
    vals = per_class_iou(cm)
    ok = (abs(vals[0] - 0.5) < 1e-9 and abs(vals[1] - 2.0 / 3.0) < 1e-9
          and abs(miou(cm) - 7.0 / 12.0) < 1e-9)
    ref = oracle.confusion([[0, 0], [1, 1]], [[0, 1], [1, 1]], 2)
    ok = ok and miou(cm) == pytest.approx(oracle.mean_iou(ref), abs=1e-12)

    rng = np.random.default_rng(99)
    labels = rng.integers(0, 5, size=(9, 9)).astype(np.uint32)
    perfect = ConfusionMatrix(5).accumulate(LabelMap(labels), LabelMap(labels))
    ok = ok and miou(perfect) == 1.0

    swap = ConfusionMatrix(2)
    gt = np.zeros((3, 3), dtype=np.uint32)
    swap.accumulate(LabelMap(gt), LabelMap(gt + 1))
    swap.accumulate(LabelMap(gt + 1), LabelMap(gt))
    ok = ok and miou(swap) == 0.0

    pieces = [(rng.integers(0, 4, size=(6, 6)).astype(np.uint32),
               rng.integers(0, 4, size=(6, 6)).astype(np.uint32))
              for _ in range(5)]
    stepwise = ConfusionMatrix(4)
    for g, p in pieces:
        stepwise.accumulate(LabelMap(g), LabelMap(p))
    pooled = ConfusionMatrix(4)
    pooled.accumulate(LabelMap(np.concatenate([g for g, _ in pieces])),
                      LabelMap(np.concatenate([p for _, p in pieces])))
    for name in ("intersection", "gt_pixels", "pred_pixels"):
        ok = ok and np.array_equal(getattr(stepwise, name), getattr(pooled, name))
    _report(7, "mIoU correctness", ok)
    assert ok


def test_criterion_8_thread_count_invariance(tmp_path, capsys):
    ok = True
    for seed in (0, 1, 2):
        params = scene_params(seed)
        scene_dir = tmp_path / f"scene{seed}"
        gen_args = ["gen", "--seed", str(seed),
                    "--height", str(params["height"]),
                    "--width", str(params["width"]),
                    "--dim", str(params["dim"]),
                    "--classes", str(params["num_classes"]),
                    "--synonyms", str(params["synonyms_per_class"]),
                    "--drift", str(params["drift"]),
                    "--overlap", str(params["overlap"]),
                    "--out-dir", str(scene_dir)]
        if params["feature_height"]:
            gen_args += ["--feature-height", str(params["feature_height"]),
                         "--feature-width", str(params["feature_width"])]
        ok = ok and main(gen_args) == 0

        outputs = {}
        for threads in ("1", "8"):
            prior_path = tmp_path / f"prior{seed}_{threads}.cft1"
            label_path = tmp_path / f"labels{seed}_{threads}.cft1"
            sweep_path = tmp_path / f"sweep{seed}_{threads}.csv"
            ok = ok and main(["prior",
                              "--features", str(scene_dir / "features.cft1"),
                              "--embeddings", str(scene_dir / "embeddings.cft1"),
                              "--prompts", str(scene_dir / "prompts.txt"),
                              "--out", str(prior_path),
                              "--out-height", str(params["height"]),
                              "--out-width", str(params["width"]),
                              "--threads", threads]) == 0
            ok = ok and main(["fuse",
                              "--evidence", str(scene_dir / "mask_logits.cft1"),
                              "--presence", str(scene_dir / "presence.cft1"),
                              "--prior", str(prior_path),
                              "--out", str(label_path)]) == 0
            ok = ok and main(["eval", "--gt", str(scene_dir / "gt.cft1"),
                              "--pred", str(label_path),
                              "--classes", str(params["num_classes"])]) == 0
            eval_out = capsys.readouterr().out
            ok = ok and main(["sweep", "--seed", str(seed),
                              "--height", str(params["height"]),
                              "--width", str(params["width"]),
                              "--dim", str(params["dim"]),
                              "--classes", str(params["num_classes"]),
                              "--synonyms", str(params["synonyms_per_class"]),
                              "--drift", str(params["drift"]),
                              "--overlap", str(params["overlap"]),
                              "--p", "0,0.5,1", "--selection", "easy,hard",
                              "--out", str(sweep_path),
                              "--threads", threads]) == 0
            outputs[threads] = (prior_path.read_bytes(), label_path.read_bytes(),
                                eval_out, sweep_path.read_bytes())
        ok = ok and outputs["1"] == outputs["8"]
    _report(8, "thread-count invariance of CLI outputs", ok)
    assert ok


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(1234)
    ok = True

    # Each round trip writes new files: truncating an existing file on every
    # save can cost tens of milliseconds at close on some file systems.
    for i in range(1000):
        ndim = int(rng.integers(2, 4))
        shape = tuple(int(x) for x in rng.integers(1, 7, size=ndim))
        grid = DenseGrid(rng.standard_normal(shape).astype(np.float32))
        first_path = tmp_path / f"grid{i}.cft1"
        again_path = tmp_path / f"grid{i}_again.cft1"
        save_grid(grid, first_path)
        save_grid(load_grid(first_path), again_path)
        ok = ok and again_path.read_bytes() == first_path.read_bytes()

    used = set()
    for i in range(1000):
        n_classes = int(rng.integers(1, 7))
        lines = []
        for _ in range(n_classes):
            m = int(rng.integers(1, 11))
            tokens = []
            while len(tokens) < m:
                word = "".join(chr(97 + c) for c in rng.integers(0, 26, size=7))
                if word not in used:
                    used.add(word)
                    tokens.append(word)
            lines.append(", ".join(tokens))
        text = format_prompt_file(parse_prompt_file("\n".join(lines)))
        ok = ok and format_prompt_file(parse_prompt_file(text)) == text

    bad_magic = tmp_path / "bad_magic.cft1"
    bad_magic.write_bytes(b"XXXX" + bytes(16))
    try:
        load_grid(bad_magic)
        ok = False
    except SegfuseError as err:
        ok = ok and err.code == "bad_magic"

    truncated = tmp_path / "trunc.cft1"
    save_grid(DenseGrid(np.ones((3, 3), dtype=np.float32)), truncated)
    truncated.write_bytes(truncated.read_bytes()[:-2])
    try:
        load_grid(truncated)
        ok = False
    except SegfuseError as err:
        ok = ok and err.code == "payload_truncated"

    try:
        parse_prompt_file(", ".join("abcdefghijk"))
        ok = False
    except SegfuseError as err:
        ok = ok and err.code == "too_many_synonyms"

    _report(9, "format round trips and malformed corpus", ok)
    assert ok
