"""CLI wrappers: exit codes, file outputs and bitwise parity with the library."""
import os
import re
import struct
import subprocess
import sys
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from segfuse import (Aggregation, Background, DenseGrid, EvidenceBundle,
                     FusionConfig, LabelMap, SegfuseError, build_prior,
                     fuse_and_decode, generate_scene, load_embeddings,
                     load_grid, load_label_map, load_prompt_file, run_sweep,
                     save_grid, save_label_map)
from segfuse import cli as cli_module
from segfuse import grid as grid_module
from segfuse import prior as prior_module
from segfuse.cli import build_parser, main
from segfuse.prior import MIN_TAU
from segfuse.synth import MAX_NOISE


def _gen(tmp_path, seed=5, **kw):
    out = tmp_path / f"scene{seed}"
    args = ["gen", "--seed", str(seed), "--height", "12", "--width", "12",
            "--dim", "8", "--classes", "4", "--synonyms", "3",
            "--drift", "0.2", "--overlap", "0.5", "--out-dir", str(out)]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    return out


def test_gen_writes_scene_files(tmp_path):
    out = _gen(tmp_path)
    for name in ("prompts.txt", "embeddings.cft1", "features.cft1",
                 "mask_logits.cft1", "presence.cft1", "gt.cft1"):
        assert (out / name).exists()
    scene = generate_scene(5, 12, 12, 8, 4, 3, 0.2, 0.5)
    assert np.array_equal(load_grid(out / "features.cft1").data,
                          scene.features.data)
    assert np.array_equal(load_label_map(out / "gt.cft1").data, scene.gt.data)


def test_gen_is_reproducible(tmp_path):
    a = _gen(tmp_path, seed=9)
    b = _gen(tmp_path / "again", seed=9)
    for name in ("prompts.txt", "embeddings.cft1", "features.cft1",
                 "mask_logits.cft1", "presence.cft1", "gt.cft1"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# The scene's first large allocation is its uint32 ground truth, 364 TiB at
# this size: more than the user address space of x86-64 (128 TiB) or of
# 48-bit arm64 (256 TiB), so it fails at once under any overcommit mode
# instead of being granted and touched.
HUGE = 10**7


@pytest.mark.parametrize("command", ["gen", "sweep"])
def test_out_of_memory_scene_exit_1(tmp_path, capsys, command):
    assert HUGE * HUGE * 4 > 256 * 2**40
    args = [command, "--height", str(HUGE), "--width", str(HUGE),
            "--classes", "150"]
    if command == "gen":
        args += ["--out-dir", str(tmp_path / "scene")]
    else:
        args += ["--out", str(tmp_path / "sweep.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("segfuse: error: out_of_memory: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--feature-height", "--feature-width"])
def test_gen_non_positive_feature_grid_exit_1(tmp_path, capsys, flag):
    for value in ("0", "-2"):
        assert main(["gen", flag, value, "--out-dir", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == (
            "segfuse: error: bad_scene_size: scene dimensions must be >= 1\n")


@pytest.mark.parametrize("flags, code", [
    (["--height", "0"], "bad_scene_size"),
    (["--classes", "0"], "bad_scene_size"),
    (["--drift", "-1"], "bad_scene_noise"),
    (["--overlap", "-0.5"], "bad_scene_noise"),
])
def test_gen_bad_scene_exit_1_with_code(tmp_path, capsys, flags, code):
    out = tmp_path / "s"
    assert main(["gen", *flags, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"segfuse: error: {code}: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, code", [
    (["--classes", "0"], "bad_class_count"),
    (["--classes", "4", "--ignore-index", "2"], "bad_ignore_index"),
])
def test_eval_bad_classes_exit_1_with_code(tmp_path, capsys, flags, code):
    labels = tmp_path / "l.cft1"
    save_label_map(LabelMap(np.zeros((2, 2), dtype=np.uint32)), labels)
    assert main(["eval", "--gt", str(labels), "--pred", str(labels),
                 *flags]) == 1
    assert capsys.readouterr().err.startswith(f"segfuse: error: {code}: ")


def test_prior_output_is_normalized(tmp_path):
    scene_dir = _gen(tmp_path)
    out = tmp_path / "prior.cft1"
    assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                 "--embeddings", str(scene_dir / "embeddings.cft1"),
                 "--prompts", str(scene_dir / "prompts.txt"),
                 "--out", str(out)]) == 0
    log_pi = load_grid(out)
    assert log_pi.dims == (12, 12, 4)
    total = np.exp(log_pi.data.astype(np.float64)).sum(axis=2)
    assert np.abs(total - 1.0).max() < 1e-5


def test_prior_matches_library_bitwise(tmp_path):
    scene_dir = _gen(tmp_path)
    out = tmp_path / "prior.cft1"
    assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                 "--embeddings", str(scene_dir / "embeddings.cft1"),
                 "--prompts", str(scene_dir / "prompts.txt"),
                 "--out", str(out), "--tau-s", "0.2"]) == 0
    bank = load_prompt_file(scene_dir / "prompts.txt")
    store = load_embeddings(scene_dir / "embeddings.cft1", bank)
    features = load_grid(scene_dir / "features.cft1")
    log_pi = build_prior(features, store, bank, Aggregation("lse", 0.2), 12, 12)
    assert load_grid(out).data.tobytes() == log_pi.data.tobytes()


def test_prior_missing_embeddings_exit_1(tmp_path, capsys):
    scene_dir = _gen(tmp_path)
    code = main(["prior", "--features", str(scene_dir / "features.cft1"),
                 "--embeddings", str(tmp_path / "absent.cft1"),
                 "--prompts", str(scene_dir / "prompts.txt"),
                 "--out", str(tmp_path / "o.cft1")])
    assert code == 1
    assert "absent.cft1" in capsys.readouterr().err


def test_prior_row_mismatch_exit_1(tmp_path, capsys):
    scene_dir = _gen(tmp_path)
    bad = tmp_path / "bad_emb.cft1"
    save_grid(DenseGrid(np.ones((2, 8), dtype=np.float32)), bad)
    code = main(["prior", "--features", str(scene_dir / "features.cft1"),
                 "--embeddings", str(bad),
                 "--prompts", str(scene_dir / "prompts.txt"),
                 "--out", str(tmp_path / "o.cft1")])
    assert code == 1
    assert "row_count_mismatch" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prior", "--no-such-flag"])
    assert exc.value.code == 2


_COMMANDS = {
    "prior": ["prior", "--features", "f", "--embeddings", "e", "--prompts", "p",
              "--out", "o"],
    "fuse": ["fuse", "--evidence", "e", "--presence", "p", "--prior", "q",
             "--out", "o"],
    "sweep": ["sweep", "--out", "o"],
}
# the commands that run prior-kernel tiles on --threads
_THREADED_COMMANDS = ("prior", "sweep")


@pytest.fixture
def scratch_cwd(tmp_path, monkeypatch):
    """Run from `tmp_path`: a case that parses by mistake runs its command,
    and the relative paths above must not land in the working directory."""
    monkeypatch.chdir(tmp_path)


# Only a count that does not parse is argparse's; 0 and -1 parse, and the
# library's rule rejects them with bad_threads (see BAD_SETTINGS below).
@pytest.mark.usefixtures("scratch_cwd")
@pytest.mark.parametrize("command", _THREADED_COMMANDS)
@pytest.mark.parametrize("threads", ["two"])
def test_non_positive_threads_is_usage_error(command, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS[command] + ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_prior_threads_is_judged_before_any_input_is_read(tmp_path, capsys):
    # Every input is missing, so reading any of them would be an io_error.
    assert main(["prior", "--features", str(tmp_path / "f.cft1"),
                 "--embeddings", str(tmp_path / "e.cft1"),
                 "--prompts", str(tmp_path / "p.txt"),
                 "--out", str(tmp_path / "o.cft1"), "--threads", "0"]) == 1
    assert capsys.readouterr().err.startswith("segfuse: error: bad_threads: ")
    assert not any(tmp_path.iterdir())


def test_sweep_threads_is_judged_before_the_scene(tmp_path, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("scene generated before threads was checked")

    monkeypatch.setattr(cli_module, "generate_scene", forbidden)
    assert main(["sweep", "--out", str(tmp_path / "o.csv"), "--threads", "0"]) == 1
    assert capsys.readouterr().err.startswith("segfuse: error: bad_threads: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", _THREADED_COMMANDS)
def test_threads_defaults_to_usable_cpus(command):
    args = build_parser().parse_args(_COMMANDS[command])
    assert args.threads == len(os.sched_getaffinity(0))


def _save_c300(directory, height, width):
    """Evidence, presence and prior files whose labels all decode to 299."""
    logits = np.zeros((height, width, 300), dtype=np.float32)
    logits[..., 299] = 1.0
    save_grid(DenseGrid(logits), directory / "c300_evidence.cft1")
    save_grid(DenseGrid(np.zeros((300, 1), np.float32)),
              directory / "c300_presence.cft1")
    save_grid(DenseGrid(np.zeros_like(logits)), directory / "c300_prior.cft1")


def test_fuse_pgm_overflow_leaves_no_output(tmp_path, capsys):
    _save_c300(tmp_path, 16, 16)
    labels, pgm = tmp_path / "labels.cft1", tmp_path / "view.pgm"
    assert main(["fuse", "--evidence", str(tmp_path / "c300_evidence.cft1"),
                 "--presence", str(tmp_path / "c300_presence.cft1"),
                 "--prior", str(tmp_path / "c300_prior.cft1"),
                 "--out", str(labels), "--pgm", str(pgm)]) == 1
    assert capsys.readouterr().err.startswith(
        "segfuse: error: pgm_label_overflow: ")
    assert not labels.exists() and not pgm.exists()


def test_prior_starts_no_more_workers_than_tiles(tmp_path, monkeypatch):
    scene_dir = _gen(tmp_path)
    # one-row blocks and tiles: 12 product blocks, then 12 tiles
    monkeypatch.setattr(grid_module, "_TILE_BYTES", 1)
    pools, submitted = [], []

    class RecordingExecutor:
        """Records `max_workers` and the items submitted, and runs each item
        in the calling thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)
            submitted.append(0)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted[-1] += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(prior_module, "ThreadPoolExecutor", RecordingExecutor)
    outputs = []
    for threads in ("100000", "1"):
        out = tmp_path / f"prior{threads}.cft1"
        assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                     "--embeddings", str(scene_dir / "embeddings.cft1"),
                     "--prompts", str(scene_dir / "prompts.txt"),
                     "--out", str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    # one worker runs on a pool too, of one thread, and each call runs its
    # product blocks and its tiles on one pool
    assert pools == [12, 1]
    assert submitted == [24, 24]
    assert outputs[0] == outputs[1]


@pytest.mark.usefixtures("scratch_cwd")
def test_eval_threads_is_usage_error(capsys):
    # eval has nothing to schedule, so it takes no --threads
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--gt", "g", "--pred", "p", "--classes", "2",
              "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.usefixtures("scratch_cwd")
def test_fuse_threads_is_usage_error(capsys):
    # scheduling the fusion tiles measured no faster, so fuse takes no --threads
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS["fuse"] + ["--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.usefixtures("scratch_cwd")
@pytest.mark.parametrize("command, flag, value", [
    ("prior", "--lambda-prior", "0.5"),
    ("prior", "--background-threshold", "0"),
    ("fuse", "--tau-s", "0.2"),
    ("fuse", "--aggregation", "max"),
    ("fuse", "--normalize-order", "after"),
    ("sweep", "--background-threshold", "0"),
    # each sweep axis has one flag, its --*-grid
    ("sweep", "--lambda-prior", "0.5"),
    ("sweep", "--tau-s", "0.2"),
    ("sweep", "--aggregation", "max"),
])
def test_flag_the_command_does_not_read_is_usage_error(command, flag, value,
                                                        capsys):
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS[command] + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def _full_chain(tmp_path, extra_fuse_args=()):
    scene_dir = _gen(tmp_path)
    prior_path = tmp_path / "prior.cft1"
    labels_path = tmp_path / "labels.cft1"
    assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                 "--embeddings", str(scene_dir / "embeddings.cft1"),
                 "--prompts", str(scene_dir / "prompts.txt"),
                 "--out", str(prior_path)]) == 0
    assert main(["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
                 "--presence", str(scene_dir / "presence.cft1"),
                 "--prior", str(prior_path), "--out", str(labels_path),
                 *extra_fuse_args]) == 0
    return scene_dir, prior_path, labels_path


def test_fuse_matches_library_bitwise(tmp_path):
    scene_dir, prior_path, labels_path = _full_chain(tmp_path)
    scene = generate_scene(5, 12, 12, 8, 4, 3, 0.2, 0.5)
    prior_grid = load_grid(prior_path)
    expect = fuse_and_decode(scene.evidence, prior_grid, FusionConfig(0.7))
    got = load_label_map(labels_path)
    assert got.data.tobytes() == expect.data.tobytes()


def test_fuse_lambda_zero_is_structural_argmax(tmp_path):
    scene_dir = _gen(tmp_path)
    prior_path = tmp_path / "prior.cft1"
    labels_path = tmp_path / "labels.cft1"
    assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                 "--embeddings", str(scene_dir / "embeddings.cft1"),
                 "--prompts", str(scene_dir / "prompts.txt"),
                 "--out", str(prior_path)]) == 0
    zero_presence = tmp_path / "zeros.cft1"
    save_grid(DenseGrid(np.zeros((4, 1), dtype=np.float32)), zero_presence)
    assert main(["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
                 "--presence", str(zero_presence), "--prior", str(prior_path),
                 "--out", str(labels_path), "--lambda-prior", "0"]) == 0
    mask = load_grid(scene_dir / "mask_logits.cft1")
    assert np.array_equal(load_label_map(labels_path).data,
                          np.argmax(mask.data, axis=2).astype(np.uint32))


def test_fuse_background_saturating_threshold(tmp_path):
    _, _, labels_path = _full_chain(
        tmp_path, extra_fuse_args=("--background-threshold", "inf"))
    labels = load_label_map(labels_path)
    assert (labels.data == 4).all()


@pytest.mark.parametrize("extra, code", [
    (("--lambda-prior", "inf"), "bad_lambda_prior"),
    (("--lambda-prior", "nan"), "bad_lambda_prior"),
    (("--background-threshold", "nan"), "bad_background_threshold"),
])
def test_fuse_non_finite_parameter_exit_1(tmp_path, capsys, extra, code):
    scene_dir, prior_path, labels_path = _full_chain(tmp_path)
    capsys.readouterr()
    assert main(["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
                 "--presence", str(scene_dir / "presence.cft1"),
                 "--prior", str(prior_path), "--out", str(labels_path),
                 *extra]) == 1
    assert code in capsys.readouterr().err


@pytest.mark.parametrize("index", ["4294967296", "-1"])
def test_fuse_background_index_out_of_range_exit_1(tmp_path, capsys, index):
    scene_dir, prior_path, labels_path = _full_chain(tmp_path)
    capsys.readouterr()
    assert main(["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
                 "--presence", str(scene_dir / "presence.cft1"),
                 "--prior", str(prior_path), "--out", str(labels_path),
                 "--background-threshold", "0",
                 "--background-index", index]) == 1
    err = capsys.readouterr().err
    assert "bad_background_index" in err and "Traceback" not in err


def test_fuse_largest_background_index(tmp_path):
    _, _, labels_path = _full_chain(
        tmp_path, extra_fuse_args=("--background-threshold", "inf",
                                   "--background-index", "4294967295"))
    assert (load_label_map(labels_path).data == 2**32 - 1).all()


def test_fuse_background_index_needs_threshold(tmp_path, capsys):
    scene_dir, prior_path, labels_path = _full_chain(tmp_path)
    fuse = ["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
            "--presence", str(scene_dir / "presence.cft1"),
            "--prior", str(prior_path), "--background-index", "7"]
    capsys.readouterr()
    assert main(fuse + ["--out", str(tmp_path / "alone.cft1")]) == 1
    assert "background_index_without_threshold" in capsys.readouterr().err
    assert not (tmp_path / "alone.cft1").exists()
    # a threshold from the config file counts
    config = tmp_path / "run.conf"
    config.write_text("background_threshold = inf\n")
    assert main(fuse + ["--out", str(labels_path), "--config", str(config)]) == 0
    assert (load_label_map(labels_path).data == 7).all()


def test_sweep_nan_lambda_grid_exit_1(tmp_path, capsys):
    assert main(["sweep", "--seed", "3", "--height", "8", "--width", "8",
                 "--dim", "8", "--classes", "4", "--synonyms", "2",
                 "--p", "0,1", "--lambda-grid", "0.5,nan",
                 "--out", str(tmp_path / "sweep.csv")]) == 1
    assert "bad_lambda_prior" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_prior_zero_tau_exit_1(tmp_path, capsys):
    scene_dir = _gen(tmp_path)
    for tau in ("0", "inf"):
        capsys.readouterr()
        assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                     "--embeddings", str(scene_dir / "embeddings.cft1"),
                     "--prompts", str(scene_dir / "prompts.txt"),
                     "--out", str(tmp_path / "o.cft1"), "--tau-s", tau]) == 1
        assert "bad_tau_s" in capsys.readouterr().err
        assert not (tmp_path / "o.cft1").exists()


def test_extreme_accepted_settings_write_finite_outputs(tmp_path):
    # The noisiest accepted scene and the coldest accepted temperature: no
    # overflow on the way, and every float output reads back as finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scene_dir = _gen(tmp_path, drift=MAX_NOISE, overlap=MAX_NOISE)
        out = tmp_path / "prior.cft1"
        assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                     "--embeddings", str(scene_dir / "embeddings.cft1"),
                     "--prompts", str(scene_dir / "prompts.txt"),
                     "--out", str(out), "--tau-s", repr(MIN_TAU)]) == 0
    for name in ("embeddings", "features", "mask_logits", "presence"):
        load_grid(scene_dir / f"{name}.cft1")  # refuses a non-finite value
    # the log prior reaches the float32 range it was bounded by
    assert load_grid(out).data.min() < -1e37


def test_sweep_zero_tau_grid_exit_1(tmp_path, capsys):
    for tau in ("0", "inf"):
        assert main(["sweep", "--seed", "3", "--height", "8", "--width", "8",
                     "--dim", "8", "--classes", "4", "--synonyms", "2",
                     "--p", "0,1", "--tau-grid", tau,
                     "--aggregation-grid", "lse",
                     "--out", str(tmp_path / "sweep.csv")]) == 1
        assert "bad_tau_s" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


def test_fuse_pgm_export(tmp_path):
    scene_dir, prior_path, labels_path = _full_chain(tmp_path)
    pgm = tmp_path / "view.pgm"
    assert main(["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
                 "--presence", str(scene_dir / "presence.cft1"),
                 "--prior", str(prior_path), "--out", str(labels_path),
                 "--pgm", str(pgm)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n12 12\n255\n")


def test_eval_identical_maps(tmp_path, capsys):
    labels = np.arange(16, dtype=np.uint32).reshape(4, 4) % 3
    path = tmp_path / "l.cft1"
    save_label_map(__import__("segfuse").LabelMap(labels), path)
    assert main(["eval", "--gt", str(path), "--pred", str(path),
                 "--classes", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[-1] == "miou,1.000000"


def test_eval_swap_fixture(tmp_path, capsys):
    from segfuse import LabelMap
    gt = tmp_path / "gt.cft1"
    pred = tmp_path / "pred.cft1"
    save_label_map(LabelMap(np.array([[0, 0], [1, 1]], dtype=np.uint32)), gt)
    save_label_map(LabelMap(np.array([[1, 1], [0, 0]], dtype=np.uint32)), pred)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred),
                 "--classes", "2"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[-1] == "miou,0.000000"


def test_eval_hand_counted_fixture(tmp_path, capsys):
    from segfuse import LabelMap
    gt = tmp_path / "gt.cft1"
    pred = tmp_path / "pred.cft1"
    save_label_map(LabelMap(np.array([[0, 0], [1, 1]], dtype=np.uint32)), gt)
    save_label_map(LabelMap(np.array([[0, 1], [1, 1]], dtype=np.uint32)), pred)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred),
                 "--classes", "2"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[-1] == "miou,0.583333"


def test_sweep_twelve_rows_and_repeatable(tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    args = ["sweep", "--seed", "3", "--height", "10", "--width", "10",
            "--dim", "8", "--classes", "5", "--synonyms", "2",
            "--drift", "0.3", "--overlap", "0.6",
            "--p", "0,0.2,0.4,0.6,0.8,1.0", "--selection", "easy,hard"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert len(text.strip().split("\n")) == 13  # header + 12 rows
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_p_zero_rows_match_across_modes(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seed", "3", "--height", "8", "--width", "8",
                 "--dim", "8", "--classes", "4", "--synonyms", "2",
                 "--drift", "0.3", "--overlap", "0.6", "--p", "0,0.5,1",
                 "--selection", "easy,hard", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 6
    p0 = [ln for ln in lines if ln.startswith("0.000000,")]
    assert len(p0) == 2
    assert p0[0].split(",")[-1] == p0[1].split(",")[-1]


def test_sweep_lambda_axis_mirrors_table_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seed", "7", "--height", "8", "--width", "8",
                 "--dim", "8", "--classes", "4", "--synonyms", "2",
                 "--drift", "0.2", "--overlap", "0.5", "--p", "1",
                 "--selection", "easy",
                 "--lambda-grid", "0.3,0.5,0.7,0.9", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert [ln.split(",")[2] for ln in lines] == [
        "0.300000", "0.500000", "0.700000", "0.900000"]


def test_sweep_matches_library_bitwise(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seed", "11", "--height", "10", "--width", "10",
                 "--dim", "8", "--classes", "4", "--synonyms", "2",
                 "--drift", "0.3", "--overlap", "0.6", "--p", "0,0.5,1",
                 "--selection", "easy,hard", "--out", str(out)]) == 0
    from segfuse import format_sweep_csv, run_sweep
    scene = generate_scene(11, 10, 10, 8, 4, 2, 0.3, 0.6)
    rows = run_sweep(scene, target_class=0, p_values=[0.0, 0.5, 1.0],
                     selections=["easy", "hard"], lambda_values=[0.7],
                     tau_values=[0.1], aggregations=["lse"])
    assert out.read_text() == format_sweep_csv(rows)


def test_sweep_alt_features_axis(tmp_path):
    other = generate_scene(99, 8, 8, 8, 3, 2, 0.2, 1.2)
    alt_path = tmp_path / "alt.cft1"
    save_grid(other.features, alt_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seed", "12", "--height", "8", "--width", "8",
                 "--dim", "8", "--classes", "3", "--synonyms", "2",
                 "--drift", "0.2", "--overlap", "0.4", "--p", "1",
                 "--selection", "easy", "--alt-features", f"noisy={alt_path}",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert [ln.split(",")[5] for ln in lines] == ["primary", "noisy"]


def test_eval_ignore_index(tmp_path, capsys):
    from segfuse import LabelMap
    gt = tmp_path / "gt.cft1"
    pred = tmp_path / "pred.cft1"
    save_label_map(LabelMap(np.array([[0, 9], [1, 9]], dtype=np.uint32)), gt)
    save_label_map(LabelMap(np.array([[0, 1], [1, 0]], dtype=np.uint32)), pred)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred),
                 "--classes", "2", "--ignore-index", "9"]) == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[-1] == "miou,1.000000"


def test_config_file_and_flag_precedence(tmp_path):
    scene_dir = _gen(tmp_path)
    config = tmp_path / "run.conf"
    # a config file keeps every key, including ones `prior` does not read
    config.write_text("# settings\ntau_s = 0.25\nlambda_prior = 0.5\n"
                      "background_threshold = 0\n")
    out_conf = tmp_path / "a.cft1"
    out_flag = tmp_path / "b.cft1"
    base = ["prior", "--features", str(scene_dir / "features.cft1"),
            "--embeddings", str(scene_dir / "embeddings.cft1"),
            "--prompts", str(scene_dir / "prompts.txt")]
    assert main(base + ["--out", str(out_conf), "--config", str(config)]) == 0
    bank = load_prompt_file(scene_dir / "prompts.txt")
    store = load_embeddings(scene_dir / "embeddings.cft1", bank)
    features = load_grid(scene_dir / "features.cft1")
    expect = build_prior(features, store, bank, Aggregation("lse", 0.25), 12, 12)
    assert load_grid(out_conf).data.tobytes() == expect.data.tobytes()
    # explicit flag wins over the config value
    assert main(base + ["--out", str(out_flag), "--config", str(config),
                        "--tau-s", "0.1"]) == 0
    expect_flag = build_prior(features, store, bank, Aggregation("lse", 0.1),
                              12, 12)
    assert load_grid(out_flag).data.tobytes() == expect_flag.data.tobytes()


def test_bad_config_key_exit_1(tmp_path, capsys):
    scene_dir = _gen(tmp_path)
    config = tmp_path / "run.conf"
    for line, code in (("speed = 11\n", "unknown_config_key"),
                       ("chunk = 16\n", "unknown_config_key"),
                       ("tau_s 0.25\n", "bad_config_line"),
                       ("tau_s = abc\n", "bad_config_value"),
                       ("aggregation = LSE\n", "bad_aggregation")):
        config.write_text("# settings\n" + line)
        capsys.readouterr()
        assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                     "--embeddings", str(scene_dir / "embeddings.cft1"),
                     "--prompts", str(scene_dir / "prompts.txt"),
                     "--out", str(tmp_path / "o.cft1"),
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"segfuse: error: {code}: ")
        assert not (tmp_path / "o.cft1").exists()


def test_non_utf8_config_exit_1(tmp_path, capsys):
    scene_dir = _gen(tmp_path)
    config = tmp_path / "run.conf"
    config.write_bytes(b"# r\xe9glages\ntau_s = 0.25\n")
    out = tmp_path / "o.cft1"
    capsys.readouterr()
    assert main(_prior_argv(scene_dir, out) + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"segfuse: error: bad_encoding: {config}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def _prior_argv(scene_dir, out):
    return ["prior", "--features", str(scene_dir / "features.cft1"),
            "--embeddings", str(scene_dir / "embeddings.cft1"),
            "--prompts", str(scene_dir / "prompts.txt"), "--out", str(out)]


def test_config_checks_keys_the_command_does_not_read(tmp_path, capsys):
    # fuse reads no tau_s, but the file's value is still checked
    scene_dir, prior_path, _ = _full_chain(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text("tau_s = 0\n")
    out = tmp_path / "o.cft1"
    capsys.readouterr()
    assert main(["fuse", "--evidence", str(scene_dir / "mask_logits.cft1"),
                 "--presence", str(scene_dir / "presence.cft1"),
                 "--prior", str(prior_path), "--out", str(out),
                 "--config", str(config)]) == 1
    assert "bad_tau_s" in capsys.readouterr().err
    assert not out.exists()


def test_config_checks_apply_to_merged_values(tmp_path):
    # bad file values that flags override are never used, so they pass
    scene_dir = _gen(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text("aggregation = bogus\ntau_s = 0\n")
    out = tmp_path / "o.cft1"
    assert main(_prior_argv(scene_dir, out) +
                ["--config", str(config), "--aggregation", "max",
                 "--tau-s", "0.2"]) == 0
    bank = load_prompt_file(scene_dir / "prompts.txt")
    store = load_embeddings(scene_dir / "embeddings.cft1", bank)
    expect = build_prior(load_grid(scene_dir / "features.cft1"), store, bank,
                         Aggregation("max"), 12, 12)
    assert load_grid(out).data.tobytes() == expect.data.tobytes()


@pytest.mark.parametrize("height, width", [("0", "0"), ("0", "12"),
                                           ("12", "0"), ("-3", "-3")])
def test_prior_out_size_below_1_exit_1(tmp_path, capsys, height, width):
    # 0 is a size like any other, not "use the feature size"
    scene_dir = _gen(tmp_path)
    out = tmp_path / "o.cft1"
    capsys.readouterr()
    assert main(_prior_argv(scene_dir, out) +
                ["--out-height", height, "--out-width", width]) == 1
    assert "shape_mismatch" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, code", [
    (["--p", "2"], "bad_ratio"),
    (["--p", ","], "empty_sweep_axis"),
    (["--p", "0,abc"], "bad_number_list"),
    (["--selection", "foo"], "bad_selection"),
    (["--selection", ","], "empty_sweep_axis"),
    (["--aggregation-grid", "foo"], "bad_aggregation"),
    (["--target-class", "50"], "bad_class_index"),
    (["--target-class", "-1"], "bad_class_index"),
    (["--tau-grid", "abc"], "bad_number_list"),
    (["--lambda-grid", "x"], "bad_number_list"),
    (["--p", "1", "--selection", "easy", "--tau-grid", "1e-7,2e-7"],
     "indistinct_sweep_values"),
])
def test_sweep_bad_input_exit_1_with_code(tmp_path, capsys, flags, code):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seed", "3", "--height", "8", "--width", "8",
                 "--dim", "8", "--classes", "4", "--synonyms", "2",
                 "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"segfuse: error: {code}: ")
    assert not out.exists()


# --- corpus of bad invocations ------------------------------------------------

def _cft1_header(dtype, *extents):
    return (b"CFT1" + struct.pack("<BB", dtype, len(extents))
            + struct.pack(f"<{len(extents)}I", *extents))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A 4x4, C3 scene with its prior, and one malformed input of each kind."""
    d = tmp_path_factory.mktemp("corpus")
    scene = d / "scene"
    assert main(["gen", "--height", "4", "--width", "4", "--dim", "4",
                 "--classes", "3", "--synonyms", "2", "--out-dir",
                 str(scene)]) == 0
    assert main(["prior", "--features", str(scene / "features.cft1"),
                 "--embeddings", str(scene / "embeddings.cft1"),
                 "--prompts", str(scene / "prompts.txt"),
                 "--out", str(d / "prior.cft1")]) == 0
    logits = (scene / "mask_logits.cft1").read_bytes()
    nan = load_grid(scene / "mask_logits.cft1").data.copy()
    nan[3, 3, 2] = np.nan
    files = {
        "magic.cft1": b"XXXX" + bytes(16),
        "dtype.cft1": _cft1_header(9, 2, 2) + bytes(16),
        "ndim.cft1": _cft1_header(1, 1, 1, 1, 1) + bytes(4),
        "extent.cft1": _cft1_header(1, 4, 0, 3),
        "nan.cft1": _cft1_header(1, 4, 4, 3) + nan.tobytes(),
        "truncated.cft1": logits[:-2],
        "excess.cft1": logits + bytes(1),
        "rows.cft1": _cft1_header(1, 1, 4) + np.ones(4, np.float32).tobytes(),
        "line.conf": b"tau_s 0.25\n",
        "value.conf": b"tau_s = abc\n",
        "key.conf": b"speed = 11\n",
        "latin1.conf": "# réglages\n".encode("latin-1"),
        "latin1.txt": "café, coffee\nthé\n".encode("latin-1"),
        "flat.cft1": _cft1_header(1, 4, 4) + np.ones(16, np.float32).tobytes(),
        "cut_extents.cft1": _cft1_header(1, 4, 4, 3)[:9],
    }
    for name, data in files.items():
        (d / name).write_bytes(data)
    _save_c300(d, 2, 2)
    return d


_PRIOR = ("prior --features {d}/scene/features.cft1 --embeddings "
          "{d}/scene/embeddings.cft1 --prompts {d}/scene/prompts.txt "
          "--out {o}/out.cft1")
_FUSE = ("fuse --evidence {d}/scene/mask_logits.cft1 --presence "
         "{d}/scene/presence.cft1 --prior {d}/prior.cft1 --out {o}/out.cft1")
_C300 = (_FUSE.replace("scene/mask_logits", "c300_evidence")
         .replace("scene/presence", "c300_presence"))
_SWEEP = ("sweep --height 4 --width 4 --dim 4 --classes 3 --synonyms 2 "
          "--out {o}/out.csv")
_EVAL = "eval --gt {d}/scene/gt.cft1 --pred {d}/scene/gt.cft1"

# (argv, the code of an exit-1 failure, or 2 for a usage error); {d} holds
# the inputs and {o} is the case's own, empty, output directory.
BAD_INVOCATIONS = {
    "bad_magic": (_PRIOR.replace("scene/features", "magic"), "bad_magic"),
    "bad_dtype": (_FUSE.replace("scene/mask_logits", "dtype"), "bad_dtype"),
    "float_label_map": (_EVAL.replace("gt.cft1 --pred", "features.cft1 --pred")
                        + " --classes 3", "bad_dtype"),
    "bad_ndim": (_PRIOR.replace("scene/features", "ndim"), "bad_ndim"),
    "zero_extent": (_FUSE.replace("scene/mask_logits", "extent"), "bad_extent"),
    "nan_payload": (_FUSE.replace("scene/mask_logits", "nan"),
                    "nonfinite_values"),
    "truncated_payload": (_FUSE.replace("{d}/prior", "{d}/truncated"),
                          "payload_truncated"),
    "trailing_bytes": (_FUSE.replace("{d}/prior", "{d}/excess"),
                       "payload_excess"),
    "header_cut_short": (_FUSE.replace("scene/mask_logits", "cut_extents"),
                         "payload_truncated"),
    "embedding_rows": (_PRIOR.replace("scene/embeddings", "rows"),
                       "row_count_mismatch"),
    "feature_dim": (_PRIOR.replace("scene/features", "scene/mask_logits"),
                    "dim_mismatch"),
    "two_axis_features": (_PRIOR.replace("scene/features", "flat"),
                          "dim_mismatch"),
    "bad_config_line": (_PRIOR + " --config {d}/line.conf", "bad_config_line"),
    "bad_config_value": (_PRIOR + " --config {d}/value.conf",
                         "bad_config_value"),
    "unknown_config_key": (_PRIOR + " --config {d}/key.conf",
                           "unknown_config_key"),
    "non_utf8_config": (_FUSE + " --config {d}/latin1.conf", "bad_encoding"),
    "non_utf8_prompts": (_PRIOR.replace("scene/prompts", "latin1"),
                         "bad_encoding"),
    "zero_tau": (_PRIOR + " --tau-s 0", "bad_tau_s"),
    "underflowing_tau": (_PRIOR + " --tau-s 1e-40", "bad_tau_s"),
    "sweep_negative_tau_with_max": (_SWEEP + " --tau-grid -1 --aggregation-grid max",
                                    "bad_tau_s"),
    "sweep_nan_tau_with_average": (_SWEEP + " --tau-grid nan,0.1 "
                                   "--aggregation-grid average,max", "bad_tau_s"),
    "sweep_underflowing_tau": (_SWEEP + " --tau-grid 1e-40", "bad_tau_s"),
    "nan_lambda": (_FUSE + " --lambda-prior nan", "bad_lambda_prior"),
    "overflowing_lambda": (_FUSE + " --lambda-prior 1e308", "nonfinite_scores"),
    "nan_threshold": (_FUSE + " --background-threshold nan",
                      "bad_background_threshold"),
    "index_without_threshold": (_FUSE + " --background-index 7",
                                "background_index_without_threshold"),
    "logits_as_probabilities": (_FUSE + " --evidence-kind probabilities",
                                "probability_out_of_range"),
    "prior_dims": (_C300, "shape_mismatch"),
    "pgm_overflow": (_C300.replace("{d}/prior", "{d}/c300_prior")
                     + " --pgm {o}/out.pgm", "pgm_label_overflow"),
    "bad_p": (_SWEEP + " --p 2", "bad_ratio"),
    "target_class": (_SWEEP + " --target-class 3", "bad_class_index"),
    "gen_height_0": ("gen --height 0 --out-dir {o}/out", "bad_scene_size"),
    "gen_unaddressable": ("gen --height 10000000000 --width 10000000000 "
                          "--out-dir {o}/out", "bad_scene_size"),
    "gen_synonyms_11": ("gen --synonyms 11 --out-dir {o}/out", "bad_scene_size"),
    "gen_nan_drift": ("gen --drift nan --out-dir {o}/out", "bad_scene_noise"),
    "gen_overflowing_drift": ("gen --drift 1e200 --out-dir {o}/out",
                              "bad_scene_noise"),
    "gen_overflowing_overlap": ("gen --overlap 1e200 --out-dir {o}/out",
                                "bad_scene_noise"),
    "gen_negative_seed": ("gen --seed -1 --out-dir {o}/out", "bad_scene_seed"),
    # 2**32 one-pixel feature rows: a CFT1 header cannot hold the extent
    "gen_feature_extent_above_u32": ("gen --feature-height 4294967296 "
                                     "--feature-width 1 --height 1 --width 1 "
                                     "--dim 1 --classes 1 --synonyms 1 "
                                     "--out-dir {o}/out", "bad_extent"),
    "sweep_negative_seed": (_SWEEP + " --seed -1", "bad_scene_seed"),
    "alt_features_without_name": (_SWEEP + " --alt-features nopath",
                                  "bad_alt_features"),
    "alt_features_named_primary": (_SWEEP + " --alt-features primary="
                                   "{d}/scene/features.cft1", "bad_alt_features"),
    # a comma in the name would split the CSV row
    "alt_features_name_with_comma": (_SWEEP + " --alt-features a,b="
                                     "{d}/scene/features.cft1", "bad_alt_features"),
    "alt_features_name_twice": (_SWEEP + " --alt-features a={d}/scene/features.cft1"
                                " --alt-features a={d}/scene/features.cft1",
                                "bad_alt_features"),
    "missing_input": (_PRIOR.replace("scene/features", "missing"), "io_error"),
    "input_is_directory": (_EVAL.replace("scene/gt.cft1 --pred", "scene --pred")
                           + " --classes 3", "io_error"),
    "eval_classes_0": (_EVAL + " --classes 0", "bad_class_count"),
    "eval_classes_unaddressable": (_EVAL + " --classes 10000000000",
                                   "bad_class_count"),
    "eval_label_range": (_EVAL + " --classes 1", "label_out_of_range"),
    "no_command": ("", 2),
    "unknown_flag": (_PRIOR + " --no-such-flag", 2),
    "threads_0": (_PRIOR + " --threads 0", "bad_threads"),
    "bad_choice": (_FUSE + " --evidence-kind odds", "bad_evidence_kind"),
    "missing_required": (_EVAL, 2),
    "non_integer": ("gen --height tall --out-dir {o}/out", 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_invocation_corpus(corpus_dir, tmp_path, capsys, case):
    template, expect = BAD_INVOCATIONS[case]
    argv = [arg.format(d=corpus_dir, o=tmp_path) for arg in template.split()]
    capsys.readouterr()
    if expect == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")
    else:
        assert main(argv) == 1
        err = capsys.readouterr().err
        match = re.fullmatch(r"segfuse: error: ([a-z_]+): [^\n]+\n", err)
        assert match, err
        assert match.group(1) == expect
    assert not any(tmp_path.iterdir())


# Each bad setting value, sent through every entry that accepts it: its flag,
# a `--config` file (every command that reads one checks every key), a sweep
# grid and a library call.  All of them fail with the library's code.
# setting -> (code, config line or None, {entry: argv template or library call})
BAD_SETTINGS = {
    "aggregation": ("bad_aggregation", "aggregation = bogus", {
        "prior_flag": _PRIOR + " --aggregation bogus",
        "sweep_grid": _SWEEP + " --aggregation-grid lse,bogus",
        "Aggregation": lambda scene: Aggregation("bogus"),
    }),
    "normalize_order": ("bad_normalize_order", "normalize_order = bogus", {
        "prior_flag": _PRIOR + " --normalize-order bogus",
        "sweep_flag": _SWEEP + " --normalize-order bogus",
        "build_prior": lambda scene: _library_prior(scene, normalize_order="bogus"),
        "run_sweep": lambda scene: run_sweep(scene, p_values=[1.0],
                                             normalize_order="bogus"),
    }),
    **{f"threads_{n}": ("bad_threads", None, {
        "prior_flag": _PRIOR + f" --threads {n}",
        "sweep_flag": _SWEEP + f" --threads {n}",
        "build_prior": lambda scene, n=n: _library_prior(scene, threads=n),
        "run_sweep": lambda scene, n=n: run_sweep(scene, p_values=[1.0],
                                                  threads=n),
    }) for n in (0, -1)},
    "evidence_kind": ("bad_evidence_kind", None, {
        "fuse_flag": _FUSE + " --evidence-kind odds",
        "EvidenceBundle": lambda scene: EvidenceBundle(
            scene.evidence.mask_evidence, "odds"),
    }),
    "excluded": ("bad_excluded", None, {
        "sweep_flag": _SWEEP + " --excluded bogus",
        "run_sweep": lambda scene: run_sweep(scene, p_values=[1.0],
                                             excluded="bogus"),
    }),
    "nan_threshold": ("bad_background_threshold", "background_threshold = nan", {
        "fuse_flag": _FUSE + " --background-threshold nan",
        "Background": lambda scene: Background(float("nan")),
    }),
}
_CONFIG_ENTRIES = {"prior_config": _PRIOR, "fuse_config": _FUSE,
                   "sweep_config": _SWEEP}


def _library_prior(scene, **kwargs):
    return build_prior(scene.features, scene.embeddings, scene.bank,
                       Aggregation("lse"), scene.height, scene.width, **kwargs)


def _bad_setting_entries(setting):
    _, config_line, entries = BAD_SETTINGS[setting]
    if config_line is None:
        return entries
    return {**entries, **{name: template + " --config {c}"
                          for name, template in _CONFIG_ENTRIES.items()}}


@pytest.mark.parametrize("setting, entry", [
    (setting, entry) for setting in BAD_SETTINGS
    for entry in _bad_setting_entries(setting)])
def test_bad_setting_fails_alike_from_every_entry(corpus_dir, tmp_path, capsys,
                                                  setting, entry):
    code, config_line, _ = BAD_SETTINGS[setting]
    how = _bad_setting_entries(setting)[entry]
    if callable(how):
        # the scene `_SWEEP` generates
        scene = generate_scene(0, 4, 4, 4, 3, 2, 0.2, 0.4)
        with pytest.raises(SegfuseError) as err:
            how(scene)
        assert err.value.code == code
        return
    config = tmp_path / "run.conf"
    config.write_text(f"{config_line}\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = [arg.format(d=corpus_dir, o=out, c=config) for arg in how.split()]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"segfuse: error: {code}: [^\n]+\n", err), err
    assert not any(out.iterdir())


def test_two_axis_evidence_is_reported_as_such(corpus_dir, tmp_path, capsys):
    # The evidence's axes are checked before the presence count they imply.
    template = _FUSE.replace("scene/mask_logits", "flat")
    assert main(template.format(d=corpus_dir, o=tmp_path).split()) == 1
    assert capsys.readouterr().err == (
        "segfuse: error: shape_mismatch: mask evidence needs 3 axes (H, W, C)\n")
    assert not any(tmp_path.iterdir())


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m segfuse` is the same entry point as `main`, exit code included
    src = os.path.dirname(os.path.dirname(grid_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["gen", "--seed", "3", "--height", "4", "--width", "4", "--dim",
            "4", "--classes", "3", "--synonyms", "2", "--out-dir"]
    done = subprocess.run([sys.executable, "-m", "segfuse", *argv,
                           str(tmp_path / "child")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main(argv + [str(tmp_path / "parent")]) == 0
    for path in sorted((tmp_path / "parent").iterdir()):
        assert (tmp_path / "child" / path.name).read_bytes() == path.read_bytes()
