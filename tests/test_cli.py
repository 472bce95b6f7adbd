"""CLI wrappers: exit codes, file outputs and bitwise parity with the library."""
import os

import numpy as np
import pytest

from segfuse import (Aggregation, DenseGrid, FusionConfig,
                     build_prior, fuse_and_decode, generate_scene,
                     load_embeddings, load_grid, load_label_map,
                     load_prompt_file, save_grid, save_label_map)
from segfuse import grid as grid_module
from segfuse import prior as prior_module
from segfuse.cli import build_parser, main


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
        assert "scene dimensions must be >= 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", _THREADED_COMMANDS)
@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_non_positive_threads_is_usage_error(command, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS[command] + ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", _THREADED_COMMANDS)
def test_threads_defaults_to_usable_cpus(command):
    args = build_parser().parse_args(_COMMANDS[command])
    assert args.threads == len(os.sched_getaffinity(0))


def test_prior_starts_no_more_workers_than_tiles(tmp_path, monkeypatch):
    scene_dir = _gen(tmp_path)
    # one-row tiles: 12 of them
    monkeypatch.setattr(grid_module, "_TILE_BYTES", 1)
    pools = []

    class RecordingExecutor:
        """Records `max_workers` and runs the tiles in the calling thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(prior_module, "ThreadPoolExecutor", RecordingExecutor)
    outputs = []
    for threads in ("100000", "1"):
        out = tmp_path / f"prior{threads}.cft1"
        assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                     "--embeddings", str(scene_dir / "embeddings.cft1"),
                     "--prompts", str(scene_dir / "prompts.txt"),
                     "--out", str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    # one worker starts no pool
    assert pools == [12]
    assert outputs[0] == outputs[1]


def test_eval_threads_is_usage_error(capsys):
    # eval has nothing to schedule, so it takes no --threads
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--gt", "g", "--pred", "p", "--classes", "2",
              "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_fuse_threads_is_usage_error(capsys):
    # scheduling the fusion tiles measured no faster, so fuse takes no --threads
    with pytest.raises(SystemExit) as exc:
        main(_COMMANDS["fuse"] + ["--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("prior", "--lambda-prior", "0.5"),
    ("prior", "--background-threshold", "0"),
    ("fuse", "--tau-s", "0.2"),
    ("fuse", "--aggregation", "max"),
    ("fuse", "--normalize-order", "after"),
    ("sweep", "--background-threshold", "0"),
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
                       ("aggregation = LSE\n", "bad_config_value")):
        config.write_text("# settings\n" + line)
        capsys.readouterr()
        assert main(["prior", "--features", str(scene_dir / "features.cft1"),
                     "--embeddings", str(scene_dir / "embeddings.cft1"),
                     "--prompts", str(scene_dir / "prompts.txt"),
                     "--out", str(tmp_path / "o.cft1"),
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"segfuse: error: {code}: ")
        assert not (tmp_path / "o.cft1").exists()


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
])
def test_sweep_bad_input_exit_1_with_code(tmp_path, capsys, flags, code):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seed", "3", "--height", "8", "--width", "8",
                 "--dim", "8", "--classes", "4", "--synonyms", "2",
                 "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"segfuse: error: {code}: ")
    assert not out.exists()
