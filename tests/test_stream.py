"""`gen`, `prior` and `fuse` stream CFT1 row tiles: failures, FIFOs and memory."""
import itertools
import os
import stat
import threading

import numpy as np
import pytest

from segfuse import DenseGrid, load_grid, load_label_map, save_grid
from segfuse import grid as grid_module
from segfuse import prior as prior_module
from segfuse import synth as synth_module
from segfuse.cli import main

from scenes import report_free_space, traced_peak


def _gen(tmp_path, classes=4, size=12, dim=8, synonyms=3):
    out = tmp_path / f"scene{classes}"
    assert main(["gen", "--seed", "5", "--height", str(size), "--width",
                 str(size), "--dim", str(dim), "--classes", str(classes),
                 "--synonyms", str(synonyms), "--drift", "0.2",
                 "--overlap", "0.5", "--out-dir", str(out)]) == 0
    return out


def _prior_argv(scene_dir, out, *extra):
    return ["prior", "--features", str(scene_dir / "features.cft1"),
            "--embeddings", str(scene_dir / "embeddings.cft1"),
            "--prompts", str(scene_dir / "prompts.txt"), "--out", str(out),
            *extra]


def _fuse_argv(evidence, presence, prior, out, *extra):
    return ["fuse", "--evidence", str(evidence), "--presence", str(presence),
            "--prior", str(prior), "--out", str(out), *extra]


@pytest.fixture
def one_row_tiles(monkeypatch):
    """Every kernel tile holds one row, so a 12-row grid makes 12 tiles."""
    monkeypatch.setattr(grid_module, "_TILE_BYTES", 1)


def _fail_after_first_tile(monkeypatch):
    """Make every prior tile after the first raise MemoryError."""
    calls = itertools.count()
    real = prior_module.log_prior_array

    def log_prior_array(u):
        if next(calls) >= 1:
            raise MemoryError("injected")
        return real(u)

    monkeypatch.setattr(prior_module, "log_prior_array", log_prior_array)


def _error_lines(capsys):
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_prior_failing_part_way_leaves_no_file(tmp_path, capsys, monkeypatch,
                                               one_row_tiles, threads):
    scene_dir = _gen(tmp_path)
    out = tmp_path / "prior.cft1"
    out.write_bytes(b"an older output")
    _fail_after_first_tile(monkeypatch)
    capsys.readouterr()
    assert main(_prior_argv(scene_dir, out, "--threads", threads)) == 1
    assert _error_lines(capsys) == ["segfuse: error: out_of_memory: injected"]
    assert not out.exists()


def test_prior_out_fifo_is_not_unlinked_on_failure(tmp_path, capsys,
                                                   monkeypatch, one_row_tiles):
    scene_dir = _gen(tmp_path)
    fifo = tmp_path / "prior.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    _fail_after_first_tile(monkeypatch)
    capsys.readouterr()
    assert main(_prior_argv(scene_dir, fifo, "--threads", "2")) == 1
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert _error_lines(capsys) == ["segfuse: error: out_of_memory: injected"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # the header and whole rows of 12 x 4 float32 went through, not all 12
    row_bytes = 12 * 4 * 4
    assert (len(got[0]) - 18) % row_bytes == 0
    assert len(got[0]) < 18 + 12 * row_bytes


def test_prior_to_fifo_matches_file(tmp_path, one_row_tiles):
    scene_dir = _gen(tmp_path)
    out = tmp_path / "prior.cft1"
    assert main(_prior_argv(scene_dir, out, "--threads", "2")) == 0
    fifo = tmp_path / "prior.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(_prior_argv(scene_dir, fifo, "--threads", "2")) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got[0] == out.read_bytes()


def test_prior_refuses_an_output_that_cannot_fit(tmp_path, capsys,
                                                 monkeypatch):
    # 20000 x 20000 x C150 float32 is 224 GiB: refused before any work,
    # whatever the disk, because the file system reports 1 GiB free
    scene_dir = _gen(tmp_path, classes=150, size=4, synonyms=1)

    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran")

    report_free_space(monkeypatch, 2**30)
    monkeypatch.setattr(prior_module, "_tiled_kernel", no_kernel)
    out = tmp_path / "huge.cft1"
    capsys.readouterr()
    assert main(_prior_argv(scene_dir, out, "--out-height", "20000",
                            "--out-width", "20000")) == 1
    err = _error_lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("segfuse: error: insufficient_space: ")
    assert f"needs {18 + 20000 * 20000 * 150 * 4} bytes" in err[0]
    assert not out.exists()


def test_gen_draw_failure_leaves_no_partial_grid(tmp_path, capsys, monkeypatch,
                                                 one_row_tiles):
    # the mask-logit draw fails on its second block, after both grid files
    # are open and every feature row is written
    calls = itertools.count()
    real = synth_module._logit_rows

    def logit_rows(*args):
        if next(calls) >= 1:
            raise MemoryError("injected")
        return real(*args)

    monkeypatch.setattr(synth_module, "_logit_rows", logit_rows)
    out = tmp_path / "scene"
    assert main(["gen", "--out-dir", str(out)]) == 1
    err = _error_lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("segfuse: error: out_of_memory: ")
    assert next(calls) == 2
    for path in out.glob("*.cft1"):
        (load_label_map if path.name == "gt.cft1" else load_grid)(path)


def test_gen_checks_free_space_before_any_row_is_drawn(tmp_path, capsys,
                                                      monkeypatch):
    # 8 KiB free: the embeddings and the 12x12x8 features fit, the
    # 12x12xC150 mask logits do not
    def no_draw(*args):
        raise AssertionError("a row was drawn")

    report_free_space(monkeypatch, 8192)
    monkeypatch.setattr(synth_module._SceneDraw, "draw", no_draw)
    out = tmp_path / "scene"
    assert main(["gen", "--height", "12", "--width", "12", "--dim", "8",
                 "--classes", "150", "--synonyms", "1",
                 "--out-dir", str(out)]) == 1
    err = _error_lines(capsys)
    assert len(err) == 1
    assert err[0].startswith("segfuse: error: insufficient_space: ")
    assert f"needs {18 + 12 * 12 * 150 * 4} bytes" in err[0]
    assert not (out / "features.cft1").exists()
    assert not (out / "mask_logits.cft1").exists()


def _fuse_inputs(tmp_path, height=12, width=12, classes=4, seed=41):
    rng = np.random.default_rng(seed)
    paths = {name: tmp_path / f"{name}.cft1"
             for name in ("evidence", "presence", "prior")}
    save_grid(DenseGrid(rng.standard_normal((height, width, classes))
                        .astype(np.float32)), paths["evidence"])
    save_grid(DenseGrid(rng.standard_normal((classes, 1)).astype(np.float32)),
              paths["presence"])
    save_grid(DenseGrid(-rng.uniform(0, 5, (height, width, classes))
                        .astype(np.float32)), paths["prior"])
    return paths


@pytest.mark.parametrize("bad_input", ["evidence", "prior"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fuse_nonfinite_last_row_writes_no_labels(tmp_path, capsys,
                                                  one_row_tiles, bad_input,
                                                  bad):
    paths = _fuse_inputs(tmp_path)
    grid = load_grid(paths[bad_input])
    grid.data[-1, -1, -1] = bad
    save_grid(grid, paths[bad_input])
    out = tmp_path / "labels.cft1"
    capsys.readouterr()
    assert main(_fuse_argv(paths["evidence"], paths["presence"],
                           paths["prior"], out)) == 1
    err = _error_lines(capsys)
    assert len(err) == 1 and "nonfinite_values" in err[0]
    assert str(paths[bad_input]) in err[0]
    assert not out.exists()


def test_fuse_probability_out_of_range_in_last_row_writes_no_labels(
        tmp_path, capsys, one_row_tiles):
    paths = _fuse_inputs(tmp_path)
    probs = np.full((12, 12, 4), 0.5, dtype=np.float32)
    probs[-1, -1, -1] = 1.5
    save_grid(DenseGrid(probs), paths["evidence"])
    out = tmp_path / "labels.cft1"
    capsys.readouterr()
    assert main(_fuse_argv(paths["evidence"], paths["presence"],
                           paths["prior"], out, "--evidence-kind",
                           "probabilities")) == 1
    assert _error_lines(capsys) == [
        "segfuse: error: probability_out_of_range: "
        "probability evidence must be a real number in [0.0, 1.0], got 1.5"]
    assert not out.exists()


def test_fuse_reads_two_fifos_in_lockstep(tmp_path, one_row_tiles):
    # 12 x 64 x 150 float32 is 460,800 bytes per input, several pipe buffers,
    # so neither writer can finish before fuse reads the other FIFO
    paths = _fuse_inputs(tmp_path, width=64, classes=150)
    want = tmp_path / "want.cft1"
    assert main(_fuse_argv(paths["evidence"], paths["presence"],
                           paths["prior"], want)) == 0
    fifos = {}
    writers = []
    for name in ("evidence", "prior"):
        fifos[name] = tmp_path / f"{name}.fifo"
        os.mkfifo(fifos[name])
        raw = paths[name].read_bytes()

        def write(fifo=fifos[name], raw=raw):
            with open(fifo, "wb") as f:
                f.write(raw)

        writers.append(threading.Thread(target=write, daemon=True))
    for writer in writers:
        writer.start()
    got = tmp_path / "got.cft1"
    assert main(_fuse_argv(fifos["evidence"], paths["presence"],
                           fifos["prior"], got)) == 0
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert got.read_bytes() == want.read_bytes()


def test_fuse_holds_less_than_one_input_grid(tmp_path):
    height, width, classes = 64, 64, 150
    paths = _fuse_inputs(tmp_path, height, width, classes)
    grid_bytes = height * width * classes * 4
    out = tmp_path / "labels.cft1"
    peak = traced_peak(lambda: main(_fuse_argv(
        paths["evidence"], paths["presence"], paths["prior"], out)))
    assert os.path.getsize(out) == 14 + height * width * 4
    # the tiles and the labels, where loading both inputs took two grids
    assert peak < grid_bytes, peak


def test_prior_holds_less_than_its_output(tmp_path):
    scene_dir = _gen(tmp_path, classes=40, size=16, dim=32)
    out = tmp_path / "prior.cft1"
    out_h = out_w = 256
    out_bytes = out_h * out_w * 40 * 4
    for threads in ("1", "2"):
        peak = traced_peak(lambda: main(_prior_argv(
            scene_dir, out, "--out-height", str(out_h),
            "--out-width", str(out_w), "--threads", threads)))
        assert os.path.getsize(out) == 18 + out_bytes
        # a few tile working sets per worker, never the 10 MiB output
        assert peak < out_bytes, (threads, peak)
