#!/usr/bin/env python3
"""Paper-scale memory probe: `gen -> prior -> fuse -> eval` at 512x512, C847.

    python3 tests/scale_probe.py [WORK_DIR]

The scene has 512x512 evidence, 64x64x512 features and 847 classes with up
to 3 synonyms each, about as many prompts as the largest open-vocabulary
benchmark class lists.  Each stage runs `segfuse.cli.main` from this
checkout's `src` in a fresh process, and the probe prints that process's
peak resident memory (`ru_maxrss`, from `wait4`) and its wall seconds.
The files total about 1.8 GB; without WORK_DIR they go to a temporary
directory that is removed at the end.  pytest does not collect this file;
`test_scale_probe.py` runs its four stages at a desk shape.
"""
from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import time

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
SIZE, FEATURE, DIM, CLASSES, SYNONYMS = 512, 64, 512, 847, 3
STAGE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from segfuse.cli import main; sys.exit(main(sys.argv[2:]))")


def run_stage(argv) -> tuple[float, float]:
    """Peak resident MiB and wall seconds of `segfuse <argv>` in its own process."""
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-c", STAGE, SRC, *argv], os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"segfuse {argv[0]} exited {code}")
    return usage.ru_maxrss / 1024.0, seconds


def stages(work: str) -> dict[str, list[str]]:
    scene = os.path.join(work, "scene")

    def path(name):
        return os.path.join(scene, name)

    return {
        "gen": ["gen", "--seed", "1", "--height", str(SIZE), "--width", str(SIZE),
                "--feature-height", str(FEATURE), "--feature-width", str(FEATURE),
                "--dim", str(DIM), "--classes", str(CLASSES),
                "--synonyms", str(SYNONYMS), "--drift", "0.2", "--overlap", "0.5",
                "--out-dir", scene],
        "prior": ["prior", "--features", path("features.cft1"),
                  "--embeddings", path("embeddings.cft1"),
                  "--prompts", path("prompts.txt"), "--out", path("prior.cft1"),
                  "--out-height", str(SIZE), "--out-width", str(SIZE)],
        "fuse": ["fuse", "--evidence", path("mask_logits.cft1"),
                 "--presence", path("presence.cft1"), "--prior", path("prior.cft1"),
                 "--out", path("labels.cft1")],
        "eval": ["eval", "--gt", path("gt.cft1"), "--pred", path("labels.cft1"),
                 "--classes", str(CLASSES)],
    }


def probe(work: str) -> None:
    print(f"{SIZE}x{SIZE}, {FEATURE}x{FEATURE}xD{DIM}, C{CLASSES}, "
          f"up to {SYNONYMS} synonyms")
    for name, argv in stages(work).items():
        mib, seconds = run_stage(argv)
        print(f"{name:6s} ru_maxrss {mib:8.1f} MiB  {seconds:6.2f} s", flush=True)


def main(argv) -> int:
    if argv:
        probe(argv[0])
    else:
        with tempfile.TemporaryDirectory() as work:
            probe(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
