"""The three benchmark workloads and the closed-loop client that drives them.

One client in one process: each op starts as soon as the previous one has
finished, with no think time.  Ops call the public CLI in-process through
`segfuse.cli.main(argv)` on seeded synthetic scenes written to disk during
set-up; the program sees only those files.  Output checks run outside the
timed region: every repeat of an op must reproduce the first run's bytes,
and the first run of each distinct op is checked against the oracle.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import struct
import time

import numpy as np

import checks

SYNONYMS, DRIFT, OVERLAP = 3, 0.2, 0.5
SCENE_ARGS = ["--synonyms", str(SYNONYMS), "--drift", str(DRIFT),
              "--overlap", str(OVERLAP)]
CFT1_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u4")}


def read_cft1(data):
    """Decode CFT1 bytes independently of the program's reader."""
    dtype, ndim = data[4], data[5]
    extents = struct.unpack("<" + "I" * ndim, data[6:6 + 4 * ndim])
    payload = data[6 + 4 * ndim:]
    return np.frombuffer(payload, dtype=CFT1_DTYPES[dtype]).reshape(extents)


def write_cft1_f32(array, path):
    array = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as f:
        f.write(b"CFT1" + struct.pack("<BB", 1, array.ndim))
        f.write(struct.pack("<" + "I" * array.ndim, *array.shape))
        f.write(array.tobytes())


def read_file(path):
    with open(path, "rb") as f:
        return f.read()


def prompt_offsets(path):
    """(start, count) embedding rows per class from a prompt file."""
    offsets, start = [], 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                count = len(line.split(","))
                offsets.append((start, count))
                start += count
    return offsets


def gen_argv(seed, out_dir, size, feature, dim, classes):
    return ["gen", "--seed", str(seed), "--height", str(size),
            "--width", str(size), "--feature-height", str(feature),
            "--feature-width", str(feature), "--dim", str(dim),
            "--classes", str(classes), *SCENE_ARGS, "--out-dir", out_dir]


class Op:
    """One timed unit of work: CLI commands run back to back.

    `key` names the expected output; every op with the same key must write
    the same bytes to `outputs` and to stdout.
    """

    def __init__(self, key, commands, outputs, items=1):
        self.key = key
        self.commands = commands
        self.outputs = outputs
        self.items = items


class Scene:
    """Paths of a scene written by `segfuse gen`."""

    def __init__(self, directory):
        self.dir = directory
        for name in ("features", "embeddings", "mask_logits", "presence", "gt"):
            setattr(self, name, os.path.join(directory, f"{name}.cft1"))
        self.prompts = os.path.join(directory, "prompts.txt")

    def path(self, name):
        return os.path.join(self.dir, name)

    def arrays(self):
        return {name: read_cft1(read_file(getattr(self, name)))
                for name in ("features", "embeddings", "mask_logits",
                             "presence", "gt")}


class ChainUpsample:
    """prior -> fuse -> eval for one image at the large shape."""

    name = "chain_upsample"
    size, feature, dim, classes = 256, 64, 512, 150

    def __init__(self, seed, work):
        self.seed = seed
        self.scene = Scene(os.path.join(work, "scene"))

    def setup(self, run):
        run(gen_argv(self.seed, self.scene.dir, self.size, self.feature,
                     self.dim, self.classes))

    def ops(self):
        s = self.scene
        prior, labels = s.path("prior.cft1"), s.path("labels.cft1")
        op = Op("chain", [
            ["prior", "--features", s.features, "--embeddings", s.embeddings,
             "--prompts", s.prompts, "--out", prior,
             "--out-height", str(self.size), "--out-width", str(self.size)],
            ["fuse", "--evidence", s.mask_logits, "--presence", s.presence,
             "--prior", prior, "--out", labels],
            ["eval", "--gt", s.gt, "--pred", labels,
             "--classes", str(self.classes)],
        ], [prior, labels])
        return itertools.repeat(op)

    def check(self, refs):
        files, stdout = refs["chain"]
        a = self.scene.arrays()
        s = self.scene
        pixels = checks.sample_pixels(self.seed, self.size, self.size)
        expected = checks.oracle_log_prior(
            a["features"], a["embeddings"], prompt_offsets(s.prompts),
            self.size, self.size, pixels)
        log_pi = read_cft1(files[s.path("prior.cft1")])
        labels = read_cft1(files[s.path("labels.cft1")])
        want = checks.oracle_labels(a["mask_logits"], a["presence"].ravel(),
                                    expected, pixels, 0.7)
        return {"chain": (
            checks.compare_prior("chain", log_pi, expected, pixels)
            + checks.compare_labels("chain", labels, want, pixels)
            + checks.compare_eval_csv("chain", stdout, a["gt"], labels,
                                      self.classes))}


class SweepCompetition:
    """One 288-setting competition sweep at native resolution."""

    name = "sweep_competition"
    size, dim, classes = 64, 64, 20
    axes = ((0.0, 0.2, 0.4, 0.6, 0.8, 1.0), ("easy", "hard"),
            (0.3, 0.5, 0.7, 0.9), (0.05, 0.1), ("lse", "average", "max"))
    settings = math.prod(len(axis) for axis in axes)

    def __init__(self, seed, work):
        self.seed = seed
        self.out = os.path.join(work, "sweep.csv")
        self.scene = None
        self.target = None

    def setup(self, run):
        # The sweep generates its own scene from the seed; the bench builds
        # the same scene to pick the target (the class with the most pixels,
        # so the target is never absent) and, later, to check the rows.
        from segfuse.synth import generate_scene
        self.scene = generate_scene(self.seed, self.size, self.size, self.dim,
                                    self.classes, SYNONYMS, DRIFT, OVERLAP)
        counts = np.bincount(self.scene.gt.data.ravel(), minlength=self.classes)
        self.target = int(np.argmax(counts))

    def ops(self):
        p, sel, lam, tau, agg = (",".join(str(v) for v in axis)
                                 for axis in self.axes)
        op = Op("sweep", [[
            "sweep", "--seed", str(self.seed), "--height", str(self.size),
            "--width", str(self.size), "--dim", str(self.dim),
            "--classes", str(self.classes), *SCENE_ARGS,
            "--target-class", str(self.target), "--p", p, "--selection", sel,
            "--lambda-grid", lam, "--tau-grid", tau, "--aggregation-grid", agg,
            "--threads", "1", "--out", self.out,
        ]], [self.out], items=self.settings)
        return itertools.repeat(op)

    def check(self, refs):
        files, _ = refs["sweep"]
        rng = np.random.default_rng([self.seed, 29])
        sampled = {int(k) for k in rng.choice(self.settings, 2, replace=False)}
        return {"sweep": checks.check_sweep(
            files[self.out].decode("utf-8"), self.scene, self.target,
            self.axes, sampled)}


class RefuseCachedPrior:
    """fuse + eval at the mid shape against a prior written during set-up."""

    name = "refuse_cached_prior"
    size, feature, dim, classes = 128, 32, 256, 150
    lambdas = (0.3, 0.5, 0.9)
    background_threshold = -3.0

    def __init__(self, seed, work):
        self.seed = seed
        self.scene = Scene(os.path.join(work, "scene"))

    def setup(self, run):
        s = self.scene
        run(gen_argv(self.seed, s.dir, self.size, self.feature, self.dim,
                     self.classes))
        run(["prior", "--features", s.features, "--embeddings", s.embeddings,
             "--prompts", s.prompts, "--out", s.path("prior.cft1"),
             "--out-height", str(self.size), "--out-width", str(self.size)])
        logits = read_cft1(read_file(s.mask_logits))
        write_cft1_f32(1.0 / (1.0 + np.exp(-logits.astype(np.float64))),
                       s.path("probabilities.cft1"))

    def _op(self, key, evidence, extra, labels, eval_extra=(), outputs=()):
        s = self.scene
        return Op(key, [
            ["fuse", "--evidence", evidence, "--presence", s.presence,
             "--prior", s.path("prior.cft1"), "--out", labels, *extra],
            ["eval", "--gt", s.gt, "--pred", labels,
             "--classes", str(self.classes), *eval_extra],
        ], [labels, *outputs])

    def ops(self):
        s = self.scene
        logits = self._op("logits", s.mask_logits, [], s.path("labels_a.cft1"))
        probabilities = self._op(
            "probabilities", s.path("probabilities.cft1"),
            ["--evidence-kind", "probabilities", "--background-threshold",
             str(self.background_threshold), "--pgm", s.path("labels_b.pgm")],
            s.path("labels_b.cft1"), ["--ignore-index", str(self.classes)],
            [s.path("labels_b.pgm")])
        lambdas = [self._op(f"lambda={lam}", s.mask_logits,
                            ["--lambda-prior", str(lam)], s.path("labels_c.cft1"))
                   for lam in self.lambdas]
        return itertools.cycle(
            [op for lam_op in lambdas for op in (logits, probabilities, lam_op)])

    def check(self, refs):
        s = self.scene
        a = self.scene.arrays()
        pixels = checks.sample_pixels(self.seed, self.size, self.size)
        expected = checks.oracle_log_prior(
            a["features"], a["embeddings"], prompt_offsets(s.prompts),
            self.size, self.size, pixels)
        problems = {}
        prior_problems = checks.compare_prior(
            "prior", read_cft1(read_file(s.path("prior.cft1"))), expected, pixels)
        probs = read_cft1(read_file(s.path("probabilities.cft1")))
        presence = a["presence"].ravel()
        for key, (files, stdout) in refs.items():
            found = list(prior_problems)
            if key == "probabilities":
                labels = read_cft1(files[s.path("labels_b.cft1")])
                want = checks.oracle_labels(
                    probs, presence, expected, pixels, 0.7, probabilities=True,
                    background=(self.background_threshold, self.classes))
                found += checks.check_pgm(files[s.path("labels_b.pgm")], labels)
                found += checks.compare_eval_csv(key, stdout, a["gt"], labels,
                                                 self.classes, self.classes)
            else:
                name = "labels_a.cft1" if key == "logits" else "labels_c.cft1"
                lam = 0.7 if key == "logits" else float(key.split("=")[1])
                labels = read_cft1(files[s.path(name)])
                want = checks.oracle_labels(a["mask_logits"], presence,
                                            expected, pixels, lam)
                found += checks.compare_eval_csv(key, stdout, a["gt"], labels,
                                                 self.classes)
            found += checks.compare_labels(key, labels, want, pixels)
            problems[key] = found
        return problems


WORKLOADS = {w.name: w for w in (ChainUpsample, SweepCompetition,
                                 RefuseCachedPrior)}


class Client:
    """Closed-loop client: runs ops, times them, checks repeat outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.refs = {}        # key -> ({path: bytes}, stdout) of the first run
        self.digests = {}     # key -> digest of the first run
        self.ops_by_key = {}  # key -> measured ops
        self.failed = 0
        self.problems = []

    def run_command(self, argv):
        """Run one CLI command in-process; returns (exit status, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a traceback is a failed op, not a crash
                status = f"{type(exc).__name__}: {exc}"
        return status, out.getvalue()

    def setup_command(self, argv):
        status, _ = self.run_command(argv)
        if status != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {status}")

    def run_op(self, op, recorder=None, op_id=None):
        """Time one op; returns (elapsed seconds, ok)."""
        stdout = []
        status = 0
        span = (recorder.span("bench.op", op=op_id) if recorder
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span:
            for argv in op.commands:
                status, text = self.run_command(argv)
                stdout.append(text)
                if status != 0:
                    break
        elapsed = time.perf_counter() - start
        if status != 0:
            self.problems.append(f"{op.key}: {op.commands[len(stdout) - 1][0]} "
                                 f"exited {status}")
            return elapsed, False
        files = {path: read_file(path) for path in op.outputs}
        text = "".join(stdout)
        digest = hashlib.sha256()
        for path in op.outputs:
            digest.update(files[path])
        digest.update(text.encode("utf-8"))
        if op.key not in self.digests:
            self.digests[op.key] = digest.digest()
            self.refs[op.key] = (files, text)
            return elapsed, True
        if digest.digest() != self.digests[op.key]:
            self.problems.append(
                f"{op.key}: output bytes differ from the first run")
            return elapsed, False
        return elapsed, True

    def measure(self, ops, seconds, recorder=None):
        """Closed loop for `seconds`; returns (seconds, items, traced) per op.

        With a recorder, ops alternate between untraced and traced, and the
        recorder is installed around traced ops only.  Both kinds then see
        the same warm-up and machine state, so their difference is the
        tracing overhead.  A traced op's id is its index in the result.
        """
        done = []
        start = time.perf_counter()
        while (len(done) < (2 if recorder else 1)
               or time.perf_counter() - start < seconds):
            op = next(ops)
            traced = recorder is not None and len(done) % 2 == 1
            if traced:
                with recorder.installed():
                    elapsed, ok = self.run_op(op, recorder, op_id=len(done))
            else:
                elapsed, ok = self.run_op(op)
            done.append((elapsed, op.items, traced))
            self.ops_by_key.setdefault(op.key, []).append(ok)
            self.failed += not ok
        return done

    def verify(self, workload):
        """Oracle-check each distinct output; a wrong one fails its repeats."""
        for key, found in workload.check(self.refs).items():
            if found:
                self.problems.extend(found)
                self.failed += sum(self.ops_by_key.get(key, []))
