"""Command-line surface: prior, fuse, eval, sweep and gen subcommands.

Every command is a thin wrapper over the library; outputs are byte-identical
to the corresponding library calls.  `prior` writes its output and `fuse`
reads its two grids one row tile at a time, through the row reader and
writer of `grid`, so neither holds a whole H x W x C grid.  Exit codes: 0
success, 1 a coded validation failure, `io_error` or `out_of_memory`, 2
usage error.

The run settings live in one table, `_SETTINGS`: each key's default, its
argparse keywords and its library check.  The flags, the `--config` file
reader and the merge (defaults < config file < flags, then the checks) all
read it.  Argparse only parses, so a bad value exits 1 with the library's code.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .competition import (EXCLUDED_MODES, SELECTION_MODES, run_sweep,
                          write_sweep_csv)
from .embeddings import load_embeddings
from .errors import SegfuseError, check_choice, check_int
from .fusion import (DEFAULT_LAMBDA, EVIDENCE_KINDS, Background,
                     FusionConfig, _fuse_and_decode_rows, write_pgm)
from .grid import (DenseGrid, LabelMap, _read_rows, _write_rows, load_grid,
                   load_label_map, save_grid, save_label_map)
from .metrics import ConfusionMatrix, iou_report
from .prior import (AGGREGATION_KINDS, DEFAULT_TAU, NORMALIZE_ORDERS,
                    Aggregation, _write_prior, check_normalize_order)
from .prompts import _content_lines, _read_utf8, load_prompt_file, save_prompt_file
from .synth import _SceneDraw, generate_scene


def _add_threads_option(sub):
    # Only some systems (Linux among them) can say which CPUs a process may
    # use; elsewhere the default is every CPU.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    sub.add_argument("--threads", type=int, default=cpus,
                     help="prior-kernel row tiles run at once (default: the CPUs "
                          "this process may use, here %(default)s); outputs "
                          "never depend on it")


# The run settings: key -> (default, argparse keywords, library check).  A
# command takes the flags of the keys it reads; a config file may set any key.
_SETTINGS = {
    "lambda_prior": (DEFAULT_LAMBDA, {"type": float}, FusionConfig),
    "tau_s": (DEFAULT_TAU, {"type": float}, lambda tau: Aggregation("lse", tau)),
    "aggregation": ("lse", {"help": f"one of {AGGREGATION_KINDS}"}, Aggregation),
    "background_threshold": (None, {"type": float}, Background),
    "normalize_order": ("both", {"help": f"one of {NORMALIZE_ORDERS}"},
                        check_normalize_order),
}


def _add_config_options(sub, *keys):
    sub.add_argument("--config", help="key = value config file")
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), dest=key,
                         **_SETTINGS[key][1])


def _read_config(path) -> dict:
    """The values of a UTF-8 `key = value` file; '#' starts a comment line."""
    values = {}
    for lineno, line in _content_lines(_read_utf8(path)):
        if "=" not in line:
            raise SegfuseError("bad_config_line", f"line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        check_choice("unknown_config_key", f"line {lineno}: key", key, tuple(_SETTINGS))
        try:
            values[key] = _SETTINGS[key][1].get("type", str)(value)
        except ValueError:
            raise SegfuseError(
                "bad_config_value", f"line {lineno}: cannot parse '{value}' for {key}")
    return values


def _merge_settings(args) -> None:
    """Set every run setting on `args`: defaults < config file < flags.

    The checks run on the merged values that are set, so a bad file value
    that a flag overrides is never seen, and a key the command does not read
    is still checked.  `--threads`, which is not a config key, is checked
    here too, so every setting is judged before any input is read.
    """
    merged = {key: default for key, (default, _, _) in _SETTINGS.items()}
    if args.config:
        merged.update(_read_config(args.config))
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    for key, value in merged.items():
        if value is not None:
            _SETTINGS[key][2](value)
    if "threads" in args:
        check_int("bad_threads", "threads", args.threads, 1)
    vars(args).update(merged)


def _add_scene_options(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--height", type=int, default=16)
    sub.add_argument("--width", type=int, default=16)
    sub.add_argument("--dim", type=int, default=16)
    sub.add_argument("--classes", type=int, default=4)
    sub.add_argument("--synonyms", type=int, default=3,
                     help="max synonyms per class")
    sub.add_argument("--drift", type=float, default=0.2)
    sub.add_argument("--overlap", type=float, default=0.4)
    sub.add_argument("--feature-height", type=int, dest="feature_height")
    sub.add_argument("--feature-width", type=int, dest="feature_width")


def _scene_args(args):
    """The `generate_scene` arguments that `_add_scene_options` describes."""
    return (args.seed, args.height, args.width, args.dim, args.classes,
            args.synonyms, args.drift, args.overlap, args.feature_height,
            args.feature_width)


def cmd_prior(args) -> int:
    bank = load_prompt_file(args.prompts)
    features = load_grid(args.features)
    store = load_embeddings(args.embeddings, bank)
    out_h = features.height if args.out_height is None else args.out_height
    out_w = features.width if args.out_width is None else args.out_width
    mode = Aggregation(args.aggregation, args.tau_s)
    _write_prior(features, store, mode, out_h, out_w, args.out,
                 normalize_order=args.normalize_order, threads=args.threads)
    return 0


def cmd_fuse(args) -> int:
    """`fuse_and_decode` on the two files, read tile by tile in lockstep."""
    if args.background_index is not None and args.background_threshold is None:
        raise SegfuseError(
            "background_index_without_threshold",
            "--background-index needs a background threshold, from "
            "--background-threshold or the config file")
    background = None
    if args.background_threshold is not None:
        background = Background(args.background_threshold, args.background_index)
    with _read_rows(args.evidence, DenseGrid) as evidence:
        dims = evidence.extents
        presence = load_grid(args.presence).data
        with _read_rows(args.prior, DenseGrid) as prior:
            labels = _fuse_and_decode_rows(
                lambda rows: (evidence.read(rows.stop - rows.start),
                              prior.read(rows.stop - rows.start)),
                dims, args.evidence_kind, presence, prior.extents,
                args.lambda_prior, background)
    # The PGM goes first: its label-range check then runs before either
    # output is written.
    if args.pgm:
        write_pgm(labels, args.pgm)
    save_label_map(labels, args.out)
    return 0


def cmd_eval(args) -> int:
    gt = load_label_map(args.gt)
    pred = load_label_map(args.pred)
    cm = ConfusionMatrix(args.classes, ignore_index=args.ignore_index)
    cm.accumulate(gt, pred)
    sys.stdout.write(iou_report(cm))
    return 0


def _parse_axis(text, flag, kind, fallback=None):
    """A comma-separated sweep axis of `kind` items; [fallback] if it is absent."""
    if text is None:
        return [fallback]
    try:
        return [kind(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SegfuseError("bad_number_list",
                           f"{flag}: expected comma-separated numbers, got '{text}'")


def cmd_sweep(args) -> int:
    scene = generate_scene(*_scene_args(args))
    sources = {"primary": scene.features}
    for item in args.alt_features or []:
        name, _, path = item.partition("=")
        if not name or not path:
            raise SegfuseError("bad_alt_features",
                               f"expected name=path, got '{item}'")
        if name in sources:
            raise SegfuseError("bad_alt_features",
                               f"feature source '{name}' is already defined")
        sources[name] = load_grid(path)
    rows = run_sweep(
        scene,
        target_class=args.target_class,
        p_values=_parse_axis(args.p, "--p", float),
        selections=_parse_axis(args.selection, "--selection", str),
        lambda_values=_parse_axis(args.lambda_grid, "--lambda-grid", float,
                                  args.lambda_prior),
        tau_values=_parse_axis(args.tau_grid, "--tau-grid", float, args.tau_s),
        aggregations=_parse_axis(args.aggregation_grid, "--aggregation-grid",
                                 str, args.aggregation),
        feature_sources=sources,
        normalize_order=args.normalize_order,
        excluded=args.excluded,
        threads=args.threads)
    write_sweep_csv(rows, args.out)
    return 0


def cmd_gen(args) -> int:
    """The scene of `generate_scene`, with its features and mask logits
    appended to their files block by block as they are drawn.

    Every argument is checked, the grid extents included, and the ground
    truth allocated before the output directory is made; both grid files
    are opened, their free space checked, before any row is drawn.  A draw
    that fails removes them.
    """
    scene = _SceneDraw(*_scene_args(args))
    out = args.out_dir
    features = os.path.join(out, "features.cft1")
    logits = os.path.join(out, "mask_logits.cft1")
    os.makedirs(out, exist_ok=True)
    save_prompt_file(scene.bank, os.path.join(out, "prompts.txt"))
    save_grid(DenseGrid(scene.embeddings.vectors),
              os.path.join(out, "embeddings.cft1"))
    with _write_rows(features, DenseGrid, scene.feature_shape) as write_features, \
            _write_rows(logits, DenseGrid, scene.logit_shape) as write_logits:
        for grid, _, block in scene.draw():
            (write_features, write_logits)[grid](block)
    save_grid(DenseGrid(scene.presence().reshape(-1, 1)),
              os.path.join(out, "presence.cft1"))
    save_label_map(LabelMap(scene.gt), os.path.join(out, "gt.cft1"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segfuse",
        description="Calibrate and fuse per-concept segmentation evidence "
                    "into a multi-class label map.")
    # Without abbreviations, `sweep --aggregation` is not --aggregation-grid.
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=strict)

    prior = commands.add_parser("prior", help="compute the log-prior stack")
    prior.add_argument("--features", required=True)
    prior.add_argument("--embeddings", required=True)
    prior.add_argument("--prompts", required=True)
    prior.add_argument("--out", required=True)
    prior.add_argument("--out-height", type=int)
    prior.add_argument("--out-width", type=int)
    _add_threads_option(prior)
    _add_config_options(prior, "tau_s", "aggregation", "normalize_order")
    prior.set_defaults(func=cmd_prior)

    fusep = commands.add_parser("fuse", help="fuse evidence and decode labels")
    fusep.add_argument("--evidence", required=True)
    fusep.add_argument("--presence", required=True)
    fusep.add_argument("--prior", required=True)
    fusep.add_argument("--out", required=True)
    fusep.add_argument("--evidence-kind", default="logits",
                       help=f"one of {EVIDENCE_KINDS}")
    fusep.add_argument("--background-index", type=int)
    fusep.add_argument("--pgm", help="optional 8-bit PGM export path")
    _add_config_options(fusep, "lambda_prior", "background_threshold")
    fusep.set_defaults(func=cmd_fuse)

    evalp = commands.add_parser("eval", help="per-class IoU and mIoU report")
    evalp.add_argument("--gt", required=True)
    evalp.add_argument("--pred", required=True)
    evalp.add_argument("--classes", type=int, required=True)
    evalp.add_argument("--ignore-index", type=int)
    evalp.set_defaults(func=cmd_eval)

    sweep = commands.add_parser("sweep", help="competition sweep over a seeded scene")
    _add_scene_options(sweep)
    sweep.add_argument("--target-class", type=int, default=0)
    sweep.add_argument("--p", default="0,0.2,0.4,0.6,0.8,1.0",
                       help="comma-separated competitor ratios")
    sweep.add_argument("--selection", default="easy,hard",
                       help=f"comma-separated subset of {SELECTION_MODES}")
    sweep.add_argument("--lambda-grid", help="comma-separated lambda_prior axis")
    sweep.add_argument("--tau-grid", help="comma-separated tau_s axis")
    sweep.add_argument("--aggregation-grid",
                       help=f"comma-separated subset of {AGGREGATION_KINDS}")
    sweep.add_argument("--alt-features", action="append",
                       help="extra feature source as name=path (repeatable)")
    sweep.add_argument("--excluded", default="ignore",
                       help=f"one of {EXCLUDED_MODES}, for non-competitor gt pixels")
    sweep.add_argument("--out", required=True)
    _add_threads_option(sweep)
    _add_config_options(sweep, "normalize_order")
    sweep.set_defaults(func=cmd_sweep)

    gen = commands.add_parser("gen", help="write a seeded synthetic scene to disk")
    _add_scene_options(gen)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(func=cmd_gen)
    return parser


# Building the parser costs more than parsing, so a process builds it once.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "config" in args:
            _merge_settings(args)
        return args.func(args)
    except SegfuseError as err:
        print(f"segfuse: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"segfuse: error: io_error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"segfuse: error: out_of_memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
