"""Command-line surface: prior, fuse, eval, sweep and gen subcommands.

Every command is a thin wrapper over the library; outputs are byte-identical
to the corresponding library calls.  Exit codes: 0 success, 1 validation or
I/O failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys

from .competition import (EXCLUDED_MODES, SELECTION_MODES, run_sweep,
                          write_sweep_csv)
from .config import build_run_config, load_config_file
from .embeddings import load_embeddings
from .errors import SegfuseError, ShapeError
from .fusion import (EVIDENCE_KINDS, Background, EvidenceBundle, FusionConfig,
                     fuse_and_decode, write_pgm)
from .grid import (DenseGrid, load_grid, load_label_map, save_grid,
                   save_label_map)
from .metrics import ConfusionMatrix, iou_report
from .prior import AGGREGATION_KINDS, NORMALIZE_ORDERS, Aggregation, build_prior
from .prompts import load_prompt_file, save_prompt_file
from .synth import generate_scene


def _positive_int(text):
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got '{text}'")
    return value


def _add_threads_option(sub):
    sub.add_argument("--threads", type=_positive_int, default=1,
                     help="accepted and unused: reserved for scheduling prior "
                          "tiles; outputs never depend on it")


# Flags that override a config key; each command takes only those it reads.
_CONFIG_FLAGS = {
    "lambda_prior": {"type": float},
    "tau_s": {"type": float},
    "aggregation": {"choices": AGGREGATION_KINDS},
    "background_threshold": {"type": float},
    "normalize_order": {"choices": NORMALIZE_ORDERS},
}


def _add_config_options(sub, *keys):
    sub.add_argument("--config", help="key = value config file")
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), dest=key,
                         **_CONFIG_FLAGS[key])


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


def _run_config(args):
    file_values = load_config_file(args.config) if args.config else {}
    return build_run_config(
        file_values, **{key: getattr(args, key, None) for key in _CONFIG_FLAGS})


def _load_presence(path, n_classes):
    grid = load_grid(path)
    presence = grid.data.ravel()
    if presence.shape[0] != n_classes:
        raise ShapeError(
            f"{path}: presence has {presence.shape[0]} entries for "
            f"{n_classes} classes")
    return presence


def cmd_prior(args) -> int:
    cfg = _run_config(args)
    bank = load_prompt_file(args.prompts)
    features = load_grid(args.features)
    store = load_embeddings(args.embeddings, bank)
    out_h = args.out_height if args.out_height else features.height
    out_w = args.out_width if args.out_width else features.width
    prior = build_prior(features, store, bank,
                        Aggregation.of(cfg.aggregation, cfg.tau_s), out_h, out_w,
                        normalize_order=cfg.normalize_order)
    save_grid(prior.log_pi, args.out)
    return 0


def cmd_fuse(args) -> int:
    cfg = _run_config(args)
    evidence_grid = load_grid(args.evidence)
    presence = _load_presence(args.presence, evidence_grid.channels)
    evidence = EvidenceBundle(evidence_grid, args.evidence_kind, presence)
    prior = load_grid(args.prior)
    background = None
    if cfg.background_threshold is not None:
        background = Background(cfg.background_threshold, args.background_index)
    labels = fuse_and_decode(evidence, prior,
                             FusionConfig(cfg.lambda_prior, background))
    save_label_map(labels, args.out)
    if args.pgm:
        write_pgm(labels, args.pgm)
    return 0


def cmd_eval(args) -> int:
    gt = load_label_map(args.gt)
    pred = load_label_map(args.pred)
    cm = ConfusionMatrix(args.classes, ignore_index=args.ignore_index)
    cm.accumulate(gt, pred)
    sys.stdout.write(iou_report(cm))
    return 0


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_str_list(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    scene = generate_scene(args.seed, args.height, args.width, args.dim,
                           args.classes, args.synonyms, args.drift,
                           args.overlap, args.feature_height,
                           args.feature_width)
    sources = {"primary": scene.features}
    for item in args.alt_features or []:
        name, _, path = item.partition("=")
        if not name or not path:
            raise SegfuseError("bad_alt_features",
                               f"expected name=path, got '{item}'")
        sources[name] = load_grid(path)
    rows = run_sweep(
        scene,
        target_class=args.target_class,
        p_values=_parse_float_list(args.p),
        selections=_parse_str_list(args.selection),
        lambda_values=(_parse_float_list(args.lambda_grid)
                       if args.lambda_grid else [cfg.lambda_prior]),
        tau_values=(_parse_float_list(args.tau_grid)
                    if args.tau_grid else [cfg.tau_s]),
        aggregations=(_parse_str_list(args.aggregation_grid)
                      if args.aggregation_grid else [cfg.aggregation]),
        feature_sources=sources,
        normalize_order=cfg.normalize_order,
        excluded=args.excluded)
    write_sweep_csv(rows, args.out)
    return 0


def cmd_gen(args) -> int:
    scene = generate_scene(args.seed, args.height, args.width, args.dim,
                           args.classes, args.synonyms, args.drift,
                           args.overlap, args.feature_height,
                           args.feature_width)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    save_prompt_file(scene.bank, os.path.join(out, "prompts.txt"))
    save_grid(DenseGrid(scene.embeddings.vectors),
              os.path.join(out, "embeddings.cft1"))
    save_grid(scene.features, os.path.join(out, "features.cft1"))
    save_grid(scene.evidence.mask_evidence, os.path.join(out, "mask_logits.cft1"))
    save_grid(DenseGrid(scene.evidence.presence.reshape(-1, 1)),
              os.path.join(out, "presence.cft1"))
    save_label_map(scene.gt, os.path.join(out, "gt.cft1"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segfuse",
        description="Calibrate and fuse per-concept segmentation evidence "
                    "into a multi-class label map.")
    commands = parser.add_subparsers(dest="command", required=True)

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
    fusep.add_argument("--evidence-kind", choices=EVIDENCE_KINDS,
                       default="logits")
    fusep.add_argument("--background-index", type=int)
    fusep.add_argument("--pgm", help="optional 8-bit PGM export path")
    _add_threads_option(fusep)
    _add_config_options(fusep, "lambda_prior", "background_threshold")
    fusep.set_defaults(func=cmd_fuse)

    evalp = commands.add_parser("eval", help="per-class IoU and mIoU report")
    evalp.add_argument("--gt", required=True)
    evalp.add_argument("--pred", required=True)
    evalp.add_argument("--classes", type=int, required=True)
    evalp.add_argument("--ignore-index", type=int)
    _add_threads_option(evalp)
    evalp.set_defaults(func=cmd_eval)

    sweep = commands.add_parser("sweep", help="competition sweep over a seeded scene")
    _add_scene_options(sweep)
    sweep.add_argument("--target-class", type=int, default=0)
    sweep.add_argument("--p", default="0,0.2,0.4,0.6,0.8,1.0",
                       help="comma-separated competitor ratios")
    sweep.add_argument("--selection", default="easy,hard",
                       help=f"comma-separated subset of {SELECTION_MODES}")
    sweep.add_argument("--lambda-grid", dest="lambda_grid",
                       help="comma-separated lambda_prior axis")
    sweep.add_argument("--tau-grid", dest="tau_grid",
                       help="comma-separated tau_s axis")
    sweep.add_argument("--aggregation-grid", dest="aggregation_grid",
                       help=f"comma-separated subset of {AGGREGATION_KINDS}")
    sweep.add_argument("--alt-features", action="append",
                       help="extra feature source as name=path (repeatable)")
    sweep.add_argument("--excluded", choices=EXCLUDED_MODES, default="ignore",
                       help="how non-competitor gt pixels are scored")
    sweep.add_argument("--out", required=True)
    _add_threads_option(sweep)
    _add_config_options(sweep, "lambda_prior", "tau_s", "aggregation",
                        "normalize_order")
    sweep.set_defaults(func=cmd_sweep)

    gen = commands.add_parser("gen", help="write a seeded synthetic scene to disk")
    _add_scene_options(gen)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SegfuseError, OSError, ValueError) as err:
        print(f"segfuse: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
