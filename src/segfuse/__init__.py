"""Training-free evidence calibration and fusion for open-vocabulary segmentation.

Turns per-concept mask logits, presence logits, dense features and synonym
text embeddings into a calibrated multi-class label map, with an evaluation
and competition-analysis harness on top.
"""

from .competition import (CompetitionSpec, SweepRow, format_sweep_csv,
                          restrict_to_classes, run_sweep, select_competitors,
                          write_sweep_csv)
from .config import RunConfig, build_run_config, load_config_file, parse_config_text
from .embeddings import (EmbeddingStore, canonical_vectors, class_slice,
                         load_embeddings, normalize_rows, store_from_array)
from .errors import (EmbeddingError, PromptFileError, SegfuseError, ShapeError,
                     TensorFormatError)
from .fusion import (Background, EvidenceBundle, FusionConfig, ScoreStack,
                     decode, fuse, fuse_and_decode, to_logit, write_pgm)
from .grid import (DenseGrid, LabelMap, bilinear_resize, load_grid,
                   load_label_map, resize_bilinear_array, save_grid,
                   save_label_map)
from .metrics import ConfusionMatrix, iou_report, miou, per_class_iou
from .prior import (Aggregation, PriorStack, aggregate_array, aggregate_class,
                    build_prior, log_prior, log_prior_array,
                    normalize_pixels_array, pooled_scores, similarity_array,
                    similarity_map)
from .prompts import (PromptBank, PromptClass, format_prompt_file,
                      load_prompt_file, parse_prompt_file, save_prompt_file)
from .synth import SyntheticScene, generate_scene

__version__ = "0.1.0"

__all__ = [
    "Aggregation", "Background", "CompetitionSpec", "ConfusionMatrix",
    "DenseGrid", "EmbeddingError", "EmbeddingStore", "EvidenceBundle",
    "FusionConfig", "LabelMap", "PriorStack", "PromptBank", "PromptClass",
    "PromptFileError", "RunConfig", "ScoreStack", "SegfuseError", "ShapeError",
    "SweepRow", "SyntheticScene", "TensorFormatError", "aggregate_array",
    "aggregate_class", "bilinear_resize", "build_prior", "build_run_config",
    "canonical_vectors", "class_slice", "decode",
    "format_prompt_file", "format_sweep_csv", "fuse", "fuse_and_decode",
    "generate_scene", "iou_report", "load_config_file", "load_embeddings",
    "load_grid", "load_label_map", "load_prompt_file", "log_prior",
    "log_prior_array", "miou", "normalize_pixels_array", "normalize_rows",
    "parse_config_text", "parse_prompt_file", "per_class_iou", "pooled_scores",
    "resize_bilinear_array", "restrict_to_classes", "run_sweep", "save_grid",
    "save_label_map", "save_prompt_file", "select_competitors",
    "similarity_array", "similarity_map", "store_from_array", "to_logit",
    "write_pgm", "write_sweep_csv",
]
