"""Training-free evidence calibration and fusion for open-vocabulary segmentation.

Turns per-concept mask logits, presence logits, dense features and synonym
text embeddings into a calibrated multi-class label map, with an evaluation
and competition-analysis harness on top.  Each stage has one library entry:
`build_prior` (or `pooled_scores`) for the prior, which reads features,
embeddings and a pooling rule, and `fuse_and_decode` for fusion and decode,
which reads evidence, the log prior and a `FusionConfig`.  The array
building blocks behind the prior (`log_prior_array` in `segfuse.prior`,
`normalize_pixels_array`, `bilinear_taps` and `interpolate_axis` in
`segfuse.grid`) are imported from their modules.
"""

from .competition import (CompetitionSpec, format_sweep_csv, restrict_to_classes,
                          run_sweep, select_competitors, write_sweep_csv)
from .embeddings import EmbeddingStore, load_embeddings, store_from_array
from .errors import SegfuseError
from .fusion import (Background, EvidenceBundle, FusionConfig, fuse_and_decode,
                     write_pgm)
from .grid import (DenseGrid, LabelMap, load_grid, load_label_map, save_grid,
                   save_label_map)
from .metrics import ConfusionMatrix, iou_report, miou
from .prior import Aggregation, build_prior, pooled_scores
from .prompts import PromptBank, load_prompt_file, parse_prompt_file
from .synth import generate_scene

__version__ = "0.1.0"

__all__ = [
    "Aggregation", "Background", "CompetitionSpec", "ConfusionMatrix",
    "DenseGrid", "EmbeddingStore", "EvidenceBundle", "FusionConfig", "LabelMap",
    "PromptBank", "SegfuseError", "build_prior", "format_sweep_csv",
    "fuse_and_decode", "generate_scene", "iou_report", "load_embeddings",
    "load_grid", "load_label_map", "load_prompt_file", "miou",
    "parse_prompt_file", "pooled_scores", "restrict_to_classes", "run_sweep",
    "save_grid", "save_label_map", "select_competitors", "store_from_array",
    "write_pgm", "write_sweep_csv",
]
