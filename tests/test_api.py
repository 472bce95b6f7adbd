"""The public surface: `segfuse.__all__` is pinned, so growth shows in a diff."""
import segfuse

PUBLIC = {
    # data types and configuration
    "Aggregation", "Background", "CompetitionSpec", "ConfusionMatrix",
    "DenseGrid", "EmbeddingStore", "EvidenceBundle", "FusionConfig",
    "LabelMap", "PriorStack", "PromptBank",
    # errors
    "EmbeddingError", "PromptFileError", "SegfuseError", "ShapeError",
    "TensorFormatError",
    # file and table I/O
    "load_embeddings", "load_grid", "load_label_map", "load_prompt_file",
    "parse_prompt_file", "save_grid", "save_label_map", "store_from_array",
    "write_pgm",
    # pipeline
    "build_prior", "decode", "fuse", "fuse_and_decode", "pooled_scores",
    # evaluation and competition
    "format_sweep_csv", "iou_report", "miou", "restrict_to_classes",
    "run_sweep", "select_competitors", "write_sweep_csv",
    # synthetic scenes
    "generate_scene",
}


def test_all_is_pinned():
    assert len(segfuse.__all__) == len(set(segfuse.__all__))
    assert set(segfuse.__all__) == PUBLIC
    assert len(PUBLIC) <= 40


def test_every_public_name_imports():
    namespace = {}
    exec("from segfuse import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(segfuse, name)
