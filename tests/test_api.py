"""The public surface: `segfuse.__all__` is pinned, so growth shows in a diff.

The README's error-code table is checked against the codes the source raises.
"""
import pathlib
import re

import segfuse

PUBLIC = {
    # data types and configuration
    "Aggregation", "Background", "CompetitionSpec", "ConfusionMatrix",
    "DenseGrid", "EmbeddingStore", "EvidenceBundle", "FusionConfig",
    "LabelMap", "PromptBank",
    # errors
    "EmbeddingError", "PromptFileError", "SegfuseError", "ShapeError",
    "TensorFormatError",
    # file and table I/O
    "load_embeddings", "load_grid", "load_label_map", "load_prompt_file",
    "parse_prompt_file", "save_grid", "save_label_map", "store_from_array",
    "write_pgm",
    # pipeline
    "build_prior", "fuse_and_decode", "pooled_scores",
    # evaluation and competition
    "format_sweep_csv", "iou_report", "miou", "restrict_to_classes",
    "run_sweep", "select_competitors", "write_sweep_csv",
    # synthetic scenes
    "generate_scene",
}


def test_all_is_pinned():
    assert len(segfuse.__all__) == len(set(segfuse.__all__))
    assert set(segfuse.__all__) == PUBLIC
    assert len(PUBLIC) == 35


def test_every_public_name_imports():
    namespace = {}
    exec("from segfuse import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(segfuse, name)


ROOT = pathlib.Path(__file__).resolve().parent.parent
# A code is the first argument of an error constructor, possibly on the next
# line, a `code=` keyword or default, or the code the CLI prints itself.
RAISED = re.compile(r'Error\(\s*"([a-z_]+)"\s*,|\bcode(?:: str)?\s*=\s*"([a-z_]+)"'
                    r'|segfuse: error: ([a-z_]+):')


def _raised_codes():
    codes = set()
    for path in (ROOT / "src" / "segfuse").glob("*.py"):
        for match in RAISED.finditer(path.read_text(encoding="utf-8")):
            codes.add(next(group for group in match.groups() if group))
    return codes


def test_readme_error_table_lists_every_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Error codes", 1)[1].split("\n## ", 1)[0]
    table = set(re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.M))
    raised = _raised_codes()
    assert {"shape_mismatch", "out_of_memory", "bad_encoding",
            "row_count_mismatch", "dim_mismatch"} <= raised
    assert raised - table == set(), "codes missing from the README table"
    assert table - raised == set(), "README table lists codes nothing raises"
