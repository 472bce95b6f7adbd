"""The public surface: `segfuse.__all__` is pinned, so growth shows in a diff.

So are the parameters of each stage entry and the fields of the records
passed between stages: an input or field that nothing reads shows in a diff
too.  The README's error-code table is checked against the codes the source
raises.
"""
import dataclasses
import inspect
import pathlib
import re

import pytest

import segfuse
from segfuse.competition import EXCLUDED_MODES, SELECTION_MODES
from segfuse.fusion import EVIDENCE_KINDS
from segfuse.prior import AGGREGATION_KINDS, NORMALIZE_ORDERS
from segfuse.synth import SyntheticScene

PUBLIC = {
    # data types and configuration
    "Aggregation", "Background", "CompetitionSpec", "ConfusionMatrix",
    "DenseGrid", "EmbeddingStore", "EvidenceBundle", "FusionConfig",
    "LabelMap", "PromptBank",
    # the one error type
    "SegfuseError",
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
    assert len(PUBLIC) == 31


def test_every_failure_is_one_error_type():
    # Codes, not subclasses, tell failures apart.
    assert segfuse.SegfuseError.__subclasses__() == []


def test_every_public_name_imports():
    namespace = {}
    exec("from segfuse import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(segfuse, name)


# `build_prior`, `select_competitors` and `fuse_and_decode` keep `bank` and
# `cfg` while the benchmark's own checks still pass them.
SIGNATURES = {
    "build_prior": ("features", "store", "bank", "mode", "out_h", "out_w",
                    "normalize_order", "threads"),
    "pooled_scores": ("features", "store", "mode", "out_h", "out_w",
                      "normalize_order", "threads"),
    "fuse_and_decode": ("evidence", "prior", "cfg"),
    "select_competitors": ("store", "bank", "spec"),
    "run_sweep": ("scene", "target_class", "p_values", "selections",
                  "lambda_values", "tau_values", "aggregations",
                  "feature_sources", "normalize_order", "excluded", "threads"),
    "generate_scene": ("seed", "height", "width", "dim", "num_classes",
                       "synonyms_per_class", "drift", "overlap",
                       "feature_height", "feature_width"),
}

FIELDS = {
    segfuse.LabelMap: ("data",),
    segfuse.EvidenceBundle: ("mask_evidence", "evidence_kind", "presence"),
    segfuse.PromptBank: ("classes",),
    SyntheticScene: ("height", "width", "num_classes", "features", "gt",
                     "evidence", "embeddings", "bank"),
}


def test_stage_signatures_are_pinned():
    for name, params in SIGNATURES.items():
        signature = inspect.signature(getattr(segfuse, name))
        assert tuple(signature.parameters) == params, name


def test_record_fields_are_pinned():
    for cls, fields in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields, cls


ROOT = pathlib.Path(__file__).resolve().parent.parent
# A code is the first argument of `SegfuseError` or `check_choice`, possibly
# on the next line, or a code the CLI prints itself.
RAISED = re.compile(r'(?:SegfuseError|check_choice)\(\s*"([a-z_]+)"\s*,'
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


# The scene every library call below fails on before it does any work.
_SCENE = segfuse.generate_scene(0, 4, 4, 4, 3, 2, 0.2, 0.4)

# Each named-choice setting, sent a bad value through its library entry:
# code -> (name, choices, value, call).
CHOICES = {
    "bad_aggregation": ("aggregation", AGGREGATION_KINDS, "bogus",
                        lambda: segfuse.Aggregation("bogus")),
    "bad_normalize_order": ("normalize_order", NORMALIZE_ORDERS, "bogus",
                            lambda: segfuse.pooled_scores(
                                _SCENE.features, _SCENE.embeddings,
                                segfuse.Aggregation("lse"), 4, 4,
                                normalize_order="bogus")),
    "bad_evidence_kind": ("evidence kind", EVIDENCE_KINDS, "odds",
                          lambda: segfuse.EvidenceBundle(
                              _SCENE.evidence.mask_evidence, "odds")),
    "bad_selection": ("selection", SELECTION_MODES, "medium",
                      lambda: segfuse.CompetitionSpec(0, 0.5, "medium")),
    "bad_excluded": ("excluded", EXCLUDED_MODES, "drop",
                     lambda: segfuse.run_sweep(_SCENE, p_values=[1.0],
                                               excluded="drop")),
}


@pytest.mark.parametrize("code", CHOICES)
def test_every_choice_fails_with_one_message(code):
    name, choices, value, call = CHOICES[code]
    with pytest.raises(segfuse.SegfuseError) as err:
        call()
    assert err.value.code == code
    assert str(err.value) == f"{code}: {name} must be one of {choices}, got '{value}'"
