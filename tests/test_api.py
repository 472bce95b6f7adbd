"""The public surface: `segfuse.__all__` is pinned, so growth shows in a diff.

So are the parameters of each stage entry and the fields of the records
passed between stages: an input or field that nothing reads shows in a diff
too.  The README's error-code table is checked against the codes the source
raises.
"""
import dataclasses
import inspect
import math
import pathlib
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import segfuse
from segfuse.cli import _read_config
from segfuse.competition import EXCLUDED_MODES, SELECTION_MODES
from segfuse.fusion import EVIDENCE_KINDS
from segfuse.prior import AGGREGATION_KINDS, MIN_TAU, NORMALIZE_ORDERS
from segfuse.synth import MAX_NOISE, SyntheticScene

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
    "pooled_scores": ("features", "store", "modes", "out_h", "out_w",
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
# A code is the first argument of `SegfuseError` or of an `errors.check_*`
# helper, possibly on the next line, or a code the CLI prints itself.
RAISED = re.compile(r'\b(?:SegfuseError|check_\w+)\(\s*"([a-z_]+)"\s*,'
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
                                (segfuse.Aggregation("lse"),), 4, 4,
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


# Each real-valued setting, sent a value through its library entry:
# name -> (code, low, high, call).
REALS = {
    "tau_s": ("bad_tau_s", MIN_TAU, sys.float_info.max,
              lambda value: segfuse.Aggregation("lse", value)),
    "lambda_prior": ("bad_lambda_prior", 0.0, sys.float_info.max,
                     segfuse.FusionConfig),
    "background threshold": ("bad_background_threshold", -math.inf, math.inf,
                             segfuse.Background),
    "ratio": ("bad_ratio", 0.0, 1.0,
              lambda value: segfuse.CompetitionSpec(0, value)),
    "drift": ("bad_scene_noise", 0.0, MAX_NOISE,
              lambda value: segfuse.generate_scene(0, 4, 4, 4, 2, 1, value, 0.0)),
    "overlap": ("bad_scene_noise", 0.0, MAX_NOISE,
                lambda value: segfuse.generate_scene(0, 4, 4, 4, 2, 1, 0.0, value)),
}


# A Fraction, and an int beyond float64, pass no real setting.
@pytest.mark.parametrize("value", ["0.5", True, None, math.nan, Fraction(1, 2),
                                   10**400, -10**400],
                         ids=["str", "bool", "none", "nan", "fraction",
                              "huge_int", "huge_negative_int"])
@pytest.mark.parametrize("name", REALS)
def test_every_real_setting_fails_with_one_message(name, value):
    code, low, high, call = REALS[name]
    with pytest.raises(segfuse.SegfuseError) as err:
        call(value)
    assert err.value.code == code
    assert str(err.value) == (f"{code}: {name} must be a real number in "
                              f"[{low}, {high}], got {value!r}")


@pytest.mark.parametrize("name", REALS)
def test_numpy_reals_compare_exactly(name):
    code, low, high, call = REALS[name]
    for value in (np.float32(0.5), np.float64(0.5), np.int64(1), 1):
        call(value)
    if high < math.inf:  # float32 must not round a finite bound up to inf
        with pytest.raises(segfuse.SegfuseError) as err:
            call(np.float32(np.inf))
        assert err.value.code == code


_TWO_CLASSES = segfuse.parse_prompt_file("a\nb\n")


def _bad_payload(path):
    segfuse.save_grid(segfuse.DenseGrid(np.array([[1.0, np.nan]])), path)
    segfuse.load_grid(path)


# Each check that inputs agree, or that an array is finite, sent inputs that
# fail it through its library entry: id -> (code, message, call(path)).  On
# the 3-class, 2-synonym, D4 scene every size but the one at fault agrees.
AGREEMENTS = {
    "prior_class_counts": (
        "shape_mismatch", "class counts differ: store has 3, bank has 2",
        lambda path: segfuse.build_prior(
            _SCENE.features, _SCENE.embeddings, _TWO_CLASSES,
            segfuse.Aggregation("lse"), 4, 4)),
    "competitor_class_counts": (
        "shape_mismatch", "class counts differ: store has 3, bank has 2",
        lambda path: segfuse.select_competitors(
            _SCENE.embeddings, _TWO_CLASSES, segfuse.CompetitionSpec(0, 1.0))),
    "restrict_class_counts": (
        "shape_mismatch",
        "class counts differ: store has 3, bank has 3, evidence has 2",
        lambda path: segfuse.restrict_to_classes(
            _SCENE.bank, _SCENE.embeddings, segfuse.EvidenceBundle(
                segfuse.DenseGrid(np.zeros((4, 4, 2)))), [0])),
    "embedding_rows": (
        "row_count_mismatch", "row counts differ: embeddings has 5, synonyms has 6",
        lambda path: segfuse.store_from_array(np.ones((5, 4)), _SCENE.bank)),
    "feature_dim": (
        "dim_mismatch", "dims differ: features has 5, embeddings has 4",
        lambda path: segfuse.pooled_scores(
            segfuse.DenseGrid(np.ones((4, 4, 5))), _SCENE.embeddings,
            (segfuse.Aggregation("lse"),), 4, 4)),
    "presence_length": (
        "shape_mismatch", "class counts differ: presence has 2, evidence has 3",
        lambda path: segfuse.EvidenceBundle(_SCENE.evidence.mask_evidence,
                                            presence=np.zeros(2))),
    "prior_dims": (
        "shape_mismatch", "dims differ: prior has (4, 5, 3), evidence has (4, 4, 3)",
        lambda path: segfuse.fuse_and_decode(
            _SCENE.evidence, segfuse.DenseGrid(np.zeros((4, 5, 3))),
            segfuse.FusionConfig())),
    "label_map_dims": (
        "shape_mismatch", "dims differ: gt has (4, 4), pred has (4, 5)",
        lambda path: segfuse.ConfusionMatrix(3).accumulate(
            _SCENE.gt, segfuse.LabelMap(np.zeros((4, 5))))),
    "payload": (
        "nonfinite_values", "{path}: payload must hold no NaN or Inf", _bad_payload),
    "embeddings": (
        "nonfinite_values", "embedding rows must hold no NaN or Inf",
        lambda path: segfuse.store_from_array(np.full((6, 4), np.inf),
                                              _SCENE.bank)),
    "features": (
        "nonfinite_values", "features must hold no NaN or Inf",
        lambda path: segfuse.build_prior(
            segfuse.DenseGrid(np.full((4, 4, 4), -np.inf)), _SCENE.embeddings,
            _SCENE.bank, segfuse.Aggregation("lse"), 4, 4)),
    "best_fused_score": (
        "nonfinite_scores", "best fused scores must hold no NaN or Inf",
        lambda path: segfuse.fuse_and_decode(
            _SCENE.evidence, segfuse.DenseGrid(np.full((4, 4, 3), np.nan)),
            segfuse.FusionConfig())),
}


@pytest.mark.parametrize("site", AGREEMENTS)
def test_every_agreement_and_finite_check_fails_with_one_message(site, tmp_path):
    code, message, call = AGREEMENTS[site]
    path = tmp_path / "grid.cft1"
    with pytest.raises(segfuse.SegfuseError) as err:
        call(path)
    assert err.value.code == code
    assert str(err.value) == f"{code}: {message.format(path=path)}"


def _config_file(path, text):
    path.write_text(text, encoding="utf-8")
    return _read_config(path)


def _probabilities(value):
    evidence = np.full((4, 4, 3), 0.5)
    evidence[-1, -1, -1] = value
    return segfuse.fuse_and_decode(
        segfuse.EvidenceBundle(segfuse.DenseGrid(evidence), "probabilities"),
        segfuse.DenseGrid(np.zeros((4, 4, 3))), segfuse.FusionConfig())


_KINDS = "('b', 'i', 'u', 'f')"
_F32 = f"[{-float(np.finfo(np.float32).max)}, {float(np.finfo(np.float32).max)}]"

# Each range, count or membership check, sent a value out of bounds through
# its entry: id -> (code, message, call(path)).  The library's array intake
# rows come last: numpy would mangle each of those values.
BOUNDS = {
    "config_key": (
        "unknown_config_key",
        "line 2: key must be one of ('lambda_prior', 'tau_s', 'aggregation', "
        "'background_threshold', 'normalize_order'), got 'speed'",
        lambda path: _config_file(path, "tau_s = 0.1\nspeed = 11\n")),
    "synonyms_per_line": (
        "too_many_synonyms",
        "line 1: distinct token count must be an integer in 1..10, got 11",
        lambda path: segfuse.parse_prompt_file(",".join("abcdefghijk") + "\n")),
    "prompt_classes": (
        "empty_prompt_file", "class count must be an integer >= 1, got 0",
        lambda path: segfuse.parse_prompt_file("# no class\n\n")),
    "class_subset": (
        "empty_class_subset", "class subset size must be an integer >= 1, got 0",
        lambda path: segfuse.restrict_to_classes(
            _SCENE.bank, _SCENE.embeddings, _SCENE.evidence, [])),
    "sweep_axis": (
        "empty_sweep_axis",
        "sweep axis 'lambda_prior' value count must be an integer >= 1, got 0",
        lambda path: segfuse.run_sweep(_SCENE, p_values=[1.0], lambda_values=[])),
    "counted_label": (
        "label_out_of_range", "counted label must be an integer in 0..2, got 3",
        lambda path: segfuse.ConfusionMatrix(3, 4).accumulate(
            _SCENE.gt, segfuse.LabelMap(np.full((4, 4), 3)))),
    "scene_bytes": (
        "bad_scene_size",
        f"scene byte count must be an integer in 0..{np.iinfo(np.intp).max}, "
        f"got {8 * 2**62 * 1024}",
        lambda path: segfuse.generate_scene(0, 2**31, 2**31, 4, 1024, 1, 0.0, 0.0)),
    "probability_max": (
        "probability_out_of_range",
        "probability evidence must be a real number in [0.0, 1.0], got 1.5",
        lambda path: _probabilities(1.5)),
    "probability_min": (
        "probability_out_of_range",
        "probability evidence must be a real number in [0.0, 1.0], got -0.25",
        lambda path: _probabilities(-0.25)),
    "probability_nan": (
        "probability_out_of_range",
        "probability evidence must be a real number in [0.0, 1.0], got nan",
        lambda path: _probabilities(math.nan)),
    "string_grid": (
        "bad_dtype", f"grid dtype kind must be one of {_KINDS}, got 'U'",
        lambda path: segfuse.DenseGrid(np.array([[["a"]]]))),
    "complex_grid": (
        "bad_dtype", f"grid dtype kind must be one of {_KINDS}, got 'c'",
        lambda path: segfuse.DenseGrid(np.ones((2, 2), dtype=complex))),
    "string_embeddings": (
        "bad_dtype", f"embedding table dtype kind must be one of {_KINDS}, got 'U'",
        lambda path: segfuse.store_from_array(np.full((6, 4), "x"), _SCENE.bank)),
    "object_embeddings": (
        "bad_dtype", f"embedding table dtype kind must be one of {_KINDS}, got 'O'",
        lambda path: segfuse.store_from_array(np.full((6, 4), None), _SCENE.bank)),
    "string_presence": (
        "bad_dtype", f"presence dtype kind must be one of {_KINDS}, got 'U'",
        lambda path: segfuse.EvidenceBundle(_SCENE.evidence.mask_evidence,
                                            presence=["a", "b", "c"])),
    "none_presence": (
        "bad_dtype", f"presence dtype kind must be one of {_KINDS}, got 'O'",
        lambda path: segfuse.EvidenceBundle(_SCENE.evidence.mask_evidence,
                                            presence=[None, 1.0, 2.0])),
    "string_labels": (
        "bad_dtype", f"label map dtype kind must be one of {_KINDS}, got 'U'",
        lambda path: segfuse.LabelMap(np.array([["1"]]))),
    "negative_label": (
        "label_out_of_range", "label must be an integer in 0..4294967295, got -1",
        lambda path: segfuse.LabelMap(np.array([[-1, 2]]))),
    "fractional_label": (
        "label_out_of_range", "label must be an integer in 0..4294967295, got 1.7",
        lambda path: segfuse.LabelMap(np.array([[1.7, 2.0]]))),
    "wide_label": (
        "label_out_of_range",
        "label must be an integer in 0..4294967295, got 8589934592",
        lambda path: segfuse.LabelMap(np.array([[2**33, 1]]))),
    "nan_label": (
        "label_out_of_range", "label must be an integer in 0..4294967295, got nan",
        lambda path: segfuse.LabelMap(np.array([[1.0, math.nan]]))),
    "ragged_grid": (
        "shape_mismatch", "grid is a ragged nesting of sequences",
        lambda path: segfuse.DenseGrid([[1.0], [1.0, 2.0]])),
    "ragged_labels": (
        "shape_mismatch", "label map is a ragged nesting of sequences",
        lambda path: segfuse.LabelMap([[1], [1, 2]])),
    "ragged_embeddings": (
        "shape_mismatch", "embedding table is a ragged nesting of sequences",
        lambda path: segfuse.store_from_array([[1.0], [1.0, 2.0]], _SCENE.bank)),
    "ragged_presence": (
        "shape_mismatch", "presence is a ragged nesting of sequences",
        lambda path: segfuse.EvidenceBundle(_SCENE.evidence.mask_evidence,
                                            presence=[[1.0], [1.0, 2.0]])),
    "wide_grid_value": (
        "value_out_of_range", f"grid value must be a real number in {_F32}, got 1e+300",
        lambda path: segfuse.DenseGrid(np.array([[1e300, 1.0]]))),
    "wide_presence": (
        "value_out_of_range",
        f"presence value must be a real number in {_F32}, got -1e+300",
        lambda path: segfuse.EvidenceBundle(_SCENE.evidence.mask_evidence,
                                            presence=[1.0, -1e300, 1e300])),
}


@pytest.mark.parametrize("site", BOUNDS)
def test_every_bound_fails_with_one_message(site, tmp_path):
    code, message, call = BOUNDS[site]
    with pytest.raises(segfuse.SegfuseError) as err:
        call(tmp_path / "run.conf")
    assert err.value.code == code
    assert str(err.value) == f"{code}: {message}"


def test_whole_number_labels_of_any_real_dtype_pass():
    for labels in ([[0, 4294967295]], [[0.0, 4294967295.0]], [[True, False]],
                   np.array([[7, 0]], dtype=np.uint64)):
        held = segfuse.LabelMap(labels).data
        assert held.dtype == np.uint32
        assert np.array_equal(held, np.asarray(labels))
