"""Prompt file parsing and validation."""
import numpy as np
import pytest

from segfuse import PromptFileError, parse_prompt_file
from segfuse.prompts import format_prompt_file


def test_single_canonical():
    bank = parse_prompt_file("cat\n")
    assert bank.num_classes == 1
    assert bank.classes[0].canonical == "cat"
    assert bank.classes[0].synonyms == ("cat",)
    assert bank.classes[0].m_c == 1


def test_comma_separated_variants():
    bank = parse_prompt_file("sofa, couch, settee\n")
    assert bank.classes[0].synonyms == ("sofa", "couch", "settee")
    assert bank.classes[0].m_c == 3


def test_eleven_tokens_rejected():
    line = ", ".join("abcdefghijk") + "\n"  # a, b, ..., k
    with pytest.raises(PromptFileError) as err:
        parse_prompt_file(line)
    assert err.value.code == "too_many_synonyms"


def test_ten_tokens_accepted():
    bank = parse_prompt_file(", ".join("abcdefghij") + "\n")
    assert bank.classes[0].m_c == 10


def test_lowercased_trimmed_deduplicated():
    bank = parse_prompt_file("  Sofa ,couch , SOFA, Couch, settee\n")
    assert bank.classes[0].synonyms == ("sofa", "couch", "settee")


def test_dedup_counts_toward_cap():
    tokens = list("abcdefghij") + ["a", "b"]  # 12 tokens, 10 distinct
    bank = parse_prompt_file(", ".join(tokens) + "\n")
    assert bank.classes[0].m_c == 10


def test_comments_and_blank_lines_skipped():
    bank = parse_prompt_file("# header\n\ncat\n  \n# more\ndog\n")
    assert [c.canonical for c in bank.classes] == ["cat", "dog"]
    assert [c.class_index for c in bank.classes] == [0, 1]


def test_empty_file_rejected():
    with pytest.raises(PromptFileError) as err:
        parse_prompt_file("# only a comment\n")
    assert err.value.code == "empty_prompt_file"


def test_empty_canonical_rejected():
    with pytest.raises(PromptFileError) as err:
        parse_prompt_file("cat\n, couch\n")
    assert err.value.code == "empty_canonical"


def test_duplicate_canonical_rejected():
    with pytest.raises(PromptFileError) as err:
        parse_prompt_file("cat\ndog\ncat, kitty\n")
    assert err.value.code == "duplicate_canonical"


def test_stray_commas_dropped():
    bank = parse_prompt_file("sofa,, couch,\n")
    assert bank.classes[0].synonyms == ("sofa", "couch")


def test_parse_is_idempotent():
    text = "sofa, couch, settee\ncat\ndog, puppy\n"
    bank = parse_prompt_file(text)
    again = parse_prompt_file(format_prompt_file(bank))
    assert again == bank
    assert format_prompt_file(again) == format_prompt_file(bank)


def _random_bank(rng, n_classes):
    lines = []
    used = set()
    for _ in range(n_classes):
        m = int(rng.integers(1, 11))
        tokens = []
        while len(tokens) < m:
            word = "".join(chr(97 + c) for c in rng.integers(0, 26, size=6))
            if word not in used:
                used.add(word)
                tokens.append(word)
        lines.append(", ".join(tokens))
    return parse_prompt_file("\n".join(lines) + "\n")


def test_serialization_round_trip_random_banks():
    rng = np.random.default_rng(13)
    for _ in range(25):
        bank = _random_bank(rng, int(rng.integers(1, 9)))
        text = format_prompt_file(bank)
        assert format_prompt_file(parse_prompt_file(text)) == text

