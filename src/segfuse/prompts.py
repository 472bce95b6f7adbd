"""Per-class synonym prompt banks parsed from plain text.

File format: one class per line, comma-separated variants, first token is the
canonical name.  Lines starting with '#' are comments.  Tokens are lowercased
and trimmed at parse time; commas inside a token are not representable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PromptFileError

MAX_SYNONYMS = 10


@dataclass(frozen=True)
class PromptClass:
    class_index: int
    canonical: str
    synonyms: tuple[str, ...]

    @property
    def m_c(self) -> int:
        return len(self.synonyms)


@dataclass(frozen=True)
class PromptBank:
    classes: tuple[PromptClass, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def total_synonyms(self) -> int:
        return sum(c.m_c for c in self.classes)


def parse_prompt_file(text: str) -> PromptBank:
    """Parse a prompt document into a validated bank.

    Tokens are lowercased, whitespace-trimmed and deduplicated preserving the
    first occurrence; empty non-canonical tokens (stray commas) are dropped.
    A line may keep at most 10 distinct synonyms including the canonical one.
    """
    classes = []
    seen_canonical = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip().lower() for t in line.split(",")]
        canonical = tokens[0]
        if not canonical:
            raise PromptFileError(
                "empty_canonical", f"line {lineno}: first token is empty")
        synonyms = []
        for tok in tokens:
            if tok and tok not in synonyms:
                synonyms.append(tok)
        if len(synonyms) > MAX_SYNONYMS:
            raise PromptFileError(
                "too_many_synonyms",
                f"line {lineno}: {len(synonyms)} distinct tokens, cap is {MAX_SYNONYMS}")
        if canonical in seen_canonical:
            raise PromptFileError(
                "duplicate_canonical",
                f"line {lineno}: '{canonical}' already defined on line "
                f"{seen_canonical[canonical]}")
        seen_canonical[canonical] = lineno
        classes.append(PromptClass(len(classes), canonical, tuple(synonyms)))
    if not classes:
        raise PromptFileError("empty_prompt_file", "no classes found")
    return PromptBank(tuple(classes))


def format_prompt_file(bank: PromptBank) -> str:
    return "".join(", ".join(c.synonyms) + "\n" for c in bank.classes)


def load_prompt_file(path) -> PromptBank:
    with open(path, encoding="utf-8") as f:
        return parse_prompt_file(f.read())


def save_prompt_file(bank: PromptBank, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_prompt_file(bank))

