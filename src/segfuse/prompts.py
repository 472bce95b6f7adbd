"""Per-class synonym prompt banks parsed from plain text.

File format: one class per line, comma-separated variants, first token is the
canonical name.  Lines starting with '#' are comments.  Tokens are lowercased
and trimmed at parse time; commas inside a token are not representable.  A
bank holds each class as the tuple of its synonyms, canonical first.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SegfuseError, check_int

MAX_SYNONYMS = 10


@dataclass(frozen=True)
class PromptBank:
    classes: tuple[tuple[str, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def total_synonyms(self) -> int:
        return sum(len(c) for c in self.classes)


# Prompt files and `--config` files share these two rules.
def _content_lines(text: str):
    """(line number, stripped line) for each line not blank and not a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_utf8(path) -> str:
    """The text of a UTF-8 prompt or config file, without a leading BOM."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeDecodeError as err:
        raise SegfuseError("bad_encoding", f"{path}: not UTF-8 text ({err})")


def parse_prompt_file(text: str) -> PromptBank:
    """Parse a prompt document into a validated bank.

    Tokens are lowercased, whitespace-trimmed and deduplicated preserving the
    first occurrence; empty non-canonical tokens (stray commas) are dropped.
    A line may keep at most 10 distinct synonyms including the canonical one.
    """
    classes = []
    seen_canonical = {}
    for lineno, line in _content_lines(text):
        tokens = [t.strip().lower() for t in line.split(",")]
        canonical = tokens[0]
        if not canonical:
            raise SegfuseError("empty_canonical", f"line {lineno}: first token is empty")
        synonyms = []
        for tok in tokens:
            if tok and tok not in synonyms:
                synonyms.append(tok)
        check_int("too_many_synonyms", f"line {lineno}: distinct token count",
                  len(synonyms), 1, MAX_SYNONYMS)
        if canonical in seen_canonical:
            raise SegfuseError(
                "duplicate_canonical",
                f"line {lineno}: '{canonical}' already defined on line "
                f"{seen_canonical[canonical]}")
        seen_canonical[canonical] = lineno
        classes.append(tuple(synonyms))
    check_int("empty_prompt_file", "class count", len(classes), 1)
    return PromptBank(tuple(classes))


def format_prompt_file(bank: PromptBank) -> str:
    return "".join(", ".join(c) + "\n" for c in bank.classes)


def load_prompt_file(path) -> PromptBank:
    return parse_prompt_file(_read_utf8(path))


def save_prompt_file(bank: PromptBank, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_prompt_file(bank))

