"""The README documents the package's whole public surface."""

import re
from pathlib import Path

import foon

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    # Only code counts (fenced blocks and `spans`), so a name that is also an
    # English word, such as Kitchen, is not found in prose.
    code = "\n".join(re.findall(r"```.*?```|`[^`]+`", text, re.S))
    missing = [name for name in foon.__all__ if not re.search(rf"\b{name}\b", code)]
    assert missing == []
