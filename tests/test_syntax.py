"""Every module of the package and its tests parses under the oldest
grammar pyproject.toml accepts.

An interpreter parses its own grammar, so a run on a newer Python accepts
syntax an older one refuses, such as an except* group (3.11). ast.parse
with feature_version refuses what that version's grammar lacks, without
an interpreter of that version. It checks syntax only, not library APIs.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "amem").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def oldest_python():
    """The (major, minor) of pyproject.toml's requires-python lower bound."""
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_oldest_grammar_refuses_newer_syntax():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_a_module_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=oldest_python())
