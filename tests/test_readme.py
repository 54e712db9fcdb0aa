"""The README names only what the code defines."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# snake_case or ALL_CAPS with an underscore: words that prose only uses as code
CODE_NAME = re.compile(r"_?[a-z][a-z0-9]*(_[a-z0-9]+)+|_?[A-Z][A-Z0-9]*(_[A-Z0-9]+)+")


def _words(text):
    return set(re.findall(r"\w+", text))


def test_readme_names_resolve():
    """Every snake_case or ALL_CAPS name in an inline code span of README.md
    is a word of src/qlcst/*.py or tests/*.py, so deleting a function fails
    here until the README stops naming it."""
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = {w for span in re.findall(r"`([^`\n]+)`", readme) for w in _words(span)
             if CODE_NAME.fullmatch(w)}
    assert len(names) > 30  # the code spans were found
    files = [*ROOT.glob("src/qlcst/*.py"), *ROOT.glob("tests/*.py")]
    code = set().union(*(_words(p.read_text()) for p in files))
    assert sorted(names - code) == []
