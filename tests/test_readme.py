"""The README's library tour, run line by line: every `#=>` line must show
the value of the expression just above it. Every test the README and the
ROADMAP name must exist."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
# `tests/<file>.py`, then optionally `::<test>` or `::<class>::<test>`
TEST_REFERENCE = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_shows_what_it_computes():
    namespace: dict = {}
    pending: list = []
    checked = 0
    for line in _tour().splitlines():
        if not line.startswith("#=>"):
            pending.append(line)
            continue
        *body, last = ast.parse("\n".join(pending)).body
        exec(compile(ast.Module(body, []), "README", "exec"), namespace)
        value = eval(compile(ast.Expression(last.value), "README", "eval"), namespace)
        # the shown value may be followed, after two or more spaces, by a
        # remark in parentheses
        shown = re.split(r"\s{2,}\(", line[len("#=>"):].strip(), maxsplit=1)[0]
        assert shown == repr(value), line
        pending = []
        checked += 1
    assert checked == 4


def _defines(path: Path, names: list) -> bool:
    """Whether `path` defines `names[0]` at top level, `names[1]` inside
    it, and so on."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("doc", ["README.md", "ROADMAP.md"])
def test_docs_name_existing_tests(doc):
    references = TEST_REFERENCE.findall((ROOT / doc).read_text(encoding="utf-8"))
    assert references
    for file, names in references:
        path = ROOT / "tests" / file
        assert path.is_file() and _defines(path, names.split("::")[1:]), f"tests/{file}{names}"
