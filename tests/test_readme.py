"""The README's library tour, run line by line: every `#=>` line must show
the value of the expression just above it."""
import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


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
