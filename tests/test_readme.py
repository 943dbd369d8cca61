import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    # the "Library quick tour" block is run as written, so it cannot go stale
    text = README.read_text()
    match = re.search(r"## Library quick tour\n+```python\n(.*?)```", text,
                      re.DOTALL)
    assert match, "no python block under '## Library quick tour'"
    exec(compile(match.group(1), f"{README}:quick-tour", "exec"), {})
