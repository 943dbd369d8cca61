import argparse
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


def test_readme_documents_every_option():
    # each long option of each subcommand is named in the README, in full
    from dstgap.cli import build_parser

    text = README.read_text()
    parser = build_parser()
    (commands,) = (action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    missing = [
        f"{name} {option}"
        for name, sub in commands.choices.items()
        for action in sub._actions for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--version")
        and not re.search(re.escape(option) + r"(?![\w-])", text)]
    assert not missing, f"options the README does not name: {missing}"
