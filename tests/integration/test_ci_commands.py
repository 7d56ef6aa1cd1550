"""CI's own ``python -m repro`` lines, read against the parser.

A workflow step runs only on a push, so an option deleted from the
command line but still passed by ``.github/workflows/ci.yml`` fails
there, late. Here every option a CI step hands a ``repro`` subcommand
must be one that subcommand declares. A command whose arguments live in
a shell variable (``$run``) is not read.
"""

import argparse
import pathlib
import re
import shlex

from repro.cli import build_parser

WORKFLOW = (
    pathlib.Path(__file__).resolve().parents[2]
    / ".github" / "workflows" / "ci.yml"
)
PREFIX = "python -m repro "


def run_scripts(text):
    """The shell of every ``run:`` key: a ``>`` block folded onto one
    line, a ``|`` block line by line, continuation lines joined."""
    lines = text.splitlines()
    scripts = []
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run: ?(.*)$", line)
        if not match:
            continue
        indent, rest = len(match.group(1)), match.group(2).strip()
        if rest not in (">", "|"):
            scripts.append(rest)
            continue
        body = []
        for follow in lines[i + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow.strip())
        scripts.append((" " if rest == ">" else "\n").join(body))
    return [re.sub(r"\\\n\s*", " ", script) for script in scripts]


def repro_commands(script):
    """The argument lists of the ``python -m repro`` commands in a script,
    each cut at a pipe, ``;``, ``&`` or parenthesis."""
    commands = []
    for line in script.splitlines():
        for part in re.split(r"[;|&()]", line):
            if PREFIX in part:
                commands.append(shlex.split(part.split(PREFIX, 1)[1]))
    return commands


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_option_ci_passes_is_declared():
    checked, unknown = [], []
    for script in run_scripts(WORKFLOW.read_text()):
        for argv in repro_commands(script):
            if not argv or argv[0].startswith("$"):
                continue
            parser, path = build_parser(), []
            while argv and argv[0] in _subcommands(parser):
                parser = _subcommands(parser)[argv[0]]
                path.append(argv.pop(0))
            assert path, f"no repro subcommand in {argv}"
            checked.append(" ".join(path))
            for token in argv:
                option = token.split("=", 1)[0]
                if option.startswith("-") and (
                    option not in parser._option_string_actions
                ):
                    unknown.append(f"repro {' '.join(path)} {option}")
    # The extractor reads block scalars of both kinds.
    assert {"loadtest", "checkpoint save", "run"} <= set(checked)
    assert not unknown, unknown
