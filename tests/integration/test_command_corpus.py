"""The documented commands, executed: "prints what it printed" as a file.

Every ``python -m repro ...`` line in a fenced block of README.md or
EXPERIMENTS.md is listed in ``tests/golden/command_corpus.json`` with a
digest of its stdout (wall-time parentheticals masked). The corpus is
run top to bottom in one scratch directory -- its order is execution
order, so a command that reads ``faults.json`` comes after the one that
writes it -- and each entry is one of

* ``"stdout_sha256"``: exits 0 and prints exactly the pinned bytes;
* ``"unpinned"`` (a reason): exits 0, output free to change;
* ``"not_run"`` (a reason): listed so the documents and the corpus
  cannot drift apart, never executed.

A refactor that changes what a documented command prints fails here by
command; one that is meant to re-pins with
``python tests/integration/test_command_corpus.py`` (and says so).
"""

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
CORPUS = REPO / "tests" / "golden" / "command_corpus.json"
DOCUMENTS = ("README.md", "EXPERIMENTS.md")
PREFIX = "python -m repro "

_WALL = re.compile(r"\([^()\n]*s wall\)")


def documented_commands():
    """Every ``python -m repro`` command of a fenced block, continuation
    lines joined, ``;``-separated commands split, whitespace collapsed."""
    commands = []
    for name in DOCUMENTS:
        text = (REPO / name).read_text()
        for block in re.findall(r"```[a-z]*\n(.*?)```", text, re.S):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                for part in line.split(";"):
                    part = " ".join(part.split())
                    if part.startswith(PREFIX):
                        commands.append(part)
    return commands


def _scratch(directory):
    """What the documents' commands assume of the directory they run in."""
    from repro.traffic.demand import DemandMatrix

    (directory / "tests" / "golden").mkdir(parents=True)
    matrix = DemandMatrix.hotspot((3, 3, 3), 0.3, seed=1)
    (directory / "matrix.json").write_text(matrix.to_json())


def run_corpus(entries, directory):
    """Run the corpus in ``directory``: ``(entry, exit status, digest of
    the masked stdout, what it printed)`` per executed command."""
    _scratch(directory)
    source = str(REPO / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=source + (os.pathsep + inherited if inherited else ""),
    )
    for entry in entries:
        if "not_run" in entry:
            continue
        done = subprocess.run(
            [sys.executable, "-m", "repro"]
            + shlex.split(entry["command"][len(PREFIX):]),
            cwd=directory, env=env, capture_output=True, text=True,
        )
        stdout = _WALL.sub("(wall)", done.stdout)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        yield entry, done.returncode, digest, stdout + done.stderr


def test_corpus_lists_exactly_the_documented_commands():
    corpus = json.loads(CORPUS.read_text())
    listed = [entry["command"] for entry in corpus]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(set(documented_commands()))
    for entry in corpus:
        kinds = {"stdout_sha256", "unpinned", "not_run"} & set(entry)
        assert len(kinds) == 1, entry["command"]


@pytest.mark.slow
def test_documented_commands_print_what_is_pinned(tmp_path):
    changed = []
    for entry, status, digest, printed in run_corpus(
        json.loads(CORPUS.read_text()), tmp_path
    ):
        if status != 0 or entry.get("stdout_sha256", digest) != digest:
            changed.append(f"$ {entry['command']}\n[exit {status}]\n{printed}")
    assert not changed, "\n".join(changed)


if __name__ == "__main__":  # re-pin: rewrites the digests in place
    import tempfile

    sys.path.insert(0, str(REPO / "src"))
    corpus = json.loads(CORPUS.read_text())
    with tempfile.TemporaryDirectory() as scratch:
        for entry, status, digest, printed in run_corpus(
            corpus, pathlib.Path(scratch)
        ):
            if status != 0:
                sys.exit(f"{entry['command']} exited {status}:\n{printed}")
            if "stdout_sha256" in entry:
                entry["stdout_sha256"] = digest
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
