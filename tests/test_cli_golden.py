"""Golden CLI transcript.

cli_golden.json pins the exit code and the exact stdout of every
`$ padicloop ...` example in README.md and of `check all --seed 0
--samples 50` for p = 7 and p = 3, in plain and in JSON format.  A change
that moves any printed digit, O-term, property count or record field fails
here.

Regenerate (only when an output change is intended):
    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from padicloop import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
README = Path(__file__).resolve().parents[1] / "README.md"

CHECK_ALL = [
    ["check", "all", "--p", p, "--seed", "0", "--samples", "50", *fmt]
    for p in ("7", "3")
    for fmt in ([], ["--format", "json"])
]


def readme_examples():
    """(argv, shown output lines) for each `$ padicloop` line of README.md."""
    examples = []
    lines = README.read_text().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("$ padicloop "):
            continue
        shown = []
        for out in lines[i + 1:]:
            if out.startswith("$ ") or out.startswith("```"):
                break
            if out != "...":
                shown.append(out)
        examples.append((shlex.split(line)[2:], shown))
    return examples


def commands():
    return [argv for argv, _ in readme_examples()] + CHECK_ALL


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {shlex.join(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", commands(), ids=shlex.join)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[shlex.join(argv)]


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(shlex.join(a) for a in commands())


def test_readme_shows_the_pinned_output(golden):
    for argv, shown in readme_examples():
        pinned = golden[shlex.join(argv)]["stdout"].splitlines()
        assert all(line in pinned for line in shown), argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    GOLDEN.write_text(json.dumps([run(a) for a in commands()], indent=1) + "\n")
