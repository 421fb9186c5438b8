"""The command lines in README.md and scripts/bench.py parse, and the bench's pair count."""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from robust_overparam.harness import build_parser

REPO = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", REPO / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _readme_commands() -> list[list[str]]:
    """The arguments of every `robust-overparam` line in README.md's fenced blocks, continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("robust-overparam ")]


README_COMMANDS = _readme_commands()
BENCH_COMMANDS = {name: args[2:] for name, args in bench.COMMANDS.items() if args[:2] == ["-m", "robust_overparam.cli"]}


def test_readme_has_command_lines():
    assert len(README_COMMANDS) >= 7


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_parses(argv):
    build_parser()[0].parse_args(argv)


@pytest.mark.parametrize("name", sorted(BENCH_COMMANDS))
def test_bench_command_parses(name):
    build_parser()[0].parse_args(BENCH_COMMANDS[name])


def test_pair_count_ignores_ties():
    first = [1.0, 2.0, 3.0, 4.0, 5.0]
    second = [1.0, 1.5, 3.5, 4.0, 4.0]
    assert bench._pairs(first, second) == {"lower": 2, "higher": 1}
