"""The README's command lines and pipeline config are ones the program accepts."""

import json
import re
import shlex
from pathlib import Path

import pytest

from sentid.cli import build_parser
from sentid.pipeline import config_from_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def commands() -> list:
    """Each `sentid ...` line of the command-line block, continuation lines joined."""
    text = fenced_block("## Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines() if line.startswith("sentid ")]


def test_every_command_is_listed():
    names = {argv[1] for argv in commands()}
    assert names == {"convert", "train", "predict", "decode", "augment", "evaluate", "pipeline"}


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_command_line_parses(argv):
    build_parser().parse_args(argv[1:])


def test_pipeline_config_builds():
    cfg = config_from_dict(json.loads(fenced_block("### Pipeline configuration", "json")))
    assert cfg.seeds == (0, 1, 2, 3, 4)
