"""README.md names every config field, lists exactly the ablations and the
`train` fields, and every `ringskip` line of its command blocks parses. Its
claim table names only tests that exist and commands that parse. The
attention options that were removed are named nowhere in `src/` or README.md
but in the checkpoint reader's tables of them
(`trainer.REMOVED_ATTENTION_FIELDS` and `trainer.REMOVED_ABLATIONS`), and the
removed task, optimizer fields, decode flag, key-mask argument and
empty-neighborhood error are named nowhere in either."""

import ast
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from ringskip.cli import build_parser
from ringskip.model import ModelConfig
from ringskip.neighborhood import ABLATIONS, AttentionConfig
from ringskip.trainer import REMOVED_ABLATIONS, REMOVED_ATTENTION_FIELDS, TaskSpec, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SRC = ROOT / "src" / "ringskip"


def code_span_words(markdown: str) -> set:
    """Every word inside an inline code span (one line between single backticks)."""
    return {w for span in re.findall(r"`([^`\n]+)`", markdown) for w in re.findall(r"\w+", span)}


def test_code_span_words():
    assert code_span_words("a `task.kind` b `x` ```json\n{\"y\": 1}\n```") == {"task", "kind", "x"}


@pytest.mark.parametrize("cls", [AttentionConfig, ModelConfig, TaskSpec, TrainConfig],
                         ids=lambda c: c.__name__)
def test_readme_names_every_config_field(cls):
    words = code_span_words(README)
    assert [f.name for f in dataclasses.fields(cls) if f.name not in words] == []


def test_readme_lists_exactly_the_ablations():
    # the config section's one list: `ablation` (`full | no_skip | ...`
    listed = re.findall(r"`ablation`\s+\(`([^`]*)`", README)
    assert [[a.strip() for a in span.split("|")] for span in listed] == [list(ABLATIONS)]


def test_readme_lists_exactly_the_train_fields():
    # the config section's one sentence `train` takes `lr`, ... ; a field
    # removed from TrainConfig but left in it fails here
    sentences = re.findall(r"`train` takes (.*?\.)(?:\s|$)", README, re.S)
    assert len(sentences) == 1
    listed = [w for w in re.findall(r"`([^`\n]+)`", sentences[0]) if w.isidentifier()]
    assert sorted(listed) == sorted(f.name for f in dataclasses.fields(TrainConfig))


def readme_command_lines() -> list:
    """Each line of README's ```sh blocks that starts with `ringskip `."""
    return [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.splitlines() if line.startswith("ringskip ")]


def test_every_readme_command_line_parses():
    parser = build_parser()
    bad, commands = [], set()
    for line in readme_command_lines():
        try:
            commands.add(parser.parse_args(shlex.split(line, comments=True)[1:]).command)
        except SystemExit:
            bad.append(line)
    assert bad == []
    # and every subcommand has a line
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert commands == set(sub.choices)


def claims_section() -> str:
    """README's "Paper claims and their checks" section, up to the next heading."""
    (section,) = re.findall(r"^## Paper claims and their checks\n(.*?)^## ", README, re.S | re.M)
    return section


def test_claims_section_names_only_tests_that_exist():
    named = set(re.findall(r"`(test_\w+)`", claims_section()))
    defined = {node.name for path in (ROOT / "tests").glob("test_*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert named and sorted(named - defined) == []


def test_claims_section_commands_parse():
    parser = build_parser()
    commands = re.findall(r"`(ringskip [^`]+)`", claims_section())
    bad = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            bad.append(command)
    assert commands and bad == []


TABLES = ("REMOVED_ATTENTION_FIELDS", "REMOVED_ABLATIONS")


def without_removed_fields_table(source: str) -> str:
    """`source` with the assignments of the TABLES blanked out."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) in TABLES for t in node.targets)):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_removed_fields_table_is_blanked():
    source = 'X = 1\nREMOVED_ATTENTION_FIELDS = {"a": 0,\n  "b": 1}\nY = "a"\n'
    assert without_removed_fields_table(source) == 'X = 1\n\n\nY = "a"'
    source = 'REMOVED_ABLATIONS = {"c": "d"}\nZ = 2\n'
    assert without_removed_fields_table(source) == '\nZ = 2'


@pytest.mark.parametrize("path", [ROOT / "README.md"] + sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_removed_attention_options_are_not_named(path):
    text = path.read_text()
    if path.suffix == ".py":
        text = without_removed_fields_table(text)
    removed = list(REMOVED_ATTENTION_FIELDS) + list(REMOVED_ABLATIONS)
    assert [name for name in removed if name in text] == []


# the task, the optimizer fields, the decode flag, the key mask of
# `gather_schedule` and `build_union` and the error only that mask could raise,
# removed with no stand-in: no config or checkpoint may name them, so no table
# keeps them
REMOVED_OPTIONS = ("needle_retrieval", "warmup_steps", "cosine_decay", "beta1", "beta2",
                   "adam_eps", "--greedy", "user_mask", "EmptyNeighborhoodError")


@pytest.mark.parametrize("path", [ROOT / "README.md"] + sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_removed_task_and_training_options_are_not_named(path):
    text = path.read_text()
    assert [name for name in REMOVED_OPTIONS if name in text] == []
