"""README.md names every config field and lists exactly the ablations, and
the attention options that were removed are named nowhere in `src/` or
README.md but in the checkpoint reader's tables of them
(`trainer.REMOVED_ATTENTION_FIELDS` and `trainer.REMOVED_ABLATIONS`)."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

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
