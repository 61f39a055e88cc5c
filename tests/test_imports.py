"""Every name a `ringskip` module imports is used in that module. The package
`__init__.py` is exempt, since its imports are re-exports.

Only `cli` and `trainer` write files, and no module imports `io`: report
builders return rows, and `cli` formats and writes them. Importing the
package loads no `multiprocessing` module: only the commands that fork a
sibling pay for its pipes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ringskip"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# `trainer.train` writes metrics.csv and model.ckpt; `cli` writes everything else
WRITERS = ("cli.py", "trainer.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport json\n"
              "from typing import List, Tuple\nx: List[int] = json.loads('[]')\n")
    assert unused_imports(source) == [(2, "os"), (4, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def file_writes(source: str) -> list:
    """Lines that write a file or stream: `open` in any mode but a read-only
    constant one, `write_text`, `write_bytes` and `.write(`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in ("write", "write_text", "write_bytes"):
            lines.append(node.lineno)
        elif isinstance(fn, ast.Name) and fn.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and set(modes[0].value) <= set("rbt")):
                lines.append(node.lineno)
    return lines


def imports_io(source: str) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "io" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "io"
               for node in ast.walk(ast.parse(source)))


def test_file_writes_are_found():
    source = ("import io\nopen(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='wb')\n"
              "path.write_text('')\nbuf.write('x')\nopen(p, m)\n")
    assert file_writes(source) == [4, 5, 6, 7, 8]
    assert imports_io(source) and imports_io("from io import StringIO\n")
    assert not imports_io("import json\n")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in WRITERS],
                         ids=lambda p: p.name)
def test_only_cli_and_trainer_write_files(path):
    assert file_writes(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_io(path):
    assert not imports_io(path.read_text())


def test_importing_the_package_loads_no_multiprocessing_module():
    code = ("import sys, ringskip, ringskip.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"
