"""Every name a `ringskip` module imports is used in that module. The package
`__init__.py` is exempt, since its imports are re-exports. Every module-level
function, class and assignment is read somewhere in the package besides its
own definition: a name only tests call is not part of the program.

Only `cli` and `trainer` write files, and no module imports `io`: report
builders return rows, and `cli` formats and writes them. Importing the
package loads no `multiprocessing` module: only the commands that fork a
sibling pay for its pipes."""

import ast
import os
import subprocess
import sys
from collections import Counter
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


# module-level names that nothing in the package reads, each with its reason
UNREFERENCED = {
    # drives acceptance criterion 5 from the tests; no command runs it yet (ROADMAP item 22)
    "checks.run_decode_check",
}


def unreferenced_names(sources: dict) -> list:
    """The "module.name" of each module-level function, class and assignment
    of `sources` (module -> source) that no `Name` or `Attribute` of any of
    them refers to outside its own definition. Dunder names, which Python and
    its tools read, are left out."""
    def refs(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((refs(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = refs(node)
            found += [f"{module}.{name}" for name in names
                      if not name.startswith("__") and everywhere[name] == inside[name]]
    return sorted(found)


def test_unreferenced_names_are_found():
    sources = {"a": "import b\nX = 1\nY, Z = 2, 3\n__all__ = []\n"
                    "def f():\n    return f()\nclass C:\n    pass\n",
               "b": "from a import Y\nW = Y\nimport a\nprint(a.C, W)\n"}
    assert unreferenced_names(sources) == ["a.X", "a.Z", "a.f"]


def test_every_module_level_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(unreferenced_names(sources)) == UNREFERENCED


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
