"""Every name that ``src/quiltlab`` defines is used somewhere.

The names are the top-level ones and every ``def`` at any depth: methods,
properties, classmethods and nested functions.  A name is dead when no
Python file under ``src/``, ``tests/``, ``demos/`` or ``perfbench/``
mentions it outside the lines of its own definition (a recursive
function's call of itself does not count).  Mentions are whole words, so a
name read by ``getattr`` from a string counts as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")
WORD = re.compile(r"\w+")


def _defined_names(tree):
    """(name, first line, last line) of each top-level definition and of
    each function or method at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def _word_lines(text):
    """Each whole word of ``text`` and the numbers of the lines it is on."""
    where = {}
    for number, line in enumerate(text.splitlines(), 1):
        for word in WORD.findall(line):
            where.setdefault(word, []).append(number)
    return where


def dead_names():
    """``module:name`` of every name the package defines that nothing uses.

    Each file is split into words once; a name is mentioned where it is one
    of those words."""
    texts = {path: path.read_text() for top in SEARCHED for path in (ROOT / top).rglob("*.py")}
    words = {path: _word_lines(text) for path, text in texts.items()}
    files_with = Counter(word for where in words.values() for word in where)
    dead = []
    for path in sorted((ROOT / "src" / "quiltlab").glob("*.py")):
        for name, first, last in _defined_names(ast.parse(texts[path])):
            if name.startswith("__"):
                continue
            own = words[path].get(name, [])
            elsewhere = files_with[name] > (1 if own else 0)
            if not (elsewhere or any(not first <= n <= last for n in own)):
                dead.append(f"{path.stem}:{name}")
    return dead


def test_no_dead_names():
    assert dead_names() == []
