"""Every name that ``src/quiltlab`` defines is used, and not by tests alone.

The names are the top-level ones and every ``def`` at any depth: methods,
properties, classmethods and nested functions.  A name is dead when no
Python file under ``src/``, ``tests/``, ``demos/`` or ``perfbench/``
mentions it outside the lines of its own definition (a recursive
function's call of itself does not count).  A name is test-only when only
files under ``tests/`` mention it and ``README.md`` does not name it: such
a helper belongs in ``tests/helpers.py``.  Mentions are whole words of the
code: comments and docstrings are prose and do not count, while other
string literals do, so a name read by ``getattr`` from a string is used.
"""

import ast
import functools
import io
import re
import tokenize
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


def _docstring_starts(tree):
    """(line, column) of every docstring of the module, its classes and its
    functions."""
    return {(node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


@functools.cache
def _word_lines(text):
    """Each whole word of the code of ``text`` and the numbers of the lines
    it is on, worked out once per text.  Comments and docstrings are prose
    and are skipped; other string literals are kept, since ``getattr``
    reads names from them."""
    docstrings = _docstring_starts(ast.parse(text))
    where = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT or (
                tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        for number, line in enumerate(tok.string.splitlines(), tok.start[0]):
            for word in WORD.findall(line):
                where.setdefault(word, []).append(number)
    return where


def tree_texts():
    """The text of every Python file searched, keyed by its path relative
    to the repository root, and the README's text."""
    texts = {path.relative_to(ROOT): path.read_text()
             for top in SEARCHED for path in (ROOT / top).rglob("*.py")}
    return texts, (ROOT / "README.md").read_text()


def unused_names(texts, readme):
    """(dead, test-only): ``module:name`` of every name the package defines
    that nothing uses, and of every one that only ``tests/`` uses and the
    README does not name.

    Each file is split into words once; a name is mentioned where it is one
    of those words."""
    words = {path: _word_lines(text) for path, text in texts.items()}
    files_with = {top: Counter() for top in SEARCHED}
    for path, where in words.items():
        files_with[path.parts[0]].update(where.keys())
    named = set(WORD.findall(readme))
    dead, test_only = [], []
    for path in sorted(p for p in texts if p.parts[:2] == ("src", "quiltlab")):
        for name, first, last in _defined_names(ast.parse(texts[path])):
            if name.startswith("__"):
                continue
            own = words[path].get(name, [])
            tops = {top for top in SEARCHED
                    if files_with[top][name] > (1 if top == "src" and own else 0)}
            if any(not first <= n <= last for n in own):
                tops.add("src")
            if not tops:
                dead.append(f"{path.stem}:{name}")
            elif tops == {"tests"} and name not in named:
                test_only.append(f"{path.stem}:{name}")
    return dead, test_only


@functools.cache
def _scan():
    return unused_names(*tree_texts())


def test_no_dead_names():
    assert _scan()[0] == []


def test_no_test_only_names():
    assert _scan()[1] == []


def test_scan_reports_a_planted_test_only_helper():
    texts, readme = tree_texts()
    del texts[Path(__file__).resolve().relative_to(ROOT)]  # it names the helper too
    texts[Path("src", "quiltlab", "planted.py")] = "def planted_helper():\n    return 1\n"
    texts[Path("tests", "test_planted.py")] = "assert planted_helper() == 1\n"
    assert unused_names(texts, readme) == ([], ["planted:planted_helper"])
    assert unused_names(texts, readme + "\n`planted_helper`\n") == ([], [])
    demo = dict(texts)
    demo[Path("demos", "planted_demo.py")] = "print(planted_helper())\n"
    assert unused_names(demo, readme) == ([], [])
    del texts[Path("tests", "test_planted.py")]
    assert unused_names(texts, readme) == (["planted:planted_helper"], [])


def test_scan_skips_prose_but_reads_strings():
    # a name that another src file mentions only in its docstring and a
    # comment is dead; one that perfbench reads from a string is used
    texts, readme = tree_texts()
    del texts[Path(__file__).resolve().relative_to(ROOT)]  # it names the helper too
    texts[Path("src", "quiltlab", "planted.py")] = "def planted_helper():\n    return 1\n"
    texts[Path("src", "quiltlab", "prose.py")] = (
        '"""Mentions planted_helper."""\n\n\n'
        'def planted_prose():\n    """And planted_helper."""\n    return 2  # planted_helper\n')
    assert unused_names(texts, readme) == (["planted:planted_helper", "prose:planted_prose"], [])
    texts[Path("perfbench", "planted_bench.py")] = 'TRACED = ("planted", "planted_helper")\n'
    assert unused_names(texts, readme) == (["prose:planted_prose"], [])
