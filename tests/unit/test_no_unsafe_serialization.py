"""Lint gate: no pickle anywhere in the library.

``pickle.loads`` on network bytes is arbitrary code execution; the binary
wire codec exists so nothing under ``src/repro/`` ever needs pickle, and
there is no exception: the fence covers the whole package.

The ban is enforced on the AST (imports of the pickle family), so prose
mentions in docstrings don't trip it; CI additionally runs a grep over
non-comment lines as a fast pre-pytest check.
"""

from __future__ import annotations

import ast
import pathlib

FENCED_TREES = ("src/repro",)
BANNED_MODULES = frozenset({"pickle", "cPickle", "dill", "shelve", "marshal"})
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _banned_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        else:
            continue
        for name in names:
            if name in BANNED_MODULES:
                offenders.append(
                    f"{path.relative_to(_REPO_ROOT)}:{node.lineno}: "
                    f"imports {name}")
    return offenders


def test_no_pickle_anywhere_in_the_library():
    offenders = []
    for tree in FENCED_TREES:
        for path in sorted((_REPO_ROOT / tree).rglob("*.py")):
            offenders.extend(_banned_imports(path))
    assert not offenders, (
        "unsafe serialisers are banned under src/repro/ (network bytes must "
        "never reach pickle.loads); use the wire codec:\n"
        + "\n".join(offenders))

