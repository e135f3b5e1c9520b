"""The library carries no code that only its own tests call.

Every top-level function and class under src/rih must be referenced somewhere
in the package outside its own definition, be exported in rih.__all__, or be
one of the named test-only reference implementations below.
"""

import ast
from pathlib import Path

import rih

SRC = Path(rih.__file__).resolve().parent

# independent reference implementations that only the tests call; they stay
# because they are the checks
ORACLES = (
    "solver.sector_qubit_oracle",
    "solver.full_space_oracle",
    "hamiltonian.build_single_copy_term",
)


def _names(node, skip=None):
    """Every name node mentions (loads, attributes, imported aliases), leaving
    out the subtree of skip."""
    stack = [node]
    while stack:
        x = stack.pop()
        if x is skip:
            continue
        if isinstance(x, ast.Name):
            yield x.id
        elif isinstance(x, ast.Attribute):
            yield x.attr
        elif isinstance(x, ast.alias):
            yield x.name
        stack.extend(ast.iter_child_nodes(x))


def unreferenced(src=SRC):
    """module.name of each top-level definition nothing else in src mentions."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    out = []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(d.name in _names(t, skip=d) for t in trees.values()):
                out.append(f"{module}.{d.name}")
    return out


def test_oracles_are_defined_and_otherwise_unused():
    # a stale entry would let a dead name through unnoticed
    assert sorted(ORACLES) == sorted(n for n in unreferenced() if n in ORACLES)


def test_every_definition_is_used_exported_or_an_oracle():
    dead = [
        n for n in unreferenced() if n not in ORACLES and n.split(".")[1] not in rih.__all__
    ]
    assert dead == []


def test_the_guard_sees_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef recursive(k):\n    return recursive(k - 1)\n"
    )
    (tmp_path / "b.py").write_text("from a import used\n\nclass Kept:\n    x = used()\n")
    assert unreferenced(tmp_path) == ["a.recursive", "b.Kept"]
