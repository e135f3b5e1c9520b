"""The library carries no code that only its own tests call, and its oracles
stay independent of the paths they check.

Every top-level function and class under src/rih must be referenced somewhere
in the package outside its own definition and outside __init__.py, or be
named below: a test-only reference implementation, or an export whose caller
is still to come.  Importing a name into rih.__init__ does not count as a use,
so nothing stays in the package only because it is exported.  No oracle may
mention a checked path, and no definition but the oracles themselves and
acceptance.crit_oracle_agreement may mention an oracle.

The benchmark's tracer wraps rih names by string and reads solver report
counters by key; every such name and key must exist.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import rih
from rih import solver
from rih.lattice import LatticeSpec

SRC = Path(rih.__file__).resolve().parent

# independent reference implementations that only the tests call; they stay
# because they are the checks
TEST_ONLY_ORACLES = (
    "solver.sector_qubit_oracle",
    "solver.full_space_oracle",
    "hamiltonian.build_single_copy_term",
)

# exports that no command, criterion or other module reaches yet, each with
# the change that gives it one
EXPORTS_AWAITING_A_CALLER = {"instance.DecisionSpec": "ROADMAP item 6: rih decide"}

# every oracle, and the one definition outside them allowed to call one
ORACLES = TEST_ONLY_ORACLES + (
    "solver.sector_full_oracle",
    "hamiltonian.global_hamiltonian",
    "solver._pairing_sparse",
)
ORACLE_CALLER = "acceptance.crit_oracle_agreement"

# the production paths the oracles recompute
CHECKED = (
    "tile_sector_energy",
    "epr_min_energy",
    "embedded_step_energy",
    "_pattern_demands",
    "_local_groups",
    "_solve_component",
    "_pairing_minimum",
    "_embedded_diag_dp",
    "ground_energy_search",
    "NumberingTable",
    "_tables",
    "_step_patterns",
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


def _trees(src):
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def _definitions(trees):
    """(module.name, node) of every top-level function and class."""
    for module, tree in trees.items():
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{d.name}", d


def unreferenced(src=SRC):
    """module.name of each top-level definition nothing else in src mentions;
    a mention in __init__.py is an export, not a use."""
    trees = _trees(src)
    users = [t for module, t in trees.items() if module != "__init__"]
    return [
        name
        for name, d in _definitions(trees)
        if not any(d.name in _names(t, skip=d) for t in users)
    ]


def independence_breaches(src=SRC, oracles=ORACLES, caller=ORACLE_CALLER, checked=CHECKED):
    """(definition, name) for each checked path an oracle's body mentions and
    for each oracle that a definition other than the oracles and caller
    mentions."""
    oracle_names = {o.split(".")[1] for o in oracles}
    out = []
    for name, d in _definitions(_trees(src)):
        if name == caller:
            continue
        banned = set(checked) if name in oracles else oracle_names
        out += [(name, n) for n in sorted(banned & set(_names(d)) - {d.name})]
    return out


def test_oracles_are_defined_and_otherwise_unused():
    # a stale entry would let a dead name through unnoticed
    found = sorted(n for n in unreferenced() if n in TEST_ONLY_ORACLES)
    assert sorted(TEST_ONLY_ORACLES) == found


def test_every_definition_is_used_exported_or_an_oracle():
    # an export counts as used only when it is listed as awaiting its caller
    listed = set(TEST_ONLY_ORACLES) | set(EXPORTS_AWAITING_A_CALLER)
    assert [n for n in unreferenced() if n not in listed] == []


def test_exports_awaiting_a_caller_are_exported_and_unreached():
    # a stale entry would exempt a name that is gone, unexported or used
    assert set(EXPORTS_AWAITING_A_CALLER) <= set(unreferenced())
    assert {n.split(".")[1] for n in EXPORTS_AWAITING_A_CALLER} <= set(rih.__all__)


def test_oracles_stay_independent_of_the_checked_paths():
    names = {name for name, _ in _definitions(_trees(SRC))}
    # a stale entry would leave a guard with nothing to guard
    assert set(ORACLES) | {ORACLE_CALLER} <= names
    assert independence_breaches() == []


def test_the_independence_guard_sees_a_planted_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def fast(x):\n    return x\n\n\n"
        "def oracle(x):\n    return fast(x)\n\n\n"
        "def caller(x):\n    return oracle(x) - fast(x)\n"
    )
    (tmp_path / "b.py").write_text(
        "import a\n\n\nclass Report:\n    def total(self, x):\n        return a.oracle(x)\n"
    )
    breaches = independence_breaches(tmp_path, ("a.oracle",), "a.caller", ("fast",))
    assert breaches == [("a.oracle", "fast"), ("b.Report", "oracle")]


def test_the_guard_sees_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef recursive(k):\n    return recursive(k - 1)\n"
    )
    (tmp_path / "b.py").write_text("from a import used\n\nclass Kept:\n    x = used()\n")
    assert unreferenced(tmp_path) == ["a.recursive", "b.Kept"]


def test_the_guard_does_not_count_an_export_as_a_use(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from a import exported, used\n\n__all__ = ['exported', 'used']\n"
    )
    (tmp_path / "a.py").write_text("def exported():\n    return 1\n\n\ndef used():\n    return 2\n")
    (tmp_path / "b.py").write_text("from a import used\n\nVALUE = used()\n")
    assert unreferenced(tmp_path) == ["a.exported"]


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer skips a name that is gone, and its metrics then go missing
    # from the run's result line; perfbench/tracing.py is only read here
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attributes in tracing.TARGETS:
        obj = importlib.import_module(f"rih.{module_name}")
        for part in attributes.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module_name}.{attributes}")
    assert missing == []
    stats = solver.ground_energy_search(LatticeSpec(1, 5)).stats
    assert [k for k in tracing.REPORT_COUNTS if k not in stats] == []
