"""Module boundaries inside the relaysynth package."""

import ast
import dataclasses
import inspect
from pathlib import Path

import relaysynth
from relaysynth import connectivity, steiner

PACKAGE = Path(relaysynth.__file__).resolve().parent


def _private_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("relaysynth"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield "%s:%d imports %s from %s" % (
                    path.name, node.lineno, alias.name, "." * node.level + module
                )


def test_no_module_imports_a_private_name_from_another():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert found == []


# Settings with one value in use are module constants, not parameters.
RETIRED_PARAMETERS = {
    "eps_geo", "node_cap", "max_rounds", "max_pivots", "cost_lo", "cost_hi", "scale",
    "max_steiner", "r_cap", "time_cap", "strict", "ks", "opt", "abstract",
    "hypergraph_budget", "grid_resolution", "extra_nodes", "accept", "with_duplicates",
    "candidate_depth", "max_candidates", "state_cap", "gap",
}
# Keyword pass-throughs that only ever forwarded nothing.
RETIRED_PASS_THROUGHS = {"caps", "backend_caps"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_function_takes_a_retired_parameter():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in RETIRED_PARAMETERS:
                        found.append("%s:%d %s" % (path.name, arg.lineno, arg.arg))
                if args.kwarg is not None and args.kwarg.arg in RETIRED_PASS_THROUGHS:
                    found.append("%s:%d **%s" % (path.name, args.kwarg.lineno, args.kwarg.arg))
            elif isinstance(node, ast.ClassDef):  # dataclass fields are settings too
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id in RETIRED_PARAMETERS
                    ):
                        found.append("%s:%d %s" % (path.name, stmt.lineno, stmt.target.id))
    assert found == []


def test_unit_disk_tolerance_is_read_in_two_modules_only():
    # instances.py owns the scalar predicates; steiner.py's numpy copy of them
    # is the one other reader.  __init__.py only re-exports the constant.
    readers = set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "EPS_GEO":
                readers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "EPS_GEO":
                readers.add(path.name)  # instances.EPS_GEO after `from . import instances`
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                if any(alias.name == "EPS_GEO" for alias in node.names):
                    readers.add(path.name)
    assert readers <= {"instances.py", "steiner.py"}


def test_the_copy_table_decides_k():
    # k = max(1, largest demand) is derived from the instance alone.
    assert list(inspect.signature(connectivity.copy_table).parameters) == ["instance"]


def test_the_copy_table_keeps_k_in_its_bounds_alone():
    # A pair's copy count is its free copies plus max_extra; no field repeats it.
    names = [f.name for f in dataclasses.fields(connectivity.CopyTable)]
    assert names == ["pair_cost", "max_extra", "base_caps"]


def test_the_scheme_has_one_setting():
    # The universe and the search bounds are module constants; k alone is set.
    names = [f.name for f in dataclasses.fields(steiner.SchemeConfig)]
    assert names == ["k"]


def test_tau_star_returns_its_vertex_per_pair():
    # The LP's own column per pair, not a per-copy expansion of it.
    names = [f.name for f in dataclasses.fields(connectivity.TauStarResult)]
    assert names == ["value", "bought", "cuts", "lp_solves", "pivots"]


def test_no_module_defines_a_twin_result_type():
    # The oracle returns a Hyperedge; both {0,1,2} backends return a BeadSolveResult.
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in {"OracleResult", "SnBackendResult"}
    ]
    assert found == []


def test_the_candidate_universe_stores_its_relation_once():
    # The unit-disk relation lives in the bitmask rows alone.
    names = [f.name for f in dataclasses.fields(steiner.CandidateUniverse)]
    assert names == ["points", "rows", "truncated"]


def test_a_violation_carries_its_biset_alone():
    # Every caller reads the witness biset; no cut lists ride along with it.
    names = [f.name for f in dataclasses.fields(connectivity.DemandViolation)]
    assert names == ["pair", "required", "achieved", "witness"]


# Module-level functions that no other function in the package calls, each
# kept for a reason the package itself cannot show.
UNCALLED_BY_DESIGN = {
    "main": "the console-script entry point that pyproject.toml names",
    "blocks": "the biconnected blocks, which no other function computes",
    "degree_reduce": "the paper's degree-reduction construction",
    "solve_min_cover": "the LP entry point that the benchmark traces",
}


def test_every_function_has_a_caller_in_the_package():
    # A name counts as used where another top-level statement of any module
    # but __init__.py reads it; a re-export alone is no caller.  The check is
    # by name, so a local variable that shadows a dead function hides it.
    functions = []
    reads = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((path.stem, stmt))
            reads.append((stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}))
    assert set(UNCALLED_BY_DESIGN) <= {stmt.name for _, stmt in functions}
    uncalled = [
        "%s.%s" % (module, stmt.name)
        for module, stmt in functions
        if stmt.name not in UNCALLED_BY_DESIGN
        and not any(stmt.name in read for other, read in reads if other is not stmt)
    ]
    assert uncalled == []
