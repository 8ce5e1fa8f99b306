"""The public surface holds only what the program or an acceptance
criterion uses, so a helper that only its own unit tests call cannot stay
public unnoticed."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import dimspectra

ROOT = Path(__file__).resolve().parent.parent


def _names_read(path: Path) -> set[str]:
    """Bare names read in a module, each outside the body of the function
    it names (a recursive call does not count)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
    own = [
        node.id
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == fn.name
    ]
    for name in own:
        reads.remove(name)
    return set(reads)


def test_every_public_function_is_used_by_the_package_or_a_criterion():
    # Classes (result types and errors) are exempt.
    functions = [
        name for name in dimspectra.__all__ if inspect.isfunction(getattr(dimspectra, name))
    ]
    sources = [p for p in (ROOT / "src" / "dimspectra").glob("*.py") if p.name != "__init__.py"]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_names_read, sources))
    assert [name for name in functions if name not in used] == []


def _raised_names(path: Path) -> set[str]:
    """Names of the exception classes a module raises, called or bare."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_type_is_raised_by_the_package():
    # A typed error that nothing raises promises callers a failure mode
    # that cannot happen.
    src = ROOT / "src" / "dimspectra"
    tree = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*map(_raised_names, src.glob("*.py")))
    assert len(classes) > 1
    assert sorted(classes - {"DimspectraError"} - raised) == []


def test_solver_modules_run_no_generator_lanes():
    # The ladder, the b(a) and induce solves and the Legendre search hold
    # their lanes as arrays: no generator (a `yield`).
    for name in ("numerics", "pressure", "spectrum", "induced"):
        tree = ast.parse((ROOT / "src" / "dimspectra" / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert not isinstance(node, (ast.Yield, ast.YieldFrom)), (name, node.lineno)


def test_no_module_names_a_retired_path():
    # No module defines, imports, reads or looks up as an attribute the
    # functions that ran generator lanes, the scalar cylinder path that
    # `symbolic.word_rows` replaced (kept in tests/cylinder_oracle.py), or
    # the per-kind evaluators of a potential that level 1 of its table
    # replaced (`symbolic.potential_sup`, `pressure.pressure`).
    retired = {
        "_drive", "_lockstep", "_call_stacked", "Cylinder", "cylinder", "cylinders",
        "bounds", "closed_form_pressure", "log_deriv_bounds",
    }
    for path in sorted((ROOT / "src" / "dimspectra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("name", "asname", "id", "attr")}
            assert not names & retired, (path.name, ast.dump(node))


def test_no_module_reads_the_environment_or_starts_threads():
    # One reduction path: nothing in the package is chosen by an
    # environment variable, and no module runs a worker pool.
    banned = {"os.environ", "os.getenv", "concurrent.futures"}
    for path in sorted((ROOT / "src" / "dimspectra").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & banned, (path.name, node.lineno)


def _calls_by_function(path: Path, names: set[str]) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of each call to a function or
    method named in `names`; "<module>" for a call outside any function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.add((path.stem, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_one_function_writes_files():
    # Every artifact goes through cli._write_text, so directory creation,
    # encoding, line ends and the IoError are decided in one place.
    writers = set().union(*(
        _calls_by_function(path, {"write_text", "write_bytes", "open"})
        for path in (ROOT / "src" / "dimspectra").glob("*.py")
    ))
    assert writers == {("cli", "_write_text")}


def test_one_record_holds_an_enclosure():
    # Every solved number is an Enclosure or a subclass of it, so `width`
    # is defined once, and no other class declares float `lower` and
    # `upper` fields of its own.
    widths, bounded = set(), set()
    for path in (ROOT / "src" / "dimspectra").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(isinstance(f, ast.FunctionDef) and f.name == "width" for f in node.body):
                widths.add(node.name)
            floats = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and ast.unparse(stmt.annotation) == "float"
            }
            if {"lower", "upper"} <= floats:
                bounded.add(node.name)
    assert widths == bounded == {"Enclosure"}
