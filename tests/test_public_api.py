"""Every public top-level name of the package is used by the program.

A name is used when some other top-level statement of ``src/``, or any file
under ``scripts/`` or ``perfbench/``, refers to it: as a name, an attribute,
an imported name, or a string equal to it (the benchmark's tracer looks
functions up by their names).  A public name that only the tests reach is
test-only API: delete it, or make it private, and port its tests.
"""

import ast
import contextlib
import io
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contamclt"


def _refs(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _statements():
    """(location, statement) for every top-level statement the program holds."""
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for index, stmt in enumerate(tree.body):
            yield (path, index), stmt


def test_every_public_name_is_used_by_the_program():
    statements = list(_statements())
    public = {name: where for where, stmt in statements if where[0].parent == PACKAGE
              for name in _defined(stmt) if not name.startswith("_")}
    assert {"replicate", "grid_walk", "ContaminationScheme", "SETTINGS"} <= set(public)
    # an export list names what it exports; it does not use it
    users: dict[str, set] = {}
    for where, stmt in statements:
        if "__all__" not in _defined(stmt):
            for name in _refs(stmt):
                users.setdefault(name, set()).add(where)
    unused = [f"{where[0].name}: {name}" for name, where in public.items()
              if not users.get(name, set()) - {where}]
    assert not unused, f"public names only the tests reach: {unused}"


def test_readme_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    _, estimate, bound, ks = out.getvalue().splitlines()
    for value in (estimate, bound):
        assert abs(float(value) - 2.0 / 7.0) <= 0.01
    assert 0.0 <= float(ks) <= 1.0
