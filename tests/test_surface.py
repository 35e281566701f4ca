"""Every public definition in the package, top-level or a method, is reached
by a checked-in caller, or is listed in ``KEPT`` with the reason it stays.

The walk is static: it parses ``src/twistzeta/*.py`` with ``ast`` and starts
at ``cli.main``, the module-level statements of ``cli.py``, the callers
``perfbench/child.py`` and ``tools/*.py`` (whole files), and the ``KEPT``
entries.  It follows every name a reached definition mentions, through the
package's own imports and through the callers' imports of it.  A method or
property of a reached class is reached when a reached definition or a caller
names that attribute; dunders, which include the dataclass hooks, always are.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twistzeta"
CALLERS = (ROOT / "perfbench" / "child.py", *sorted((ROOT / "tools").glob("*.py")))

# Public definitions no caller reaches, one reason each.  The walk also
# starts from these, so what they call needs no entry of its own.
KEPT = (
    ("traces.brute_force_toeplitz_trace", "windowed oracle of acceptance criterion 02"),
    ("operators.frac_power_integral_check", "quadrature check of acceptance criterion 09"),
    ("cli.report_from_json", "reader of the reports that --out writes"),
    ("cochain.CounterexampleReport.word_certificates", "read by acceptance criterion 04"),
)

# A top-level definition is (module, name); a method is (module, "Class.name").
Node = tuple[str, str]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _node(dotted: str) -> Node:
    module, name = dotted.split(".", 1)
    return module, name


def _parse_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _parse_callers() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in CALLERS
    }


def _imported_module(node: ast.ImportFrom) -> str | None:
    """Package module an import reads from; "" for the package itself."""
    if node.level == 1:
        return node.module or ""
    if node.module == "twistzeta":
        return ""
    if node.module and node.module.startswith("twistzeta."):
        return node.module.split(".", 1)[1]
    return None


def _imports(statements) -> tuple[dict[str, Node], dict[str, str]]:
    """Names imported from package modules, and package modules imported whole."""
    names: dict[str, Node] = {}
    mods: dict[str, str] = {}
    for stmt in statements:
        if not isinstance(stmt, ast.ImportFrom):
            continue
        source = _imported_module(stmt)
        if source is None:
            continue
        for alias in stmt.names:
            local = alias.asname or alias.name
            if source == "":
                mods[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return names, mods


def _top_level(tree: ast.Module) -> dict[str, ast.stmt]:
    defs: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (*_DEFS, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = stmt
    return defs


def _methods(cls: ast.ClassDef) -> dict[str, ast.stmt]:
    return {stmt.name: stmt for stmt in cls.body if isinstance(stmt, _DEFS)}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reachable(
    modules: dict[str, ast.Module],
    callers: dict[str, ast.Module],
    kept: bool = True,
) -> set[Node]:
    """Definitions and methods reached from the callers, and from ``KEPT`` if ``kept``."""
    definitions = {name: _top_level(tree) for name, tree in modules.items()}
    scopes = {name: _imports(tree.body) for name, tree in modules.items()}
    scopes.update({name: _imports(ast.walk(tree)) for name, tree in callers.items()})
    seen: set[Node] = set()
    attributes: set[str] = set()
    classes: list[tuple[str, ast.ClassDef]] = []
    pending: list[tuple[str, ast.AST]] = [(name, tree) for name, tree in callers.items()]
    pending += [
        ("cli", stmt)
        for stmt in modules["cli"].body
        if not isinstance(stmt, (*_DEFS, ast.ClassDef, ast.Import, ast.ImportFrom))
    ]

    def reach(module: str, name: str) -> None:
        owner, _, method = name.partition(".")
        stmt = definitions.get(module, {}).get(owner)
        if method:
            stmt = _methods(stmt).get(method) if isinstance(stmt, ast.ClassDef) else None
        if stmt is None or (module, name) in seen:
            return
        seen.add((module, name))
        if method or not isinstance(stmt, ast.ClassDef):
            pending.append((module, stmt))
            return
        classes.append((module, stmt))
        methods = _methods(stmt)
        pending.extend((module, part) for part in [*stmt.bases, *stmt.decorator_list])
        pending.extend((module, part) for part in stmt.body if part not in methods.values())
        for method_name in methods:
            if _is_dunder(method_name) or method_name in attributes:
                reach(module, f"{owner}.{method_name}")

    starts = [("cli", "main")]
    if kept:
        starts += [_node(dotted) for dotted, _ in KEPT]
    for module, name in starts:
        reach(module, name)
    while pending:
        module, tree = pending.pop()
        names, mods = scopes[module]
        local = definitions.get(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id in local:
                    reach(module, node.id)
                elif node.id in names:
                    reach(*names[node.id])
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in mods:
                    reach(mods[node.value.id], node.attr)
                if node.attr not in attributes:
                    attributes.add(node.attr)
                    for home, cls in list(classes):
                        if node.attr in _methods(cls):
                            reach(home, f"{cls.name}.{node.attr}")
    return seen


def _public_definitions(modules: dict[str, ast.Module]) -> set[Node]:
    public: set[Node] = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (*_DEFS, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_"):
                public.add((module, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                public.update(
                    (module, f"{stmt.name}.{name}")
                    for name in _methods(stmt)
                    if not name.startswith("_")
                )
    return public


def test_public_surface_is_reachable_from_the_cli():
    modules = _parse_modules()
    unreachable = _public_definitions(modules) - _reachable(modules, _parse_callers())
    dead = sorted(f"{module}.{name}" for module, name in unreachable)
    assert not dead, f"public definitions no caller reaches: {', '.join(dead)}"


def test_kept_entries_are_public_definitions_no_command_reaches():
    modules = _parse_modules()
    public = _public_definitions(modules)
    from_callers = _reachable(modules, _parse_callers(), kept=False)
    names = [dotted for dotted, _ in KEPT]
    assert len(set(names)) == len(names)
    for dotted, reason in KEPT:
        assert _node(dotted) in public, f"{dotted} is not a public definition"
        assert _node(dotted) not in from_callers, f"{dotted} is reachable and needs no entry"
        assert reason
