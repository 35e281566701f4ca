"""Every public top-level def or class in the package is reachable from the
command line, or is listed in ``KEPT`` with the reason it stays.

The walk is static: it parses ``src/twistzeta/*.py`` with ``ast``, starts at
``cli.main``, the module-level statements of ``cli.py`` and the ``KEPT``
entries, and follows every name a reached definition mentions, through the
package's own imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistzeta"

# Public definitions the command line does not reach, one reason each.  The
# walk also starts from these, so what they call needs no entry of its own.
KEPT = (
    ("traces.brute_force_toeplitz_trace", "windowed oracle of the Toeplitz closed form"),
    ("ckalg.elements_equal", "operator-equality oracle of the CK multiplication"),
    ("cochain.square_modulus_iterate", "dense oracle of the collapsed square iterate"),
    ("cli.report_from_json", "reader of the reports that --out writes"),
    ("operators.frac_power_integral_check", "quadrature check of acceptance criterion 09"),
    ("words.settling_tail_count", "evaluates settling_species, checked by enumeration"),
    ("words.basis_extension_count", "evaluates extension_species, checked by enumeration"),
    ("circle.dirac_commutator", "criterion 06 commutator norms and the benchmark"),
    ("circle.twisted_dirac_commutator", "criterion 06 commutator norms and the benchmark"),
    ("circle.log_dirac_commutator", "criterion 06 commutator norms and the benchmark"),
    ("circle.inner_block", "criterion 06 commutator norms and the benchmark"),
    ("circle.circle_zeta_value", "test-only; no command exposes the circle zeta yet"),
    ("circle.circle_zeta_poles", "test-only; no command exposes the circle zeta yet"),
    ("damp.exponentiate", "test-only; no command runs the exponential twist yet"),
    ("damp.invertible_amplification", "test-only; no command runs the doubling yet"),
    ("damp.beta_log_transform", "test-only; no command sweeps the dampening exponent"),
    ("higher_order.eps_bounded_norm", "test-only; order_sweep inlines the weight"),
)

Node = tuple[str, str]


def _node(dotted: str) -> Node:
    module, name = dotted.split(".")
    return module, name


def _parse_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
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


def _scopes(modules: dict[str, ast.Module]):
    """Per module: top-level definitions by name, imported names, module aliases."""
    definitions: dict[str, dict[str, ast.stmt]] = {}
    imported: dict[str, dict[str, Node]] = {}
    aliases: dict[str, dict[str, str]] = {}
    for name, tree in modules.items():
        defs, names, mods = {}, {}, {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[target.id] = stmt
            elif isinstance(stmt, ast.ImportFrom):
                source = _imported_module(stmt)
                if source is None:
                    continue
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if source == "":
                        mods[local] = alias.name
                    else:
                        names[local] = (source, alias.name)
        definitions[name], imported[name], aliases[name] = defs, names, mods
    return definitions, imported, aliases


def _reachable(modules: dict[str, ast.Module], kept: bool = True) -> set[Node]:
    """Definitions reached from the command line, and from ``KEPT`` if ``kept``."""
    definitions, imported, aliases = _scopes(modules)
    roots = [
        stmt
        for stmt in modules["cli"].body
        if not isinstance(
            stmt,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom),
        )
    ]
    starts = {("cli", "main")}
    if kept:
        starts |= {_node(dotted) for dotted, _ in KEPT}
    seen: set[Node] = set(starts)
    pending: list[tuple[str, ast.AST]] = [("cli", stmt) for stmt in roots]
    pending += [
        (module, definitions[module][name])
        for module, name in starts
        if name in definitions.get(module, {})
    ]
    while pending:
        module, tree = pending.pop()
        for node in ast.walk(tree):
            targets: list[Node] = []
            if isinstance(node, ast.Name):
                if node.id in definitions[module]:
                    targets.append((module, node.id))
                elif node.id in imported[module]:
                    targets.append(imported[module][node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = aliases[module].get(node.value.id)
                if owner is not None:
                    targets.append((owner, node.attr))
            for target in targets:
                home, name = target
                if target in seen or name not in definitions.get(home, {}):
                    continue
                seen.add(target)
                pending.append((home, definitions[home][name]))
    return seen


def _public_definitions(modules: dict[str, ast.Module]) -> set[Node]:
    return {
        (module, stmt.name)
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
    }


def test_public_surface_is_reachable_from_the_cli():
    modules = _parse_modules()
    unreachable = _public_definitions(modules) - _reachable(modules)
    dead = sorted(f"{module}.{name}" for module, name in unreachable)
    assert not dead, f"public definitions no command reaches: {', '.join(dead)}"


def test_kept_entries_are_public_definitions_no_command_reaches():
    modules = _parse_modules()
    public = _public_definitions(modules)
    from_cli = _reachable(modules, kept=False)
    names = [dotted for dotted, _ in KEPT]
    assert len(set(names)) == len(names)
    for dotted, reason in KEPT:
        assert _node(dotted) in public, f"{dotted} is not a public definition"
        assert _node(dotted) not in from_cli, f"{dotted} is reachable and needs no entry"
        assert reason
