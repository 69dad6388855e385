"""The package holds only code that the `discoplan` command reaches.

Names are followed with `ast` from `cli.cli_main` and `cli.entry` (the
console script and `python -m discoplan`), and from the statements each
module runs when it is imported. A name reaches the top-level function,
class or assignment it is bound to in its module, through any chain of
`from .module import name`; a reached class reaches everything in its body.
Annotations are types only and reach nothing. Code that only tests use
belongs in `tests/`, except the names kept below, each with its reason.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "discoplan"

KEPT = {
    ("oracle", "execute"): "bench/layers.py traces it as oracle.execute",
    ("oracle", "ExecutionTrace"): "what the traced `execute` returns",
    ("oracle", "TraceEntry"): "one step of the traced `execute`",
    ("oracle", "_holds"): "the traced `execute` tests preconditions with it",
    ("oracle", "_progress"): "the traced `execute` applies effects with it",
    ("language", "serialize_domain"): "criterion 7 names the parse/serialize round trip",
    ("language", "serialize_problem"): "criterion 7 names the parse/serialize round trip",
    ("language", "_binding_text"): "the round trip's serializers write bindings with it",
}


def _used_names(node: ast.AST) -> set[str]:
    """Every name `node` reads, leaving out annotations."""
    names: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            names.add(n.id)
        for field, value in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)
    return names


def _graph():
    """The top-level definitions of every module as `(module, name)` keys, the
    keys each one uses, and the keys used by import-time statements."""
    uses: dict[tuple[str, str], set[tuple[str, str]]] = {}
    definitions: set[tuple[str, str]] = set()
    roots: set[tuple[str, str]] = set()
    for path in SRC.glob("*.py"):
        module = path.stem
        imported: dict[str, tuple[str, str]] = {}
        bodies: dict[str, ast.AST | None] = {}
        run_on_import: list[ast.stmt] = []
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    imported[alias.asname or alias.name] = (stmt.module, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies[stmt.name] = stmt
                definitions.add((module, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            bodies[n.id] = stmt.value
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                run_on_import.append(stmt)
        names = {name: (module, name) for name in (*imported, *bodies)}

        def resolve(node) -> set[tuple[str, str]]:
            return {names[n] for n in _used_names(node) if n in names} if node else set()

        for name, target in imported.items():
            uses[module, name] = {target}
        for name, node in bodies.items():
            uses[module, name] = resolve(node)
        for stmt in run_on_import:
            roots |= resolve(stmt)
    return uses, definitions, roots


def _reached(uses, roots) -> set[tuple[str, str]]:
    seen: set[tuple[str, str]] = set()
    stack = list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(uses.get(key, ()))
    return seen


def test_every_definition_is_reached_from_the_cli():
    uses, definitions, roots = _graph()
    reached = _reached(uses, roots | {("cli", "cli_main"), ("cli", "entry")})
    unreached = definitions - reached
    assert sorted(unreached - KEPT.keys()) == []
    # A kept name the CLI now reaches, or one that is gone, leaves the list.
    assert sorted(KEPT.keys() - unreached) == []
