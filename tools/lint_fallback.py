"""Offline approximation of the CI ruff rules (see pyproject.toml).

The CI ``lint`` lane runs real ``ruff check`` (pinned in
requirements-dev.txt).  Development containers for this repo have no
network access and no ruff wheel, so this script re-implements the
selected rule families over the AST — close enough to catch the
violations the lane would, with zero dependencies:

* E401  multiple imports on one line
* E711  comparison to None with ``==`` / ``!=``
* E712  comparison to True / False with ``==`` / ``!=``
* E722  bare ``except:``
* E731  lambda assigned to a name
* E741  ambiguous variable names (``l``, ``O``, ``I``)
* E9    syntax / indentation errors (via ``compile``)
* F401  imported but unused (module scope; ``__all__`` re-exports and
        explicit ``as``-self aliases count as used)
* F403  ``from x import *``
* F541  f-string without placeholders
* F632  ``is`` comparison against a literal
* F811  redefinition of an unused import
* F841  local variable assigned but never used (simple, per-function)
* F-821-lite  names loaded but never bound anywhere in the module
        (whole-file binding set: under-reports by design, so scoping
        subtleties cannot produce false positives)

Usage: ``python tools/lint_fallback.py [paths...]`` (default: src,
tests, benchmarks, tools, examples, bench — every tree CI's
``ruff check .`` covers).  Exits nonzero on any finding.  ``# noqa`` on the
offending line suppresses it, same as ruff.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools", "examples", "bench")

Finding = Tuple[str, int, str, str]  # path, line, code, message


def iter_py_files(paths: List[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def _noqa_lines(source: str) -> Set[int]:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if "# noqa" in line
    }


class _ModuleNames(ast.NodeVisitor):
    """Whole-file name accounting for the F-rule approximations."""

    def __init__(self) -> None:
        self.bound: Set[str] = set()
        self.loaded: Set[str] = set()
        self.star_import = False

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loaded.add(node.id)
        else:
            self.bound.add(node.id)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.bound.add((alias.asname or alias.name).split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name == "*":
                self.star_import = True
            else:
                self.bound.add(alias.asname or alias.name)

    def _bind_function(self, node) -> None:
        self.bound.add(node.name)
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.bound.add(arg.arg)
        self.generic_visit(node)

    visit_FunctionDef = _bind_function
    visit_AsyncFunctionDef = _bind_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.bound.add(arg.arg)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bound.add(node.name)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.bound.add(node.name)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.bound.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.bound.update(node.names)


def _module_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.add(element.value)
    return names


def _check_unused_imports(
    tree: ast.Module, names: _ModuleNames, path: str
) -> List[Finding]:
    findings: List[Finding] = []
    exported = _module_all(tree)
    seen_first: dict = {}
    # F811 only compares module-level imports: a function-local import
    # shadowing a module-level one is a different scope, not a
    # redefinition (matching ruff/pyflakes semantics).
    module_level = set()
    stack = list(tree.body)
    while stack:
        statement = stack.pop()
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            module_level.add(id(statement))
        elif isinstance(statement, (ast.If, ast.Try)):
            for body in (
                getattr(statement, "body", []),
                getattr(statement, "orelse", []),
                getattr(statement, "finalbody", []),
            ):
                stack.extend(body)
            for handler in getattr(statement, "handlers", []):
                stack.extend(handler.body)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [
                (alias, (alias.asname or alias.name).split(".")[0])
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            aliases = [
                (alias, alias.asname or alias.name)
                for alias in node.names
                if alias.name != "*"
            ]
        else:
            continue
        for alias, binding in aliases:
            redundant_alias = alias.asname is not None and (
                alias.asname == alias.name
            )
            used = (
                binding in names.loaded
                or binding in exported
                or binding == "__future__"
                or redundant_alias  # explicit re-export idiom
                or names.star_import
            )
            if not used:
                findings.append((
                    path, node.lineno, "F401",
                    f"{binding!r} imported but unused",
                ))
            if id(node) not in module_level:
                continue
            if binding in seen_first and binding not in names.loaded:
                pass  # already reported as unused above
            elif binding in seen_first:
                first = seen_first[binding]
                if first != node.lineno:
                    findings.append((
                        path, node.lineno, "F811",
                        f"redefinition of {binding!r} from line {first}",
                    ))
            else:
                seen_first[binding] = node.lineno
    return findings


class _FunctionLocals(ast.NodeVisitor):
    """F841: simple assigned-but-unused locals, one function at a time."""

    def __init__(self) -> None:
        self.findings: List[Tuple[int, str]] = []

    def _scan_function(self, node) -> None:
        assigned: dict = {}
        loaded: Set[str] = set()
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                # Nested scopes may close over anything: count every
                # name they mention as a use.
                for inner in ast.walk(child):
                    if isinstance(inner, ast.Name):
                        loaded.add(inner.id)
                continue
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load):
                    loaded.add(child.id)
                elif isinstance(child.ctx, ast.Store) and isinstance(
                    child.parent_stmt, ast.Assign
                ):
                    assigned.setdefault(child.id, child.lineno)
        for name, lineno in sorted(assigned.items(), key=lambda kv: kv[1]):
            if name not in loaded and not name.startswith("_"):
                self.findings.append((lineno, name))
        self.generic_visit(node)

    visit_FunctionDef = _scan_function
    visit_AsyncFunctionDef = _scan_function


def _annotate_parents(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    child.parent_stmt = getattr(
                        child, "parent_stmt", node
                    )


def check_file(path: Path) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    name = str(path)
    try:
        tree = ast.parse(source, filename=name)
        compile(source, name, "exec")
    except SyntaxError as exc:
        return [(name, exc.lineno or 0, "E9", f"syntax error: {exc.msg}")]
    noqa = _noqa_lines(source)
    findings: List[Finding] = []

    names = _ModuleNames()
    names.visit(tree)
    findings.extend(_check_unused_imports(tree, names, name))

    if not names.star_import:
        known = names.bound | set(dir(builtins)) | {
            "__file__", "__name__", "__doc__", "__package__", "__spec__",
            "__builtins__", "__debug__", "__loader__", "__path__",
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ) and node.id not in known:
                findings.append((
                    name, node.lineno, "F821",
                    f"undefined name {node.id!r}",
                ))

    _annotate_parents(tree)
    locals_check = _FunctionLocals()
    locals_check.visit(tree)
    for lineno, local in locals_check.findings:
        findings.append((
            name, lineno, "F841",
            f"local variable {local!r} is assigned to but never used",
        ))

    # Format specs ({x:<28}) parse as nested placeholder-less
    # JoinedStrs; they are not f-strings the user wrote.
    format_specs = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue)
        and node.format_spec is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and len(node.names) > 1:
            findings.append((
                name, node.lineno, "E401", "multiple imports on one line",
            ))
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "*" for alias in node.names
        ):
            findings.append((
                name, node.lineno, "F403", "star import",
            ))
        elif isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                literal_none = (
                    isinstance(comparator, ast.Constant)
                    and comparator.value is None
                )
                literal_bool = (
                    isinstance(comparator, ast.Constant)
                    and isinstance(comparator.value, bool)
                )
                if isinstance(op, (ast.Eq, ast.NotEq)) and literal_none:
                    findings.append((
                        name, node.lineno, "E711",
                        "comparison to None should be 'is None'",
                    ))
                if isinstance(op, (ast.Eq, ast.NotEq)) and literal_bool:
                    findings.append((
                        name, node.lineno, "E712",
                        "comparison to True/False should be 'is'",
                    ))
                if isinstance(op, (ast.Is, ast.IsNot)) and isinstance(
                    comparator, ast.Constant
                ) and isinstance(comparator.value, (str, int, float,
                                                    tuple, bytes)) \
                        and not isinstance(comparator.value, bool) \
                        and comparator.value is not None:
                    findings.append((
                        name, node.lineno, "F632",
                        "'is' comparison against a literal",
                    ))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append((name, node.lineno, "E722", "bare except"))
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Lambda
        ) and any(isinstance(target, ast.Name) for target in node.targets):
            # ruff's E731 only fires on plain-name targets, not attributes.
            findings.append((
                name, node.lineno, "E731",
                "lambda assigned to a name (use def)",
            ))
        elif isinstance(node, ast.JoinedStr) and id(
            node
        ) not in format_specs and not any(
            isinstance(part, ast.FormattedValue) for part in node.values
        ):
            findings.append((
                name, node.lineno, "F541", "f-string without placeholders",
            ))
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, ast.Store
        ) and node.id in {"l", "O", "I"}:
            findings.append((
                name, node.lineno, "E741",
                f"ambiguous variable name {node.id!r}",
            ))
    return [f for f in findings if f[1] not in noqa]


def main(argv: List[str]) -> int:
    paths = argv or [p for p in DEFAULT_PATHS if Path(p).exists()]
    findings: List[Finding] = []
    files = 0
    for path in iter_py_files(paths):
        files += 1
        findings.extend(check_file(path))
    findings.sort()
    for file_name, lineno, code, message in findings:
        print(f"{file_name}:{lineno}: {code} {message}")
    print(
        f"checked {files} files: "
        f"{len(findings)} finding(s)" if findings else
        f"checked {files} files: clean"
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
