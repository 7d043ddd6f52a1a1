"""Every public module-level function, class or constant (a name bound by an
assignment) of `src/eqpush`, and every public method of its classes, has a
user other than its own tests: `src/` computes and `tests/` checks, so a
name that only the tests use belongs in the tests.  A use is a Name node, an
Attribute node or a string constant (`exprparse` looks up `g2core` functions
by name, and the benchmark's tracer wraps functions by name) anywhere in
`src/` or `perfbench/` outside the definition itself."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _uses(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _defined_names(stmt) -> list:
    """The names a module-level statement defines: a def or class, or the
    names an assignment binds (tuple targets included)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]


def unused_public_definitions(root: str = ROOT) -> list:
    """`module.name` of each public module-level def, class or assigned name
    of `src/eqpush`, and `module.Class.name` of each public method of its
    classes, that nothing in `src/` or `perfbench/` outside its own
    definition uses."""
    statements = []  # (module, statement, names it uses)
    methods = []  # (module.Class, method); a class's other statements use it too
    for pattern in ("src/eqpush/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            module = os.path.splitext(os.path.basename(path))[0]
            from_src = os.path.basename(os.path.dirname(path)) == "eqpush"
            for stmt in tree.body:
                statements.append((module if from_src else None, stmt, _uses(stmt)))
                if from_src and isinstance(stmt, ast.ClassDef):
                    methods += [(f"{module}.{stmt.name}", item) for item in stmt.body
                                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for module, stmt, _ in statements:
        if module is None:
            continue
        for name in _defined_names(stmt):
            if name.startswith("_"):
                continue
            if not any(name in uses for _, other, uses in statements if other is not stmt):
                unused.append(f"{module}.{name}")
    units = [(item, _uses(item)) for _, stmt, _ in statements
             for item in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
    for owner, method in methods:
        if not method.name.startswith("_") and not any(
                method.name in uses for other, uses in units if other is not method):
            unused.append(f"{owner}.{method.name}")
    return unused


def test_every_public_definition_has_a_user_outside_the_tests():
    assert unused_public_definitions() == []
