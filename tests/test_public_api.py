"""Every public module-level function or class of `src/eqpush` has a user
other than its own tests: `src/` computes and `tests/` checks, so a name that
only the tests call belongs in the tests.  A use is a Name node, an Attribute
node or a string constant (`exprparse` looks up `g2core` functions by name,
and the benchmark's tracer wraps functions by name) anywhere in `src/` or
`perfbench/` outside the definition itself."""

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


def unused_public_definitions(root: str = ROOT) -> list:
    """`module.name` of each public module-level def or class of
    `src/eqpush` that nothing in `src/` or `perfbench/` outside its own
    definition uses."""
    statements = []  # (module, statement, names it uses)
    for pattern in ("src/eqpush/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            module = os.path.splitext(os.path.basename(path))[0]
            from_src = os.path.basename(os.path.dirname(path)) == "eqpush"
            for stmt in tree.body:
                statements.append((module if from_src else None, stmt, _uses(stmt)))
    unused = []
    for module, stmt, _ in statements:
        if module is None or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_"):
            continue
        if not any(stmt.name in uses for _, other, uses in statements if other is not stmt):
            unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_public_definition_has_a_user_outside_the_tests():
    assert unused_public_definitions() == []
