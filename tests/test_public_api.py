"""Every public module-level function, class or constant (a name bound by an
assignment) of `src/eqpush`, and every public method of its classes, has a
user other than its own tests: `src/` computes and `tests/` checks, so a
name that only the tests use belongs in the tests.  A use is a Name node, an
Attribute node or a string constant (`exprparse` looks up `g2core` functions
by name, and the benchmark's tracer wraps functions by name) anywhere in
`src/` or `perfbench/` outside the definition itself.

Every defaulted parameter of a function or method of `src/eqpush` is set by
some call in `src/` or `perfbench/`: a default that no call overrides is a
knob that nothing turns, and belongs in the body.  And some call relies on
each default of a private function or method: a private default that every
call overrides is dead, and the parameter should have none.

No function of `src/eqpush` changes a container bound to a module-level
name, and no method but `__init__` changes a container on `self`, by a
mutating method call or by assigning or deleting a subscript: a memo is a
`functools.lru_cache`, not a hand-rolled table.

The G2 modules `g2` and `cohomology` compute the Grassmannian pairing in
closed form and import nothing from `residue`: the residue kernel runs only
in `spaces`.

Every value class of `src/eqpush` (a subclass of `algebra.Frozen`) lists its
fields in `_fields`, each of them a slot, and takes equality and hashing
from `Frozen`: it defines no `_key`, `__eq__` or `__hash__` of its own.

Terms are added into a dict, cancelling sums deleted, by `algebra.add_terms`
alone: no other function of `src/eqpush` assigns `d[k] = d.get(k, 0) + ...`
or stores a sum in one branch of an `if` and deletes the key in the other.
The only exceptions are the two loops on packed int keys, whose zeros are
dropped once after all the adds (`_packed_product`, and
`residue._add_shifted`, through which the residue kernel forms every sum);
the heap division subtracts through `add_terms` as well."""

import ast
import glob
import importlib
import os
import pkgutil

import eqpush
from eqpush.algebra import Frozen

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


def _modules(root: str):
    """(module name, syntax tree) of each file of `src/eqpush`, then (None,
    syntax tree) of each file of `perfbench/`."""
    for pattern in ("src/eqpush/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            from_src = os.path.basename(os.path.dirname(path)) == "eqpush"
            yield (os.path.splitext(os.path.basename(path))[0] if from_src else None), tree


def unused_public_definitions(root: str = ROOT) -> list:
    """`module.name` of each public module-level def, class or assigned name
    of `src/eqpush`, and `module.Class.name` of each public method of its
    classes, that nothing in `src/` or `perfbench/` outside its own
    definition uses."""
    statements = []  # (module, statement, names it uses)
    methods = []  # (module.Class, method); a class's other statements use it too
    for module, tree in _modules(root):
        for stmt in tree.body:
            statements.append((module, stmt, _uses(stmt)))
            if module and isinstance(stmt, ast.ClassDef):
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


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _knobs(root: str):
    """(`module.function(parameter)`, the function's name, whether each call
    sets it) for each defaulted parameter of a function or method of
    `src/eqpush`, private ones included, over the calls in `src/` and
    `perfbench/`.  A call is matched on the name it calls, a call to a class
    standing for its `__init__`; it sets a parameter by keyword or by
    position (a method's `self` is not counted), and a starred argument sets
    every parameter."""
    functions = []  # (module, names a call may use, the def, whether self comes first)
    calls = {}  # callee name -> [(positional count, keywords, starred)]
    for module, tree in _modules(root):
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[id(item)] = node.name
            elif isinstance(node, ast.Call):
                keywords = {k.arg for k in node.keywords}
                starred = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(_callee(node), []).append((len(node.args), keywords, starred))
        for node in ast.walk(tree) if module else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = methods.get(id(node))
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                names = {node.name} | ({owner} if owner and node.name == "__init__" else set())
                functions.append((module, names, node, owner is not None and not static))
    for module, names, func, bound in functions:
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        knobs = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
        knobs += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        sites = [site for name in names for site in calls.get(name, ())]
        for position, name in knobs:
            yield f"{module}.{func.name}({name})", func.name, [
                starred or name in keywords or position is not None and position < count
                for count, keywords, starred in sites]


def unset_knobs(root: str = ROOT) -> list:
    """Each defaulted parameter that no call sets."""
    return [knob for knob, _, sets in _knobs(root) if not any(sets)]


def overridden_private_defaults(root: str = ROOT) -> list:
    """Each defaulted parameter of a private function or method that every
    call sets, so that no call relies on its default."""
    return [knob for knob, function, sets in _knobs(root)
            if function.startswith("_") and sets and all(sets)]


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unset_knobs() == []


def test_every_private_default_is_relied_on_by_some_call():
    assert overridden_private_defaults() == []


def test_knob_scan_reports_a_default_no_call_sets(tmp_path):
    os.makedirs(tmp_path / "src" / "eqpush")
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "src" / "eqpush" / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, a, b=1):\n"
        "        pass\n"
        "    def scaled(self, c=2, *, d=3):\n"
        "        pass\n"
        "def free(x, verbose=False, limit=None):\n"
        "    return Box(x, 2).scaled(d=4)\n")
    (tmp_path / "perfbench" / "bench.py").write_text("free(*args)\n")
    assert unset_knobs(str(tmp_path)) == ["mod.scaled(c)"]
    (tmp_path / "perfbench" / "bench.py").write_text("free(1, limit=2)\n")
    assert sorted(unset_knobs(str(tmp_path))) == ["mod.free(verbose)", "mod.scaled(c)"]


def test_default_scan_reports_a_private_default_every_call_sets(tmp_path):
    os.makedirs(tmp_path / "src" / "eqpush")
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "src" / "eqpush" / "mod.py").write_text(
        "class _Box:\n"
        "    def _scaled(self, c=2, *, d=3):\n"
        "        pass\n"
        "def _step(x, zero=True, limit=None):\n"
        "    return _Box()._scaled(5, d=4)\n"
        "def public(x, verbose=False):\n"
        "    return _step(x, False, limit=1)\n")
    (tmp_path / "perfbench" / "bench.py").write_text("public(1, True)\n_step(2, True)\n")
    assert sorted(overridden_private_defaults(str(tmp_path))) == [
        "mod._scaled(c)", "mod._scaled(d)", "mod._step(zero)"]
    (tmp_path / "perfbench" / "bench.py").write_text("_step(*args)\n_Box()._scaled()\n")
    assert sorted(overridden_private_defaults(str(tmp_path))) == ["mod._step(limit)", "mod._step(zero)"]


_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "update",
             "setdefault", "clear", "add", "discard", "sort", "reverse"}


def _changed_containers(unit, shared: set, me) -> list:
    """The containers that the function `unit` changes, by a mutating method
    call or an assigned or deleted subscript: each name in `shared`, and each
    `self` attribute when `me`, the name of `self`, is given."""
    out = set()
    for node in ast.walk(unit):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _MUTATORS:
            target = node.func.value
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id in shared:
            out.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id == me:
            out.add(f"{me}.{target.attr}")
    return sorted(out)


def _locals(func) -> set:
    """The parameters of func and the names it binds, less its `global` names."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return bound - declared


def mutated_state(root: str = ROOT) -> list:
    """`module.function(name)` for each module-level container that a function
    or method of `src/eqpush` changes, and `module.Class.method(self.attr)`
    for each `self` container that a method other than `__init__` changes."""
    hits = []
    for module, tree in _modules(root):
        if module is None:
            continue
        names = {name for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                 for name in _defined_names(stmt)}
        units = []  # (qualified name, the def, the name of self or None)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units.append((stmt.name, stmt, None))
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        args = item.args.posonlyargs + item.args.args
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        me = args[0].arg if args and not static and item.name != "__init__" \
                            else None
                        units.append((f"{stmt.name}.{item.name}", item, me))
        hits += [f"{module}.{qualname}({name})" for qualname, unit, me in units
                 for name in _changed_containers(unit, names - _locals(unit), me)]
    return hits


def test_no_function_changes_shared_state():
    assert mutated_state() == []


def test_state_scan_reports_a_hand_rolled_memo(tmp_path):
    os.makedirs(tmp_path / "src" / "eqpush")
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "src" / "eqpush" / "mod.py").write_text(
        "_ROWS = [1]\n"
        "_SEEN: dict = {}\n"
        "_ROWS.append(2)\n"
        "def grow(m):\n"
        "    while len(_ROWS) <= m:\n"
        "        _ROWS.append(m)\n"
        "    return _ROWS[m]\n"
        "def remember(k, v):\n"
        "    _SEEN[k] = v\n"
        "def shadowed(k):\n"
        "    _SEEN = {}\n"
        "    _SEEN[k] = 1\n"
        "    out = []\n"
        "    out.append(k)\n"
        "    return _SEEN, out\n"
        "def rebound(k):\n"
        "    global _SEEN\n"
        "    _SEEN = _SEEN or {}\n"
        "    _SEEN.setdefault(k, 1)\n"
        "class Calc:\n"
        "    def __init__(self):\n"
        "        self.values = {}\n"
        "        self.values.update(a=1)\n"
        "        self.pos = 0\n"
        "    def value(self, k):\n"
        "        self.pos += 1\n"
        "        self.width = k\n"
        "        got = self.values.get(k)\n"
        "        if got is None:\n"
        "            got = self.values[k] = k\n"
        "        return got\n"
        "    def forget(self, k):\n"
        "        del self.values[k]\n"
        "        self.log.setdefault(k, []).append(k)\n")
    assert mutated_state(str(tmp_path)) == [
        "mod.grow(_ROWS)", "mod.remember(_SEEN)", "mod.rebound(_SEEN)",
        "mod.Calc.value(self.values)",
        "mod.Calc.forget(self.log)", "mod.Calc.forget(self.values)"]


def value_class_faults() -> list:
    """`Class._fields` for each value class of `src/eqpush` whose `_fields`
    is empty or names a field that is not one of its slots, and `Class.name`
    for each `_key`, `__eq__` or `__hash__` that a value class defines."""
    for module in pkgutil.iter_modules(eqpush.__path__):
        importlib.import_module(f"eqpush.{module.name}")
    faults = []
    for cls in Frozen.__subclasses__():
        if not cls.__module__.startswith("eqpush."):
            continue
        fields = cls.__dict__.get("_fields", ())
        if not fields or not set(fields) <= set(cls.__dict__.get("__slots__", ())):
            faults.append(f"{cls.__name__}._fields")
        faults += [f"{cls.__name__}.{name}" for name in ("_key", "__eq__", "__hash__")
                   if name in cls.__dict__]
    return sorted(faults)


def test_every_value_class_is_built_from_its_field_list():
    assert value_class_faults() == []


def imported_modules(tree) -> set:
    """The dotted names of the modules an `eqpush` module's syntax tree imports
    from, relative imports resolved against the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "eqpush" + (f".{node.module}" if node.module else "") if node.level \
                else node.module
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def residue_importers(root: str = ROOT) -> list:
    """Each of `g2` and `cohomology` that imports from `eqpush.residue`."""
    return [module for module, tree in _modules(root) if module in ("g2", "cohomology")
            and "eqpush.residue" in imported_modules(tree)]


def test_g2_modules_import_nothing_from_the_residue_kernel():
    assert residue_importers() == []


def test_residue_import_scan_reports_each_form_of_import(tmp_path):
    os.makedirs(tmp_path / "src" / "eqpush")
    os.makedirs(tmp_path / "perfbench")
    for module, line in [("g2", "from .residue import iterated_residue"),
                         ("cohomology", "from . import residue"),
                         ("spaces", "from .residue import PreparedForm")]:
        (tmp_path / "src" / "eqpush" / f"{module}.py").write_text(line + "\n")
    assert residue_importers(str(tmp_path)) == ["cohomology", "g2"]
    (tmp_path / "src" / "eqpush" / "g2.py").write_text("import eqpush.residue as kernel\n")
    (tmp_path / "src" / "eqpush" / "cohomology.py").write_text("from .spaces import log\n")
    assert residue_importers(str(tmp_path)) == ["g2"]


ACCUMULATORS = {"algebra.add_terms", "algebra._packed_product", "residue._add_shifted"}


def _accumulates(unit) -> bool:
    """Whether the function `unit` adds into a dict by hand: an assignment
    `d[k] = <get call> + ...` (or `-`), or an `if` that assigns `d[...]` in
    one branch and deletes from d (`del d[...]` or `d.pop(...)`) in the other."""
    def stored(stmts):
        return {ast.dump(t.value) for s in stmts if isinstance(s, ast.Assign)
                for t in s.targets if isinstance(t, ast.Subscript)}

    def deleted(stmts):
        out = {ast.dump(t.value) for s in stmts if isinstance(s, ast.Delete)
               for t in s.targets if isinstance(t, ast.Subscript)}
        return out | {ast.dump(s.value.func.value) for s in stmts
                      if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
                      and isinstance(s.value.func, ast.Attribute) and s.value.func.attr == "pop"}

    for node in ast.walk(unit):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp) \
                and isinstance(node.value.op, (ast.Add, ast.Sub)) \
                and any(isinstance(t, ast.Subscript) for t in node.targets) \
                and any(isinstance(side, ast.Call) and _callee(side) == "get"
                        for side in (node.value.left, node.value.right)):
            return True
        if isinstance(node, ast.If) and (stored(node.body) & deleted(node.orelse)
                                         or stored(node.orelse) & deleted(node.body)):
            return True
    return False


def hand_rolled_accumulations(root: str = ROOT) -> list:
    """`module.function` or `module.Class.method` of each function of
    `src/eqpush` outside ACCUMULATORS that adds into a dict by hand."""
    hits = []
    for module, tree in _modules(root):
        if module is None:
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                units = [(f"{stmt.name}.{item.name}", item) for item in stmt.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                units = [(stmt.name, stmt)]
            else:
                continue
            hits += [f"{module}.{name}" for name, unit in units
                     if f"{module}.{name}" not in ACCUMULATORS and _accumulates(unit)]
    return hits


def test_terms_are_added_by_add_terms_alone():
    assert hand_rolled_accumulations() == []


def test_accumulation_scan_reports_each_hand_rolled_form(tmp_path):
    os.makedirs(tmp_path / "src" / "eqpush")
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "src" / "eqpush" / "algebra.py").write_text(
        "def add_terms(acc, terms):\n"
        "    for k, c in terms:\n"
        "        acc[k] = acc.get(k, 0) + c\n")
    (tmp_path / "src" / "eqpush" / "mod.py").write_text(
        "def add_terms(acc, terms):\n"
        "    for k, c in terms:\n"
        "        acc[k] = acc.get(k, 0) + c\n"
        "def bound_get(acc, terms):\n"
        "    get = acc.get\n"
        "    for k, c in terms:\n"
        "        acc[k] = get(k, 0) - c\n"
        "class Sum:\n"
        "    def cancel(self, acc, k, c):\n"
        "        s = acc.get(k, 0) + c\n"
        "        if s == 0:\n"
        "            del acc[k]\n"
        "        else:\n"
        "            acc[k] = s\n"
        "    def popped(self, acc, k, s):\n"
        "        if s:\n"
        "            acc[k] = s\n"
        "        else:\n"
        "            acc.pop(k)\n"
        "def lookups(acc, out, k, c):\n"
        "    acc[k] = acc.get(k, 0)\n"
        "    total = acc.get(k, 0) + c\n"
        "    if total:\n"
        "        acc[k] = total\n"
        "    else:\n"
        "        del out[k]\n")
    assert hand_rolled_accumulations(str(tmp_path)) == [
        "mod.add_terms", "mod.bound_get", "mod.Sum.cancel", "mod.Sum.popped"]
