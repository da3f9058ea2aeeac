"""Every public top-level name and every optional parameter in the package
has a user outside tests.

A public name (no leading underscore) defined at the top level of a module
in src/ecgsparse must be read somewhere in src/, demos/ or perfbench/
outside its own definition, as a bare name or as an attribute.  Functions
the bench tracer wraps by name (perfbench/tracing.py's TRACED) count as
read.  Likewise, a call in those directories must pass each parameter with
a default of a public function or public class.  A name or a parameter
only tests use belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecgsparse"
USER_DIRS = ("src", "demos", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions():
    """(module, name, node) for each public top-level definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield path.stem, name, node


def _reads(tree):
    """How often each name is read in tree, as a bare name or an attribute."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
    return found


def _traced():
    for node in _parse(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {func for _, func in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_public_name_has_a_user_outside_tests():
    definitions = list(_public_definitions())
    assert len(definitions) > 50  # the scan sees the package
    reads = Counter()
    for top in USER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            reads += _reads(_parse(path))
    for _, name, node in definitions:  # a definition reading itself is no user
        reads[name] -= _reads(node)[name]
    traced = _traced()
    unused = sorted(f"{module}.{name}" for module, name, _ in definitions
                    if reads[name] <= 0 and name not in traced)
    assert unused == [], f"public names only tests use: {unused}"


# Parameters that tests may set though no other caller does.  encode_all's
# max_iter: tests reach its MaxIterationsError safety path only through a
# small cap.
PARAMETER_EXEMPTIONS = {"sparse_coding.encode_all.max_iter"}


def _optional_parameters(node):
    """(name, position) of each parameter with a default of a function, or
    of a class's explicit or dataclass __init__ with self left out; the
    position is None for a keyword-only parameter."""
    if isinstance(node, ast.ClassDef):
        init = [f for f in node.body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
        if init:
            return [(name, pos - 1) for name, pos in _optional_parameters(init[0])]
        if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            return []
        fields = [f for f in node.body
                  if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        return [(f.target.id, pos) for pos, f in enumerate(fields) if f.value is not None]
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, pos) for pos, a in enumerate(positional) if pos >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _sets(call, name, position):
    """Whether call passes the parameter: by keyword, by position, or
    through * or **."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or position is not None and (
                len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args)))


def test_every_optional_parameter_is_set_outside_tests():
    parameters = [(module, func, name, pos)
                  for module, func, node in _public_definitions()
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  for name, pos in _optional_parameters(node)]
    assert len(parameters) > 40  # the scan sees the package
    calls, values = {}, set()
    for top in USER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            tree = _parse(path)
            callees = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(callee, []).append(node)
                    callees.add(id(func))
            values |= {getattr(n, "id", None) or n.attr for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load) and id(n) not in callees}
    # a function read other than as a call's callee (make = f if ... else g)
    # may be called under another name, where the scan cannot see its calls
    unset = sorted(f"{module}.{func}.{name}" for module, func, name, pos in parameters
                   if func not in values
                   and not any(_sets(c, name, pos) for c in calls.get(func, ()))
                   and f"{module}.{func}.{name}" not in PARAMETER_EXEMPTIONS)
    assert unset == [], f"parameters only tests set: {unset}"
