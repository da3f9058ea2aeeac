"""Every public top-level name in the package has a user outside tests.

A public name (no leading underscore) defined at the top level of a module
in src/ecgsparse must be read somewhere in src/, demos/ or perfbench/
outside its own definition, as a bare name or as an attribute.  Functions
the bench tracer wraps by name (perfbench/tracing.py's TRACED) count as
read.  A name only tests read belongs in the tests.
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
