import ast
from collections import Counter
from pathlib import Path

import tosg

SOURCES = sorted(Path(tosg.__file__).parent.glob("*.py"))


def references(node: ast.AST) -> Counter:
    """Names read under ``node``: loaded names, attribute names and imported names."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
    return found


def defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_private_name_is_used_in_the_package():
    # A private helper that only the tests call is dead code: its test tests
    # no path of the package.  Each module-level _name is read somewhere in
    # src/tosg outside its own definition.
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    total = sum((references(tree) for tree in trees.values()), Counter())
    private, unused = [], []
    for module, tree in trees.items():
        for statement in tree.body:
            inside = references(statement)
            for name in defined_names(statement):
                if name.startswith("_") and not name.startswith("__"):
                    private.append(name)
                    if total[name] == inside[name]:
                        unused.append(f"{module}:{name}")
    assert private
    assert unused == []
