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


def calls(name: str) -> list[tuple[str, ast.Call]]:
    """(enclosing function, call) for every call of ``name`` in src/tosg, as a name or an attribute."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append((function, child))
            visit(child, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), "<module>")
    return found


def test_real_scalars_are_read_only_by_as_real():
    # matrix_game._as_real reads every real scalar, so a field is checked by
    # one rule: no other function reads a 0-dimensional _as_float_array.
    readers = set()
    for function, call in calls("_as_float_array"):
        (ndim,) = [*call.args[2:], *(k.value for k in call.keywords if k.arg == "ndim")]
        if not (isinstance(ndim, ast.Constant) and ndim.value in (1, 2)):
            readers.add(function)
    assert readers == {"_as_real"}


def test_only_the_ladder_loads_an_lp():
    # matrix_game._solve_lp is the one recovery ladder: every HiGHS model is
    # loaded there, so no solver grows a second ladder around its own load.
    assert [function for function, _ in calls("_load_lp")] == ["_solve_lp"]
