"""Checks on the library source itself."""

import ast
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "fsing").glob("*.py"))
MODULES = {path.stem for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_global_statement(path):
    # process-global mutable state is kept out: a cap or memo lives in a
    # context variable or in the object that owns it
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert lines == [], f"{path.name} has a global statement at line(s) {lines}"


def is_field_call(node):
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "field"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dataclass_field_outside_init(path):
    # a field no constructor sets is a memo on a value type; a memo belongs
    # to the object of the call that reuses it
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and is_field_call(node)
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in node.keywords
        )
    ]
    assert lines == [], f"{path.name} declares a field(init=False) at line(s) {lines}"


def imported_modules(node):
    """The modules of the package that one import statement imports."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.split(".")[0] == "fsing"]
        return {name.split(".")[1] if "." in name else "__init__" for name in names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    module = node.module or ""
    if not node.level:
        if module.split(".")[0] != "fsing":
            return set()
        module = module.partition(".")[2]
    if module:
        return {module.split(".")[0]}
    # from . import name: a module, or a name of the package
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def package_imports(path):
    """The modules of the package that `path` imports, anywhere in its tree."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return set().union(*map(imported_modules, ast.walk(tree)))


def import_time_imports(path):
    """The modules of the package that `path` imports outside any function,
    so on its own import."""
    out = set()
    todo = list(ast.parse(path.read_text(), filename=str(path)).body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out |= imported_modules(node)
            todo.extend(ast.iter_child_nodes(node))
    return out


def test_package_imports_are_acyclic():
    # the modules form layers; a cycle, even one closed by an import inside a
    # function, would let a lower module lean on a higher one
    graph = {path.stem: package_imports(path) for path in SOURCES}
    assert graph["listmod"] >= {"modgb", "frobenius"} and "testideal" not in graph["listmod"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle in src/fsing: {' -> '.join(exc.args[1])}")


# The layers every subcommand runs; the others load when first used.
EAGER = {"errors", "polyring", "modgb", "frobenius"}


def lazy_table(init):
    """name -> module of the package's `_LAZY` table, read from its source."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_LAZY"]:
            return ast.literal_eval(node.value)
    pytest.fail("src/fsing/__init__.py has no _LAZY table")


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_entry_points_import_only_the_eager_layers(name):
    # the package and the CLI import the test-ideal, rational, list-module and
    # b-function layers only inside functions or through the lazy table, so
    # `import fsing` and `fsing tau` do not load the list and b-function code
    assert import_time_imports(REPO / "src" / "fsing" / name) <= EAGER


def unused_imports(path):
    """(line, name) of each module-level import of `path` that nothing uses,
    skipping `__future__` imports and lines marked `# noqa: F401`."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_no_unused_imports(path):
    # an import left behind when its last use moves elsewhere
    assert unused_imports(path) == [], f"{path.name} imports names it does not use"


def private_definitions(tree):
    """(line, name) of each private function, method or class defined in `tree`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__")
    ]


def referenced_names(tree):
    """Every name `tree` reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def test_no_unreferenced_private_names():
    # a private helper whose last caller went away in a refactor; a
    # definition is not a reference, so the name must be read somewhere
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = set().union(*map(referenced_names, trees.values()))
    unused = [
        f"{name}:{line} {defined}"
        for name, tree in trees.items()
        for line, defined in private_definitions(tree)
        if defined not in used
    ]
    assert unused == [], f"private names nothing in src/fsing references: {unused}"


def test_every_export_has_a_use():
    # a public name that no library path uses is kept only for users, and
    # README says so; one that neither uses is dead code
    init = REPO / "src" / "fsing" / "__init__.py"
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ] + list(lazy_table(init))
    used = set().union(*(
        referenced_names(ast.parse(path.read_text(), filename=str(path)))
        for path in SOURCES if path != init
    ))
    readme = (REPO / "README.md").read_text()
    named = {word for span in re.findall(r"`([^`]*)`", readme) for word in re.findall(r"\w+", span)}
    unused = [name for name in exported if name not in used | named]
    assert unused == [], f"fsing exports that src/fsing and README.md never use: {unused}"


def public_functions(tree):
    """(qualified name, function node, whether a call passes self) of each
    public module-level function and each public method of a public class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    decorators = {getattr(d, "id", None) for d in sub.decorator_list}
                    out.append((f"{node.name}.{sub.name}", sub, "staticmethod" not in decorators))
    return out


def defaulted_parameters(fn, bound):
    """(name, index among a call's positional arguments, or None) of each
    parameter of `fn` with a default; `bound` skips self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def sets_parameter(call, name, index):
    """Whether `call` may set the parameter by keyword or by position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_set_somewhere():
    # a knob no library path turns is code kept for a caller that does not
    # exist; one kept for users is named in README's documented signatures
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    readme = (REPO / "README.md").read_text()
    spans = re.findall(r"`([^`]*)`", readme)
    unset = []
    for path, tree in zip(SOURCES, trees):
        for qualified, fn, bound in public_functions(tree):
            mine = [
                call for call in calls
                if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == fn.name
            ]
            for name, index in defaulted_parameters(fn, bound):
                signature = re.compile(rf"\b{fn.name}\([^)]*\b{name}\b")
                documented = any(map(signature.search, spans))
                if not documented and not any(sets_parameter(c, name, index) for c in mine):
                    unset.append(f"{path.stem}.{qualified}.{name}")
    assert unset == [], f"defaulted parameters no call in src/fsing sets: {unset}"


def self_calls(tree):
    """(line, qualified name) of each function that calls itself by its bare
    name or as self.<its own name>, in its own body or a nested one."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    func = getattr(call, "func", None) if isinstance(call, ast.Call) else None
                    by_name = isinstance(func, ast.Name) and func.id == child.name
                    by_self = (
                        isinstance(func, ast.Attribute) and func.attr == child.name
                        and isinstance(func.value, ast.Name) and func.value.id == "self"
                    )
                    if by_name or by_self:
                        out.append((call.lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_self_recursion(path):
    # a recursion as deep as its input, such as one call per base-p digit,
    # ends in a RecursionError, not a typed error; a loop has no depth
    tree = ast.parse(path.read_text(), filename=str(path))
    assert self_calls(tree) == [], f"{path.name} has functions that call themselves"
