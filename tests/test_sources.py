"""Package source hygiene."""

import ast
import inspect
import re
import warnings
from collections import Counter
from pathlib import Path

import pytest

import sphfun
from sphfun import _kernels_py

PACKAGE = Path(sphfun.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # invalid escapes such as "\i" in a non-raw docstring warn at compile
    # time (DeprecationWarning, SyntaxWarning from Python 3.12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_pole_rule_lives_in_complexmath():
    # one module decides when a Gamma argument is a pole
    users = {p.name for p in SOURCES
             if "POLE_TOL" in p.read_text(encoding="utf-8")}
    assert users == {"complexmath.py"}


def test_every_kernel_is_called_by_the_library():
    # a public kernel that no module calls as kernels.<name>( is dead code
    public = {name for name, fn in inspect.getmembers(
                  _kernels_py, inspect.isfunction)
              if fn.__module__ == _kernels_py.__name__
              and not name.startswith("_")}
    assert public
    library = "".join(p.read_text(encoding="utf-8") for p in SOURCES)
    uncalled = {name for name in public
                if not re.search(rf"\bkernels\.{name}\(", library)}
    assert not uncalled


# public names that nothing in the package calls, each kept for a reason
KEEP = {
    "higherrank.det_C_sigma_at": "the adjoint identity for det C_sigma, "
                                 "checked against the scalar second "
                                 "coefficient",
    "rankone.radial_eigen_residual": "acceptance criterion 15 (the radial "
                                     "ODE residual)",
    "complexmath.gamma": "acceptance criterion 1 (the Gamma identities) "
                         "and the Gamma tests",
    "rootdata.datum_to_dict": "writes the datum-file format that the CLI "
                              "reads",
    "complexmath.gauss_2f1": "the one-call 2F1: bench_kernels times it "
                             "cold and perfbench's tracer hooks it",
    "models.entry_function_sl2": "the entry at a disk point: perfbench's "
                                 "tracer hooks it, and the tests check its "
                                 "rotation equivariance",
}


def _names_used(node) -> Counter:
    # identifiers and attribute names; a string (__all__, a docstring)
    # is no reference
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _module_aliases(trees) -> dict:
    """Per module, the names it binds to a module of the package: those
    of `from . import x as y`, and those of `from .m import y` where m
    binds y to a module (`kernels`, bound in `_backend`)."""
    aliases = {}
    for stem, tree in trees.items():
        aliases[stem] = {alias.asname or alias.name: alias.name
                         for node in tree.body
                         if isinstance(node, ast.ImportFrom)
                         and node.level == 1 and node.module is None
                         for alias in node.names}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module in aliases:
                for alias in node.names:
                    target = aliases[node.module].get(alias.name)
                    if target is not None:
                        aliases[stem][alias.asname or alias.name] = target
    return aliases


def _references(stem: str, node, aliases: dict) -> Counter:
    """Each reference under node, in module stem, to a module-level name
    of the package, counted as "module.name" through the module it
    names: an attribute of a module alias, a from-import, or an
    unqualified load in the defining module.  A local or an attribute of
    the same name elsewhere is no reference."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in aliases[stem]:
            refs[f"{aliases[stem][n.value.id]}.{n.attr}"] += 1
        elif isinstance(n, ast.ImportFrom) and n.level == 1 \
                and n.module in aliases:
            refs.update(f"{n.module}.{alias.name}" for alias in n.names)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[f"{stem}.{n.id}"] += 1
    return refs


def _public_defs():
    """(qualified name, def node) of every public function, class and
    method of the package."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _registered_suite(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_register" for d in node.decorator_list)


def test_every_public_name_has_a_caller():
    # a public function or class that the package refers to nowhere
    # outside its own def, through its module, is dead code, unless KEEP
    # says why not; a method counts an attribute of its name anywhere,
    # since the type of its object is not known; a verify suite is
    # called through its registration
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    aliases = _module_aliases(trees)
    refs = sum((_references(stem, tree, aliases)
                for stem, tree in trees.items()), Counter())
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    uncalled = set()
    for qualname, node in _public_defs():
        stem, *_ = qualname.split(".")
        if qualname.count(".") == 1:
            called = refs[qualname] > _references(stem, node,
                                                  aliases)[qualname]
        else:
            called = used[node.name] > _names_used(node)[node.name]
        if not (called or _registered_suite(node)):
            uncalled.add(qualname)
    assert uncalled - KEEP.keys() == set()
    # and every KEEP entry names a public name that is still uncalled
    assert KEEP.keys() <= uncalled
