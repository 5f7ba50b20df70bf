"""The package's modules reach each other through public names only."""

import ast
import pathlib
import sys

import spde2d

PACKAGE = pathlib.Path(spde2d.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    # A sibling's private name (``from .simulate import _helper``) ties two
    # modules to one implementation detail: what several modules share has
    # a public home.  Importing a private module whole (``from . import
    # _kernels_c``) is how the package picks its kernels, and stays allowed.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and (node.level or node.module.startswith("spde2d"))):
                found += [f"{path.name}:{node.lineno} imports {a.name} "
                          f"from {node.module}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def _module_imports(tree):
    """``(lineno, bound name)`` of each import at module level, also inside
    a module-level ``try`` or ``if``; ``__future__`` imports excluded."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.Try, ast.If)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(node.lineno, a.asname or a.name) for a in node.names]
    return found


def test_every_module_level_import_is_used():
    # No linter ships with the project's toolchain; this catches an import
    # left behind when the code that read it goes.  A name counts as used
    # where the module loads it.  The exceptions are names the benchmark in
    # ``perfbench/`` reaches from outside: the attributes its tracer swaps
    # and the kernel-table names it reads from each backend.
    root = str(pathlib.Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench import tracing

    reached = {(module.rpartition(".")[2], attr)
               for module, attr, _ in tracing.SPANNED}
    reached |= {(module, name) for module in ("kernels", "_kernels_c")
                for name in ("philox_raw_block", "normal_block", "ou_step",
                             "sq_diff_accum")}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{lineno} imports {name} unused"
                   for lineno, name in _module_imports(tree)
                   if name not in loaded and (path.stem, name) not in reached]
    assert unused == []


def _imported_modules(node):
    """Dotted names of the modules ``node`` imports: an import statement
    (absolute) or an ``import_module`` or ``__import__`` call on a literal."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    if (isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in ("import_module", "__import__"):
            return [node.args[0].value]
    return []


def test_only_the_ndtri_loader_imports_scipy_special():
    # scipy.special's package init loads scipy's array-API layer: 0.17 s and
    # about 15 MB of every process's peak memory, for one ufunc.  The
    # package takes that ufunc from _kernels_py, whose loader reads it from
    # the extension alone.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "_kernels_py.py":
            allowed = {id(node) for top in tree.body
                       if isinstance(top, ast.FunctionDef)
                       and top.name in ("_scipy_ndtri", "_ufuncs_ndtri")
                       for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno} imports {name}"
                  for node in ast.walk(tree) if id(node) not in allowed
                  for name in _imported_modules(node)
                  if name.split(".")[:2] == ["scipy", "special"]]
    assert found == []
