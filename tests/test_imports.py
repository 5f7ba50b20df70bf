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
