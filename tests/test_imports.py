"""The package's modules reach each other through public names only."""

import ast
import pathlib

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
