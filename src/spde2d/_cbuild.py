"""Compiling ``_philox.c`` into an extension module, and loading it.

``COMMAND`` links an extension as distutils does: ``sysconfig``'s
``LDSHARED`` (the compiler with the platform's link flags, such as
``-shared`` on Linux or ``-bundle -undefined dynamic_lookup`` on macOS)
and ``CCSHARED`` (position-independent code), with ``-O3``, Python's and
NumPy's include directories, and ``-ffp-contract=off``: the OU step of
``sweep`` must round its products and its sum as NumPy does, and a compiler
free to contract them would fuse them into one FMA (gcc's default on
aarch64, or on x86-64 with ``-mfma``).  Importing this module runs nothing.
"""

import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile

import numpy as np

from ._kernels_py import ndtri

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_philox.c")
COMMAND = [*shlex.split(sysconfig.get_config_var("LDSHARED") or ""),
           *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
           "-O3", "-I", sysconfig.get_paths()["include"],
           "-I", np.get_include(), "-ffp-contract=off"]


def build(directory):
    """Path of ``SOURCE`` compiled into ``directory`` as
    ``_philox.<key><EXT_SUFFIX>``, compiling it only when no file of that
    key is there; raises ``ImportError`` on failure.  The key is
    ``importlib.util.source_hash`` (64 bits, as 16 hex digits) of the
    source bytes, ``COMMAND``, ``EXT_SUFFIX`` and NumPy's version, whose
    headers the module is compiled against; ``hashlib`` would load
    OpenSSL's ``libcrypto`` only to name this file.  The compile writes a
    temporary file in ``directory`` and renames it into place, so processes
    that build at once each load a complete module."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    try:
        with open(SOURCE, "rb") as fh:
            code = fh.read()
    except OSError as exc:
        raise ImportError(f"cannot read {SOURCE}: {exc}") from exc
    key = importlib.util.source_hash(
        b"\0".join([code, *(a.encode() for a in COMMAND), suffix.encode(),
                    np.__version__.encode()])).hex()
    target = os.path.join(directory, f"_philox.{key}{suffix}")
    if os.path.exists(target):
        return target
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"_philox.{key}.", suffix=".tmp",
                                   dir=directory)
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot write to {directory}: {exc}") from exc
    try:
        done = subprocess.run([*COMMAND, SOURCE, "-o", tmp],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"{shlex.join(COMMAND)} {SOURCE} failed "
                              f"(exit {done.returncode}):\n{done.stderr}")
        # the permissions Python gives its bytecode cache (mkstemp's 0600
        # would keep other users from loading the module)
        os.chmod(tmp, os.stat(SOURCE).st_mode & 0o666)
        os.replace(tmp, target)
    except OSError as exc:
        raise ImportError(f"cannot compile {SOURCE}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return target


def load(path):
    """The extension module at ``path``, loaded as ``spde2d._philox``, with
    scipy's ``ndtri`` loop bound to its ``sweep``; raises ``ImportError``
    where that loop cannot be bound."""
    loader = importlib.machinery.ExtensionFileLoader("spde2d._philox", path)
    spec = importlib.util.spec_from_loader("spde2d._philox", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    try:
        module.bind(ndtri)
    except (TypeError, ValueError) as exc:
        raise ImportError(f"cannot bind scipy's ndtri: {exc}") from exc
    return module


def compiled(philox):
    """``philox_raw_block`` computed by ``philox.fill``, the compiled words.

    The function carries ``philox.sweep`` as its attribute ``sweep``: that
    marks the words as compiled, and ``kernels.ou_sweep`` calls it directly.
    """
    def philox_raw_block(block, ctr2, ctr3, key0, key1):
        ctr2, ctr3, key1 = (np.ascontiguousarray(a, dtype=np.uint64)
                            for a in (ctr2, ctr3, key1))
        out = np.empty((ctr2.shape[0], 4), dtype=np.uint64)
        philox.fill(block, ctr2, ctr3, key0, key1, out)
        return out
    philox_raw_block.sweep = philox.sweep
    return philox_raw_block
