"""The compiled Philox words and OU sweep, built from ``_philox.c`` on
first import.

The module is ``_philox.c`` compiled by ``_cbuild.build`` and cached as
``_philox.<key><EXT_SUFFIX>`` where Python keeps this package's bytecode:
``__pycache__`` next to the source, or its mirror under
``sys.pycache_prefix`` (``PYTHONPYCACHEPREFIX``) where that is set.  The
key covers the source, the compile command, ``EXT_SUFFIX`` and NumPy's
version, so an edited source, another interpreter or another NumPy builds
its own file and never loads a stale one; deleting the file rebuilds it.

Importing this module raises ``ImportError`` when the words cannot be
built or loaded: no compiler, a failed compile, a cache directory that
cannot be written, or a scipy whose ``ndtri`` has no float64 loop to bind.
``kernels`` then uses the NumPy words of ``_kernels_py``.  Besides the
words, the module's ``sweep`` runs ``kernels.ou_sweep``'s per-chunk work
(words, uniforms, scipy's own ``ndtri`` loop and the OU steps) in one call
without the interpreter lock; everything else is ``_kernels_py``'s code.
"""

import os
import sys

from ._cbuild import build, compiled, load
from ._kernels_py import normals, ou_step, sq_diff_accum  # noqa: F401

BACKEND_NAME = "c"

_HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = (os.path.join(sys.pycache_prefix, _HERE.lstrip(os.sep))
         if sys.pycache_prefix else os.path.join(_HERE, "__pycache__"))

_philox = load(build(CACHE))
philox_raw_block = compiled(_philox)


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4)."""
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))
