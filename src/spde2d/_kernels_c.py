"""The compiled Philox words, built from ``_philox.c`` on first import.

The module is ``_philox.c`` compiled by ``_cbuild.build`` and cached as
``_philox.<key><EXT_SUFFIX>`` where Python keeps this package's bytecode:
``__pycache__`` next to the source, or its mirror under
``sys.pycache_prefix`` (``PYTHONPYCACHEPREFIX``) where that is set.  The
key covers the source, the compile command and ``EXT_SUFFIX``, so an
edited source or another interpreter builds its own file and never loads a
stale one; deleting the file rebuilds it.

Importing this module raises ``ImportError`` when the words cannot be
built or loaded: no compiler, a failed compile, or a cache directory that
cannot be written.  ``kernels`` then uses the NumPy words of
``_kernels_py``.  Everything but the words and their uniforms is
``_kernels_py``'s code.
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
fill = _philox.fill  # the words, or into a float64 ``out`` their uniforms
philox_raw_block = compiled(_philox)


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4)."""
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))
