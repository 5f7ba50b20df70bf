"""The NumPy kernels, and the reference for the compiled Philox words.

Semantics here are the reference: the compiled ``_philox`` must reproduce
``philox_raw_block`` bit for bit; everything else runs here on both
backends (see ``kernels``).  All noise derives from the
Philox4x64-10 counter-based generator.  A logical stream is addressed by

    key     = (key0, key1[s])          two 64-bit words
    counter = (block, 0, ctr2[s], ctr3[s])

and draw ``i`` of a stream is lane ``i % 4`` of block ``i // 4``.  A raw
64-bit word ``x`` maps to a standard normal via the inverse CDF:

    z = ndtri(((x >> 11) + 0.5) * 2**-53)

which uses the top 53 bits.  It never reaches 0; the 2**11 words whose top
53 bits are all ones round to exactly 1 (``z = inf``), one draw in 2**53.
``ndtri`` is scipy's own ufunc, loaded here for the package (``_scipy_ndtri``).
"""

import _imp
import importlib
import importlib.util
import sys

import numpy as np


def _scipy_ndtri():
    """scipy's ``ndtri`` ufunc, without running ``scipy.special``'s package
    init where that package is not loaded yet.

    The ufunc lives in the extension ``scipy.special._ufuncs``; the
    package's ``__init__`` also loads scipy's array-API layer, which costs
    a process about 0.2 s and 15 MB of peak memory, against 15 ms for the
    extension.  So, holding the interpreter's import lock, a stub of the
    package (its real ``__path__``, marked as initializing, so that another
    thread's import of the package waits for the lock) stands in while the
    extension loads.  Then the stub and every ``scipy.special.*`` module loaded under
    it leave ``sys.modules``: a later ``import scipy.special`` loads them
    under the real package and finds this same ufunc object there.  Falls
    back to ``from scipy.special import ndtri`` where the extension cannot
    be loaded or has no ufunc named ``ndtri``.
    """
    # scipy's own package init runs outside the lock, under its module lock
    import scipy  # noqa: F401
    _imp.acquire_lock()
    try:
        ufunc = (None if "scipy.special" in sys.modules
                 else _ufuncs_ndtri())
    finally:
        _imp.release_lock()
    if isinstance(ufunc, np.ufunc) and ufunc.__name__ == "ndtri":
        return ufunc
    from scipy.special import ndtri
    return ndtri


def _ufuncs_ndtri():
    """``scipy.special._ufuncs.ndtri`` loaded under a stub of its package,
    or None where it cannot be; call with the import lock held."""
    spec = importlib.util.find_spec("scipy.special")
    if spec is None:
        return None
    stub = importlib.util.module_from_spec(spec)
    spec._initializing = True

    def forward(name):
        # code that took the stub from ``sys.modules`` in the window, such
        # as another thread's ``from scipy.special import ...``, reads the
        # real package's names once the stub is gone
        if sys.modules.get("scipy.special") is stub:
            raise AttributeError(name)
        return getattr(importlib.import_module("scipy.special"), name)

    stub.__getattr__ = forward
    before = set(sys.modules)
    sys.modules["scipy.special"] = stub
    try:
        return getattr(importlib.import_module("scipy.special._ufuncs"),
                       "ndtri", None)
    except ImportError:
        return None
    finally:
        if sys.modules.get("scipy.special") is stub:
            for name in set(sys.modules) - before:
                if name.split(".")[:2] == ["scipy", "special"]:
                    del sys.modules[name]


ndtri = _scipy_ndtri()

BACKEND_NAME = "python"

_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_M_HI = _M >> _SH32
_M_LO = _M & _MASK32
_U53 = 2.0 ** -53


def philox_raw_block(block, ctr2, ctr3, key0, key1):
    """Four raw 64-bit outputs per stream for one counter block.

    ``ctr2``, ``ctr3`` and ``key1`` are equal-length uint64 arrays defining
    the streams; ``block`` and ``key0`` are scalars.  Returns an
    ``(n, 4)`` uint64 array, lane order as produced by Philox4x64-10.
    """
    ctr2 = np.ascontiguousarray(ctr2, dtype=np.uint64)
    ctr3 = np.ascontiguousarray(ctr3, dtype=np.uint64)
    key1 = np.ascontiguousarray(key1, dtype=np.uint64)
    n = ctr2.shape[0]
    # Rows 0 and 1 hold the words each round multiplies by M0 and by M1,
    # so one ufunc call does both products: x = (x0, x2), y = (x1, x3),
    # k = (k0, k1).
    x, y, k, hi, lo, bh, bl, t = np.empty((8, 2, n), dtype=np.uint64)
    x[0], x[1] = block, ctr2
    y[0], y[1] = 0, ctr3
    k[0], k[1] = key0, key1
    for r in range(10):
        if r > 0:
            np.add(k, _W, out=k)
        # full 64x64 -> 128 bit products M * x via 32-bit partial products
        np.multiply(_M, x, out=lo)
        np.right_shift(x, _SH32, out=bh)
        np.bitwise_and(x, _MASK32, out=bl)
        np.multiply(_M_LO, bl, out=t)
        np.right_shift(t, _SH32, out=t)
        np.multiply(_M_HI, bl, out=bl)
        np.add(t, bl, out=t)                    # t = mh*bl + (ml*bl >> 32)
        np.bitwise_and(t, _MASK32, out=bl)
        np.multiply(_M_LO, bh, out=hi)
        np.add(bl, hi, out=bl)                  # u = ml*bh + (t & mask)
        np.right_shift(t, _SH32, out=t)
        np.right_shift(bl, _SH32, out=bl)
        np.multiply(_M_HI, bh, out=hi)
        np.add(hi, t, out=hi)
        np.add(hi, bl, out=hi)                  # hi = mh*bh + t>>32 + u>>32
        # x0 <- hi1 ^ x1 ^ k0, x2 <- hi0 ^ x3 ^ k1; x1 <- lo1, x3 <- lo0
        np.bitwise_xor(hi[::-1], y, out=x)
        np.bitwise_xor(x, k, out=x)
        y[:] = lo[::-1]
    out = np.empty((n, 4), dtype=np.uint64)
    out[:, 0::2] = x.T
    out[:, 1::2] = y.T
    return out


def uniforms(raw, out=None):
    """The uniforms ``((x >> 11) + 0.5) * 2**-53`` of raw Philox words,
    written to ``out`` (a float64 array of ``raw``'s shape) when given."""
    if out is None:
        out = np.empty(raw.shape)
    np.right_shift(raw, _SH11, out=out)
    np.add(out, 0.5, out=out)
    return np.multiply(out, _U53, out=out)


def normals(raw):
    """Standard normals from raw Philox words by the inverse-CDF map."""
    u = uniforms(raw)
    return ndtri(u, out=u)


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4)."""
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))


def ou_step(x, decay, scale, noise, out=None):
    """``out <- decay * x + scale * noise`` (flat float64 arrays), in place
    on ``x`` when ``out`` is not given."""
    if out is None:
        out = x
    np.multiply(x, decay, out=out)
    t = np.multiply(scale, noise)
    np.add(out, t, out=out)


def sq_diff_accum(curr, prev, acc, comp):
    """Kahan-compensated in-place ``acc += (curr - prev)**2``.

    ``comp`` carries the running compensation; both are updated in place.
    """
    d = np.subtract(curr, prev)
    np.multiply(d, d, out=d)
    y = np.subtract(d, comp)
    t = np.add(acc, y)
    np.subtract(t, acc, out=comp)
    np.subtract(comp, y, out=comp)
    acc[...] = t
