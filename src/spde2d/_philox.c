/* The compiled kernels of spde2d: Philox4x64-10 words, and the OU sweep
 * they drive.
 *
 * fill(block, ctr2, ctr3, key0, key1, out) writes the four words of counter
 * (block, 0, ctr2[s], ctr3[s]) under key (key0, key1[s]) to out[4s..4s+3]
 * for every stream s.  ctr2, ctr3 and key1 are C-contiguous uint64 buffers
 * of one length n and out a writable uint64 one of 4n; anything else raises
 * ValueError.  The 128-bit products follow Salmon et al., "Parallel random
 * numbers: as easy as 1, 2, 3" (SC'11).
 *
 * sweep(cursor, hi, chunk, block, L, key0, first_rep, decay, scale, prev,
 * tile) steps streams of 0..hi-1 through the rows of tile, a (count, n)
 * array of OU states: row t is decay * (row t-1, or prev for t = 0) +
 * scale * z, with z lane t % 4 of the normals of counter block block + t /
 * 4.  decay and scale hold one coefficient per mode, KL of them with KL a
 * multiple of L, and n is a multiple of KL: stream s is mode q = s % KL of
 * replication first_rep + s / KL, whose words are counter (block, 0, q / L
 * + 1, q % L + 1) under key (key0, first_rep + s / KL), and its
 * coefficients decay[q] and scale[q].  cursor is a writable buffer of one
 * int64, shared by every thread that sweeps the same tile: a call claims
 * the chunk of streams a..a+chunk-1 (cut at hi) by advancing the cursor
 * from a to a + chunk with one atomic fetch-and-add, steps it, and claims
 * the next until the cursor reaches hi.  So threads that call sweep on one
 * cursor at once divide the streams from the cursor's value up to hi
 * among them as each frees up, and every stream is stepped once; a call
 * that starts on a cursor at or past hi does no work.  The cursor orders
 * nothing else: the caller waits for every call before reading the tile.
 * A chunk's first stream locates its mode and replication by one
 * division; the streams after it step them.  For each counter block of
 * the tile it writes the chunk's uniforms u53(x) = ((x >> 11) + 0.5) *
 * 2^-53 to a buffer, maps them in place by the d->d loop of the ufunc
 * given to bind (scipy.special.ndtri) and steps the chunk's streams.  The
 * shift, the conversion of a value below 2^53 and the scaling by a power
 * of two are exact, and the one rounding, of the + 0.5, is the IEEE double
 * addition NumPy performs; ndtri runs the very loop NumPy calls for
 * ndtri(u, out=u); and the step rounds its two products and its sum as
 * NumPy's three ufuncs do, for the module is compiled with
 * -ffp-contract=off.  So the states equal those of the NumPy code bit for
 * bit.  The work runs without the interpreter lock, so an error that the
 * loop reports is seen when the call returns: the call then moves the
 * cursor to hi, so that no thread claims another chunk, and raises it.
 * Buffers of other types or lengths, a cursor below 0, hi past n, chunk <
 * 1, L < 1, and key words or replications past 2^64 - 1 raise ValueError
 * before any work.
 *
 * bind(ufunc) takes the d->d loop of a NumPy ufunc of one input and one
 * output; anything else raises TypeError or ValueError.  sweep raises
 * RuntimeError until a loop is bound. */
#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <fenv.h>
#include <stdint.h>
#include <string.h>
#include <numpy/ndarraytypes.h>
#include <numpy/ufuncobject.h>

static inline double u53(uint64_t x) { return ((double)(x >> 11) + 0.5) * 0x1p-53; }

/* The four words of counter (block, 0, c2, c3) under key (key0, k1). */
static inline void philox(uint64_t block, uint64_t c2, uint64_t c3, uint64_t key0, uint64_t k1,
                          uint64_t x[4])
{
    const uint64_t M0 = 0xD2E7470EE14C6C93u, M1 = 0xCA5A826395121157u;
    const uint64_t W0 = 0x9E3779B97F4A7C15u, W1 = 0xBB67AE8584CAA73Bu;
    uint64_t x0 = block, x1 = 0, x2 = c2, x3 = c3, ka = key0, kb = k1;
    for (int r = 0; r < 10; r++, ka += W0, kb += W1) {
        unsigned __int128 p0 = (unsigned __int128)M0 * x0, p1 = (unsigned __int128)M1 * x2;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ ka;
        x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ kb;
        x3 = (uint64_t)p0;
    }
    x[0] = x0, x[1] = x1, x[2] = x2, x[3] = x3;
}

/* The bound ndtri loop, its data, and the ufunc that owns them. */
static PyUFuncGenericFunction ndtri_loop;
static void *ndtri_data;
static PyObject *ndtri_owner;

/* The struct codes of 8-byte float64, uint64 and int64 items. */
#define REAL "d"
#define WORD "QL"
#define SIGNED "ql"

/* Acquire a C-contiguous buffer of len bytes (any length when len < 0) of
 * 8-byte items of one of the struct codes in kinds. */
static int get_buffer(PyObject *obj, Py_buffer *view, int flags, Py_ssize_t len, const char *kinds,
                      const char *error)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = view->format + (view->format[0] && strchr("@=<", view->format[0]));
    if (view->itemsize == 8 && f[0] && !f[1] && strchr(kinds, f[0]) && (len < 0 || view->len == len))
        return 0;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_ValueError, error);
    return -1;
}

/* A key word: an integer in [0, 2^64 - 1], or ValueError. */
static int key_word(PyObject *obj, void *to)
{
    PyObject *i = PyNumber_Index(obj);
    if (!i)
        return 0;
    *(unsigned long long *)to = PyLong_AsUnsignedLongLong(i);
    Py_DECREF(i);
    if (!PyErr_Occurred())
        return 1;
    if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "sweep needs key0 and first_rep in [0, 2^64 - 1]");
    }
    return 0;
}

static PyObject *fill(PyObject *self, PyObject *args)
{
    static const char error[] = "fill needs uint64 ctr2, ctr3, key1 of one length n and a uint64 out of 4n";
    unsigned long long block, key0;
    PyObject *obj[4];
    Py_buffer buf[4];
    int got;
    if (!PyArg_ParseTuple(args, "KOOKOO:fill", &block, &obj[0], &obj[1], &key0, &obj[2], &obj[3]))
        return NULL;
    if (get_buffer(obj[0], &buf[0], 0, -1, WORD, error) < 0)
        return NULL;
    Py_ssize_t n = buf[0].len / 8;
    for (got = 1; got < 4; got++)
        if (get_buffer(obj[got], &buf[got], got == 3 ? PyBUF_WRITABLE : 0, (got == 3 ? 32 : 8) * n, WORD,
                       error) < 0)
            break;
    if (got == 4) {
        const uint64_t *c2 = buf[0].buf, *c3 = buf[1].buf, *k1 = buf[2].buf;
        uint64_t *out = buf[3].buf;
        /* The held buffers keep the memory alive; the loop touches no
         * Python object, so other threads may run meanwhile. */
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t s = 0; s < n; s++)
            philox(block, c2[s], c3[s], key0, k1[s], out + 4 * s);
        Py_END_ALLOW_THREADS
    }
    for (int i = 0; i < got; i++)
        PyBuffer_Release(&buf[i]);
    return got == 4 ? Py_NewRef(Py_None) : NULL;
}

static PyObject *sweep(PyObject *self, PyObject *args)
{
    static const char error[] = "sweep needs a writable int64 cursor of one item, float64 decay and scale of "
                                "one length KL, a positive multiple of L >= 1, a float64 prev of a positive "
                                "multiple n of KL and a writable float64 tile of a positive multiple of n";
    Py_ssize_t hi, chunk, L;
    unsigned long long block, key0, first_rep;
    PyObject *obj[5];
    Py_buffer buf[5];
    int got;
    if (!PyArg_ParseTuple(args, "OnnKnO&O&OOOO:sweep", &obj[4], &hi, &chunk, &block, &L, key_word, &key0,
                          key_word, &first_rep, &obj[0], &obj[1], &obj[2], &obj[3]))
        return NULL;
    if (!ndtri_loop) {
        PyErr_SetString(PyExc_RuntimeError, "sweep: no ndtri loop is bound (bind(scipy.special.ndtri))");
        return NULL;
    }
    if (get_buffer(obj[0], &buf[0], 0, -1, REAL, error) < 0)
        return NULL;
    Py_ssize_t modes = buf[0].len / 8;
    for (got = 1; got < 5; got++)
        if (get_buffer(obj[got], &buf[got], got >= 3 ? PyBUF_WRITABLE : 0,
                       got == 1 ? 8 * modes : got == 4 ? 8 : -1, got == 4 ? SIGNED : REAL, error) < 0)
            break;
    if (got < 5)
        goto done;
    Py_ssize_t n = buf[2].len / 8, count = n ? buf[3].len / (8 * n) : 0;
    if (L < 1 || !modes || modes % L || n % modes || !count || buf[3].len != 8 * n * count) {
        PyErr_SetString(PyExc_ValueError, error);
        goto done;
    }
    int64_t *cursor = buf[4].buf;
    if (__atomic_load_n(cursor, __ATOMIC_RELAXED) < 0 || hi < 0 || hi > n || chunk < 1) {
        PyErr_SetString(PyExc_ValueError, "sweep needs a cursor >= 0, 0 <= hi <= n and chunk >= 1");
        goto done;
    }
    if ((unsigned long long)(n / modes - 1) > UINT64_MAX - first_rep) {
        PyErr_SetString(PyExc_ValueError, "sweep needs replications first_rep .. first_rep + n / KL - 1 "
                                          "within 2^64 - 1");
        goto done;
    }
    /* a claim past hi adds at most one chunk, which keeps the cursor far
     * from overflow; one that wraps it reads below 0 and stops */
    Py_ssize_t width = chunk < hi ? chunk : hi ? hi : 1;
    double *z = PyMem_RawMalloc(32 * width);
    if (!z) {
        PyErr_NoMemory();
        goto done;
    }
    const uint64_t K = modes / L;
    const double *decay = buf[0].buf, *scale = buf[1].buf, *prev = buf[2].buf;
    double *tile = buf[3].buf;
    Py_BEGIN_ALLOW_THREADS
    for (;;) {
        int64_t a = __atomic_fetch_add(cursor, (int64_t)width, __ATOMIC_RELAXED);
        if (a < 0 || a >= hi)
            break;
        Py_ssize_t m = hi - a < width ? hi - a : width, q0 = a % modes;
        uint64_t rep0 = first_rep + (uint64_t)(a / modes);
        for (Py_ssize_t j = 0; j < count; j += 4) {
            uint64_t x[4], k = (uint64_t)(q0 / L) + 1, l = (uint64_t)(q0 % L) + 1, rep = rep0;
            for (Py_ssize_t s = 0; s < m; s++) {
                philox(block + j / 4, k, l, key0, rep, x);
                for (int i = 0; i < 4; i++)
                    z[4 * s + i] = u53(x[i]);
                if (++l > (uint64_t)L) {
                    l = 1;
                    if (++k > K)
                        k = 1, rep++;
                }
            }
            /* NumPy clears the flags before it runs a loop, so that the
             * loop's check of them sees its own alone */
            char *io[2] = {(char *)z, (char *)z};
            npy_intp len = 4 * m, steps[2] = {8, 8};
            feclearexcept(FE_ALL_EXCEPT);
            ndtri_loop(io, &len, steps, ndtri_data);
            for (Py_ssize_t t = j; t < count && t < j + 4; t++) {
                const double *from = t ? tile + (t - 1) * n : prev;
                double *to = tile + t * n;
                /* runs of streams of one replication read their modes'
                 * coefficients at one offset */
                for (Py_ssize_t s = a, q = q0; s < a + m; s += modes - q, q = 0) {
                    Py_ssize_t run = a + m - s < modes - q ? a + m - s : modes - q;
                    const double *d = decay + q, *c = scale + q, *f = from + s, *w = z + 4 * (s - a) + t - j;
                    double *o = to + s;
                    for (Py_ssize_t i = 0; i < run; i++) {
                        double u = f[i] * d[i], v = c[i] * w[4 * i];
                        o[i] = u + v;
                    }
                }
            }
        }
    }
    Py_END_ALLOW_THREADS
    PyMem_RawFree(z);
    /* an ndtri loop reports a floating-point error, where scipy.special is
     * set to raise one, through the error indicator */
    if (PyErr_Occurred())
        __atomic_store_n(cursor, (int64_t)hi, __ATOMIC_RELAXED);
done:
    for (int i = 0; i < got; i++)
        PyBuffer_Release(&buf[i]);
    return got == 5 && !PyErr_Occurred() ? Py_NewRef(Py_None) : NULL;
}

static PyObject *bind(PyObject *self, PyObject *ufunc)
{
    if (!PyObject_TypeCheck(ufunc, &PyUFunc_Type)) {
        PyErr_Format(PyExc_TypeError, "bind needs a NumPy ufunc, not %.200s", Py_TYPE(ufunc)->tp_name);
        return NULL;
    }
    PyUFuncObject *u = (PyUFuncObject *)ufunc;
    for (int i = 0; u->nin == 1 && u->nout == 1 && i < u->ntypes; i++)
        if (u->types[2 * i] == NPY_DOUBLE && u->types[2 * i + 1] == NPY_DOUBLE && u->functions[i]) {
            ndtri_loop = u->functions[i];
            ndtri_data = u->data[i];
            Py_XSETREF(ndtri_owner, Py_NewRef(ufunc));
            return Py_NewRef(Py_None);
        }
    PyErr_Format(PyExc_ValueError, "ufunc %.200s has no d->d loop", u->name ? u->name : "?");
    return NULL;
}

static PyMethodDef methods[] = {
    {"fill", fill, METH_VARARGS, "Philox4x64-10 words of one counter block into out."},
    {"sweep", sweep, METH_VARARGS, "OU states of the streams claimed from cursor, through the rows of tile."},
    {"bind", bind, METH_O, "Take the d->d loop of a NumPy ufunc as sweep's ndtri."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_philox", NULL, -1, methods};

PyMODINIT_FUNC PyInit__philox(void)
{
    import_umath();
    return PyModule_Create(&module);
}
