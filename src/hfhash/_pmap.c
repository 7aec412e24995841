/* Native `eval_word` over the chunk-pair tables of `compile_system`, and
 * the message schedule of `core.expand`.
 *
 * The 64 input bits are cut into the chunks of CHUNK_WIDTHS, most
 * significant first: ten of 6 bits and one of 4.  Every term of `p` has
 * degree at most 2, so it lies within one chunk pair, and the map is the
 * XOR of one bilinear table per pair (55 here).  The table of pair
 * (i, j), i < j, holds 2**(w_i + w_j) uint32 words indexed by
 * `chunk_i << w_j | chunk_j`; the tables follow each other in (i, j)
 * order, 194,560 words (778,240 bytes) in all, which stays in L2.
 * Finer chunks mean more lookups, coarser ones tables that spill out of
 * the cache; 6 bits was the fastest width measured (BENCH_11.json).
 * The loops of `pmap()` are unrolled in full.  At -O2 gcc keeps them as
 * loops, and then each lookup pays for variable shifts, a table-offset
 * add and loop control, a large part of a call.  Unrolled, every shift,
 * mask and offset is a constant, and the loops stay the one description
 * of the layout.
 *
 * `Evaluator(tables)` takes that one C-contiguous buffer of native uint32
 * words and holds a single buffer view on it, so nothing is copied and
 * the buffer cannot be resized while it lives.  The module exports the
 * widths as `CHUNK_WIDTHS`, from which `evaluator.compile_system` builds
 * the buffer; `evaluator._load_pmap` builds this file on first use.
 * `eval_word` reads its argument with PyLong_AsUnsignedLong where
 * `unsigned long` has 64 bits (LP64): CPython 3.11 converts an int of
 * two or more digits through a generic byte conversion in
 * PyLong_AsUnsignedLongLong, but walks the digits directly in
 * PyLong_AsUnsignedLong.  Where `unsigned long` is narrower, the
 * `long long` read stays.  An argument outside [0, 2**64) is an
 * OverflowError either way, never truncated.
 *
 * `schedule(words, chain, is_last)` takes a block's 14 message words and
 * its 8-word chain, lays out the 16-word prefix in the inline `prefix()`
 * (`[h0, M1..M14, h7]`, or `[h0, h7, M1..M14]` for the last block), runs
 * the recurrence in the inline `schedule()` and returns the 64 words as
 * they sit in `w`: 256 bytes of native uint32 words, with no Python int
 * made per word.  It checks what `core._schedule`, the Python spec it is
 * tested against, checks, in the same order and with the same messages:
 * the two counts, then h0, h7 and the message words, each an int in
 * [0, 2**32) (an OverflowError outside it, never truncated).  Only h0
 * and h7 of the chain enter the schedule.  `prefix()` and `schedule()`
 * are inline for a future whole-block kernel.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

static const int CHUNK_WIDTHS[] = {6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 4};
#define NCHUNKS ((int)(sizeof CHUNK_WIDTHS / sizeof CHUNK_WIDTHS[0]))

/* p(x): the XOR of one lookup per chunk pair in the tables `t` */
static inline uint32_t
pmap(const uint32_t *t, uint64_t x)
{
    uint32_t c[NCHUNKS];
    int shift = 64;
#pragma GCC unroll 16
    for (int i = 0; i < NCHUNKS; i++) {
        shift -= CHUNK_WIDTHS[i];
        c[i] = (uint32_t)(x >> shift) & ((1u << CHUNK_WIDTHS[i]) - 1);
    }
    uint32_t acc = 0;
#pragma GCC unroll 16
    for (int i = 0; i < NCHUNKS - 1; i++)
#pragma GCC unroll 16
        for (int j = i + 1; j < NCHUNKS; j++) {
            acc ^= t[c[i] << CHUNK_WIDTHS[j] | c[j]];
            t += (size_t)1 << (CHUNK_WIDTHS[i] + CHUNK_WIDTHS[j]);
        }
    return acc;
}

#define BLOCK_WORDS 14
#define CHAIN_WORDS 8
#define PREFIX_WORDS 16
#define SCHEDULE_WORDS 64

/* the 16-word prefix of a block: [h0, M1..M14, h7], or [h0, h7, M1..M14]
 * for the last block, so that its length field ends the prefix */
static inline void
prefix(uint32_t w[SCHEDULE_WORDS], const uint32_t m[BLOCK_WORDS],
       uint32_t h0, uint32_t h7, int is_last)
{
    w[0] = h0;
    if (is_last) {
        w[1] = h7;
        memcpy(w + 2, m, BLOCK_WORDS * sizeof m[0]);
    } else {
        memcpy(w + 1, m, BLOCK_WORDS * sizeof m[0]);
        w[PREFIX_WORDS - 1] = h7;
    }
}

/* W_j = rotl3(W_{j-16} ^ W_{j-14} ^ W_{j-8} ^ W_{j-1}) past the prefix */
static inline void
schedule(uint32_t w[SCHEDULE_WORDS])
{
    for (int j = PREFIX_WORDS; j < SCHEDULE_WORDS; j++) {
        uint32_t x = w[j - 16] ^ w[j - 14] ^ w[j - 8] ^ w[j - 1];
        w[j] = x << 3 | x >> 29;
    }
}

/* the number of words in all the pair tables */
static Py_ssize_t
table_words(void)
{
    Py_ssize_t n = 0;
    for (int i = 0; i < NCHUNKS - 1; i++)
        for (int j = i + 1; j < NCHUNKS; j++)
            n += (Py_ssize_t)1 << (CHUNK_WIDTHS[i] + CHUNK_WIDTHS[j]);
    return n;
}

/* the direct digit walk where `unsigned long` holds 64 bits */
#if ULONG_MAX >= UINT64_MAX
#define AS_UINT64 PyLong_AsUnsignedLong
#else
#define AS_UINT64 PyLong_AsUnsignedLongLong
#endif

typedef struct {
    PyObject_HEAD
    Py_buffer view;                   /* view.obj is NULL until acquired */
} Evaluator;

static void
Evaluator_dealloc(Evaluator *self)
{
    PyBuffer_Release(&self->view);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Evaluator_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"tables", NULL};
    PyObject *arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Evaluator", kwlist, &arg))
        return NULL;
    Evaluator *self = (Evaluator *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_buffer *view = &self->view;
    if (PyObject_GetBuffer(arg, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    Py_ssize_t words = table_words();
    if (view->itemsize != 4 || strcmp(view->format, "I") != 0 || view->len != 4 * words) {
        PyErr_Format(PyExc_ValueError,
                     "tables are not %zd native uint32 words", words);
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static PyObject *
Evaluator_eval_word(Evaluator *self, PyObject *arg)
{
    if (!PyLong_Check(arg)) {
        PyErr_Format(PyExc_TypeError, "eval_word() takes an int, not %.100s",
                     Py_TYPE(arg)->tp_name);
        return NULL;
    }
    /* OverflowError outside [0, 2**64), as int.to_bytes(8, "big") raises */
    uint64_t x = AS_UINT64(arg);
    if (x == UINT64_MAX && PyErr_Occurred())
        return NULL;
    return PyLong_FromUnsignedLong(pmap(self->view.buf, x));
}

static PyMethodDef Evaluator_methods[] = {
    {"eval_word", (PyCFunction)Evaluator_eval_word, METH_O,
     "eval_word(x) -> the 32-bit output word for a 64-bit input"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject EvaluatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "hfhash._pmap.Evaluator",
    .tp_basicsize = sizeof(Evaluator),
    .tp_dealloc = (destructor)Evaluator_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Evaluator(tables): the chunk-pair table map, evaluated in C",
    .tp_methods = Evaluator_methods,
    .tp_new = Evaluator_new,
};

/* one schedule word: an int in [0, 2**32), or -1 with the error set */
static int
schedule_word(PyObject *item, uint32_t *word)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(item, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || v > UINT32_MAX) {
        PyErr_Format(PyExc_OverflowError, "schedule word %R outside [0, 2**32)", item);
        return -1;
    }
    *word = (uint32_t)v;
    return 0;
}

static PyObject *
pmap_schedule(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "schedule() takes 3 arguments (words, chain, is_last), got %zd", nargs);
        return NULL;
    }
    PyObject *words = PySequence_Fast(args[0], "schedule() takes sequences of ints");
    if (words == NULL)
        return NULL;
    PyObject *chain = PySequence_Fast(args[1], "schedule() takes sequences of ints");
    if (chain == NULL) {
        Py_DECREF(words);
        return NULL;
    }
    PyObject *result = NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(words), k = PySequence_Fast_GET_SIZE(chain);
    if (n != BLOCK_WORDS) {
        PyErr_Format(PyExc_ValueError, "a block holds exactly %d words, got %zd",
                     BLOCK_WORDS, n);
        goto done;
    }
    if (k != CHAIN_WORDS) {
        PyErr_Format(PyExc_ValueError, "a chain holds exactly %d words, got %zd",
                     CHAIN_WORDS, k);
        goto done;
    }
    uint32_t m[BLOCK_WORDS], h0, h7, w[SCHEDULE_WORDS];
    PyObject **h = PySequence_Fast_ITEMS(chain), **items = PySequence_Fast_ITEMS(words);
    if (schedule_word(h[0], &h0) < 0 || schedule_word(h[CHAIN_WORDS - 1], &h7) < 0)
        goto done;
    for (int j = 0; j < BLOCK_WORDS; j++)
        if (schedule_word(items[j], &m[j]) < 0)
            goto done;
    int is_last = PyObject_IsTrue(args[2]);
    if (is_last < 0)
        goto done;
    prefix(w, m, h0, h7, is_last);
    schedule(w);
    result = PyBytes_FromStringAndSize((const char *)w, sizeof w);
done:
    Py_DECREF(words);
    Py_DECREF(chain);
    return result;
}

static PyMethodDef pmap_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))pmap_schedule, METH_FASTCALL,
     "schedule(words, chain, is_last) -> the 64 schedule words of a block, as bytes"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef pmap_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_pmap",
    .m_doc = "Native chunk-pair table evaluator and message schedule.",
    .m_size = -1,
    .m_methods = pmap_methods,
};

static PyObject *
chunk_widths(void)
{
    PyObject *widths = PyTuple_New(NCHUNKS);
    if (widths == NULL)
        return NULL;
    for (int i = 0; i < NCHUNKS; i++) {
        PyObject *w = PyLong_FromLong(CHUNK_WIDTHS[i]);
        if (w == NULL) {
            Py_DECREF(widths);
            return NULL;
        }
        PyTuple_SET_ITEM(widths, i, w);
    }
    return widths;
}

PyMODINIT_FUNC
PyInit__pmap(void)
{
    if (PyType_Ready(&EvaluatorType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&pmap_module);
    if (m == NULL)
        return NULL;
    PyObject *widths = chunk_widths();
    if (widths == NULL ||
            PyModule_AddObjectRef(m, "Evaluator", (PyObject *)&EvaluatorType) < 0 ||
            PyModule_AddObjectRef(m, "CHUNK_WIDTHS", widths) < 0) {
        Py_XDECREF(widths);
        Py_DECREF(m);
        return NULL;
    }
    Py_DECREF(widths);
    return m;
}
