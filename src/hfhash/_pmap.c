/* Native `eval_word` over the 28 byte-pair tables of `compile_system`.
 *
 * `Evaluator(tables)` takes the one C-contiguous buffer of 28 x 65536
 * native uint32 words, the tables in `evaluator._PAIRS` order, and holds
 * a single buffer view on it, so nothing is copied and the buffer cannot
 * be resized while it lives.  The closure in `CompiledSystem._bind` is
 * the reference; `evaluator._load_pmap` builds this file on first use.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define NPAIRS 28
#define TABLE_WORDS 65536

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
    if (view->itemsize != 4 || strcmp(view->format, "I") != 0 ||
        view->len != 4 * NPAIRS * TABLE_WORDS) {
        PyErr_Format(PyExc_ValueError,
                     "tables are not %d x %d native uint32 words", NPAIRS, TABLE_WORDS);
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
    unsigned long long x = PyLong_AsUnsignedLongLong(arg);
    if (x == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    unsigned int b[8];
    for (int i = 0; i < 8; i++)
        b[i] = (unsigned int)(x >> (56 - 8 * i)) & 0xFF;
    const uint32_t *t = self->view.buf;
    uint32_t acc = 0;
    for (int i = 0; i < 7; i++)
        for (int j = i + 1; j < 8; j++, t += TABLE_WORDS)
            acc ^= t[b[i] << 8 | b[j]];
    return PyLong_FromUnsignedLong(acc);
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
    .tp_doc = "Evaluator(tables): the byte-pair table map, evaluated in C",
    .tp_methods = Evaluator_methods,
    .tp_new = Evaluator_new,
};

static struct PyModuleDef pmap_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_pmap",
    .m_doc = "Native byte-pair table evaluator.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__pmap(void)
{
    if (PyType_Ready(&EvaluatorType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&pmap_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "Evaluator", (PyObject *)&EvaluatorType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
