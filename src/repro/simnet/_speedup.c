/* _speedup.c — optional CPython accelerator for the timing-wheel kernels.
 *
 * Compiled on demand by `_accel.py` (plain `cc -O2 -shared -fPIC`, no
 * build-system dependency).  When the compile or the `configure()`
 * handshake fails the kernels keep their pure-Python paths, which are
 * semantically identical (tests/simnet/test_timing_wheel.py compares
 * dispatch order and every calendar counter), and `_accel` records why.
 *
 * What is compiled, for both drivers over the `_core` wheel:
 *
 *   wheel primitives   wheel_insert / wheel_cascade / wheel_peek /
 *                      wheel_next_batch — line-for-line ports of _core's
 *                      insert / _cascade_fifo / peek_structures /
 *                      next_batch_fifo.  One copy, parameterised by a slot
 *                      offset table (`Wheel`): `WS` is filled from
 *                      Simulator, `WC` from cells._Cell, which share the
 *                      `_core` attribute contract by design.
 *   dispatch_entry     the one dispatch body: Timeout / plain Event (with
 *                      the process resume and the timeout chain spin),
 *                      CallbackEntry, and `entry._run()` for anything else
 *                      (causality._CapturedEntry, Process completions, …).
 *   Simulator          schedule / call_in / timeout (fast *and* slow paths:
 *                      live-batch append, register park and spill, lazy
 *                      seq, stash/pool reuse with the pure counters) and
 *                      `_cdrain(stop, max_events)`, the whole run loop.
 *   CellSimulator      schedule / call_in / timeout / call_in_cell and its
 *                      `_cdrain` (the conservative-window grant loop).
 *
 * What stays pure, and why: anything that must raise (non-int, negative
 * or keyword-spelled arguments go to the pure method, so messages and
 * exception types have one source), `step()` / `peek()` /
 * `calendar_stats()`, batch restore (`_core.restore_fifo`, called from
 * here), the flat-heap calendar (schedule policies), and capture's
 * placement wrappers.
 *
 * All state lives in the same `__slots__` the Python code reads, through
 * member offsets captured at configure() time, and every store the pure
 * loops make happens here at the same point: `_now`, `_base`, `_batch`,
 * `_batch_time`, `_bi`, `_reg_free`, every counter, and
 * `events_executed` at batch start and at exit (count-before-dispatch).
 * So C and pure code interleave freely — `peek()`, `step()`, the
 * telemetry sampler and `calendar_stats()` called from inside a callback
 * read what they read on the pure kernel, and a mid-run exception leaves a
 * calendar the pure code resumes.  Bit-identical event ordering is the
 * contract; speed is just fewer interpreter dispatches.
 *
 * The refcount-based Timeout recycling translates directly: the Python
 * loops' `getrefcount(e) == 2` (frame local + getrefcount argument)
 * becomes `Py_REFCNT(e) == 1` here, because this code owns exactly one
 * strong reference to the dispatched event at the check site.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define CS0_BITS 12
#define CS0_SIZE (1LL << CS0_BITS)
#define CS0_MASK (CS0_SIZE - 1)
#define CS1_SIZE 4096LL
#define CS1_MASK (CS1_SIZE - 1)
#define CWHEEL_HORIZON ((CS1_SIZE - 1) << CS0_BITS)
#define CLL_INF LLONG_MAX

/* ------------------------------------------------------------------ */
/* configured state                                                    */
/* ------------------------------------------------------------------ */

/* Slot offsets of one wheel owner (the `_core` attribute contract). */
typedef struct {
    Py_ssize_t single, single_when, slots0, slots1, t0, t1, hq, dirty, base,
        nstruct, reg_free, l0, l1, hqi, casc;
} Wheel;
static const char *const WHEEL_SLOTS[] = {
    "_single", "_single_when", "_slots0", "_slots1", "_t0", "_t1", "_hq",
    "_dirty", "_base", "_nstruct", "_reg_free", "_l0_inserts", "_l1_inserts",
    "_hq_inserts", "_cascades"};
static Wheel WS; /* Simulator */
static Wheel WC; /* cells._Cell */

static struct {
    int configured;
    PyTypeObject *sim_type, *cellsim_type, *event_type, *timeout_type,
        *process_type, *cbe_type;
    /* Simulator slots (CellSimulator inherits them at the same offsets) */
    Py_ssize_t o_now, o_seq, o_stash, o_finish, o_cbe_pool, o_timeout_pool,
        o_to_cls, o_batch, o_batch_time, o_bi, o_events_exec, o_batches,
        o_batched, o_maxbatch, o_to_allocs, o_to_reuses, o_cbe_allocs,
        o_cbe_reuses;
    /* Event slots (one offset for every subclass), Timeout.delay */
    Py_ssize_t o_ev_sim, o_ev_cb1, o_ev_cbs, o_ev_value, o_ev_ok, o_ev_seq,
        o_to_delay;
    /* Process / CallbackEntry slots */
    Py_ssize_t o_pr_send, o_pr_throw, o_cbe_fn, o_cbe_arg, o_cbe_seq;
    long cbe_pool_max, timeout_pool_max;
    PyObject *processed;    /* _core._PROCESSED sentinel */
    PyObject *wait_on;      /* Process._wait_on (plain function) */
    PyObject *restore_fifo; /* _core.restore_fifo */
    PyObject *seq_of;       /* _core._seq_of (the batch sort key) */
    PyObject *sim_error;    /* SimulationError */
    /* pure placement methods (plain functions, called with sim prepended) */
    PyObject *py_schedule, *py_call_in, *py_timeout;
    PyObject *inf, *zero; /* float('inf') — the pure code's INF sentinel; int 0 */
    PyObject *str_run, *str_seq, *str_sort, *kw_key;
} S;

/* cells-only state */
static struct {
    PyObject *py_schedule, *py_call_in, *py_timeout, *py_call_in_cell;
    /* CellSimulator slots */
    Py_ssize_t o_cellmap, o_cells, o_nexts, o_ctrl, o_cur, o_decouple,
        o_cnt, o_rtcell, o_rttime, o_rheap, o_W, o_maxe, o_grants;
    /* _Cell slots beyond the wheel contract */
    Py_ssize_t c_i, c_name, c_now, c_instants, c_events, c_inbox, c_lastwin;
    /* CellMap slots */
    Py_ssize_t m_names, m_look;
    /* live next-instant mirror: while a C drain runs, cells_place keeps
     * this native copy of `_nexts` in sync so the grant loop's argmin
     * scans never unbox Python ints.  NULL outside a drain. */
    long long *nx_arr;
    Py_ssize_t nx_n;
} C;

#define SLOT(ob, off) (*(PyObject **)((char *)(ob) + (off)))

/* Replace the object in a slot with a reference we own; drops the old one. */
static inline void
store_slot(PyObject *ob, Py_ssize_t off, PyObject *newref)
{
    PyObject **p = (PyObject **)((char *)ob + off);
    PyObject *old = *p;
    *p = newref;
    Py_XDECREF(old);
}

static int
member_offset(PyObject *type, const char *name, Py_ssize_t *out)
{
    PyObject *d = PyObject_GetAttrString(type, name);
    if (d == NULL)
        return -1;
    if (!Py_IS_TYPE(d, &PyMemberDescr_Type)) {
        Py_DECREF(d);
        PyErr_Format(PyExc_TypeError, "%s is not a __slots__ member", name);
        return -1;
    }
    PyMemberDef *m = ((PyMemberDescrObject *)d)->d_member;
    if (m->type != T_OBJECT_EX) {
        Py_DECREF(d);
        PyErr_Format(PyExc_TypeError, "%s is not an object slot", name);
        return -1;
    }
    *out = m->offset;
    Py_DECREF(d);
    return 0;
}

/* Read a time/counter slot value: exact int, or float (only ever the INF
 * sentinel) mapping to CLL_INF.  Returns -1 with an exception set on
 * conversion failure (real values are never negative). */
static long long
obj_ll(PyObject *o)
{
    if (PyFloat_Check(o))
        return CLL_INF;
    return PyLong_AsLongLong(o);
}

#define LL_ERR(v) ((v) == -1 && PyErr_Occurred())

/* A drain gate (`stop` / `max_events`): the least integer g such that
 * `x >= gate` iff `x >= g` for integer x; CLL_INF for inf and beyond. */
static long long
gate_ll(PyObject *o)
{
    if (PyFloat_Check(o)) {
        double v = PyFloat_AS_DOUBLE(o);
        if (!(v < 9e18))
            return CLL_INF;
        long long k = (long long)v;
        return (double)k < v ? k + 1 : k;
    }
    long long v = PyLong_AsLongLong(o);
    if (LL_ERR(v)) {
        PyErr_Clear();
        return CLL_INF;
    }
    return v;
}

/* slot += d for an int-valued slot */
static int
bump_slot(PyObject *ob, Py_ssize_t off, long long d)
{
    long long v = obj_ll(SLOT(ob, off));
    if (LL_ERR(v))
        return -1;
    PyObject *nw = PyLong_FromLongLong(v + d);
    if (nw == NULL)
        return -1;
    store_slot(ob, off, nw);
    return 0;
}

/* ------------------------------------------------------------------ */
/* binary heap on a Python list, ordered by PyObject_RichCompareBool   */
/* (items are int/tuple keys — identical ordering to heapq's)          */
/* ------------------------------------------------------------------ */
/* Every heap here holds *unique* keys (occupied slot times, bucket
 * numbers, (when, seq, entry) with unique seqs, the cells (target, source,
 * cnt) placement key), so pop order equals sorted order regardless of
 * internal layout — this heap need not replicate heapq's array layout,
 * and pure heapq calls interleave with it on the same list. */
static int
heap_push(PyObject *h, PyObject *item)
{
    if (PyList_Append(h, item) < 0)
        return -1;
    Py_ssize_t pos = PyList_GET_SIZE(h) - 1;
    while (pos > 0) {
        Py_ssize_t par = (pos - 1) >> 1;
        PyObject *pi = PyList_GET_ITEM(h, par);
        PyObject *ci = PyList_GET_ITEM(h, pos);
        int lt = PyObject_RichCompareBool(ci, pi, Py_LT);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        PyList_SET_ITEM(h, par, ci); /* references swap positions */
        PyList_SET_ITEM(h, pos, pi);
        pos = par;
    }
    return 0;
}

static int
heap_siftdown(PyObject *h, Py_ssize_t pos)
{
    Py_ssize_t n = PyList_GET_SIZE(h);
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n) {
            int lt = PyObject_RichCompareBool(PyList_GET_ITEM(h, child + 1),
                                              PyList_GET_ITEM(h, child),
                                              Py_LT);
            if (lt < 0)
                return -1;
            if (lt)
                child++;
        }
        PyObject *ci = PyList_GET_ITEM(h, child);
        PyObject *pi = PyList_GET_ITEM(h, pos);
        int lt = PyObject_RichCompareBool(ci, pi, Py_LT);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        PyList_SET_ITEM(h, pos, ci);
        PyList_SET_ITEM(h, child, pi);
        pos = child;
    }
    return 0;
}

/* Pop the minimum item; returns a new reference (NULL + IndexError when
 * empty, NULL + error on comparison failure). */
static PyObject *
heap_pop(PyObject *h)
{
    Py_ssize_t n = PyList_GET_SIZE(h);
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty heap");
        return NULL;
    }
    PyObject *last = PyList_GET_ITEM(h, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(h, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *ret = PyList_GET_ITEM(h, 0);
    Py_INCREF(ret);
    PyList_SetItem(h, 0, last); /* steals last, releases the old head */
    if (heap_siftdown(h, 0) < 0) {
        Py_DECREF(ret);
        return NULL;
    }
    return ret;
}

/* Time at the head of a heap of ints (`hq` = 0) or of (when, seq, entry)
 * triples (`hq` = 1); CLL_INF when empty. */
static long long
heap_head(PyObject *h, int hq)
{
    if (!PyList_GET_SIZE(h))
        return CLL_INF;
    PyObject *top = PyList_GET_ITEM(h, 0);
    return obj_ll(hq ? PyTuple_GET_ITEM(top, 0) : top);
}

/* ------------------------------------------------------------------ */
/* entry._seq access (an int on the FIFO wheel, the (target, source,   */
/* cnt) key tuple under cells)                                         */
/* ------------------------------------------------------------------ */
static PyObject * /* new reference */
get_seq(PyObject *e)
{
    PyTypeObject *t = Py_TYPE(e);
    PyObject *s;
    if (t == S.cbe_type)
        s = SLOT(e, S.o_cbe_seq);
    else if (t == S.timeout_type || PyObject_TypeCheck(e, S.event_type))
        s = SLOT(e, S.o_ev_seq);
    else
        return PyObject_GetAttr(e, S.str_seq);
    if (s == NULL) {
        PyErr_SetString(PyExc_AttributeError, "_seq");
        return NULL;
    }
    return Py_NewRef(s);
}

static int
set_seq(PyObject *e, PyObject *key)
{
    PyTypeObject *t = Py_TYPE(e);
    if (t == S.cbe_type)
        store_slot(e, S.o_cbe_seq, Py_NewRef(key));
    else if (t == S.timeout_type || PyObject_TypeCheck(e, S.event_type))
        store_slot(e, S.o_ev_seq, Py_NewRef(key));
    else
        return PyObject_SetAttr(e, S.str_seq, key);
    return 0;
}

/* ------------------------------------------------------------------ */
/* wheel primitives (ports of _core insert/cascade/peek/next_batch),   */
/* shared by Simulator (&WS) and _Cell (&WC)                           */
/* ------------------------------------------------------------------ */

/* _core.insert(ob, when, entry): FIFO wheel insert.  `when_obj` must
 * be a borrowed int object equal to `when`. */
static int
wheel_insert(PyObject *ob, const Wheel *w, long long when, PyObject *when_obj,
             PyObject *entry)
{
    store_slot(ob, w->reg_free, Py_NewRef(Py_False));
    long long base = obj_ll(SLOT(ob, w->base));
    if (LL_ERR(base))
        return -1;
    long long d = when - base;
    if (d < CS0_SIZE) {
        Py_ssize_t idx = (Py_ssize_t)(when & CS0_MASK);
        PyObject *s0 = SLOT(ob, w->slots0);
        PyObject *cur = PyList_GET_ITEM(s0, idx);
        if (cur == Py_None) {
            PyObject *nl = PyList_New(1);
            if (nl == NULL)
                return -1;
            PyList_SET_ITEM(nl, 0, Py_NewRef(entry));
            if (PyList_SetItem(s0, idx, nl) < 0)
                return -1;
            if (heap_push(SLOT(ob, w->t0), when_obj) < 0)
                return -1;
        }
        else if (PyList_Append(cur, entry) < 0)
            return -1;
        if (bump_slot(ob, w->l0, 1) < 0)
            return -1;
    }
    else if (d < CWHEEL_HORIZON) {
        long long b = when >> CS0_BITS;
        Py_ssize_t idx = (Py_ssize_t)(b & CS1_MASK);
        PyObject *item = PyTuple_Pack(2, when_obj, entry);
        if (item == NULL)
            return -1;
        PyObject *s1 = SLOT(ob, w->slots1);
        PyObject *cur = PyList_GET_ITEM(s1, idx);
        if (cur == Py_None) {
            PyObject *nl = PyList_New(1);
            if (nl == NULL) {
                Py_DECREF(item);
                return -1;
            }
            PyList_SET_ITEM(nl, 0, item); /* steals item */
            if (PyList_SetItem(s1, idx, nl) < 0)
                return -1;
            PyObject *bo = PyLong_FromLongLong(b);
            if (bo == NULL)
                return -1;
            int rc = heap_push(SLOT(ob, w->t1), bo);
            Py_DECREF(bo);
            if (rc < 0)
                return -1;
        }
        else {
            int rc = PyList_Append(cur, item);
            Py_DECREF(item);
            if (rc < 0)
                return -1;
        }
        if (bump_slot(ob, w->l1, 1) < 0)
            return -1;
    }
    else {
        PyObject *seq = get_seq(entry);
        if (seq == NULL)
            return -1;
        PyObject *trip = PyTuple_Pack(3, when_obj, seq, entry);
        Py_DECREF(seq);
        if (trip == NULL)
            return -1;
        int rc = heap_push(SLOT(ob, w->hq), trip);
        Py_DECREF(trip);
        if (rc < 0)
            return -1;
        if (bump_slot(ob, w->hqi, 1) < 0)
            return -1;
    }
    return bump_slot(ob, w->nstruct, 1);
}

/* _core._cascade_fifo(ob, b) */
static int
wheel_cascade(PyObject *ob, const Wheel *w, long long b)
{
    PyObject *popped = heap_pop(SLOT(ob, w->t1));
    if (popped == NULL)
        return -1;
    Py_DECREF(popped);
    Py_ssize_t idx = (Py_ssize_t)(b & CS1_MASK);
    PyObject *s1 = SLOT(ob, w->slots1);
    PyObject *entries = PyList_GET_ITEM(s1, idx);
    Py_INCREF(entries);
    if (PyList_SetItem(s1, idx, Py_NewRef(Py_None)) < 0) {
        Py_DECREF(entries);
        return -1;
    }
    long long lb = b << CS0_BITS;
    long long base = obj_ll(SLOT(ob, w->base));
    if (LL_ERR(base))
        goto fail;
    if (lb > base) {
        PyObject *nb = PyLong_FromLongLong(lb);
        if (nb == NULL)
            goto fail;
        store_slot(ob, w->base, nb);
    }
    {
        PyObject *s0 = SLOT(ob, w->slots0);
        PyObject *t0 = SLOT(ob, w->t0);
        char *db = PyByteArray_AsString(SLOT(ob, w->dirty));
        if (db == NULL)
            goto fail;
        Py_ssize_t n = PyList_GET_SIZE(entries);
        for (Py_ssize_t k = 0; k < n; k++) {
            PyObject *item = PyList_GET_ITEM(entries, k); /* (when, entry) */
            PyObject *wo = PyTuple_GET_ITEM(item, 0);
            PyObject *entry = PyTuple_GET_ITEM(item, 1);
            long long when = obj_ll(wo);
            if (LL_ERR(when))
                goto fail;
            Py_ssize_t i = (Py_ssize_t)(when & CS0_MASK);
            PyObject *cur = PyList_GET_ITEM(s0, i);
            if (cur == Py_None) {
                PyObject *nl = PyList_New(1);
                if (nl == NULL)
                    goto fail;
                PyList_SET_ITEM(nl, 0, Py_NewRef(entry));
                if (PyList_SetItem(s0, i, nl) < 0)
                    goto fail;
                if (heap_push(t0, wo) < 0)
                    goto fail;
            }
            else if (PyList_Append(cur, entry) < 0)
                goto fail;
            /* cascaded entries carry older seqs than direct inserts that
             * may already sit in the slot: seq-sort it at assembly */
            db[i] = 1;
        }
    }
    Py_DECREF(entries);
    return bump_slot(ob, w->casc, 1);
fail:
    Py_DECREF(entries);
    return -1;
}

/* Register time, else _core.peek_structures(ob): CLL_INF when idle, -1
 * with an exception on failure. */
static long long
wheel_peek(PyObject *ob, const Wheel *w)
{
    if (SLOT(ob, w->single) != Py_None)
        return obj_ll(SLOT(ob, w->single_when));
    long long ns = obj_ll(SLOT(ob, w->nstruct));
    if (LL_ERR(ns))
        return -1;
    if (ns == 0)
        return CLL_INF;
    long long t = heap_head(SLOT(ob, w->t0), 0);
    long long th = heap_head(SLOT(ob, w->hq), 1);
    if (LL_ERR(t) || LL_ERR(th))
        return -1;
    if (th < t)
        t = th;
    PyObject *t1 = SLOT(ob, w->t1);
    if (PyList_GET_SIZE(t1)) {
        long long b = obj_ll(PyList_GET_ITEM(t1, 0));
        if (LL_ERR(b))
            return -1;
        if ((b << CS0_BITS) < t) {
            PyObject *bucket = PyList_GET_ITEM(SLOT(ob, w->slots1),
                                               (Py_ssize_t)(b & CS1_MASK));
            Py_ssize_t n = PyList_GET_SIZE(bucket);
            for (Py_ssize_t k = 0; k < n; k++) {
                long long bw = obj_ll(
                    PyTuple_GET_ITEM(PyList_GET_ITEM(bucket, k), 0));
                if (LL_ERR(bw))
                    return -1;
                if (bw < t)
                    t = bw;
            }
        }
    }
    return t;
}

/* _core.next_batch_fifo(ob): remove the minimum pending instant from the
 * structures.  Returns its entry list (new reference) with *t_out and
 * *t_obj (new reference) set; NULL with *t_out == CLL_INF and no exception
 * when the structures are empty, NULL with an exception on error.
 * `fifo` requests dispatch (seq) order — the dirty-slot sort and the
 * overflow-merge sort; the cells kernel re-keys the batch into a heap
 * and skips them. */
static PyObject *
wheel_next_batch(PyObject *ob, const Wheel *w, long long *t_out,
                 PyObject **t_obj, int fifo)
{
    PyObject *t0h = SLOT(ob, w->t0);
    PyObject *t1h = SLOT(ob, w->t1);
    PyObject *hq = SLOT(ob, w->hq);
    *t_out = CLL_INF;
    *t_obj = NULL;
    while (PyList_GET_SIZE(t1h)) {
        long long b = obj_ll(PyList_GET_ITEM(t1h, 0));
        long long f0 = heap_head(t0h, 0), fh = heap_head(hq, 1);
        if (LL_ERR(b) || LL_ERR(f0) || LL_ERR(fh))
            return NULL;
        long long lb = b << CS0_BITS;
        if (f0 < lb || fh < lb)
            break;
        if (wheel_cascade(ob, w, b) < 0)
            return NULL;
    }
    long long t = heap_head(t0h, 0), th = heap_head(hq, 1);
    if (LL_ERR(t) || LL_ERR(th))
        return NULL;
    PyObject *ls = NULL;
    if (t != CLL_INF && t <= th) {
        *t_obj = heap_pop(t0h);
        if (*t_obj == NULL)
            return NULL;
        Py_ssize_t idx = (Py_ssize_t)(t & CS0_MASK);
        PyObject *s0 = SLOT(ob, w->slots0);
        ls = PyList_GET_ITEM(s0, idx);
        Py_INCREF(ls);
        if (PyList_SetItem(s0, idx, Py_NewRef(Py_None)) < 0)
            goto fail;
        char *db = PyByteArray_AsString(SLOT(ob, w->dirty));
        if (db == NULL)
            goto fail;
        /* one sort serves both pure sorts: seqs are unique, so sorting
         * once after the merge yields the same order */
        int sort = db[idx] && PyList_GET_SIZE(ls) > 1;
        db[idx] = 0;
        while (th == t) {
            PyObject *trip = heap_pop(hq);
            if (trip == NULL)
                goto fail;
            int rc = PyList_Append(ls, PyTuple_GET_ITEM(trip, 2));
            Py_DECREF(trip);
            th = heap_head(hq, 1);
            if (rc < 0 || LL_ERR(th))
                goto fail;
            sort = 1;
        }
        if (sort && fifo) {
            PyObject *sargs[2] = {ls, S.seq_of};
            PyObject *r =
                PyObject_VectorcallMethod(S.str_sort, sargs, 1, S.kw_key);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
    }
    else if (th != CLL_INF) {
        t = th;
        *t_obj = Py_NewRef(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
        ls = PyList_New(0);
        if (ls == NULL)
            goto fail;
        while (th == t) {
            PyObject *trip = heap_pop(hq);
            if (trip == NULL)
                goto fail;
            int rc = PyList_Append(ls, PyTuple_GET_ITEM(trip, 2));
            Py_DECREF(trip);
            th = heap_head(hq, 1);
            if (rc < 0 || LL_ERR(th))
                goto fail;
        }
    }
    else
        return NULL; /* empty: *t_out stays CLL_INF, no exception */
    if (bump_slot(ob, w->nstruct, -PyList_GET_SIZE(ls)) < 0)
        goto fail;
    *t_out = t;
    return ls;
fail:
    Py_XDECREF(ls);
    Py_CLEAR(*t_obj);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* dispatch of one calendar entry — the one body every C loop uses     */
/* ------------------------------------------------------------------ */

/* Run and clear e._cbs (`for fn in cbs: fn(e)` on a stolen list). */
static int
run_cbs(PyObject *e)
{
    PyObject *cbs = SLOT(e, S.o_ev_cbs);
    if (cbs == Py_None)
        return 0;
    Py_INCREF(cbs);
    store_slot(e, S.o_ev_cbs, Py_NewRef(Py_None));
    PyObject *it = PyObject_GetIter(cbs);
    Py_DECREF(cbs);
    if (it == NULL)
        return -1;
    PyObject *fn;
    while ((fn = PyIter_Next(it)) != NULL) {
        PyObject *r = PyObject_CallOneArg(fn, e);
        Py_DECREF(fn);
        if (r == NULL) {
            Py_DECREF(it);
            return -1;
        }
        Py_DECREF(r);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

/* Consume our reference to a dispatched Timeout: recycle it when provably
 * external-free (the Python loops' `if getrefcount(e) == 2`), else drop.
 * The register regime overwrites the stash (dropping one pooled object —
 * never incorrect); a batch fills the stash only when empty, then the
 * bounded pool.  Both are observable in `timeout_pool`, so both stay. */
static int
recycle_timeout(PyObject *sim, PyObject *e, int reg)
{
    if (Py_REFCNT(e) == 1) {
        PyObject *st = SLOT(sim, S.o_stash);
        if (reg || st == Py_None) {
            store_slot(sim, S.o_stash, e); /* steals our reference */
            return 0;
        }
        PyObject *pool = SLOT(sim, S.o_timeout_pool);
        if (PyList_GET_SIZE(pool) < S.timeout_pool_max) {
            int rc = PyList_Append(pool, e);
            Py_DECREF(e);
            return rc;
        }
    }
    Py_DECREF(e);
    return 0;
}

/* The generator raised (or returned): normalize the exception, run the
 * process-finish protocol exactly as `except BaseException as exc:
 * finish(cb, exc)` would, with the exception installed as "currently
 * handled" so secondary raises chain their __context__; then e._cbs. */
static int
finish_process(PyObject *sim, PyObject *cb, PyObject *e)
{
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    if (et == NULL) {
        PyErr_SetString(PyExc_SystemError, "send failed without an exception");
        return -1;
    }
    PyErr_NormalizeException(&et, &ev, &tb);
    if (tb != NULL)
        PyException_SetTraceback(ev, tb);
#if PY_VERSION_HEX >= 0x030B0000
    PyObject *prev = PyErr_GetHandledException();
    PyErr_SetHandledException(ev);
#else
    PyObject *pt, *pv, *ptb;
    PyErr_GetExcInfo(&pt, &pv, &ptb);
    PyErr_SetExcInfo(Py_NewRef(et), Py_NewRef(ev),
                     tb ? Py_NewRef(tb) : NULL);
#endif
    int ok = -1;
    PyObject *fargs[2] = {cb, ev};
    PyObject *r = PyObject_Vectorcall(SLOT(sim, S.o_finish), fargs, 2, NULL);
    if (r != NULL) {
        Py_DECREF(r);
        if (run_cbs(e) == 0)
            ok = 0;
    }
#if PY_VERSION_HEX >= 0x030B0000
    PyErr_SetHandledException(prev);
    Py_XDECREF(prev);
#else
    PyErr_SetExcInfo(pt, pv, ptb);
#endif
    Py_DECREF(et);
    Py_DECREF(ev);
    Py_XDECREF(tb);
    return ok;
}

/* Gates of a monolithic drain; a non-NULL pointer also marks the register
 * regime for dispatch_entry. */
typedef struct {
    long long n;    /* events taken off the calendar (count-before-dispatch) */
    long long maxe; /* event cap, CLL_INF = none */
    long long stop; /* stop time, CLL_INF = none */
} Gates;

/* Dispatch one entry, consuming the `e` reference.
 *
 * Timeout and plain Event entries run Event._run with the
 * Process.__call__ → _wait_on resume collapsed into C: a process waiter is
 * resumed directly, and a fresh local timeout it yields takes the process
 * as its single waiter in place.  `reg` (register regime only) enables the
 * chain spin: while that timeout sits alone in the register and no gate is
 * due, it is popped and dispatched here, (event, process) staying in
 * locals.  Register-occupied ⟹ structures empty, so the register entry is
 * always the global minimum.  Breaking out of the spin is always safe —
 * the caller's loop finds the same entry in the register.
 *
 * CallbackEntry runs fn(arg) and is pooled unconditionally; everything
 * else (a Process completion, causality's wrapper, …) goes through its own
 * `_run()`. */
static int
dispatch_entry(PyObject *sim, PyObject *e, Gates *reg)
{
    PyTypeObject *cls = Py_TYPE(e);
    int is_to = cls == S.timeout_type;
    if (is_to || cls == S.event_type) {
        PyObject *cb = Py_NewRef(SLOT(e, S.o_ev_cb1));
        store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
        if (Py_TYPE(cb) == S.process_type) {
            for (;;) {
                /* a Timeout always succeeded; an Event resumes by _ok */
                PyObject *fn = SLOT(
                    cb, is_to || SLOT(e, S.o_ev_ok) == Py_True ? S.o_pr_send
                                                               : S.o_pr_throw);
                PyObject *val = SLOT(e, S.o_ev_value);
                Py_INCREF(fn);
                Py_INCREF(val);
                PyObject *nxt = PyObject_CallOneArg(fn, val);
                Py_DECREF(fn);
                Py_DECREF(val);
                if (nxt == NULL) {
                    /* finish_process runs e._cbs itself */
                    if (finish_process(sim, cb, e) < 0)
                        goto err;
                    break;
                }
                int wired = Py_TYPE(nxt) == S.timeout_type &&
                            SLOT(nxt, S.o_ev_cb1) == Py_None &&
                            SLOT(nxt, S.o_ev_sim) == sim;
                if (wired)
                    store_slot(nxt, S.o_ev_cb1, Py_NewRef(cb));
                else {
                    PyObject *wargs[2] = {cb, nxt};
                    PyObject *r =
                        PyObject_Vectorcall(S.wait_on, wargs, 2, NULL);
                    if (r == NULL) {
                        Py_DECREF(nxt);
                        goto err;
                    }
                    Py_DECREF(r);
                }
                if (run_cbs(e) < 0) {
                    Py_DECREF(nxt);
                    goto err;
                }
                /* spin iff nxt still sits in the register (an e._cbs
                 * callback may have migrated it) and no gate is due */
                int spin = wired && reg != NULL &&
                           SLOT(sim, WS.single) == nxt && reg->n < reg->maxe;
                if (spin && reg->stop != CLL_INF) {
                    long long w = obj_ll(SLOT(sim, WS.single_when));
                    if (LL_ERR(w))
                        PyErr_Clear(); /* the caller's loop reports it */
                    spin = w >= 0 && w <= reg->stop;
                }
                if (!spin) {
                    Py_DECREF(nxt);
                    break;
                }
                if (is_to)
                    (void)recycle_timeout(sim, e, 1); /* stash: cannot fail */
                else
                    Py_DECREF(e);
                /* pop the register: we keep the call-result reference */
                e = nxt;
                is_to = 1;
                store_slot(sim, WS.single, Py_NewRef(Py_None));
                store_slot(sim, S.o_now,
                           Py_NewRef(SLOT(sim, WS.single_when)));
                store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
                reg->n++;
            }
        }
        else {
            if (cb != Py_None) {
                PyObject *r = PyObject_CallOneArg(cb, e);
                if (r == NULL)
                    goto err;
                Py_DECREF(r);
            }
            if (run_cbs(e) < 0)
                goto err;
        }
        Py_DECREF(cb);
        if (is_to)
            return recycle_timeout(sim, e, reg != NULL);
        Py_DECREF(e); /* plain events are GC'd like in pure */
        return 0;
    err:
        Py_DECREF(cb);
        Py_DECREF(e);
        return -1;
    }
    PyObject *r;
    if (cls == S.cbe_type) {
        PyObject *fn = Py_NewRef(SLOT(e, S.o_cbe_fn));
        PyObject *arg = Py_NewRef(SLOT(e, S.o_cbe_arg));
        r = PyObject_CallOneArg(fn, arg);
        Py_DECREF(fn);
        Py_DECREF(arg);
        PyObject *pool = SLOT(sim, S.o_cbe_pool);
        if (r != NULL && PyList_GET_SIZE(pool) < S.cbe_pool_max) {
            store_slot(e, S.o_cbe_fn, Py_NewRef(Py_None));
            store_slot(e, S.o_cbe_arg, Py_NewRef(Py_None));
            if (PyList_Append(pool, e) < 0)
                Py_CLEAR(r);
        }
    }
    else
        r = PyObject_CallMethodNoArgs(e, S.str_run);
    Py_DECREF(e);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* placement helpers shared by both drivers                            */
/* ------------------------------------------------------------------ */

/* Hand the call to the pure method: odd signatures and everything that
 * must raise (non-int, bool, negative delays). */
static PyObject *
call_pure(PyObject *fn, PyObject *sim, PyObject *const *args,
          Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *stack[8];
    Py_ssize_t total =
        nargs + (kwnames != NULL ? PyTuple_GET_SIZE(kwnames) : 0);
    if (total + 1 > 8) {
        PyErr_SetString(PyExc_TypeError, "too many arguments");
        return NULL;
    }
    stack[0] = sim;
    for (Py_ssize_t i = 0; i < total; i++)
        stack[i + 1] = args[i];
    return PyObject_Vectorcall(fn, stack, nargs + 1, kwnames);
}

/* *when = `sim._now + delay` for an exact non-negative int delay; 0 (no
 * exception set) when the call belongs to the pure method instead. */
static int
when_after(PyObject *sim, PyObject *delay, long long *when)
{
    if (!PyLong_CheckExact(delay))
        return 0;
    long long dl = PyLong_AsLongLong(delay);
    long long now = obj_ll(SLOT(sim, S.o_now));
    if (LL_ERR(dl) || LL_ERR(now)) {
        PyErr_Clear();
        return 0;
    }
    if (dl < 0 || now < 0 || dl > CLL_INF - 1 - now)
        return 0;
    *when = now + dl;
    return 1;
}

/* Pop a recycled CallbackEntry (or allocate one) with fn/arg wired;
 * returns a new reference.  Allocations always count; reuses count when
 * `count_reuse` (the wheel's register fast path does not). */
static PyObject *
cbe_acquire(PyObject *sim, PyObject *fn, PyObject *arg, int count_reuse)
{
    PyObject *pool = SLOT(sim, S.o_cbe_pool);
    Py_ssize_t psz = PyList_GET_SIZE(pool);
    PyObject *e;
    if (psz > 0) {
        e = Py_NewRef(PyList_GET_ITEM(pool, psz - 1));
        if (PyList_SetSlice(pool, psz - 1, psz, NULL) < 0 ||
            (count_reuse && bump_slot(sim, S.o_cbe_reuses, 1) < 0)) {
            Py_DECREF(e);
            return NULL;
        }
        store_slot(e, S.o_cbe_fn, Py_NewRef(fn));
        store_slot(e, S.o_cbe_arg, Py_NewRef(arg));
        return e;
    }
    e = PyObject_CallFunctionObjArgs((PyObject *)S.cbe_type, fn, arg, NULL);
    if (e != NULL && bump_slot(sim, S.o_cbe_allocs, 1) < 0)
        Py_CLEAR(e);
    return e;
}

/* The pure timeout slow paths' acquisition: stash, then pool (both count a
 * reuse and get delay/value/_cb1 reset — *placed = 0, the caller places
 * the result), else a fresh Timeout, whose __init__ places itself through
 * sim.schedule (*placed = 1).  Returns a new reference. */
static PyObject *
timeout_acquire(PyObject *sim, PyObject *delay, PyObject *value, int *placed)
{
    PyObject *t = SLOT(sim, S.o_stash);
    if (t != Py_None) {
        Py_INCREF(t);
        store_slot(sim, S.o_stash, Py_NewRef(Py_None));
    }
    else {
        PyObject *pool = SLOT(sim, S.o_timeout_pool);
        Py_ssize_t psz = PyList_GET_SIZE(pool);
        if (psz == 0) {
            *placed = 1;
            if (bump_slot(sim, S.o_to_allocs, 1) < 0)
                return NULL;
            return PyObject_CallFunctionObjArgs(SLOT(sim, S.o_to_cls), sim,
                                                delay, value, NULL);
        }
        t = Py_NewRef(PyList_GET_ITEM(pool, psz - 1));
        if (PyList_SetSlice(pool, psz - 1, psz, NULL) < 0) {
            Py_DECREF(t);
            return NULL;
        }
    }
    *placed = 0;
    if (bump_slot(sim, S.o_to_reuses, 1) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    store_slot(t, S.o_to_delay, Py_NewRef(delay));
    store_slot(t, S.o_ev_value, Py_NewRef(value));
    store_slot(t, S.o_ev_cb1, Py_NewRef(Py_None));
    return t;
}

/* ================================================================== */
/* Simulator — the monolithic timing wheel (kernel.py + _core.py)      */
/* ================================================================== */

#define REG_OPEN(sim) \
    (SLOT(sim, WS.reg_free) == Py_True && SLOT(sim, WS.single) == Py_None)

/* sim._seq += 1; entry._seq = sim._seq (lazy: structure inserts only) */
static int
assign_seq(PyObject *sim, PyObject *entry)
{
    if (bump_slot(sim, S.o_seq, 1) < 0)
        return -1;
    return set_seq(entry, SLOT(sim, S.o_seq));
}

/* Placement, as Simulator._{schedule,call_in,timeout}_wheel do it.  The
 * register fast path first (`_reg_free`: no live batch, empty structures),
 * then the tail the three `_slow` methods share: join the live batch,
 * park in the register, or spill the register and insert. */
static int
wheel_place(PyObject *sim, PyObject *entry, long long when)
{
    int open = REG_OPEN(sim); /* the pure fast paths' one test */
    PyObject *b = SLOT(sim, S.o_batch);
    if (!open && b != Py_None) {
        long long bt = obj_ll(SLOT(sim, S.o_batch_time));
        if (LL_ERR(bt))
            return -1;
        if (when == bt) /* joins the live batch, after everything in it */
            return PyList_Append(b, entry);
    }
    PyObject *when_obj = PyLong_FromLongLong(when);
    if (when_obj == NULL)
        return -1;
    int rc = -1;
    PyObject *s = SLOT(sim, WS.single);
    if (s == Py_None) {
        if (!open) {
            long long ns = obj_ll(SLOT(sim, WS.nstruct));
            if (LL_ERR(ns))
                goto done;
            open = ns == 0 && b == Py_None;
        }
        if (open) {
            store_slot(sim, WS.single, Py_NewRef(entry));
            store_slot(sim, WS.single_when, when_obj); /* steals */
            return 0;
        }
    }
    else {
        /* second pending entry: spill the register into the structures,
         * which are empty — re-anchor freely */
        Py_INCREF(s);
        store_slot(sim, WS.single, Py_NewRef(Py_None));
        store_slot(sim, WS.base, Py_NewRef(SLOT(sim, S.o_now)));
        PyObject *swo = SLOT(sim, WS.single_when);
        long long sw = obj_ll(swo);
        int bad = LL_ERR(sw) || assign_seq(sim, s) < 0 ||
                  wheel_insert(sim, &WS, sw, swo, s) < 0;
        Py_DECREF(s);
        if (bad)
            goto done;
    }
    if (assign_seq(sim, entry) == 0)
        rc = wheel_insert(sim, &WS, when, when_obj, entry);
done:
    Py_DECREF(when_obj);
    return rc;
}

static PyObject *
wheel_schedule(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    long long when;
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !when_after(sim, nargs == 2 ? args[1] : S.zero, &when))
        return call_pure(S.py_schedule, sim, args, nargs, kwnames);
    if (wheel_place(sim, args[0], when) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
wheel_call_in(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    long long when;
    if (kwnames != NULL || nargs < 2 || nargs > 3 ||
        !when_after(sim, args[0], &when))
        return call_pure(S.py_call_in, sim, args, nargs, kwnames);
    /* the pure register fast path pops the pool without counting a reuse */
    PyObject *e = cbe_acquire(sim, args[1], nargs == 3 ? args[2] : Py_None,
                              !REG_OPEN(sim));
    int rc = e == NULL ? -1 : wheel_place(sim, e, when);
    Py_XDECREF(e);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
wheel_timeout(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    long long when;
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !when_after(sim, args[0], &when))
        return call_pure(S.py_timeout, sim, args, nargs, kwnames);
    PyObject *value = nargs == 2 ? args[1] : Py_None;
    PyObject *t = SLOT(sim, S.o_stash);
    int placed = 0;
    if (t != Py_None && REG_OPEN(sim)) {
        /* the pure fast path: stash hit onto an empty calendar, not
         * counted as a reuse (see Simulator._timeout_wheel) */
        Py_INCREF(t);
        store_slot(sim, S.o_stash, Py_NewRef(Py_None));
        store_slot(t, S.o_to_delay, Py_NewRef(args[0]));
        store_slot(t, S.o_ev_value, Py_NewRef(value));
        store_slot(t, S.o_ev_cb1, Py_NewRef(Py_None));
    }
    else
        t = timeout_acquire(sim, args[0], value, &placed);
    if (t != NULL && !placed && wheel_place(sim, t, when) < 0)
        Py_CLEAR(t);
    return t;
}

/* _core.restore_fifo(sim, t, ls, i) — stays pure (it runs once per
 * interrupted run()); a pending exception survives it, and a failed
 * restore never masks that original. */
static int
wheel_restore(PyObject *sim, PyObject *t_obj, PyObject *ls, Py_ssize_t i)
{
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    PyObject *io = PyLong_FromSsize_t(i);
    PyObject *r = io == NULL ? NULL
                             : PyObject_CallFunctionObjArgs(
                                   S.restore_fifo, sim, t_obj, ls, io, NULL);
    int ok = r != NULL;
    Py_XDECREF(io);
    Py_XDECREF(r);
    if (et != NULL) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
        return -1;
    }
    return ok ? 0 : -1;
}

/* Simulator._cdrain(stop, max_events) — _core.drain_fifo and
 * drain_fifo_gated as one loop (`inf` = gate unset): the register regime,
 * then batch assembly, then the take-and-null batch loop with its
 * live-append re-check.  Events are counted when they leave the calendar,
 * *before* their callbacks run, so an exception escaping a callback
 * leaves the same `events_executed` the pure loops leave. */
static PyObject *
wheel_drain(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_cdrain() takes (stop, max_events)");
        return NULL;
    }
    Gates g = {0, gate_ll(args[1]), gate_ll(args[0])};
    long long n0 = obj_ll(SLOT(sim, S.o_events_exec));
    if (LL_ERR(n0))
        return NULL;
    PyObject *ls = NULL, *t_obj = NULL; /* the live batch, while one runs */
    Py_ssize_t i = 0;
    int rc = -1;
    for (;;) {
        PyObject *e = SLOT(sim, WS.single);
        if (e != Py_None) {
            if (g.stop != CLL_INF) {
                long long w = obj_ll(SLOT(sim, WS.single_when));
                if (LL_ERR(w))
                    break;
                if (w > g.stop) {
                    store_slot(sim, S.o_now, Py_NewRef(args[0]));
                    rc = 0;
                    break;
                }
            }
            /* pop the register (the slot's reference becomes ours) */
            SLOT(sim, WS.single) = Py_NewRef(Py_None);
            store_slot(sim, S.o_now, Py_NewRef(SLOT(sim, WS.single_when)));
            g.n++;
            if (dispatch_entry(sim, e, &g) < 0)
                break;
            if (g.n >= g.maxe) {
                PyErr_Format(S.sim_error, "exceeded max_events=%S", args[1]);
                break;
            }
            continue;
        }
        long long t;
        ls = wheel_next_batch(sim, &WS, &t, &t_obj, 1);
        if (ls == NULL) {
            rc = PyErr_Occurred() ? -1 : 0;
            break;
        }
        if (t > g.stop) {
            /* not due: put the batch back, exactly as the gated drain */
            rc = wheel_restore(sim, t_obj, ls, 0);
            if (rc == 0)
                store_slot(sim, S.o_now, Py_NewRef(args[0]));
            Py_CLEAR(ls);
            break;
        }
        i = 0;
        PyObject *ee = PyLong_FromLongLong(n0 + g.n);
        if (ee == NULL)
            goto out;
        store_slot(sim, S.o_now, Py_NewRef(t_obj));
        store_slot(sim, WS.base, Py_NewRef(t_obj));
        store_slot(sim, S.o_events_exec, ee);
        store_slot(sim, S.o_batch, Py_NewRef(ls));
        store_slot(sim, S.o_batch_time, Py_NewRef(t_obj));
        store_slot(sim, WS.reg_free, Py_NewRef(Py_False));
        store_slot(sim, S.o_bi, Py_NewRef(S.zero));
        for (Py_ssize_t blen = PyList_GET_SIZE(ls);;) {
            e = PyList_GET_ITEM(ls, i);
            PyList_SET_ITEM(ls, i, Py_NewRef(Py_None)); /* e is ours now */
            i++;
            PyObject *io = PyLong_FromSsize_t(i);
            if (io == NULL) {
                Py_DECREF(e);
                goto out;
            }
            store_slot(sim, S.o_bi, io);
            g.n++;
            if (dispatch_entry(sim, e, NULL) < 0)
                goto out;
            if (g.n >= g.maxe) {
                PyErr_Format(S.sim_error, "exceeded max_events=%S", args[1]);
                goto out;
            }
            /* same-instant arrivals appended by callbacks run in this batch */
            if (i == blen) {
                blen = PyList_GET_SIZE(ls);
                if (i == blen)
                    break;
            }
        }
        store_slot(sim, S.o_batch, Py_NewRef(Py_None));
        Py_CLEAR(ls); /* the batch is over: nothing to restore from here on */
        Py_CLEAR(t_obj);
        long long ns = obj_ll(SLOT(sim, WS.nstruct));
        long long mb = obj_ll(SLOT(sim, S.o_maxbatch));
        if (LL_ERR(ns) || LL_ERR(mb))
            break;
        store_slot(sim, WS.reg_free, Py_NewRef(ns ? Py_False : Py_True));
        if (bump_slot(sim, S.o_batches, 1) < 0 ||
            bump_slot(sim, S.o_batched, i) < 0 ||
            (i > mb && bump_slot(sim, S.o_maxbatch, i - mb) < 0))
            break;
    }
out:
    if (ls != NULL) {
        /* a live batch was interrupted — a raising callback, StopSimulation
         * or a tripped cap: its undispatched tail goes back, order preserved
         * (restore_fifo semantics) */
        wheel_restore(sim, t_obj, ls, i);
        Py_DECREF(ls);
    }
    Py_XDECREF(t_obj);
    {
        /* the pure loops' `finally` */
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        PyObject *ee = PyLong_FromLongLong(n0 + g.n);
        if (ee != NULL)
            store_slot(sim, S.o_events_exec, ee);
        else
            PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ================================================================== */
/* CellSimulator — C port of repro.simnet.cells                        */
/* ================================================================== */
/* Mirrors CellSimulator._place/_take_instant/_run_instant/_drain
 * over the shared wheel primitives (on _Cell objects, &WC) and the shared
 * dispatch_entry.  The two drivers differ in their grant loop and in the
 * per-instant order (keyed heap here, FIFO list above), not in wheel or
 * dispatch code. */

/* CellSimulator._take_instant: pop the minimum instant as a heapified
 * list of (key, entry) tuples.  Returns NULL with *t_out == CLL_INF and
 * no exception when the cell is empty; NULL with an exception on error.
 * (Keys are unique, so building the keyed heap subsumes the FIFO wheel's
 * seq sorts — wheel_next_batch skips them.) */
static PyObject *
cell_take(PyObject *cell, long long *t_out)
{
    PyObject *ls, *s = SLOT(cell, WC.single);
    if (s != Py_None) {
        *t_out = obj_ll(SLOT(cell, WC.single_when));
        ls = LL_ERR(*t_out) ? NULL : PyList_New(1);
        if (ls == NULL)
            return NULL;
        PyList_SET_ITEM(ls, 0, Py_NewRef(s));
        store_slot(cell, WC.single, Py_NewRef(Py_None));
    }
    else {
        PyObject *to;
        ls = wheel_next_batch(cell, &WC, t_out, &to, 0);
        if (ls == NULL)
            return NULL;
        store_slot(cell, WC.base, to); /* cell._base = t (steals) */
    }
    PyObject *h = PyList_New(0);
    Py_ssize_t blen = PyList_GET_SIZE(ls);
    for (Py_ssize_t k = 0; h != NULL && k < blen; k++) {
        PyObject *e = PyList_GET_ITEM(ls, k);
        PyObject *key = get_seq(e);
        PyObject *tup = key == NULL ? NULL : PyTuple_Pack(2, key, e);
        Py_XDECREF(key);
        if (tup == NULL || heap_push(h, tup) < 0)
            Py_CLEAR(h);
        Py_XDECREF(tup);
    }
    Py_DECREF(ls);
    return h;
}

/* cells._restore_cell: re-insert an interrupted instant's remaining
 * (key, entry) heap, spilling a parked register first. */
static int
cell_restore(PyObject *cell, long long t, PyObject *heap)
{
    PyObject *s = SLOT(cell, WC.single);
    if (s != Py_None) {
        Py_INCREF(s);
        store_slot(cell, WC.single, Py_NewRef(Py_None));
        PyObject *wo = SLOT(cell, WC.single_when);
        long long w = obj_ll(wo);
        if (LL_ERR(w)) {
            Py_DECREF(s);
            return -1;
        }
        int rc = wheel_insert(cell, &WC, w, wo, s);
        Py_DECREF(s);
        if (rc < 0)
            return -1;
    }
    PyObject *to = PyLong_FromLongLong(t);
    if (to == NULL)
        return -1;
    Py_ssize_t n = PyList_GET_SIZE(heap);
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *e = PyTuple_GET_ITEM(PyList_GET_ITEM(heap, k), 1);
        if (wheel_insert(cell, &WC, t, to, e) < 0) {
            Py_DECREF(to);
            return -1;
        }
    }
    Py_DECREF(to);
    return 0;
}

/* ------------------------------------------------------------------ */
/* placement (CellSimulator._place)                                    */
/* ------------------------------------------------------------------ */
static int
cells_place(PyObject *sim, long long target, PyObject *entry, long long when)
{
    long long src = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(src))
        return -1;
    PyObject *row = PyList_GET_ITEM(SLOT(sim, C.o_cnt), (Py_ssize_t)target);
    PyObject *cobj = PyList_GET_ITEM(row, (Py_ssize_t)src);
    Py_INCREF(cobj);
    long long cv = PyLong_AsLongLong(cobj);
    if (LL_ERR(cv)) {
        Py_DECREF(cobj);
        return -1;
    }
    PyObject *nv = PyLong_FromLongLong(cv + 1);
    if (nv == NULL || PyList_SetItem(row, (Py_ssize_t)src, nv) < 0) {
        Py_DECREF(cobj);
        return -1;
    }
    PyObject *key = PyTuple_New(3);
    if (key == NULL) {
        Py_DECREF(cobj);
        return -1;
    }
    PyObject *tgt_o = PyLong_FromLongLong(target);
    PyObject *src_o = PyLong_FromLongLong(src);
    if (tgt_o == NULL || src_o == NULL) {
        Py_XDECREF(tgt_o);
        Py_XDECREF(src_o);
        Py_DECREF(cobj);
        Py_DECREF(key);
        return -1;
    }
    PyTuple_SET_ITEM(key, 0, tgt_o);
    PyTuple_SET_ITEM(key, 1, src_o);
    PyTuple_SET_ITEM(key, 2, cobj); /* steals our reference */
    if (set_seq(entry, key) < 0)
        goto fail;
    {
        long long rtc = obj_ll(SLOT(sim, C.o_rtcell));
        if (LL_ERR(rtc))
            goto fail;
        if (rtc == target) {
            long long rtt = obj_ll(SLOT(sim, C.o_rttime));
            if (LL_ERR(rtt))
                goto fail;
            if (when == rtt) {
                PyObject *tup = PyTuple_Pack(2, key, entry);
                if (tup == NULL)
                    goto fail;
                int rc = heap_push(SLOT(sim, C.o_rheap), tup);
                Py_DECREF(tup);
                if (rc < 0)
                    goto fail;
                Py_DECREF(key);
                return 0;
            }
        }
    }
    {
        PyObject *cell =
            PyList_GET_ITEM(SLOT(sim, C.o_cells), (Py_ssize_t)target);
        long long cnow = obj_ll(SLOT(cell, C.c_now));
        if (LL_ERR(cnow))
            goto fail;
        if (when < cnow) {
            PyObject *names = SLOT(SLOT(sim, C.o_cellmap), C.m_names);
            PyObject *sname = PySequence_GetItem(names, (Py_ssize_t)src);
            if (sname == NULL)
                goto fail;
            PyErr_Format(
                S.sim_error,
                "causality violation: cell %R posted into %R at %lld ns, "
                "but that cell's clock is already %lld ns (lookahead table "
                "overstates the minimum cross-cell latency?)",
                sname, SLOT(cell, C.c_name), when, cnow);
            Py_DECREF(sname);
            goto fail;
        }
        PyObject *when_obj = PyLong_FromLongLong(when);
        if (when_obj == NULL)
            goto fail;
        PyObject *s = SLOT(cell, WC.single);
        if (s == Py_None) {
            long long ns = obj_ll(SLOT(cell, WC.nstruct));
            if (LL_ERR(ns)) {
                Py_DECREF(when_obj);
                goto fail;
            }
            if (ns == 0) {
                /* park in the register */
                store_slot(cell, WC.single, Py_NewRef(entry));
                store_slot(cell, WC.single_when, Py_NewRef(when_obj));
                goto update_next;
            }
        }
        else {
            /* spill the parked register entry into the wheel first */
            Py_INCREF(s);
            store_slot(cell, WC.single, Py_NewRef(Py_None));
            store_slot(cell, WC.base, Py_NewRef(SLOT(cell, C.c_now)));
            PyObject *swo = SLOT(cell, WC.single_when);
            long long sw = obj_ll(swo);
            if (LL_ERR(sw)) {
                Py_DECREF(s);
                Py_DECREF(when_obj);
                goto fail;
            }
            int rc = wheel_insert(cell, &WC, sw, swo, s);
            Py_DECREF(s);
            if (rc < 0) {
                Py_DECREF(when_obj);
                goto fail;
            }
        }
        if (wheel_insert(cell, &WC, when, when_obj, entry) < 0) {
            Py_DECREF(when_obj);
            goto fail;
        }
    update_next:;
        PyObject *nexts = SLOT(sim, C.o_nexts);
        long long cur_next =
            obj_ll(PyList_GET_ITEM(nexts, (Py_ssize_t)target));
        if (LL_ERR(cur_next)) {
            Py_DECREF(when_obj);
            goto fail;
        }
        if (when < cur_next) {
            if (PyList_SetItem(nexts, (Py_ssize_t)target,
                               Py_NewRef(when_obj)) < 0) {
                Py_DECREF(when_obj);
                goto fail;
            }
        }
        if (C.nx_arr != NULL && (Py_ssize_t)target < C.nx_n &&
            when < C.nx_arr[target])
            C.nx_arr[target] = when;
        Py_DECREF(when_obj);
    }
    Py_DECREF(key);
    return 0;
fail:
    Py_DECREF(key);
    return -1;
}

/* ------------------------------------------------------------------ */
/* bound entry points: schedule / call_in / timeout / call_in_cell     */
/* ------------------------------------------------------------------ */
static PyObject *
cells_schedule(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    long long when, cur;
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !when_after(sim, nargs == 2 ? args[1] : S.zero, &when))
        return call_pure(C.py_schedule, sim, args, nargs, kwnames);
    cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(cur) || cells_place(sim, cur, args[0], when) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* call_in (`cell_arg` = 0) and call_in_cell (`cell_arg` = 1: the target
 * cell index leads the arguments) */
static PyObject *
cells_call(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames, int cell_arg)
{
    PyObject *pure = cell_arg ? C.py_call_in_cell : C.py_call_in;
    long long when, cur, target = -1;
    if (kwnames != NULL || nargs < cell_arg + 2 || nargs > cell_arg + 3 ||
        (cell_arg && !PyLong_CheckExact(args[0])) ||
        !when_after(sim, args[cell_arg], &when))
        return call_pure(pure, sim, args, nargs, kwnames);
    cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(cur))
        return NULL;
    if (cell_arg) {
        target = PyLong_AsLongLong(args[0]);
        if (LL_ERR(target))
            return NULL;
        if (target < 0 || target >= PyList_GET_SIZE(SLOT(sim, C.o_cells)))
            return call_pure(pure, sim, args, nargs, kwnames);
    }
    PyObject *e =
        cbe_acquire(sim, args[cell_arg + 1],
                    nargs == cell_arg + 3 ? args[cell_arg + 2] : Py_None, 1);
    if (e == NULL)
        return NULL;
    if (!cell_arg)
        target = cur;
    else if (target != cur) {
        /* a cross-cell post lowers the bursting cell's window to the
         * arrival time: the target cannot react back any sooner */
        PyObject *cell =
            PyList_GET_ITEM(SLOT(sim, C.o_cells), (Py_ssize_t)target);
        long long W = obj_ll(SLOT(sim, C.o_W));
        if (bump_slot(cell, C.c_inbox, 1) < 0 || LL_ERR(W))
            goto fail;
        if (when < W) {
            PyObject *nw = PyLong_FromLongLong(when);
            if (nw == NULL)
                goto fail;
            store_slot(sim, C.o_W, nw);
        }
    }
    if (cells_place(sim, target, e, when) < 0)
        goto fail;
    Py_DECREF(e);
    Py_RETURN_NONE;
fail:
    Py_DECREF(e);
    return NULL;
}

static PyObject *
cells_call_in(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    return cells_call(sim, args, nargs, kwnames, 0);
}

static PyObject *
cells_call_in_cell(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
                   PyObject *kwnames)
{
    return cells_call(sim, args, nargs, kwnames, 1);
}

static PyObject *
cells_timeout(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    long long when, cur;
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !when_after(sim, args[0], &when))
        return call_pure(C.py_timeout, sim, args, nargs, kwnames);
    int placed;
    PyObject *t = timeout_acquire(sim, args[0],
                                  nargs == 2 ? args[1] : Py_None, &placed);
    if (t == NULL || placed)
        return t;
    cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(cur) || cells_place(sim, cur, t, when) < 0)
        Py_CLEAR(t);
    return t;
}

/* ------------------------------------------------------------------ */
/* instant execution (CellSimulator._run_instant)                      */
/* ------------------------------------------------------------------ */
static int
cells_run_instant(PyObject *sim, PyObject *cell, long long t, PyObject *h,
                  long long budget, long long *ran)
{
    /* Per-instant/per-batch counters (cell.instants/events, batches,
     * batched, max_batch) and the _cur/_rt_cell stores live in the drain:
     * they are hoisted to the burst level and flushed once per grant /
     * per drain, which is unobservable mid-instant (nothing dispatches
     * between instants of a burst) but saves five boxing round-trips on
     * every instant. */
    *ran = 0;
    PyObject *t_obj = PyLong_FromLongLong(t);
    if (t_obj == NULL)
        return -1;
    store_slot(sim, S.o_now, Py_NewRef(t_obj));
    store_slot(cell, C.c_now, Py_NewRef(t_obj));
    store_slot(sim, C.o_rttime, t_obj); /* steals */
    store_slot(sim, C.o_rheap, Py_NewRef(h));
    long long n = 0;
    int rc = 0;
    while (PyList_GET_SIZE(h) > 0) {
        PyObject *item = heap_pop(h);
        if (item == NULL) {
            rc = -1;
            break;
        }
        PyObject *e = PyTuple_GET_ITEM(item, 1);
        Py_INCREF(e);
        Py_DECREF(item);
        n++;
        if (dispatch_entry(sim, e, NULL) < 0) {
            rc = -1;
            break;
        }
        if (n >= budget) {
            PyErr_Format(S.sim_error, "exceeded max_events=%S",
                         SLOT(sim, C.o_maxe));
            rc = -1;
            break;
        }
    }
    if (rc < 0) {
        /* mirror the pure `except`: restore the remaining heap with its
         * keys, then let the original exception propagate */
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        if (cell_restore(cell, t, h) < 0)
            PyErr_Clear(); /* a failed restore never masks the original */
        PyErr_Restore(et, ev, tb);
    }
    *ran = n;
    return rc;
}

/* ------------------------------------------------------------------ */
/* the drain (CellSimulator._drain)                                    */
/* ------------------------------------------------------------------ */
static PyObject *
cells_drain(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_cdrain() takes (stop, max_events)");
        return NULL;
    }
    long long stop = gate_ll(args[0]), maxe = gate_ll(args[1]);
    store_slot(sim, C.o_maxe, Py_NewRef(args[1]));
    PyObject *cells = SLOT(sim, C.o_cells);
    PyObject *nexts = SLOT(sim, C.o_nexts);
    PyObject *lookT = SLOT(SLOT(sim, C.o_cellmap), C.m_look);
    long long ctrl = obj_ll(SLOT(sim, C.o_ctrl));
    if (LL_ERR(ctrl))
        return NULL;
    int decouple = SLOT(sim, C.o_decouple) == Py_True;
    Py_ssize_t ncells = PyList_GET_SIZE(cells);
    long long n = 0;
    long long n0 = obj_ll(SLOT(sim, S.o_events_exec));
    if (LL_ERR(n0))
        return NULL;
    long long mb0 = obj_ll(SLOT(sim, S.o_maxbatch));
    if (LL_ERR(mb0))
        return NULL;
    /* One native block: the (immutable) lookahead row, plus the live
     * next-instant mirror the argmin scans read instead of unboxing the
     * `_nexts` list on every grant. */
    long long *lk_arr = PyMem_Malloc(sizeof(long long) * (size_t)ncells * 2);
    if (lk_arr == NULL)
        return PyErr_NoMemory();
    long long *nx = lk_arr + ncells;
    for (Py_ssize_t i = 0; i < ncells; i++) {
        PyObject *lo = PySequence_GetItem(lookT, i);
        if (lo == NULL) {
            PyMem_Free(lk_arr);
            return NULL;
        }
        lk_arr[i] = PyLong_AsLongLong(lo);
        Py_DECREF(lo);
        if (LL_ERR(lk_arr[i])) {
            PyMem_Free(lk_arr);
            return NULL;
        }
    }
    /* recompute the next-instant table from scratch (see the pure drain) */
    for (Py_ssize_t i = 0; i < ncells; i++) {
        long long t = wheel_peek(PyList_GET_ITEM(cells, i), &WC);
        if ((t < 0 && PyErr_Occurred())) {
            PyMem_Free(lk_arr);
            return NULL;
        }
        nx[i] = t;
        PyObject *v =
            t == CLL_INF ? Py_NewRef(S.inf) : PyLong_FromLongLong(t);
        if (v == NULL || PyList_SetItem(nexts, i, v) < 0) {
            PyMem_Free(lk_arr);
            return NULL;
        }
    }
    C.nx_arr = nx;
    C.nx_n = ncells;
    /* batch bookkeeping, flushed once per drain (and per burst for the
     * per-cell counters) instead of once per instant */
    long long d_batches = 0, d_batched = 0, d_maxb = mb0;
    PyObject *bcell = NULL; /* burst cell with unflushed counters */
    long long b_count = 0, b_events = 0;
    int rc = 0;
    for (;;) {
        long long bt = CLL_INF;
        Py_ssize_t bi = -1;
        for (Py_ssize_t i = 0; i < ncells; i++) {
            if (nx[i] < bt) {
                bt = nx[i];
                bi = i;
            }
        }
        if (bt == CLL_INF)
            break;
        if (bt > stop) {
            store_slot(sim, S.o_now, Py_NewRef(args[0]));
            break;
        }
        PyObject *cell = PyList_GET_ITEM(cells, bi);
        nx[bi] = CLL_INF;
        if (PyList_SetItem(nexts, bi, Py_NewRef(S.inf)) < 0) {
            rc = -1;
            goto out;
        }
        long long m2 = CLL_INF;
        for (Py_ssize_t i = 0; i < ncells; i++) {
            if (nx[i] < m2)
                m2 = nx[i];
        }
        long long W = m2;
        if (m2 != CLL_INF)
            W = m2 + lk_arr[bi];
        if (bi != ctrl && nx[ctrl] < W)
            W = nx[ctrl];
        if (stop < W)
            W = stop == CLL_INF ? CLL_INF : stop + 1;
        {
            PyObject *wo =
                W == CLL_INF ? Py_NewRef(S.inf) : PyLong_FromLongLong(W);
            if (wo == NULL) {
                rc = -1;
                goto out;
            }
            store_slot(sim, C.o_W, wo);
            PyObject *lw =
                PyLong_FromLongLong(W == CLL_INF ? -1 : W - bt);
            if (lw == NULL) {
                rc = -1;
                goto out;
            }
            store_slot(cell, C.c_lastwin, lw);
        }
        if (bump_slot(sim, C.o_grants, 1) < 0) {
            rc = -1;
            goto out;
        }
        /* _cur and _rt_cell hold for the whole burst: nothing dispatches
         * between the instants of a grant, so per-instant stores would be
         * unobservable churn */
        {
            PyObject *ci = SLOT(cell, C.c_i);
            store_slot(sim, C.o_cur, Py_NewRef(ci));
            store_slot(sim, C.o_rtcell, Py_NewRef(ci));
        }
        bcell = cell;
        b_count = 0;
        b_events = 0;
        {
            int first = 1;
            for (;;) {
                /* peek before taking: an instant beyond the window (or the
                 * stop time) is left in place — no take + restore cycle at
                 * the window boundary (matches the pure burst loop) */
                long long t = wheel_peek(cell, &WC);
                if (t < 0 && PyErr_Occurred()) {
                    rc = -1;
                    goto out;
                }
                if (t == CLL_INF)
                    break; /* cell went empty: burst over */
                long long Wnow = obj_ll(SLOT(sim, C.o_W));
                if (LL_ERR(Wnow)) {
                    rc = -1;
                    goto out;
                }
                if ((!first && (t >= Wnow || !decouple)) || t > stop)
                    break;
                PyObject *h = cell_take(cell, &t);
                if (h == NULL) {
                    rc = -1;
                    goto out;
                }
                first = 0;
                {
                    PyObject *ee = PyLong_FromLongLong(n0 + n);
                    if (ee == NULL) {
                        Py_DECREF(h);
                        rc = -1;
                        goto out;
                    }
                    store_slot(sim, S.o_events_exec, ee);
                }
                long long budget = maxe == CLL_INF ? CLL_INF : maxe - n;
                long long ran = 0;
                int r = cells_run_instant(sim, cell, t, h, budget, &ran);
                n += ran;
                b_count++;
                b_events += ran;
                d_batches++;
                d_batched += ran;
                if (ran > d_maxb)
                    d_maxb = ran;
                Py_DECREF(h);
                if (r < 0) {
                    rc = -1;
                    goto out;
                }
            }
        }
        if (b_count &&
            (bump_slot(cell, C.c_instants, b_count) < 0 ||
             bump_slot(cell, C.c_events, b_events) < 0)) {
            rc = -1;
            goto out;
        }
        bcell = NULL;
        {
            long long t = wheel_peek(cell, &WC);
            if (t < 0 && PyErr_Occurred()) {
                rc = -1;
                goto out;
            }
            nx[bi] = t;
            PyObject *v =
                t == CLL_INF ? Py_NewRef(S.inf) : PyLong_FromLongLong(t);
            if (v == NULL || PyList_SetItem(nexts, bi, v) < 0) {
                rc = -1;
                goto out;
            }
        }
    }
out:;
    C.nx_arr = NULL;
    C.nx_n = 0;
    PyMem_Free(lk_arr);
    /* mirror the pure `finally` */
    {
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        if (bcell != NULL && b_count &&
            (bump_slot(bcell, C.c_instants, b_count) < 0 ||
             bump_slot(bcell, C.c_events, b_events) < 0))
            PyErr_Clear(); /* an interrupted burst still flushes */
        PyObject *ee = PyLong_FromLongLong(n0 + n);
        if (ee != NULL)
            store_slot(sim, S.o_events_exec, ee);
        else
            PyErr_Clear();
        if (bump_slot(sim, S.o_batches, d_batches) < 0 ||
            bump_slot(sim, S.o_batched, d_batched) < 0)
            PyErr_Clear();
        if (d_maxb > mb0) {
            PyObject *nb = PyLong_FromLongLong(d_maxb);
            if (nb != NULL)
                store_slot(sim, S.o_maxbatch, nb);
            else
                PyErr_Clear();
        }
        PyObject *m1 = PyLong_FromLong(-1);
        if (m1 != NULL)
            store_slot(sim, C.o_rtcell, m1);
        else
            PyErr_Clear();
        PyObject *fresh = PyList_New(0);
        if (fresh != NULL)
            store_slot(sim, C.o_rheap, fresh);
        else
            PyErr_Clear();
        store_slot(sim, C.o_cur, Py_NewRef(SLOT(sim, C.o_ctrl)));
        PyErr_Restore(et, ev, tb);
    }
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* configure: capture types, slot offsets and helpers, once            */
/* ------------------------------------------------------------------ */
static int
wheel_offsets(PyObject *type, Wheel *w)
{
    Py_ssize_t *out = (Py_ssize_t *)w;
    for (size_t k = 0; k < sizeof(WHEEL_SLOTS) / sizeof(*WHEEL_SLOTS); k++)
        if (member_offset(type, WHEEL_SLOTS[k], &out[k]) < 0)
            return -1;
    return 0;
}

static PyObject *
configure(PyObject *Py_UNUSED(mod), PyObject *ns)
{
    if (!PyDict_Check(ns)) {
        PyErr_SetString(PyExc_TypeError, "configure() expects a dict");
        return NULL;
    }
    const struct {
        const char *key;
        PyObject **out;
        int is_type;
    } objs[] = {
        {"Simulator", (PyObject **)&S.sim_type, 1},
        {"CellSimulator", (PyObject **)&S.cellsim_type, 1},
        {"Event", (PyObject **)&S.event_type, 1},
        {"Timeout", (PyObject **)&S.timeout_type, 1},
        {"Process", (PyObject **)&S.process_type, 1},
        {"CallbackEntry", (PyObject **)&S.cbe_type, 1},
        {"processed", &S.processed, 0},
        {"wait_on", &S.wait_on, 0},
        {"restore_fifo", &S.restore_fifo, 0},
        {"seq_of", &S.seq_of, 0},
        {"SimulationError", &S.sim_error, 0},
        {"schedule_py", &S.py_schedule, 0},
        {"call_in_py", &S.py_call_in, 0},
        {"timeout_py", &S.py_timeout, 0},
        {"cells_schedule_py", &C.py_schedule, 0},
        {"cells_call_in_py", &C.py_call_in, 0},
        {"cells_timeout_py", &C.py_timeout, 0},
        {"cells_call_in_cell_py", &C.py_call_in_cell, 0},
    };
    for (size_t k = 0; k < sizeof(objs) / sizeof(*objs); k++) {
        PyObject *v = PyDict_GetItemString(ns, objs[k].key);
        if (v == NULL || (objs[k].is_type && !PyType_Check(v))) {
            PyErr_Format(PyExc_KeyError, "configure(): bad or missing %s",
                         objs[k].key);
            return NULL;
        }
        Py_XSETREF(*objs[k].out, Py_NewRef(v));
    }
    const struct {
        const char *type, *name;
        Py_ssize_t *out;
    } slots[] = {
        {"Simulator", "_now", &S.o_now},
        {"Simulator", "_seq", &S.o_seq},
        {"Simulator", "_stash", &S.o_stash},
        {"Simulator", "_proc_finish", &S.o_finish},
        {"Simulator", "_cbe_pool", &S.o_cbe_pool},
        {"Simulator", "_timeout_pool", &S.o_timeout_pool},
        {"Simulator", "_timeout_cls", &S.o_to_cls},
        {"Simulator", "_batch", &S.o_batch},
        {"Simulator", "_batch_time", &S.o_batch_time},
        {"Simulator", "_bi", &S.o_bi},
        {"Simulator", "events_executed", &S.o_events_exec},
        {"Simulator", "_batches", &S.o_batches},
        {"Simulator", "_batched_events", &S.o_batched},
        {"Simulator", "_max_batch", &S.o_maxbatch},
        {"Simulator", "_timeout_allocs", &S.o_to_allocs},
        {"Simulator", "_timeout_reuses", &S.o_to_reuses},
        {"Simulator", "_cbe_allocs", &S.o_cbe_allocs},
        {"Simulator", "_cbe_reuses", &S.o_cbe_reuses},
        {"Event", "sim", &S.o_ev_sim},
        {"Event", "_cb1", &S.o_ev_cb1},
        {"Event", "_cbs", &S.o_ev_cbs},
        {"Event", "_value", &S.o_ev_value},
        {"Event", "_ok", &S.o_ev_ok},
        {"Event", "_seq", &S.o_ev_seq},
        {"Timeout", "delay", &S.o_to_delay},
        {"Process", "send", &S.o_pr_send},
        {"Process", "throw", &S.o_pr_throw},
        {"CallbackEntry", "fn", &S.o_cbe_fn},
        {"CallbackEntry", "arg", &S.o_cbe_arg},
        {"CallbackEntry", "_seq", &S.o_cbe_seq},
        {"CellSimulator", "_cellmap", &C.o_cellmap},
        {"CellSimulator", "_cells", &C.o_cells},
        {"CellSimulator", "_nexts", &C.o_nexts},
        {"CellSimulator", "_ctrl", &C.o_ctrl},
        {"CellSimulator", "_cur", &C.o_cur},
        {"CellSimulator", "_decouple", &C.o_decouple},
        {"CellSimulator", "_cnt", &C.o_cnt},
        {"CellSimulator", "_rt_cell", &C.o_rtcell},
        {"CellSimulator", "_rt_time", &C.o_rttime},
        {"CellSimulator", "_rheap", &C.o_rheap},
        {"CellSimulator", "_W", &C.o_W},
        {"CellSimulator", "_maxe", &C.o_maxe},
        {"CellSimulator", "_grants", &C.o_grants},
        {"Cell", "_i", &C.c_i},
        {"Cell", "_name", &C.c_name},
        {"Cell", "_now", &C.c_now},
        {"Cell", "_instants", &C.c_instants},
        {"Cell", "_events", &C.c_events},
        {"Cell", "_inbox_merges", &C.c_inbox},
        {"Cell", "_last_window", &C.c_lastwin},
        {"CellMap", "names", &C.m_names},
        {"CellMap", "lookahead_in", &C.m_look},
    };
    for (size_t k = 0; k < sizeof(slots) / sizeof(*slots); k++) {
        PyObject *type = PyDict_GetItemString(ns, slots[k].type);
        if (type == NULL) {
            PyErr_SetString(PyExc_KeyError, slots[k].type);
            return NULL;
        }
        if (member_offset(type, slots[k].name, slots[k].out) < 0)
            return NULL;
    }
    if (wheel_offsets((PyObject *)S.sim_type, &WS) < 0 ||
        wheel_offsets(PyDict_GetItemString(ns, "Cell"), &WC) < 0)
        return NULL;
    PyObject *v;
    if ((v = PyDict_GetItemString(ns, "cbe_pool_max")) == NULL ||
        ((S.cbe_pool_max = PyLong_AsLong(v)) == -1 && PyErr_Occurred()) ||
        (v = PyDict_GetItemString(ns, "timeout_pool_max")) == NULL ||
        ((S.timeout_pool_max = PyLong_AsLong(v)) == -1 && PyErr_Occurred())) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError, "pool bounds");
        return NULL;
    }
    S.inf = PyFloat_FromDouble(Py_HUGE_VAL);
    S.zero = PyLong_FromLong(0);
    S.str_run = PyUnicode_InternFromString("_run");
    S.str_seq = PyUnicode_InternFromString("_seq");
    S.str_sort = PyUnicode_InternFromString("sort");
    S.kw_key = Py_BuildValue("(s)", "key");
    if (S.inf == NULL || S.zero == NULL || S.str_run == NULL ||
        S.str_seq == NULL || S.str_sort == NULL || S.kw_key == NULL)
        return NULL;
    S.configured = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* per-instance binding                                                */
/* ------------------------------------------------------------------ */
/* Wheel entry points bind to an exact wheel-backend Simulator only (a
 * subclass overriding the slow paths must keep the pure bindings, and the
 * heap backend never initialises the wheel slots); cells entry points to
 * a CellSimulator. */
static PyObject *
bind_checked(PyObject *sim, PyMethodDef *md, int cells)
{
    if (!S.configured) {
        PyErr_SetString(PyExc_RuntimeError, "configure() has not run");
        return NULL;
    }
    if (cells ? !PyObject_TypeCheck(sim, S.cellsim_type)
              : (!Py_IS_TYPE(sim, S.sim_type) ||
                 SLOT(sim, WS.slots0) == NULL)) {
        PyErr_SetString(PyExc_TypeError,
                        cells ? "expected a CellSimulator"
                              : "expected a timing-wheel Simulator");
        return NULL;
    }
    return PyCFunction_New(md, sim);
}

#define KW (METH_FASTCALL | METH_KEYWORDS)
#define BINDING(name, pyname, fn, flags, cells, doc)                        \
    static PyMethodDef name##_md = {                                        \
        pyname, (PyCFunction)(void (*)(void))fn, flags, doc};               \
    static PyObject *bind_##name(PyObject *Py_UNUSED(mod), PyObject *sim)   \
    {                                                                       \
        return bind_checked(sim, &name##_md, cells);                        \
    }
BINDING(wheel_schedule, "schedule", wheel_schedule, KW, 0,
        "C Simulator.schedule (timing-wheel backend).")
BINDING(wheel_call_in, "call_in", wheel_call_in, KW, 0,
        "C Simulator.call_in (timing-wheel backend).")
BINDING(wheel_timeout, "timeout", wheel_timeout, KW, 0,
        "C Simulator.timeout (timing-wheel backend).")
BINDING(wheel_drain, "_cdrain", wheel_drain, METH_FASTCALL, 0,
        "C run loop of the timing wheel: _cdrain(stop, max_events).")
BINDING(cells_schedule, "schedule", cells_schedule, KW, 1,
        "C CellSimulator.schedule.")
BINDING(cells_call_in, "call_in", cells_call_in, KW, 1,
        "C CellSimulator.call_in.")
BINDING(cells_timeout, "timeout", cells_timeout, KW, 1,
        "C CellSimulator.timeout.")
BINDING(cells_call_in_cell, "call_in_cell", cells_call_in_cell, KW, 1,
        "C CellSimulator.call_in_cell.")
BINDING(cells_drain, "_cdrain", cells_drain, METH_FASTCALL, 1,
        "C drain of the cells calendar (CellSimulator._drain).")

#define BINDER(name) \
    {"bind_" #name, bind_##name, METH_O, "Bind " #name " to one simulator."}
static PyMethodDef module_methods[] = {
    {"configure", configure, METH_O,
     "Capture types, slot offsets and helpers from the pure kernels."},
    BINDER(wheel_schedule), BINDER(wheel_call_in), BINDER(wheel_timeout),
    BINDER(wheel_drain), BINDER(cells_schedule), BINDER(cells_call_in),
    BINDER(cells_timeout), BINDER(cells_call_in_cell), BINDER(cells_drain),
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef speedup_module = {
    PyModuleDef_HEAD_INIT, "_speedup",
    "On-demand-compiled accelerator for the timing-wheel kernels.", -1,
    module_methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC
PyInit__speedup(void)
{
    return PyModule_Create(&speedup_module);
}
