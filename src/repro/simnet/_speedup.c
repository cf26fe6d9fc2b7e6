/* _speedup.c — the timing-wheel event calendar, for CPython.
 *
 * Compiled on demand by `_accel.py` (plain `cc -O2 -shared -fPIC`, no
 * build-system dependency).  The wheel exists only here: when the compile
 * or the `configure()` handshake fails, a simulator that asked for the
 * wheel runs the flat-heap calendar instead (bit-identical in simulated
 * results; tests/simnet/test_timing_wheel.py compares the two on dispatch
 * order, clock, `peek()` and `pending`), and `_accel` records why.
 *
 * What is here, over the wheel slots `_core` documents:
 *
 *   wheel primitives   wheel_insert / wheel_cascade / wheel_next_batch /
 *                      wheel_restore, on the Simulator slots whose offsets
 *                      `WS` holds (the `_core` attribute contract).
 *   dispatch_entry     the one dispatch body: Timeout / plain Event (with
 *                      the process resume and the timeout chain spin),
 *                      CallbackEntry, and `entry._run()` for anything else
 *                      (causality._CapturedEntry, Process completions, …).
 *   Simulator          schedule / call_in / timeout (register park and
 *                      spill, live-batch append, lazy seq, stash/pool
 *                      reuse), step / peek, advance, and `_cdrain(stop,
 *                      max_events)`, the whole run loop — bound per
 *                      instance by `bind_wheel`.
 *
 * `advance(delay)` is a callback's last act in place of placing an entry
 * `delay` ns ahead: it moves the clock there and counts one event — the
 * callback then does that entry's work inline — only when the entry would
 * run next.  That takes a live `_cdrain` on this simulator (which publishes
 * its gates, stop time and event cap, in the `_gate` slot as a capsule
 * while it runs), no causality recorder, an exhausted live batch, and
 * nothing else pending at or before that time.  The pending
 * test is conservative where it is cheap to be: an occupied L1 bucket that
 * starts by then refuses without being scanned.
 *
 * Odd placement calls (keyword spellings, non-int, bool or negative
 * delays) bind their arguments through small `_core` functions that hand
 * the delay to `_core.check_delay`, the check the heap calendar uses too,
 * so messages and exception types have one source.
 *
 * All state lives in the `__slots__` the Python code reads, through
 * member offsets captured at configure() time: `_now`, `_base`, `_batch`,
 * `_batch_time`, `_bi`, `_reg_free`, every counter, and `events_executed`
 * at batch start and at exit (count-before-dispatch).  So
 * `calendar_stats()` and the telemetry sampler, called from inside a
 * callback, read a consistent calendar, and a run cut short (a raising
 * callback, a stop time, a tripped event cap) leaves one that `step()` or
 * the next `run()` resumes.
 *
 * Timeout recycling is refcount-based: a dispatched Timeout is pooled when
 * `Py_REFCNT(e) == 1`, i.e. this code owns the only strong reference to
 * it, so the reuse is invisible to anything that kept one.
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

static struct {
    int configured;
    PyTypeObject *sim_type, *event_type, *timeout_type, *process_type,
        *cbe_type;
    /* Simulator slots */
    Py_ssize_t o_now, o_seq, o_stash, o_finish, o_cbe_pool, o_timeout_pool,
        o_to_cls, o_batch, o_batch_time, o_bi, o_events_exec, o_batches,
        o_batched, o_maxbatch, o_to_allocs, o_to_reuses, o_cbe_allocs,
        o_cbe_reuses, o_recorder, o_advanced, o_gate;
    /* Event slots (one offset for every subclass), Timeout.delay */
    Py_ssize_t o_ev_sim, o_ev_cb1, o_ev_cbs, o_ev_value, o_ev_ok, o_ev_seq,
        o_to_delay;
    /* Process / CallbackEntry slots */
    Py_ssize_t o_pr_send, o_pr_throw, o_cbe_fn, o_cbe_arg, o_cbe_seq;
    long cbe_pool_max, timeout_pool_max;
    PyObject *processed;   /* _core._PROCESSED sentinel */
    PyObject *wait_on;     /* Process._wait_on (plain function) */
    PyObject *seq_of;      /* _core._seq_of (the batch sort key) */
    PyObject *sim_error;   /* SimulationError */
    /* _core's binders for odd placement calls (see bind_odd) */
    PyObject *bind_schedule, *bind_call_in, *bind_timeout;
    PyObject *zero;        /* int 0 */
    PyObject *str_run, *str_seq, *str_sort, *kw_key;
} S;

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
 * numbers, (when, seq, entry) with unique seqs), so pop order equals
 * sorted order regardless of internal layout. */
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
/* entry._seq access                                                   */
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
/* wheel primitives                                                    */
/* ------------------------------------------------------------------ */

/* Place `entry` (`_seq` already assigned) into L0, L1 or the overflow
 * heap; slot lists hold bare entries, L1 buckets (when, entry) pairs.
 * `when_obj` must be a borrowed int object equal to `when`. */
static int
wheel_insert(PyObject *sim, long long when, PyObject *when_obj,
             PyObject *entry)
{
    store_slot(sim, WS.reg_free, Py_NewRef(Py_False));
    long long base = obj_ll(SLOT(sim, WS.base));
    if (LL_ERR(base))
        return -1;
    long long d = when - base;
    if (d < CS0_SIZE) {
        Py_ssize_t idx = (Py_ssize_t)(when & CS0_MASK);
        PyObject *s0 = SLOT(sim, WS.slots0);
        PyObject *cur = PyList_GET_ITEM(s0, idx);
        if (cur == Py_None) {
            PyObject *nl = PyList_New(1);
            if (nl == NULL)
                return -1;
            PyList_SET_ITEM(nl, 0, Py_NewRef(entry));
            if (PyList_SetItem(s0, idx, nl) < 0)
                return -1;
            if (heap_push(SLOT(sim, WS.t0), when_obj) < 0)
                return -1;
        }
        else if (PyList_Append(cur, entry) < 0)
            return -1;
        if (bump_slot(sim, WS.l0, 1) < 0)
            return -1;
    }
    else if (d < CWHEEL_HORIZON) {
        long long b = when >> CS0_BITS;
        Py_ssize_t idx = (Py_ssize_t)(b & CS1_MASK);
        PyObject *item = PyTuple_Pack(2, when_obj, entry);
        if (item == NULL)
            return -1;
        PyObject *s1 = SLOT(sim, WS.slots1);
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
            int rc = heap_push(SLOT(sim, WS.t1), bo);
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
        if (bump_slot(sim, WS.l1, 1) < 0)
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
        int rc = heap_push(SLOT(sim, WS.hq), trip);
        Py_DECREF(trip);
        if (rc < 0)
            return -1;
        if (bump_slot(sim, WS.hqi, 1) < 0)
            return -1;
    }
    return bump_slot(sim, WS.nstruct, 1);
}

/* Distribute L1 bucket `b` into L0 slots, re-anchoring `base` (safe:
 * a cascade only runs when no pending entry is below the bucket's lower
 * bound). */
static int
wheel_cascade(PyObject *sim, long long b)
{
    PyObject *popped = heap_pop(SLOT(sim, WS.t1));
    if (popped == NULL)
        return -1;
    Py_DECREF(popped);
    Py_ssize_t idx = (Py_ssize_t)(b & CS1_MASK);
    PyObject *s1 = SLOT(sim, WS.slots1);
    PyObject *entries = PyList_GET_ITEM(s1, idx);
    Py_INCREF(entries);
    if (PyList_SetItem(s1, idx, Py_NewRef(Py_None)) < 0) {
        Py_DECREF(entries);
        return -1;
    }
    long long lb = b << CS0_BITS;
    long long base = obj_ll(SLOT(sim, WS.base));
    if (LL_ERR(base))
        goto fail;
    if (lb > base) {
        PyObject *nb = PyLong_FromLongLong(lb);
        if (nb == NULL)
            goto fail;
        store_slot(sim, WS.base, nb);
    }
    {
        PyObject *s0 = SLOT(sim, WS.slots0);
        PyObject *t0 = SLOT(sim, WS.t0);
        char *db = PyByteArray_AsString(SLOT(sim, WS.dirty));
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
    return bump_slot(sim, WS.casc, 1);
fail:
    Py_DECREF(entries);
    return -1;
}

/* Remove the minimum pending instant from the structures.  Returns its
 * entry list (new reference) with *t_out and *t_obj (new reference) set;
 * NULL with *t_out == CLL_INF and no exception when the structures are
 * empty, NULL with an exception on error.  The list is in dispatch (seq)
 * order. */
static PyObject *
wheel_next_batch(PyObject *sim, long long *t_out, PyObject **t_obj)
{
    PyObject *t0h = SLOT(sim, WS.t0);
    PyObject *t1h = SLOT(sim, WS.t1);
    PyObject *hq = SLOT(sim, WS.hq);
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
        if (wheel_cascade(sim, b) < 0)
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
        PyObject *s0 = SLOT(sim, WS.slots0);
        ls = PyList_GET_ITEM(s0, idx);
        Py_INCREF(ls);
        if (PyList_SetItem(s0, idx, Py_NewRef(Py_None)) < 0)
            goto fail;
        char *db = PyByteArray_AsString(SLOT(sim, WS.dirty));
        if (db == NULL)
            goto fail;
        /* one sort serves a dirty slot and an overflow merge: seqs are
         * unique, so sorting once after the merge yields seq order */
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
        if (sort) {
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
    if (bump_slot(sim, WS.nstruct, -PyList_GET_SIZE(ls)) < 0)
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

/* Gates of a drain; a non-NULL pointer also marks the register
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
        Py_DECREF(e); /* plain events are never pooled */
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
/* placement helpers                                                   */
/* ------------------------------------------------------------------ */

/* *when = `sim._now + delay` for an exact non-negative int delay; 0 (no
 * exception set) when the call must take the odd path instead. */
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

/* A timeout off the structure path: the stash, then the pool (both count a
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

/* An odd placement call — keyword spellings, a delay that is not an exact
 * non-negative int: `binder` (a `_core` function with the entry point's
 * signature) binds the arguments as Python would, refuses a bad delay
 * through `_core.check_delay`, and returns the entry point's positional
 * arguments with an exact-int delay at index `di`.  Returns that tuple (new
 * reference; the caller reads its arguments from it) with *when set. */
static PyObject *
bind_odd(PyObject *sim, PyObject *binder, Py_ssize_t di,
         PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
         long long *when)
{
    PyObject *bound = PyObject_Vectorcall(binder, args, nargs, kwnames);
    if (bound != NULL && !when_after(sim, PyTuple_GET_ITEM(bound, di), when)) {
        PyErr_Format(S.sim_error, "delay out of range: %S",
                     PyTuple_GET_ITEM(bound, di));
        Py_CLEAR(bound);
    }
    return bound;
}

/* ================================================================== */
/* Simulator — the timing wheel                                        */
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

/* Re-insert the undispatched tail ls[i:] of an interrupted batch at its
 * time t.  Entries get fresh sequence numbers in list order — relative
 * order is preserved exactly, and on the wheel the values themselves are
 * unobservable.  The target L0 slot is necessarily empty (window
 * invariant: only time-t entries map there, and they were all in this
 * batch), so the appends land pre-sorted.  A pending exception survives
 * it, and a failed restore never masks that original. */
static int
wheel_restore(PyObject *sim, PyObject *t_obj, PyObject *ls, Py_ssize_t i)
{
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    store_slot(sim, S.o_batch, Py_NewRef(Py_None));
    long long t = obj_ll(t_obj);
    int rc = LL_ERR(t) ? -1 : 0;
    for (; rc == 0 && i < PyList_GET_SIZE(ls); i++) {
        PyObject *e = Py_NewRef(PyList_GET_ITEM(ls, i));
        if (e != Py_None &&
            (assign_seq(sim, e) < 0 || wheel_insert(sim, t, t_obj, e) < 0))
            rc = -1;
        Py_DECREF(e);
    }
    if (rc == 0) {
        long long ns = obj_ll(SLOT(sim, WS.nstruct));
        if (LL_ERR(ns))
            rc = -1;
        else
            store_slot(sim, WS.reg_free, Py_NewRef(ns ? Py_False : Py_True));
    }
    if (et != NULL) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
        return -1;
    }
    return rc;
}

/* Placement: the register fast path first (`_reg_free`: no live batch,
 * empty structures), then join the live batch, park in the register, or
 * spill the register and insert. */
static int
wheel_place(PyObject *sim, PyObject *entry, long long when)
{
    int open = REG_OPEN(sim); /* the fast path's one test */
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
                  wheel_insert(sim, sw, swo, s) < 0;
        Py_DECREF(s);
        if (bad)
            goto done;
    }
    if (assign_seq(sim, entry) == 0)
        rc = wheel_insert(sim, when, when_obj, entry);
done:
    Py_DECREF(when_obj);
    return rc;
}

/* The three entry points test for the common call inline and take
 * bind_odd for anything else. */
#define ODD_ARGS(bound) ((PyObject *const *)((PyTupleObject *)(bound))->ob_item)

static PyObject *
wheel_schedule(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    long long when;
    PyObject *bound = NULL;
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !when_after(sim, nargs == 2 ? args[1] : S.zero, &when)) {
        bound = bind_odd(sim, S.bind_schedule, 1, args, nargs, kwnames, &when);
        if (bound == NULL)
            return NULL;
        args = ODD_ARGS(bound);
    }
    int rc = wheel_place(sim, args[0], when);
    Py_XDECREF(bound);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
wheel_call_in(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    long long when;
    PyObject *bound = NULL;
    if (kwnames != NULL || nargs < 2 || nargs > 3 ||
        !when_after(sim, args[0], &when)) {
        bound = bind_odd(sim, S.bind_call_in, 0, args, nargs, kwnames, &when);
        if (bound == NULL)
            return NULL;
        args = ODD_ARGS(bound);
        nargs = 3;
    }
    /* a register park pops the pool without counting a reuse */
    PyObject *e = cbe_acquire(sim, args[1], nargs == 3 ? args[2] : Py_None,
                              !REG_OPEN(sim));
    int rc = e == NULL ? -1 : wheel_place(sim, e, when);
    Py_XDECREF(e);
    Py_XDECREF(bound);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* A stash hit onto an empty calendar (the register regime of a timeout
 * chain) is not counted as a reuse, so `timeout_reuses` undercounts in
 * single-chain microbenchmarks; under real workloads the calendar is
 * non-empty and the counter is exact. */
static PyObject *
wheel_timeout(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    long long when;
    PyObject *bound = NULL;
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !when_after(sim, args[0], &when)) {
        bound = bind_odd(sim, S.bind_timeout, 0, args, nargs, kwnames, &when);
        if (bound == NULL)
            return NULL;
        args = ODD_ARGS(bound);
        nargs = 2;
    }
    PyObject *value = nargs == 2 ? args[1] : Py_None;
    PyObject *t = SLOT(sim, S.o_stash);
    int placed = 0;
    if (t != Py_None && REG_OPEN(sim)) {
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
    Py_XDECREF(bound);
    return t;
}

/* Simulator.step(): dispatch the next entry alone.  Same-instant peers
 * beyond the first go back with their order preserved (wheel_restore), so
 * step() interleaves with run(); IndexError on an empty calendar. */
static PyObject *
wheel_step(PyObject *sim, PyObject *Py_UNUSED(ignored))
{
    PyObject *e = SLOT(sim, WS.single);
    if (e != Py_None) {
        /* pop the register (the slot's reference becomes ours) */
        SLOT(sim, WS.single) = Py_NewRef(Py_None);
        store_slot(sim, S.o_now, Py_NewRef(SLOT(sim, WS.single_when)));
    }
    else {
        long long t;
        PyObject *t_obj;
        PyObject *ls = wheel_next_batch(sim, &t, &t_obj);
        if (ls == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "step on an empty calendar");
            return NULL;
        }
        e = Py_NewRef(PyList_GET_ITEM(ls, 0));
        store_slot(sim, WS.base, Py_NewRef(t_obj));
        int rc = wheel_restore(sim, t_obj, ls, 1);
        Py_DECREF(ls);
        if (rc < 0) {
            Py_DECREF(t_obj);
            Py_DECREF(e);
            return NULL;
        }
        store_slot(sim, S.o_now, t_obj); /* steals */
    }
    if (bump_slot(sim, S.o_events_exec, 1) < 0) {
        Py_DECREF(e);
        return NULL;
    }
    if (dispatch_entry(sim, e, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Simulator.peek(): the exact minimum pending time, or None, without
 * mutating.  It may be called from inside a dispatched callback (the
 * telemetry sampler does), so it must not cascade: a cascade re-anchors
 * `base` and could strand a later same-instant insert outside the window.
 * A live batch with entries left reports the current instant; scanning
 * the top L1 bucket is exact because bucket ranges partition time. */
static PyObject *
wheel_peek(PyObject *sim, PyObject *Py_UNUSED(ignored))
{
    if (SLOT(sim, WS.single) != Py_None)
        return Py_NewRef(SLOT(sim, WS.single_when));
    PyObject *b = SLOT(sim, S.o_batch);
    if (b != Py_None) {
        long long bi = obj_ll(SLOT(sim, S.o_bi));
        if (LL_ERR(bi))
            return NULL;
        if (bi < PyList_GET_SIZE(b))
            return Py_NewRef(SLOT(sim, S.o_now));
    }
    long long t = heap_head(SLOT(sim, WS.t0), 0);
    long long th = heap_head(SLOT(sim, WS.hq), 1);
    if (LL_ERR(t) || LL_ERR(th))
        return NULL;
    if (th < t)
        t = th;
    PyObject *t1 = SLOT(sim, WS.t1);
    if (PyList_GET_SIZE(t1)) {
        long long bk = obj_ll(PyList_GET_ITEM(t1, 0));
        if (LL_ERR(bk))
            return NULL;
        if ((bk << CS0_BITS) < t) {
            PyObject *bucket = PyList_GET_ITEM(SLOT(sim, WS.slots1),
                                               (Py_ssize_t)(bk & CS1_MASK));
            for (Py_ssize_t k = 0; k < PyList_GET_SIZE(bucket); k++) {
                long long bw =
                    obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(bucket, k), 0));
                if (LL_ERR(bw))
                    return NULL;
                if (bw < t)
                    t = bw;
            }
        }
    }
    if (t == CLL_INF)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(t);
}

/* Simulator.advance(delay) -> bool: see the header.  False leaves
 * everything as it was, a bad delay included (the caller's placement then
 * refuses it). */
static PyObject *
wheel_advance(PyObject *sim, PyObject *delay)
{
    PyObject *gate = SLOT(sim, S.o_gate);
    if (gate == NULL || !PyCapsule_CheckExact(gate))
        Py_RETURN_FALSE;
    Gates *g = PyCapsule_GetPointer(gate, NULL);
    long long when;
    if (g == NULL)
        return NULL;
    if (g->n >= g->maxe || SLOT(sim, S.o_recorder) != Py_None ||
        !when_after(sim, delay, &when) || when > g->stop)
        Py_RETURN_FALSE;
    if (SLOT(sim, WS.single) != Py_None) {
        /* register occupied: the structures are empty, no batch is live */
        long long w = obj_ll(SLOT(sim, WS.single_when));
        if (LL_ERR(w))
            return NULL;
        if (w <= when)
            Py_RETURN_FALSE;
    }
    else {
        PyObject *b = SLOT(sim, S.o_batch);
        if (b != Py_None) {
            long long bi = obj_ll(SLOT(sim, S.o_bi));
            if (LL_ERR(bi))
                return NULL;
            if (bi < PyList_GET_SIZE(b))
                Py_RETURN_FALSE;
        }
        long long t = heap_head(SLOT(sim, WS.t0), 0);
        long long th = heap_head(SLOT(sim, WS.hq), 1);
        if (LL_ERR(t) || LL_ERR(th))
            return NULL;
        if (t <= when || th <= when)
            Py_RETURN_FALSE;
        PyObject *t1 = SLOT(sim, WS.t1);
        if (PyList_GET_SIZE(t1)) {
            long long bk = obj_ll(PyList_GET_ITEM(t1, 0));
            if (LL_ERR(bk))
                return NULL;
            if ((bk << CS0_BITS) <= when)
                Py_RETURN_FALSE;
        }
    }
    PyObject *now = PyLong_FromLongLong(when);
    if (now == NULL)
        return NULL;
    store_slot(sim, S.o_now, now);
    g->n++;
    if (bump_slot(sim, S.o_advanced, 1) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

/* Simulator._cdrain(stop, max_events) — the run loop, one loop for every
 * gate (`inf` = gate unset): the register regime, then batch assembly,
 * then the take-and-null batch loop with its live-append re-check.  Events
 * are counted when they leave the calendar, *before* their callbacks run,
 * so an exception escaping a callback leaves the `events_executed` the
 * heap's step() leaves.  Batches are atomic with respect to `stop` (every
 * entry in a batch shares one timestamp), which matches the heap's
 * per-event check exactly. */
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
    /* publish the gates for advance(); a nested run() restores the outer */
    PyObject *gate = PyCapsule_New(&g, NULL, NULL);
    if (gate == NULL)
        return NULL;
    PyObject *outer = SLOT(sim, S.o_gate);
    outer = outer == NULL ? Py_NewRef(Py_None) : Py_NewRef(outer);
    store_slot(sim, S.o_gate, gate);
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
        ls = wheel_next_batch(sim, &t, &t_obj);
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
    store_slot(sim, S.o_gate, outer);
    if (ls != NULL) {
        /* a live batch was interrupted — a raising callback, StopSimulation
         * or a tripped cap: its undispatched tail goes back, order preserved
         * (wheel_restore) */
        wheel_restore(sim, t_obj, ls, i);
        Py_DECREF(ls);
    }
    Py_XDECREF(t_obj);
    {
        /* sync the count on every exit */
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
        {"Event", (PyObject **)&S.event_type, 1},
        {"Timeout", (PyObject **)&S.timeout_type, 1},
        {"Process", (PyObject **)&S.process_type, 1},
        {"CallbackEntry", (PyObject **)&S.cbe_type, 1},
        {"processed", &S.processed, 0},
        {"wait_on", &S.wait_on, 0},
        {"seq_of", &S.seq_of, 0},
        {"SimulationError", &S.sim_error, 0},
        {"bind_schedule", &S.bind_schedule, 0},
        {"bind_call_in", &S.bind_call_in, 0},
        {"bind_timeout", &S.bind_timeout, 0},
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
        {"Simulator", "_recorder", &S.o_recorder},
        {"Simulator", "_advanced", &S.o_advanced},
        {"Simulator", "_gate", &S.o_gate},
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
    if (wheel_offsets((PyObject *)S.sim_type, &WS) < 0)
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
    S.zero = PyLong_FromLong(0);
    S.str_run = PyUnicode_InternFromString("_run");
    S.str_seq = PyUnicode_InternFromString("_seq");
    S.str_sort = PyUnicode_InternFromString("sort");
    S.kw_key = Py_BuildValue("(s)", "key");
    if (S.zero == NULL || S.str_run == NULL || S.str_seq == NULL ||
        S.str_sort == NULL || S.kw_key == NULL)
        return NULL;
    S.configured = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* per-instance binding                                                */
/* ------------------------------------------------------------------ */
#define KW (METH_FASTCALL | METH_KEYWORDS)
#define FN(f) ((PyCFunction)(void (*)(void))(f))
/* in bind_wheel's result order */
static PyMethodDef wheel_methods[] = {
    {"schedule", FN(wheel_schedule), KW, "Simulator.schedule (C wheel)."},
    {"call_in", FN(wheel_call_in), KW, "Simulator.call_in (C wheel)."},
    {"timeout", FN(wheel_timeout), KW, "Simulator.timeout (C wheel)."},
    {"step", wheel_step, METH_NOARGS, "Simulator.step (C wheel)."},
    {"peek", wheel_peek, METH_NOARGS, "Simulator.peek (C wheel)."},
    {"advance", wheel_advance, METH_O, "Simulator.advance (C wheel)."},
    {"_cdrain", FN(wheel_drain), METH_FASTCALL,
     "The C wheel's run loop: _cdrain(stop, max_events)."},
};
#define N_WHEEL_METHODS \
    ((Py_ssize_t)(sizeof(wheel_methods) / sizeof(*wheel_methods)))

/* bind_wheel(sim) -> (schedule, call_in, timeout, step, peek, advance,
 * _cdrain), bound to one Simulator (subclasses included) whose wheel slots
 * exist — a heap-backend simulator never initialises them. */
static PyObject *
bind_wheel(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    if (!S.configured) {
        PyErr_SetString(PyExc_RuntimeError, "configure() has not run");
        return NULL;
    }
    if (!PyObject_TypeCheck(sim, S.sim_type) || SLOT(sim, WS.slots0) == NULL) {
        PyErr_SetString(PyExc_TypeError, "expected a timing-wheel Simulator");
        return NULL;
    }
    PyObject *out = PyTuple_New(N_WHEEL_METHODS);
    for (Py_ssize_t k = 0; out != NULL && k < N_WHEEL_METHODS; k++) {
        PyObject *f = PyCFunction_New(&wheel_methods[k], sim);
        if (f == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, f);
    }
    return out;
}

static PyMethodDef module_methods[] = {
    {"configure", configure, METH_O,
     "Capture types, slot offsets and helpers from the Python kernel."},
    {"bind_wheel", bind_wheel, METH_O,
     "Bind the wheel's seven entry points to one simulator."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef speedup_module = {
    PyModuleDef_HEAD_INIT, "_speedup",
    "The timing-wheel event calendar, compiled on demand.", -1,
    module_methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC
PyInit__speedup(void)
{
    return PyModule_Create(&speedup_module);
}
