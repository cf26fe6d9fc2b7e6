/* _speedup.c — optional CPython accelerator for the timing-wheel kernel.
 *
 * Compiled on demand by `_accel.py` (plain `cc -O2 -shared -fPIC`, no
 * build-system dependency); when the compile or the `configure()`
 * handshake fails, the kernel silently keeps its pure-Python paths,
 * which are semantically identical (property-tested in
 * tests/simnet/test_timing_wheel.py).
 *
 * Three entry points are bound per Simulator instance:
 *
 *   bind_timeout(sim)   -> C replacement for Simulator._timeout_wheel
 *                          (the stash + register-park fast path; every
 *                          guard miss calls the Python slow path)
 *   bind_reg_drain(sim) -> C drain of the *register regime* used by
 *                          _core.drain_fifo: pops the one-entry register
 *                          until it is empty, including the
 *                          `yield sim.timeout(d)` chain spin.
 *   bind_batch_run(sim) -> C dispatch of one same-instant *batch* (the
 *                          sorted list regime that dominates fabric-scale
 *                          runs, where concurrent hosts keep the register
 *                          from ever holding a lone event).  Takes an
 *                          optional event budget so the gated drain can
 *                          reuse it.
 *
 * Only the wheel is accelerated: a schedule policy selects the flat-heap
 * calendar, which stays pure Python.  Causal capture needs nothing here —
 * it places wrapper entries (causality._CapturedEntry) that are neither
 * Timeout nor CallbackEntry, so the register and batch dispatch run them
 * through their generic `entry._run()` branch and a captured run keeps
 * the accelerator.
 *
 * All three read the same `__slots__` the Python code reads, through member
 * offsets captured at configure() time, and perform every store the
 * Python fast paths perform, in the same order — bit-identical event
 * ordering is the contract, speed is just fewer interpreter dispatches.
 *
 * The refcount-based Timeout recycling translates directly: the Python
 * spin's `getrefcount(e) == 2` (frame local + getrefcount argument)
 * becomes `Py_REFCNT(e) == 1` here, because this code owns exactly one
 * strong reference to the dispatched event at the check site.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* configured state                                                    */
/* ------------------------------------------------------------------ */
static struct {
    int configured;
    PyTypeObject *sim_type;
    PyTypeObject *timeout_type;
    PyTypeObject *process_type;
    PyTypeObject *cbe_type;
    /* Simulator slots */
    Py_ssize_t o_stash, o_reg_free, o_single, o_single_when, o_now;
    Py_ssize_t o_finish, o_cbe_pool, o_creg_n;
    Py_ssize_t o_batch, o_bi, o_timeout_pool;
    /* Event/Timeout slots (resolved on the Timeout type, through the MRO) */
    Py_ssize_t o_ev_sim, o_ev_cb1, o_ev_cbs, o_ev_value, o_to_delay;
    /* Process slot */
    Py_ssize_t o_pr_send;
    /* CallbackEntry slots */
    Py_ssize_t o_cbe_fn, o_cbe_arg;
    long cbe_pool_max;
    long timeout_pool_max;
    PyObject *processed;    /* _core._PROCESSED sentinel */
    PyObject *timeout_slow; /* Simulator._timeout_wheel_slow (plain function) */
    PyObject *wait_on;      /* Process._wait_on (plain function) */
    PyObject *str_run;      /* interned "_run" */
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

/* ------------------------------------------------------------------ */
/* configure                                                           */
/* ------------------------------------------------------------------ */
static PyObject *
configure(PyObject *Py_UNUSED(mod), PyObject *ns)
{
    if (!PyDict_Check(ns)) {
        PyErr_SetString(PyExc_TypeError, "configure() expects a dict");
        return NULL;
    }
#define GET(name)                                                       \
    PyObject *name = PyDict_GetItemString(ns, #name);                   \
    if (name == NULL) {                                                 \
        PyErr_SetString(PyExc_KeyError, #name);                         \
        return NULL;                                                    \
    }
    GET(Simulator) GET(Timeout) GET(Process) GET(CallbackEntry)
    GET(processed) GET(timeout_slow) GET(wait_on) GET(cbe_pool_max)
    GET(timeout_pool_max)
#undef GET
    if (!PyType_Check(Simulator) || !PyType_Check(Timeout) ||
        !PyType_Check(Process) || !PyType_Check(CallbackEntry)) {
        PyErr_SetString(PyExc_TypeError, "expected type objects");
        return NULL;
    }
    if (member_offset(Simulator, "_stash", &S.o_stash) < 0 ||
        member_offset(Simulator, "_reg_free", &S.o_reg_free) < 0 ||
        member_offset(Simulator, "_single", &S.o_single) < 0 ||
        member_offset(Simulator, "_single_when", &S.o_single_when) < 0 ||
        member_offset(Simulator, "_now", &S.o_now) < 0 ||
        member_offset(Simulator, "_proc_finish", &S.o_finish) < 0 ||
        member_offset(Simulator, "_cbe_pool", &S.o_cbe_pool) < 0 ||
        member_offset(Simulator, "_creg_n", &S.o_creg_n) < 0 ||
        member_offset(Simulator, "_batch", &S.o_batch) < 0 ||
        member_offset(Simulator, "_bi", &S.o_bi) < 0 ||
        member_offset(Simulator, "_timeout_pool", &S.o_timeout_pool) < 0 ||
        member_offset(Timeout, "sim", &S.o_ev_sim) < 0 ||
        member_offset(Timeout, "_cb1", &S.o_ev_cb1) < 0 ||
        member_offset(Timeout, "_cbs", &S.o_ev_cbs) < 0 ||
        member_offset(Timeout, "_value", &S.o_ev_value) < 0 ||
        member_offset(Timeout, "delay", &S.o_to_delay) < 0 ||
        member_offset(Process, "send", &S.o_pr_send) < 0 ||
        member_offset(CallbackEntry, "fn", &S.o_cbe_fn) < 0 ||
        member_offset(CallbackEntry, "arg", &S.o_cbe_arg) < 0)
        return NULL;
    S.cbe_pool_max = PyLong_AsLong(cbe_pool_max);
    if (S.cbe_pool_max == -1 && PyErr_Occurred())
        return NULL;
    S.timeout_pool_max = PyLong_AsLong(timeout_pool_max);
    if (S.timeout_pool_max == -1 && PyErr_Occurred())
        return NULL;
    S.sim_type = (PyTypeObject *)Py_NewRef(Simulator);
    S.timeout_type = (PyTypeObject *)Py_NewRef(Timeout);
    S.process_type = (PyTypeObject *)Py_NewRef(Process);
    S.cbe_type = (PyTypeObject *)Py_NewRef(CallbackEntry);
    S.processed = Py_NewRef(processed);
    S.timeout_slow = Py_NewRef(timeout_slow);
    S.wait_on = Py_NewRef(wait_on);
    S.str_run = PyUnicode_InternFromString("_run");
    if (S.str_run == NULL)
        return NULL;
    S.configured = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* timeout fast path                                                   */
/* ------------------------------------------------------------------ */
static PyObject *
accel_timeout(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *delay = NULL, *value = Py_None;
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "timeout() takes at most 2 positional arguments");
        return NULL;
    }
    if (nargs >= 1)
        delay = args[0];
    if (nargs == 2)
        value = args[1];
    if (kwnames != NULL) {
        Py_ssize_t nk = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nk; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "value") == 0) {
                if (nargs == 2) {
                    PyErr_SetString(PyExc_TypeError,
                                    "timeout() got multiple values for 'value'");
                    return NULL;
                }
                value = v;
            }
            else if (PyUnicode_CompareWithASCIIString(name, "delay") == 0) {
                if (delay != NULL) {
                    PyErr_SetString(PyExc_TypeError,
                                    "timeout() got multiple values for 'delay'");
                    return NULL;
                }
                delay = v;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "timeout() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    if (delay == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "timeout() missing required argument: 'delay'");
        return NULL;
    }
    /* Fast path — mirrors Simulator._timeout_wheel: recycled timeout in
     * the stash, exact non-negative int delay, empty calendar. */
    PyObject *t = SLOT(sim, S.o_stash);
    if (t != NULL && t != Py_None && PyLong_CheckExact(delay) &&
        SLOT(sim, S.o_reg_free) == Py_True &&
        SLOT(sim, S.o_single) == Py_None) {
        long long dv = PyLong_AsLongLong(delay);
        if (dv == -1 && PyErr_Occurred()) {
            PyErr_Clear(); /* > 63-bit delay: let the slow path handle it */
        }
        else if (dv >= 0) {
            PyObject *nowo = SLOT(sim, S.o_now);
            long long nv = nowo == NULL ? -1 : PyLong_AsLongLong(nowo);
            if (nv == -1 && PyErr_Occurred())
                PyErr_Clear();
            else if (nv >= 0 && dv <= LLONG_MAX - nv) {
                PyObject *when = PyLong_FromLongLong(nv + dv);
                if (when == NULL)
                    return NULL;
                /* pop the stash: the slot's reference becomes ours */
                SLOT(sim, S.o_stash) = Py_NewRef(Py_None);
                store_slot(t, S.o_to_delay, Py_NewRef(delay));
                store_slot(t, S.o_ev_value, Py_NewRef(value));
                store_slot(t, S.o_ev_cb1, Py_NewRef(Py_None));
                Py_INCREF(t);
                store_slot(sim, S.o_single, t);
                store_slot(sim, S.o_single_when, when);
                return t;
            }
        }
    }
    PyObject *cargs[3] = {sim, delay, value};
    return PyObject_Vectorcall(S.timeout_slow, cargs, 3, NULL);
}

/* ------------------------------------------------------------------ */
/* register-regime drain                                               */
/* ------------------------------------------------------------------ */

/* Run and clear e._cbs (`for fn in cbs: fn(e)` on a stolen list). */
static int
run_cbs(PyObject *e)
{
    PyObject *cbs = SLOT(e, S.o_ev_cbs);
    if (cbs == NULL) {
        PyErr_SetString(PyExc_AttributeError, "_cbs");
        return -1;
    }
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

/* Consume our reference to a dispatched event: stash it when provably
 * external-free (the Python spin's `if getrefcount(e) == 2`), else drop. */
static inline void
recycle_register(PyObject *sim, PyObject *e)
{
    if (Py_REFCNT(e) == 1) {
        PyObject *old = SLOT(sim, S.o_stash);
        SLOT(sim, S.o_stash) = e; /* steals our reference */
        Py_XDECREF(old);
    }
    else {
        Py_DECREF(e);
    }
}

/* The generator raised (or returned): normalize the exception, run the
 * process-finish protocol exactly as `except BaseException as exc:
 * finish(cb, exc)` would, with the exception installed as "currently
 * handled" so secondary raises chain their __context__. */
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
    PyObject *fin = SLOT(sim, S.o_finish);
    if (fin == NULL) {
        PyErr_SetString(PyExc_AttributeError, "_proc_finish");
    }
    else {
        PyObject *fargs[2] = {cb, ev};
        PyObject *r = PyObject_Vectorcall(fin, fargs, 2, NULL);
        if (r != NULL) {
            Py_DECREF(r);
            if (run_cbs(e) == 0)
                ok = 0;
        }
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

static PyObject *
accel_reg_drain(PyObject *sim, PyObject *Py_UNUSED(ignored))
{
    long long count = 0;
    for (;;) {
        PyObject *cb = NULL;
        PyObject *e = SLOT(sim, S.o_single);
        if (e == NULL || e == Py_None)
            break;
        /* pop the register (the slot's reference becomes ours) */
        SLOT(sim, S.o_single) = Py_NewRef(Py_None);
        PyObject *w = SLOT(sim, S.o_single_when);
        if (w == NULL) {
            PyErr_SetString(PyExc_AttributeError, "_single_when");
            goto err_e;
        }
        store_slot(sim, S.o_now, Py_NewRef(w));
        PyTypeObject *cls = Py_TYPE(e);
        if (cls == S.timeout_type) {
            cb = SLOT(e, S.o_ev_cb1);
            if (cb == NULL) {
                PyErr_SetString(PyExc_AttributeError, "_cb1");
                goto err_e;
            }
            Py_INCREF(cb);
            store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
            if (Py_TYPE(cb) == S.process_type) {
                /* Chain spin: keep driving this process while each resume
                 * parks a fresh timeout in the register (the dominant
                 * `yield sim.timeout(...)` pattern). */
                for (;;) {
                    count++;
                    PyObject *send = SLOT(cb, S.o_pr_send);
                    PyObject *val = SLOT(e, S.o_ev_value);
                    if (send == NULL || val == NULL) {
                        PyErr_SetString(PyExc_AttributeError,
                                        send == NULL ? "send" : "_value");
                        goto err_e_cb;
                    }
                    Py_INCREF(send);
                    Py_INCREF(val);
                    PyObject *nxt = PyObject_CallOneArg(send, val);
                    Py_DECREF(send);
                    Py_DECREF(val);
                    if (nxt == NULL) {
                        if (finish_process(sim, cb, e) < 0)
                            goto err_e_cb;
                        recycle_register(sim, e);
                        Py_DECREF(cb);
                        break;
                    }
                    if (Py_TYPE(nxt) == S.timeout_type &&
                        SLOT(nxt, S.o_ev_cb1) == Py_None &&
                        SLOT(nxt, S.o_ev_sim) == sim) {
                        /* wire: nxt._cb1 = cb */
                        store_slot(nxt, S.o_ev_cb1, Py_NewRef(cb));
                        if (run_cbs(e) < 0) {
                            Py_DECREF(nxt);
                            goto err_e_cb;
                        }
                        recycle_register(sim, e);
                        /* spin continues iff nxt still sits in the register
                         * (an e._cbs callback may have migrated it) */
                        if (SLOT(sim, S.o_single) == nxt) {
                            e = SLOT(sim, S.o_single); /* take the slot ref */
                            SLOT(sim, S.o_single) = Py_NewRef(Py_None);
                            Py_DECREF(nxt); /* drop the call-result ref */
                            w = SLOT(sim, S.o_single_when);
                            if (w == NULL) {
                                PyErr_SetString(PyExc_AttributeError,
                                                "_single_when");
                                goto err_e_cb;
                            }
                            store_slot(sim, S.o_now, Py_NewRef(w));
                            store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
                            continue;
                        }
                        Py_DECREF(nxt);
                        Py_DECREF(cb);
                        break;
                    }
                    /* generic yield target: cb._wait_on(nxt) */
                    {
                        PyObject *wargs[2] = {cb, nxt};
                        PyObject *r =
                            PyObject_Vectorcall(S.wait_on, wargs, 2, NULL);
                        Py_DECREF(nxt);
                        if (r == NULL)
                            goto err_e_cb;
                        Py_DECREF(r);
                    }
                    if (run_cbs(e) < 0)
                        goto err_e_cb;
                    recycle_register(sim, e);
                    Py_DECREF(cb);
                    break;
                }
            }
            else {
                /* plain-callback (or no-callback) timeout */
                count++;
                if (cb != Py_None) {
                    PyObject *r = PyObject_CallOneArg(cb, e);
                    if (r == NULL)
                        goto err_e_cb;
                    Py_DECREF(r);
                }
                if (run_cbs(e) < 0)
                    goto err_e_cb;
                recycle_register(sim, e);
                Py_DECREF(cb);
            }
        }
        else if (cls == S.cbe_type) {
            count++;
            PyObject *fn = SLOT(e, S.o_cbe_fn);
            PyObject *arg = SLOT(e, S.o_cbe_arg);
            if (fn == NULL || arg == NULL) {
                PyErr_SetString(PyExc_AttributeError,
                                fn == NULL ? "fn" : "arg");
                goto err_e;
            }
            Py_INCREF(fn);
            Py_INCREF(arg);
            PyObject *r = PyObject_CallOneArg(fn, arg);
            Py_DECREF(fn);
            Py_DECREF(arg);
            if (r == NULL)
                goto err_e;
            Py_DECREF(r);
            PyObject *pool = SLOT(sim, S.o_cbe_pool);
            if (pool != NULL && PyList_CheckExact(pool) &&
                PyList_GET_SIZE(pool) < S.cbe_pool_max) {
                store_slot(e, S.o_cbe_fn, Py_NewRef(Py_None));
                store_slot(e, S.o_cbe_arg, Py_NewRef(Py_None));
                if (PyList_Append(pool, e) < 0)
                    goto err_e;
            }
            Py_DECREF(e);
        }
        else {
            count++;
            PyObject *r = PyObject_CallMethodNoArgs(e, S.str_run);
            if (r == NULL)
                goto err_e;
            Py_DECREF(r);
            Py_DECREF(e);
        }
        continue;
    err_e_cb:
        Py_DECREF(cb);
    err_e:
        Py_DECREF(e);
        goto fail;
    }
    return PyLong_FromLongLong(count);

fail:;
    /* Record the partial count (the interrupted event included, exactly
     * like the pure loop's `n += 1`-before-dispatch) for drain_fifo's
     * `except` handler, without disturbing the in-flight exception. */
    {
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        PyObject *cn = PyLong_FromLongLong(count);
        if (cn != NULL)
            store_slot(sim, S.o_creg_n, cn);
        else
            PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    return NULL;
}

/* ------------------------------------------------------------------ */
/* same-instant batch dispatch                                         */
/* ------------------------------------------------------------------ */

/* Consume our reference to a batch-dispatched Timeout, mirroring the
 * Python batch loop's two-level recycle: the stash first (only when
 * empty — the batch loop, unlike the register spin, never overwrites
 * it), then the timeout pool. */
static int
recycle_batch(PyObject *sim, PyObject *e)
{
    if (Py_REFCNT(e) != 1) {
        Py_DECREF(e);
        return 0;
    }
    PyObject *st = SLOT(sim, S.o_stash);
    if (st == NULL || st == Py_None) {
        SLOT(sim, S.o_stash) = e; /* steals our reference */
        Py_XDECREF(st);
        return 0;
    }
    PyObject *pool = SLOT(sim, S.o_timeout_pool);
    if (pool != NULL && PyList_CheckExact(pool) &&
        PyList_GET_SIZE(pool) < S.timeout_pool_max) {
        int rc = PyList_Append(pool, e);
        Py_DECREF(e);
        return rc;
    }
    Py_DECREF(e);
    return 0;
}

/* Dispatch the current same-instant batch (sim._batch, a list already
 * timestamped and sorted by the caller), exactly as the pure loops in
 * _core.drain_fifo / drain_fifo_gated do: take-and-null each slot, count
 * in sim._bi before dispatching, re-check the length at the end so
 * same-instant arrivals appended by callbacks run in this batch.
 *
 * `budget` < 0 means uncapped; otherwise dispatch stops once `budget`
 * entries ran (the gated drain turns that into its max_events raise).
 * Returns the number of entries consumed; on an escaping exception the
 * partial count (interrupted entry included) is left in sim._creg_n for
 * the caller's restore_fifo, like the register drain does. */
static PyObject *
accel_batch_run(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    long long budget = -1;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError,
                        "_cbatch_run() takes at most one argument");
        return NULL;
    }
    if (nargs == 1) {
        budget = PyLong_AsLongLong(args[0]);
        if (budget == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *ls = SLOT(sim, S.o_batch);
    if (ls == NULL || !PyList_CheckExact(ls)) {
        PyErr_SetString(PyExc_TypeError, "_batch is not a list");
        return NULL;
    }
    Py_INCREF(ls);
    Py_ssize_t i = 0;
    Py_ssize_t blen = PyList_GET_SIZE(ls);
    for (;;) {
        PyObject *cb = NULL;
        PyObject *e = PyList_GET_ITEM(ls, i); /* borrowed */
        Py_INCREF(e);                          /* ours */
        PyList_SET_ITEM(ls, i, Py_NewRef(Py_None));
        Py_DECREF(e); /* pay back the list reference SET_ITEM leaked */
        i++;
        {
            PyObject *io = PyLong_FromSsize_t(i);
            if (io == NULL)
                goto err_e;
            store_slot(sim, S.o_bi, io);
        }
        PyTypeObject *cls = Py_TYPE(e);
        if (cls == S.timeout_type) {
            cb = SLOT(e, S.o_ev_cb1);
            if (cb == NULL) {
                PyErr_SetString(PyExc_AttributeError, "_cb1");
                goto err_e;
            }
            Py_INCREF(cb);
            store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
            if (Py_TYPE(cb) == S.process_type) {
                PyObject *send = SLOT(cb, S.o_pr_send);
                PyObject *val = SLOT(e, S.o_ev_value);
                if (send == NULL || val == NULL) {
                    PyErr_SetString(PyExc_AttributeError,
                                    send == NULL ? "send" : "_value");
                    goto err_e_cb;
                }
                Py_INCREF(send);
                Py_INCREF(val);
                PyObject *nxt = PyObject_CallOneArg(send, val);
                Py_DECREF(send);
                Py_DECREF(val);
                if (nxt == NULL) {
                    /* finish_process runs e._cbs itself */
                    if (finish_process(sim, cb, e) < 0)
                        goto err_e_cb;
                }
                else {
                    if (Py_TYPE(nxt) == S.timeout_type &&
                        SLOT(nxt, S.o_ev_cb1) == Py_None &&
                        SLOT(nxt, S.o_ev_sim) == sim) {
                        store_slot(nxt, S.o_ev_cb1, Py_NewRef(cb));
                        Py_DECREF(nxt);
                    }
                    else {
                        PyObject *wargs[2] = {cb, nxt};
                        PyObject *r =
                            PyObject_Vectorcall(S.wait_on, wargs, 2, NULL);
                        Py_DECREF(nxt);
                        if (r == NULL)
                            goto err_e_cb;
                        Py_DECREF(r);
                    }
                    if (run_cbs(e) < 0)
                        goto err_e_cb;
                }
            }
            else {
                if (cb != Py_None) {
                    PyObject *r = PyObject_CallOneArg(cb, e);
                    if (r == NULL)
                        goto err_e_cb;
                    Py_DECREF(r);
                }
                if (run_cbs(e) < 0)
                    goto err_e_cb;
            }
            Py_DECREF(cb);
            cb = NULL;
            if (recycle_batch(sim, e) < 0)
                goto fail;
        }
        else if (cls == S.cbe_type) {
            PyObject *fn = SLOT(e, S.o_cbe_fn);
            PyObject *arg = SLOT(e, S.o_cbe_arg);
            if (fn == NULL || arg == NULL) {
                PyErr_SetString(PyExc_AttributeError,
                                fn == NULL ? "fn" : "arg");
                goto err_e;
            }
            Py_INCREF(fn);
            Py_INCREF(arg);
            PyObject *r = PyObject_CallOneArg(fn, arg);
            Py_DECREF(fn);
            Py_DECREF(arg);
            if (r == NULL)
                goto err_e;
            Py_DECREF(r);
            PyObject *pool = SLOT(sim, S.o_cbe_pool);
            if (pool != NULL && PyList_CheckExact(pool) &&
                PyList_GET_SIZE(pool) < S.cbe_pool_max) {
                store_slot(e, S.o_cbe_fn, Py_NewRef(Py_None));
                store_slot(e, S.o_cbe_arg, Py_NewRef(Py_None));
                if (PyList_Append(pool, e) < 0)
                    goto err_e;
            }
            Py_DECREF(e);
        }
        else {
            PyObject *r = PyObject_CallMethodNoArgs(e, S.str_run);
            if (r == NULL)
                goto err_e;
            Py_DECREF(r);
            Py_DECREF(e);
        }
        if (budget >= 0 && i >= budget)
            break; /* caller raises its max_events error and restores */
        if (i == blen) {
            blen = PyList_GET_SIZE(ls);
            if (i == blen)
                break;
        }
        continue;
    err_e_cb:
        Py_DECREF(cb);
    err_e:
        Py_DECREF(e);
        goto fail;
    }
    Py_DECREF(ls);
    return PyLong_FromSsize_t(i);

fail:;
    {
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        PyObject *cn = PyLong_FromSsize_t(i);
        if (cn != NULL)
            store_slot(sim, S.o_creg_n, cn);
        else
            PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    Py_DECREF(ls);
    return NULL;
}

/* ================================================================== */
/* cells engine — C port of repro.simnet.cells                         */
/* ================================================================== */
/* Mirrors CellSimulator._place/_take_instant/_run_instant/_drain_cells
 * plus the per-cell wheel primitives from _core (insert/_cascade_fifo/
 * next_batch_fifo/peek_structures) operating on _Cell objects.  All
 * state lives in the same Python __slots__ the pure code uses, so C and
 * pure paths interleave freely (step() stays pure) and a mid-run
 * exception leaves a calendar the pure code can resume.
 *
 * The per-instant heaps hold (key, entry) tuples with *unique* keys
 * (the (target, source, cnt) placement key), so pop order equals sorted
 * order regardless of internal heap layout — the C binary heap need not
 * replicate heapq's array layout, and restores (which re-insert in list
 * order and re-heapify at the next take) cannot observe it either. */

#define CS0_BITS 12
#define CS0_SIZE (1LL << CS0_BITS)
#define CS0_MASK (CS0_SIZE - 1)
#define CS1_SIZE 4096LL
#define CS1_MASK (CS1_SIZE - 1)
#define CWHEEL_HORIZON ((CS1_SIZE - 1) << CS0_BITS)
#define CLL_INF LLONG_MAX

static struct {
    int configured;
    PyTypeObject *cellsim_type;
    PyTypeObject *cell_type;
    PyTypeObject *event_type;
    PyObject *sim_error; /* SimulationError */
    PyObject *inf;       /* float('inf') — the pure code's INF sentinel */
    PyObject *str_seq;   /* interned "_seq" */
    /* pure-Python fallbacks (plain functions, called with sim prepended) */
    PyObject *py_schedule, *py_call_in, *py_timeout, *py_call_in_cell;
    /* CellSimulator slots */
    Py_ssize_t o_cellmap, o_cells, o_nexts, o_ctrl, o_cur, o_decouple,
        o_cnt, o_rtcell, o_rttime, o_rheap, o_W, o_maxe, o_grants;
    /* Simulator counter slots (resolved through the CellSimulator MRO) */
    Py_ssize_t o_events_exec, o_batches, o_batched, o_maxbatch, o_to_allocs,
        o_to_reuses, o_cbe_allocs, o_cbe_reuses, o_to_cls;
    /* Event._seq (one offset for every Event subclass) / CallbackEntry._seq */
    Py_ssize_t o_ev_seq, o_cbe_seq;
    /* Event._ok and Process.throw (the generic-event dispatch fast path) */
    Py_ssize_t o_ev_ok, o_pr_throw;
    /* _Cell slots */
    Py_ssize_t c_i, c_name, c_now, c_single, c_single_when, c_slots0,
        c_slots1, c_t0, c_t1, c_hq, c_dirty, c_base, c_nstruct, c_reg_free,
        c_l0, c_l1, c_hqi, c_casc, c_instants, c_events, c_inbox, c_lastwin;
    /* CellMap slots */
    Py_ssize_t m_names, m_look;
    /* live next-instant mirror: while a C drain runs, cells_place keeps
     * this native copy of `_nexts` in sync so the grant loop's argmin
     * scans never unbox Python ints.  NULL outside a drain. */
    long long *nx_arr;
    Py_ssize_t nx_n;
} C;

/* Read a time/counter slot value: exact int, or float (only ever the INF
 * sentinel) mapping to CLL_INF.  Returns -1 with an exception set on
 * conversion failure (real values are never negative). */
static long long
obj_ll(PyObject *o)
{
    if (o == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    if (PyFloat_Check(o))
        return CLL_INF;
    return PyLong_AsLongLong(o);
}

#define LL_ERR(v) ((v) == -1 && PyErr_Occurred())

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

/* ------------------------------------------------------------------ */
/* entry._seq access (the cells (target, source, cnt) key tuple)       */
/* ------------------------------------------------------------------ */
static PyObject * /* new reference */
get_seq(PyObject *e)
{
    PyTypeObject *t = Py_TYPE(e);
    PyObject *s;
    if (t == S.cbe_type)
        s = SLOT(e, C.o_cbe_seq);
    else if (t == S.timeout_type || PyObject_TypeCheck(e, C.event_type))
        s = SLOT(e, C.o_ev_seq);
    else
        return PyObject_GetAttr(e, C.str_seq);
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
        store_slot(e, C.o_cbe_seq, Py_NewRef(key));
    else if (t == S.timeout_type || PyObject_TypeCheck(e, C.event_type))
        store_slot(e, C.o_ev_seq, Py_NewRef(key));
    else
        return PyObject_SetAttr(e, C.str_seq, key);
    return 0;
}

/* ------------------------------------------------------------------ */
/* per-cell wheel primitives (ports of _core insert/cascade/batch/peek)*/
/* ------------------------------------------------------------------ */

/* _core.insert(cell, when, entry): FIFO wheel insert.  `when_obj` must
 * be a borrowed int object equal to `when`. */
static int
cell_insert(PyObject *cell, long long when, PyObject *when_obj,
            PyObject *entry)
{
    store_slot(cell, C.c_reg_free, Py_NewRef(Py_False));
    long long base = obj_ll(SLOT(cell, C.c_base));
    if (LL_ERR(base))
        return -1;
    long long d = when - base;
    if (d < CS0_SIZE) {
        Py_ssize_t idx = (Py_ssize_t)(when & CS0_MASK);
        PyObject *s0 = SLOT(cell, C.c_slots0);
        PyObject *cur = PyList_GET_ITEM(s0, idx);
        if (cur == Py_None) {
            PyObject *nl = PyList_New(1);
            if (nl == NULL)
                return -1;
            PyList_SET_ITEM(nl, 0, Py_NewRef(entry));
            if (PyList_SetItem(s0, idx, nl) < 0)
                return -1;
            if (heap_push(SLOT(cell, C.c_t0), when_obj) < 0)
                return -1;
        }
        else if (PyList_Append(cur, entry) < 0)
            return -1;
        if (bump_slot(cell, C.c_l0, 1) < 0)
            return -1;
    }
    else if (d < CWHEEL_HORIZON) {
        long long b = when >> CS0_BITS;
        Py_ssize_t idx = (Py_ssize_t)(b & CS1_MASK);
        PyObject *item = PyTuple_Pack(2, when_obj, entry);
        if (item == NULL)
            return -1;
        PyObject *s1 = SLOT(cell, C.c_slots1);
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
            int rc = heap_push(SLOT(cell, C.c_t1), bo);
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
        if (bump_slot(cell, C.c_l1, 1) < 0)
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
        int rc = heap_push(SLOT(cell, C.c_hq), trip);
        Py_DECREF(trip);
        if (rc < 0)
            return -1;
        if (bump_slot(cell, C.c_hqi, 1) < 0)
            return -1;
    }
    return bump_slot(cell, C.c_nstruct, 1);
}

/* _core._cascade_fifo(cell, b) */
static int
cell_cascade(PyObject *cell, long long b)
{
    PyObject *popped = heap_pop(SLOT(cell, C.c_t1));
    if (popped == NULL)
        return -1;
    Py_DECREF(popped);
    Py_ssize_t idx = (Py_ssize_t)(b & CS1_MASK);
    PyObject *s1 = SLOT(cell, C.c_slots1);
    PyObject *entries = PyList_GET_ITEM(s1, idx);
    Py_INCREF(entries);
    if (PyList_SetItem(s1, idx, Py_NewRef(Py_None)) < 0) {
        Py_DECREF(entries);
        return -1;
    }
    long long lb = b << CS0_BITS;
    long long base = obj_ll(SLOT(cell, C.c_base));
    if (LL_ERR(base))
        goto fail;
    if (lb > base) {
        PyObject *nb = PyLong_FromLongLong(lb);
        if (nb == NULL)
            goto fail;
        store_slot(cell, C.c_base, nb);
    }
    {
        PyObject *s0 = SLOT(cell, C.c_slots0);
        PyObject *t0 = SLOT(cell, C.c_t0);
        PyObject *dirty = SLOT(cell, C.c_dirty);
        char *db = PyByteArray_AsString(dirty);
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
            db[i] = 1;
        }
    }
    Py_DECREF(entries);
    return bump_slot(cell, C.c_casc, 1);
fail:
    Py_DECREF(entries);
    return -1;
}

/* _Cell.peek(): CLL_INF when idle, -1 with an exception on failure. */
static long long
cell_peek(PyObject *cell)
{
    PyObject *single = SLOT(cell, C.c_single);
    if (single != Py_None) {
        long long w = obj_ll(SLOT(cell, C.c_single_when));
        return LL_ERR(w) ? -1 : w;
    }
    long long ns = obj_ll(SLOT(cell, C.c_nstruct));
    if (LL_ERR(ns))
        return -1;
    if (ns == 0)
        return CLL_INF;
    /* _core.peek_structures */
    long long t = CLL_INF;
    PyObject *t0 = SLOT(cell, C.c_t0);
    if (PyList_GET_SIZE(t0)) {
        t = obj_ll(PyList_GET_ITEM(t0, 0));
        if (LL_ERR(t))
            return -1;
    }
    PyObject *hq = SLOT(cell, C.c_hq);
    if (PyList_GET_SIZE(hq)) {
        long long th =
            obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
        if (LL_ERR(th))
            return -1;
        if (th < t)
            t = th;
    }
    PyObject *t1 = SLOT(cell, C.c_t1);
    if (PyList_GET_SIZE(t1)) {
        long long b = obj_ll(PyList_GET_ITEM(t1, 0));
        if (LL_ERR(b))
            return -1;
        if ((b << CS0_BITS) < t) {
            PyObject *bucket =
                PyList_GET_ITEM(SLOT(cell, C.c_slots1),
                                (Py_ssize_t)(b & CS1_MASK));
            long long bm = CLL_INF;
            Py_ssize_t n = PyList_GET_SIZE(bucket);
            for (Py_ssize_t k = 0; k < n; k++) {
                long long w = obj_ll(
                    PyTuple_GET_ITEM(PyList_GET_ITEM(bucket, k), 0));
                if (LL_ERR(w))
                    return -1;
                if (w < bm)
                    bm = w;
            }
            if (bm < t)
                t = bm;
        }
    }
    return t;
}

/* CellSimulator._take_instant: pop the minimum instant as a heapified
 * list of (key, entry) tuples.  Returns NULL with *t_out == CLL_INF and
 * no exception when the cell is empty; NULL with an exception on error.
 * (The pure code's dirty-slot seq sort and overflow-merge sort are
 * subsumed by building the keyed heap — keys are unique, so pop order
 * is total regardless.) */
static PyObject *
cell_take(PyObject *cell, long long *t_out)
{
    *t_out = CLL_INF;
    PyObject *s = SLOT(cell, C.c_single);
    if (s != Py_None) {
        Py_INCREF(s);
        store_slot(cell, C.c_single, Py_NewRef(Py_None));
        long long w = obj_ll(SLOT(cell, C.c_single_when));
        if (LL_ERR(w)) {
            Py_DECREF(s);
            return NULL;
        }
        PyObject *key = get_seq(s);
        if (key == NULL) {
            Py_DECREF(s);
            return NULL;
        }
        PyObject *tup = PyTuple_Pack(2, key, s);
        Py_DECREF(key);
        Py_DECREF(s);
        if (tup == NULL)
            return NULL;
        PyObject *h = PyList_New(1);
        if (h == NULL) {
            Py_DECREF(tup);
            return NULL;
        }
        PyList_SET_ITEM(h, 0, tup);
        *t_out = w;
        return h;
    }
    /* _core.next_batch_fifo */
    PyObject *t0h = SLOT(cell, C.c_t0);
    PyObject *t1h = SLOT(cell, C.c_t1);
    PyObject *hq = SLOT(cell, C.c_hq);
    while (PyList_GET_SIZE(t1h)) {
        long long b = obj_ll(PyList_GET_ITEM(t1h, 0));
        if (LL_ERR(b))
            return NULL;
        long long lb = b << CS0_BITS;
        if (PyList_GET_SIZE(t0h)) {
            long long f = obj_ll(PyList_GET_ITEM(t0h, 0));
            if (LL_ERR(f))
                return NULL;
            if (f < lb)
                break;
        }
        if (PyList_GET_SIZE(hq)) {
            long long f =
                obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
            if (LL_ERR(f))
                return NULL;
            if (f < lb)
                break;
        }
        if (cell_cascade(cell, b) < 0)
            return NULL;
    }
    PyObject *ls = NULL;
    long long t = 0;
    if (PyList_GET_SIZE(t0h)) {
        t = obj_ll(PyList_GET_ITEM(t0h, 0));
        if (LL_ERR(t))
            return NULL;
        long long hq0 = CLL_INF;
        if (PyList_GET_SIZE(hq)) {
            hq0 = obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
            if (LL_ERR(hq0))
                return NULL;
        }
        if (t <= hq0) {
            PyObject *popped = heap_pop(t0h);
            if (popped == NULL)
                return NULL;
            Py_DECREF(popped);
            Py_ssize_t idx = (Py_ssize_t)(t & CS0_MASK);
            PyObject *s0 = SLOT(cell, C.c_slots0);
            ls = PyList_GET_ITEM(s0, idx);
            Py_INCREF(ls);
            if (PyList_SetItem(s0, idx, Py_NewRef(Py_None)) < 0)
                goto fail;
            {
                char *db = PyByteArray_AsString(SLOT(cell, C.c_dirty));
                if (db == NULL)
                    goto fail;
                db[idx] = 0;
            }
            while (PyList_GET_SIZE(hq)) {
                long long f =
                    obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
                if (LL_ERR(f))
                    goto fail;
                if (f != t)
                    break;
                PyObject *trip = heap_pop(hq);
                if (trip == NULL)
                    goto fail;
                int rc = PyList_Append(ls, PyTuple_GET_ITEM(trip, 2));
                Py_DECREF(trip);
                if (rc < 0)
                    goto fail;
            }
            goto build;
        }
    }
    if (PyList_GET_SIZE(hq)) {
        t = obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
        if (LL_ERR(t))
            return NULL;
        ls = PyList_New(0);
        if (ls == NULL)
            return NULL;
        for (;;) {
            PyObject *trip = heap_pop(hq);
            if (trip == NULL)
                goto fail;
            int rc = PyList_Append(ls, PyTuple_GET_ITEM(trip, 2));
            Py_DECREF(trip);
            if (rc < 0)
                goto fail;
            if (!PyList_GET_SIZE(hq))
                break;
            long long f =
                obj_ll(PyTuple_GET_ITEM(PyList_GET_ITEM(hq, 0), 0));
            if (LL_ERR(f))
                goto fail;
            if (f != t)
                break;
        }
        goto build;
    }
    return NULL; /* empty calendar: *t_out stays CLL_INF, no exception */

build:;
    {
        Py_ssize_t blen = PyList_GET_SIZE(ls);
        if (bump_slot(cell, C.c_nstruct, -blen) < 0)
            goto fail;
        PyObject *to = PyLong_FromLongLong(t);
        if (to == NULL)
            goto fail;
        store_slot(cell, C.c_base, to); /* cell._base = t */
        PyObject *h = PyList_New(0);
        if (h == NULL)
            goto fail;
        for (Py_ssize_t k = 0; k < blen; k++) {
            PyObject *e = PyList_GET_ITEM(ls, k);
            PyObject *key = get_seq(e);
            if (key == NULL)
                goto fail_h;
            PyObject *tup = PyTuple_Pack(2, key, e);
            Py_DECREF(key);
            if (tup == NULL)
                goto fail_h;
            int rc = heap_push(h, tup);
            Py_DECREF(tup);
            if (rc < 0)
                goto fail_h;
        }
        Py_DECREF(ls);
        *t_out = t;
        return h;
    fail_h:
        Py_DECREF(h);
    }
fail:
    Py_XDECREF(ls);
    return NULL;
}

/* cells._restore_cell: re-insert an interrupted instant's remaining
 * (key, entry) heap, spilling a parked register first. */
static int
cell_restore(PyObject *cell, long long t, PyObject *heap)
{
    PyObject *s = SLOT(cell, C.c_single);
    if (s != Py_None) {
        Py_INCREF(s);
        store_slot(cell, C.c_single, Py_NewRef(Py_None));
        PyObject *wo = SLOT(cell, C.c_single_when);
        long long w = obj_ll(wo);
        if (LL_ERR(w)) {
            Py_DECREF(s);
            return -1;
        }
        int rc = cell_insert(cell, w, wo, s);
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
        if (cell_insert(cell, t, to, e) < 0) {
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
                C.sim_error,
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
        PyObject *s = SLOT(cell, C.c_single);
        if (s == Py_None) {
            long long ns = obj_ll(SLOT(cell, C.c_nstruct));
            if (LL_ERR(ns)) {
                Py_DECREF(when_obj);
                goto fail;
            }
            if (ns == 0) {
                /* park in the register */
                store_slot(cell, C.c_single, Py_NewRef(entry));
                store_slot(cell, C.c_single_when, Py_NewRef(when_obj));
                goto update_next;
            }
        }
        else {
            /* spill the parked register entry into the wheel first */
            Py_INCREF(s);
            store_slot(cell, C.c_single, Py_NewRef(Py_None));
            store_slot(cell, C.c_base, Py_NewRef(SLOT(cell, C.c_now)));
            PyObject *swo = SLOT(cell, C.c_single_when);
            long long sw = obj_ll(swo);
            if (LL_ERR(sw)) {
                Py_DECREF(s);
                Py_DECREF(when_obj);
                goto fail;
            }
            int rc = cell_insert(cell, sw, swo, s);
            Py_DECREF(s);
            if (rc < 0) {
                Py_DECREF(when_obj);
                goto fail;
            }
        }
        if (cell_insert(cell, when, when_obj, entry) < 0) {
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
/* fallback into the pure methods (odd signatures, non-int delays)     */
/* ------------------------------------------------------------------ */
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

/* ------------------------------------------------------------------ */
/* bound entry points: schedule / call_in / timeout / call_in_cell     */
/* ------------------------------------------------------------------ */
static PyObject *
cells_schedule(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        (nargs == 2 && !PyLong_CheckExact(args[1])))
        return call_pure(C.py_schedule, sim, args, nargs, kwnames);
    long long dl = 0;
    if (nargs == 2) {
        dl = PyLong_AsLongLong(args[1]);
        if (LL_ERR(dl))
            return NULL;
    }
    if (dl < 0)
        return PyErr_Format(C.sim_error,
                            "cannot schedule in the past (delay=%lld)", dl);
    long long now = obj_ll(SLOT(sim, S.o_now));
    if (LL_ERR(now))
        return NULL;
    long long cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(cur))
        return NULL;
    if (cells_place(sim, cur, args[0], now + dl) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Pop a recycled CallbackEntry (or allocate one), with fn/arg wired and
 * the alloc/reuse counters bumped; returns a new reference. */
static PyObject *
cbe_acquire(PyObject *sim, PyObject *fn, PyObject *arg)
{
    PyObject *pool = SLOT(sim, S.o_cbe_pool);
    Py_ssize_t psz = PyList_GET_SIZE(pool);
    PyObject *e;
    if (psz > 0) {
        e = PyList_GET_ITEM(pool, psz - 1);
        Py_INCREF(e);
        if (PyList_SetSlice(pool, psz - 1, psz, NULL) < 0) {
            Py_DECREF(e);
            return NULL;
        }
        store_slot(e, S.o_cbe_fn, Py_NewRef(fn));
        store_slot(e, S.o_cbe_arg, Py_NewRef(arg));
        if (bump_slot(sim, C.o_cbe_reuses, 1) < 0) {
            Py_DECREF(e);
            return NULL;
        }
    }
    else {
        e = PyObject_CallFunctionObjArgs((PyObject *)S.cbe_type, fn, arg,
                                         NULL);
        if (e == NULL)
            return NULL;
        if (bump_slot(sim, C.o_cbe_allocs, 1) < 0) {
            Py_DECREF(e);
            return NULL;
        }
    }
    return e;
}

static PyObject *
cells_call_in(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    if (kwnames != NULL || nargs < 2 || nargs > 3 ||
        !PyLong_CheckExact(args[0]))
        return call_pure(C.py_call_in, sim, args, nargs, kwnames);
    long long dl = PyLong_AsLongLong(args[0]);
    if (LL_ERR(dl))
        return NULL;
    if (dl < 0)
        return PyErr_Format(C.sim_error,
                            "cannot schedule in the past (delay=%lld)", dl);
    PyObject *e = cbe_acquire(sim, args[1], nargs == 3 ? args[2] : Py_None);
    if (e == NULL)
        return NULL;
    long long now = obj_ll(SLOT(sim, S.o_now));
    long long cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(now) || LL_ERR(cur) ||
        cells_place(sim, cur, e, now + dl) < 0) {
        Py_DECREF(e);
        return NULL;
    }
    Py_DECREF(e);
    Py_RETURN_NONE;
}

static PyObject *
cells_timeout(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    if (kwnames != NULL || nargs < 1 || nargs > 2 ||
        !PyLong_CheckExact(args[0]))
        return call_pure(C.py_timeout, sim, args, nargs, kwnames);
    long long dl = PyLong_AsLongLong(args[0]);
    if (LL_ERR(dl))
        return NULL;
    PyObject *value = nargs == 2 ? args[1] : Py_None;
    PyObject *t = SLOT(sim, S.o_stash);
    if (t != Py_None) {
        Py_INCREF(t);
        store_slot(sim, S.o_stash, Py_NewRef(Py_None));
    }
    else {
        PyObject *pool = SLOT(sim, S.o_timeout_pool);
        Py_ssize_t psz = PyList_GET_SIZE(pool);
        if (psz == 0) {
            if (dl < 0)
                return PyErr_Format(C.sim_error, "negative timeout: %lld",
                                    dl);
            if (bump_slot(sim, C.o_to_allocs, 1) < 0)
                return NULL;
            /* Timeout.__init__ schedules through sim.schedule (rebound
             * to the C path above), so construction is the placement. */
            return PyObject_CallFunctionObjArgs(SLOT(sim, C.o_to_cls), sim,
                                                args[0], value, NULL);
        }
        t = PyList_GET_ITEM(pool, psz - 1);
        Py_INCREF(t);
        if (PyList_SetSlice(pool, psz - 1, psz, NULL) < 0) {
            Py_DECREF(t);
            return NULL;
        }
    }
    if (dl < 0) {
        PyObject *pool = SLOT(sim, S.o_timeout_pool);
        int rc = PyList_Append(pool, t);
        Py_DECREF(t);
        if (rc < 0)
            return NULL;
        return PyErr_Format(C.sim_error, "negative timeout: %lld", dl);
    }
    if (bump_slot(sim, C.o_to_reuses, 1) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    store_slot(t, S.o_to_delay, Py_NewRef(args[0]));
    store_slot(t, S.o_ev_value, Py_NewRef(value));
    store_slot(t, S.o_ev_cb1, Py_NewRef(Py_None));
    long long now = obj_ll(SLOT(sim, S.o_now));
    long long cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(now) || LL_ERR(cur) ||
        cells_place(sim, cur, t, now + dl) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return t;
}

static PyObject *
cells_call_in_cell(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
                   PyObject *kwnames)
{
    if (kwnames != NULL || nargs < 3 || nargs > 4 ||
        !PyLong_CheckExact(args[0]) || !PyLong_CheckExact(args[1]))
        return call_pure(C.py_call_in_cell, sim, args, nargs, kwnames);
    long long target = PyLong_AsLongLong(args[0]);
    long long dl = PyLong_AsLongLong(args[1]);
    if (LL_ERR(target) || LL_ERR(dl))
        return NULL;
    if (dl < 0)
        return PyErr_Format(C.sim_error,
                            "cannot schedule in the past (delay=%lld)", dl);
    if (target < 0 || target >= PyList_GET_SIZE(SLOT(sim, C.o_cells)))
        return call_pure(C.py_call_in_cell, sim, args, nargs, kwnames);
    PyObject *e = cbe_acquire(sim, args[2], nargs == 4 ? args[3] : Py_None);
    if (e == NULL)
        return NULL;
    long long now = obj_ll(SLOT(sim, S.o_now));
    long long cur = obj_ll(SLOT(sim, C.o_cur));
    if (LL_ERR(now) || LL_ERR(cur))
        goto fail;
    {
        long long when = now + dl;
        if (target != cur) {
            PyObject *cell = PyList_GET_ITEM(SLOT(sim, C.o_cells),
                                             (Py_ssize_t)target);
            if (bump_slot(cell, C.c_inbox, 1) < 0)
                goto fail;
            long long W = obj_ll(SLOT(sim, C.o_W));
            if (LL_ERR(W))
                goto fail;
            if (when < W) {
                PyObject *wo = PyLong_FromLongLong(when);
                if (wo == NULL)
                    goto fail;
                store_slot(sim, C.o_W, wo);
            }
        }
        if (cells_place(sim, target, e, when) < 0)
            goto fail;
    }
    Py_DECREF(e);
    Py_RETURN_NONE;
fail:
    Py_DECREF(e);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* dispatch of one entry (shared body of the pure _run_instant loop;   */
/* same protocol as accel_batch_run's per-entry dispatch)              */
/* ------------------------------------------------------------------ */
static int
dispatch_entry(PyObject *sim, PyObject *e) /* consumes the e reference */
{
    PyObject *cb = NULL;
    PyTypeObject *cls = Py_TYPE(e);
    if (cls == S.timeout_type) {
        cb = SLOT(e, S.o_ev_cb1);
        if (cb == NULL) {
            PyErr_SetString(PyExc_AttributeError, "_cb1");
            goto err_e;
        }
        Py_INCREF(cb);
        store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
        if (Py_TYPE(cb) == S.process_type) {
            PyObject *send = SLOT(cb, S.o_pr_send);
            PyObject *val = SLOT(e, S.o_ev_value);
            if (send == NULL || val == NULL) {
                PyErr_SetString(PyExc_AttributeError,
                                send == NULL ? "send" : "_value");
                goto err_e_cb;
            }
            Py_INCREF(send);
            Py_INCREF(val);
            PyObject *nxt = PyObject_CallOneArg(send, val);
            Py_DECREF(send);
            Py_DECREF(val);
            if (nxt == NULL) {
                /* finish_process runs e._cbs itself */
                if (finish_process(sim, cb, e) < 0)
                    goto err_e_cb;
            }
            else {
                if (Py_TYPE(nxt) == S.timeout_type &&
                    SLOT(nxt, S.o_ev_cb1) == Py_None &&
                    SLOT(nxt, S.o_ev_sim) == sim) {
                    store_slot(nxt, S.o_ev_cb1, Py_NewRef(cb));
                    Py_DECREF(nxt);
                }
                else {
                    PyObject *wargs[2] = {cb, nxt};
                    PyObject *r =
                        PyObject_Vectorcall(S.wait_on, wargs, 2, NULL);
                    Py_DECREF(nxt);
                    if (r == NULL)
                        goto err_e_cb;
                    Py_DECREF(r);
                }
                if (run_cbs(e) < 0)
                    goto err_e_cb;
            }
        }
        else {
            if (cb != Py_None) {
                PyObject *r = PyObject_CallOneArg(cb, e);
                if (r == NULL)
                    goto err_e_cb;
                Py_DECREF(r);
            }
            if (run_cbs(e) < 0)
                goto err_e_cb;
        }
        Py_DECREF(cb);
        return recycle_batch(sim, e);
    }
    else if (cls == S.cbe_type) {
        PyObject *fn = SLOT(e, S.o_cbe_fn);
        PyObject *arg = SLOT(e, S.o_cbe_arg);
        if (fn == NULL || arg == NULL) {
            PyErr_SetString(PyExc_AttributeError, fn == NULL ? "fn" : "arg");
            goto err_e;
        }
        Py_INCREF(fn);
        Py_INCREF(arg);
        PyObject *r = PyObject_CallOneArg(fn, arg);
        Py_DECREF(fn);
        Py_DECREF(arg);
        if (r == NULL)
            goto err_e;
        Py_DECREF(r);
        PyObject *pool = SLOT(sim, S.o_cbe_pool);
        if (pool != NULL && PyList_CheckExact(pool) &&
            PyList_GET_SIZE(pool) < S.cbe_pool_max) {
            store_slot(e, S.o_cbe_fn, Py_NewRef(Py_None));
            store_slot(e, S.o_cbe_arg, Py_NewRef(Py_None));
            if (PyList_Append(pool, e) < 0)
                goto err_e;
        }
        Py_DECREF(e);
        return 0;
    }
    else if (cls == C.event_type) {
        /* plain Event: Event._run + the Process.__call__/_wait_on resume
         * path collapsed into C (the dominant Signal/handshake wake-up
         * shape).  No recycling — plain events are GC'd like in pure. */
        cb = SLOT(e, S.o_ev_cb1);
        if (cb == NULL) {
            PyErr_SetString(PyExc_AttributeError, "_cb1");
            goto err_e;
        }
        Py_INCREF(cb);
        store_slot(e, S.o_ev_cb1, Py_NewRef(S.processed));
        if (Py_TYPE(cb) == S.process_type) {
            PyObject *fn = SLOT(e, C.o_ev_ok) == Py_True
                               ? SLOT(cb, S.o_pr_send)
                               : SLOT(cb, C.o_pr_throw);
            PyObject *val = SLOT(e, S.o_ev_value);
            if (fn == NULL || val == NULL) {
                PyErr_SetString(PyExc_AttributeError,
                                fn == NULL ? "send/throw" : "_value");
                goto err_e_cb;
            }
            Py_INCREF(fn);
            Py_INCREF(val);
            PyObject *nxt = PyObject_CallOneArg(fn, val);
            Py_DECREF(fn);
            Py_DECREF(val);
            if (nxt == NULL) {
                if (finish_process(sim, cb, e) < 0)
                    goto err_e_cb;
            }
            else {
                if (Py_TYPE(nxt) == S.timeout_type &&
                    SLOT(nxt, S.o_ev_cb1) == Py_None &&
                    SLOT(nxt, S.o_ev_sim) == sim) {
                    /* same wiring _wait_on would do: fresh local timeout
                     * takes the process as its single waiter */
                    store_slot(nxt, S.o_ev_cb1, Py_NewRef(cb));
                    Py_DECREF(nxt);
                }
                else {
                    PyObject *wargs[2] = {cb, nxt};
                    PyObject *r =
                        PyObject_Vectorcall(S.wait_on, wargs, 2, NULL);
                    Py_DECREF(nxt);
                    if (r == NULL)
                        goto err_e_cb;
                    Py_DECREF(r);
                }
                if (run_cbs(e) < 0)
                    goto err_e_cb;
            }
        }
        else {
            if (cb != Py_None) {
                PyObject *r = PyObject_CallOneArg(cb, e);
                if (r == NULL)
                    goto err_e_cb;
                Py_DECREF(r);
            }
            if (run_cbs(e) < 0)
                goto err_e_cb;
        }
        Py_DECREF(cb);
        Py_DECREF(e);
        return 0;
    }
    else {
        PyObject *r = PyObject_CallMethodNoArgs(e, S.str_run);
        if (r == NULL)
            goto err_e;
        Py_DECREF(r);
        Py_DECREF(e);
        return 0;
    }
err_e_cb:
    Py_DECREF(cb);
err_e:
    Py_DECREF(e);
    return -1;
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
        if (dispatch_entry(sim, e) < 0) {
            rc = -1;
            break;
        }
        if (n >= budget) {
            PyErr_Format(C.sim_error, "exceeded max_events=%S",
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
/* the drain (CellSimulator._drain_cells)                              */
/* ------------------------------------------------------------------ */
static PyObject *
cells_drain(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_cdrain() takes (stop, max_events)");
        return NULL;
    }
    long long stop = obj_ll(args[0]);
    if (LL_ERR(stop)) {
        PyErr_Clear();
        stop = CLL_INF; /* beyond-LLONG stop times are effectively inf */
    }
    long long maxe = obj_ll(args[1]);
    if (LL_ERR(maxe)) {
        PyErr_Clear();
        maxe = CLL_INF;
    }
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
    long long n0 = obj_ll(SLOT(sim, C.o_events_exec));
    if (LL_ERR(n0))
        return NULL;
    long long mb0 = obj_ll(SLOT(sim, C.o_maxbatch));
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
        long long t = cell_peek(PyList_GET_ITEM(cells, i));
        if ((t < 0 && PyErr_Occurred())) {
            PyMem_Free(lk_arr);
            return NULL;
        }
        nx[i] = t;
        PyObject *v =
            t == CLL_INF ? Py_NewRef(C.inf) : PyLong_FromLongLong(t);
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
        if (PyList_SetItem(nexts, bi, Py_NewRef(C.inf)) < 0) {
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
                W == CLL_INF ? Py_NewRef(C.inf) : PyLong_FromLongLong(W);
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
                long long t = cell_peek(cell);
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
                    store_slot(sim, C.o_events_exec, ee);
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
            long long t = cell_peek(cell);
            if (t < 0 && PyErr_Occurred()) {
                rc = -1;
                goto out;
            }
            nx[bi] = t;
            PyObject *v =
                t == CLL_INF ? Py_NewRef(C.inf) : PyLong_FromLongLong(t);
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
            store_slot(sim, C.o_events_exec, ee);
        else
            PyErr_Clear();
        if (bump_slot(sim, C.o_batches, d_batches) < 0 ||
            bump_slot(sim, C.o_batched, d_batched) < 0)
            PyErr_Clear();
        if (d_maxb > mb0) {
            PyObject *nb = PyLong_FromLongLong(d_maxb);
            if (nb != NULL)
                store_slot(sim, C.o_maxbatch, nb);
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
/* cells configure + binding                                           */
/* ------------------------------------------------------------------ */
static PyObject *
configure_cells(PyObject *Py_UNUSED(mod), PyObject *ns)
{
    if (!S.configured) {
        PyErr_SetString(PyExc_RuntimeError, "configure() has not run");
        return NULL;
    }
    if (!PyDict_Check(ns)) {
        PyErr_SetString(PyExc_TypeError, "configure_cells() expects a dict");
        return NULL;
    }
#define GET(name)                                                       \
    PyObject *name = PyDict_GetItemString(ns, #name);                   \
    if (name == NULL) {                                                 \
        PyErr_SetString(PyExc_KeyError, #name);                         \
        return NULL;                                                    \
    }
    GET(CellSimulator) GET(Cell) GET(CellMap) GET(Event)
    GET(SimulationError) GET(schedule_py) GET(call_in_py) GET(timeout_py)
    GET(call_in_cell_py)
#undef GET
    if (!PyType_Check(CellSimulator) || !PyType_Check(Cell) ||
        !PyType_Check(CellMap) || !PyType_Check(Event)) {
        PyErr_SetString(PyExc_TypeError, "expected type objects");
        return NULL;
    }
    if (member_offset(CellSimulator, "_cellmap", &C.o_cellmap) < 0 ||
        member_offset(CellSimulator, "_cells", &C.o_cells) < 0 ||
        member_offset(CellSimulator, "_nexts", &C.o_nexts) < 0 ||
        member_offset(CellSimulator, "_ctrl", &C.o_ctrl) < 0 ||
        member_offset(CellSimulator, "_cur", &C.o_cur) < 0 ||
        member_offset(CellSimulator, "_decouple", &C.o_decouple) < 0 ||
        member_offset(CellSimulator, "_cnt", &C.o_cnt) < 0 ||
        member_offset(CellSimulator, "_rt_cell", &C.o_rtcell) < 0 ||
        member_offset(CellSimulator, "_rt_time", &C.o_rttime) < 0 ||
        member_offset(CellSimulator, "_rheap", &C.o_rheap) < 0 ||
        member_offset(CellSimulator, "_W", &C.o_W) < 0 ||
        member_offset(CellSimulator, "_maxe", &C.o_maxe) < 0 ||
        member_offset(CellSimulator, "_grants", &C.o_grants) < 0 ||
        member_offset(CellSimulator, "events_executed", &C.o_events_exec) < 0 ||
        member_offset(CellSimulator, "_batches", &C.o_batches) < 0 ||
        member_offset(CellSimulator, "_batched_events", &C.o_batched) < 0 ||
        member_offset(CellSimulator, "_max_batch", &C.o_maxbatch) < 0 ||
        member_offset(CellSimulator, "_timeout_allocs", &C.o_to_allocs) < 0 ||
        member_offset(CellSimulator, "_timeout_reuses", &C.o_to_reuses) < 0 ||
        member_offset(CellSimulator, "_cbe_allocs", &C.o_cbe_allocs) < 0 ||
        member_offset(CellSimulator, "_cbe_reuses", &C.o_cbe_reuses) < 0 ||
        member_offset(CellSimulator, "_timeout_cls", &C.o_to_cls) < 0 ||
        member_offset(Event, "_seq", &C.o_ev_seq) < 0 ||
        member_offset(Event, "_ok", &C.o_ev_ok) < 0 ||
        member_offset((PyObject *)S.process_type, "throw", &C.o_pr_throw) < 0 ||
        member_offset((PyObject *)S.cbe_type, "_seq", &C.o_cbe_seq) < 0 ||
        member_offset(Cell, "_i", &C.c_i) < 0 ||
        member_offset(Cell, "_name", &C.c_name) < 0 ||
        member_offset(Cell, "_now", &C.c_now) < 0 ||
        member_offset(Cell, "_single", &C.c_single) < 0 ||
        member_offset(Cell, "_single_when", &C.c_single_when) < 0 ||
        member_offset(Cell, "_slots0", &C.c_slots0) < 0 ||
        member_offset(Cell, "_slots1", &C.c_slots1) < 0 ||
        member_offset(Cell, "_t0", &C.c_t0) < 0 ||
        member_offset(Cell, "_t1", &C.c_t1) < 0 ||
        member_offset(Cell, "_hq", &C.c_hq) < 0 ||
        member_offset(Cell, "_dirty", &C.c_dirty) < 0 ||
        member_offset(Cell, "_base", &C.c_base) < 0 ||
        member_offset(Cell, "_nstruct", &C.c_nstruct) < 0 ||
        member_offset(Cell, "_reg_free", &C.c_reg_free) < 0 ||
        member_offset(Cell, "_l0_inserts", &C.c_l0) < 0 ||
        member_offset(Cell, "_l1_inserts", &C.c_l1) < 0 ||
        member_offset(Cell, "_hq_inserts", &C.c_hqi) < 0 ||
        member_offset(Cell, "_cascades", &C.c_casc) < 0 ||
        member_offset(Cell, "_instants", &C.c_instants) < 0 ||
        member_offset(Cell, "_events", &C.c_events) < 0 ||
        member_offset(Cell, "_inbox_merges", &C.c_inbox) < 0 ||
        member_offset(Cell, "_last_window", &C.c_lastwin) < 0 ||
        member_offset(CellMap, "names", &C.m_names) < 0 ||
        member_offset(CellMap, "lookahead_in", &C.m_look) < 0)
        return NULL;
    C.cellsim_type = (PyTypeObject *)Py_NewRef(CellSimulator);
    C.cell_type = (PyTypeObject *)Py_NewRef(Cell);
    C.event_type = (PyTypeObject *)Py_NewRef(Event);
    C.sim_error = Py_NewRef(SimulationError);
    C.py_schedule = Py_NewRef(schedule_py);
    C.py_call_in = Py_NewRef(call_in_py);
    C.py_timeout = Py_NewRef(timeout_py);
    C.py_call_in_cell = Py_NewRef(call_in_cell_py);
    C.inf = PyFloat_FromDouble(Py_HUGE_VAL);
    if (C.inf == NULL)
        return NULL;
    C.str_seq = PyUnicode_InternFromString("_seq");
    if (C.str_seq == NULL)
        return NULL;
    C.configured = 1;
    Py_RETURN_NONE;
}

static PyMethodDef cells_schedule_md = {
    "schedule", (PyCFunction)(void (*)(void))cells_schedule,
    METH_FASTCALL | METH_KEYWORDS,
    "C fast path for CellSimulator.schedule."};
static PyMethodDef cells_call_in_md = {
    "call_in", (PyCFunction)(void (*)(void))cells_call_in,
    METH_FASTCALL | METH_KEYWORDS,
    "C fast path for CellSimulator.call_in."};
static PyMethodDef cells_timeout_md = {
    "timeout", (PyCFunction)(void (*)(void))cells_timeout,
    METH_FASTCALL | METH_KEYWORDS,
    "C fast path for CellSimulator.timeout."};
static PyMethodDef cells_call_in_cell_md = {
    "call_in_cell", (PyCFunction)(void (*)(void))cells_call_in_cell,
    METH_FASTCALL | METH_KEYWORDS,
    "C fast path for CellSimulator.call_in_cell."};
static PyMethodDef cells_drain_md = {
    "_cdrain", (PyCFunction)(void (*)(void))cells_drain, METH_FASTCALL,
    "C drain of the cells calendar (CellSimulator._drain_cells)."};

static PyObject *
bind_cells_checked(PyObject *sim, PyMethodDef *md)
{
    if (!C.configured) {
        PyErr_SetString(PyExc_RuntimeError, "configure_cells() has not run");
        return NULL;
    }
    if (!PyObject_TypeCheck(sim, C.cellsim_type)) {
        PyErr_SetString(PyExc_TypeError, "expected a CellSimulator");
        return NULL;
    }
    return PyCFunction_New(md, sim);
}

static PyObject *
bind_cells_schedule(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_cells_checked(sim, &cells_schedule_md);
}
static PyObject *
bind_cells_call_in(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_cells_checked(sim, &cells_call_in_md);
}
static PyObject *
bind_cells_timeout(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_cells_checked(sim, &cells_timeout_md);
}
static PyObject *
bind_cells_call_in_cell(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_cells_checked(sim, &cells_call_in_cell_md);
}
static PyObject *
bind_cells_drain(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_cells_checked(sim, &cells_drain_md);
}

/* ------------------------------------------------------------------ */
/* per-instance binding                                                */
/* ------------------------------------------------------------------ */
static PyMethodDef timeout_md = {
    "timeout", (PyCFunction)(void (*)(void))accel_timeout,
    METH_FASTCALL | METH_KEYWORDS,
    "C fast path for Simulator.timeout (timing-wheel FIFO backend)."};

static PyMethodDef reg_drain_md = {
    "_creg_drain", (PyCFunction)accel_reg_drain, METH_NOARGS,
    "C drain of the one-entry register regime for _core.drain_fifo."};

static PyMethodDef batch_run_md = {
    "_cbatch_run", (PyCFunction)(void (*)(void))accel_batch_run,
    METH_FASTCALL,
    "C dispatch of the current same-instant batch (optional event budget)."};

static PyObject *
bind_checked(PyObject *sim, PyMethodDef *md)
{
    if (!S.configured) {
        PyErr_SetString(PyExc_RuntimeError, "configure() has not run");
        return NULL;
    }
    if (!PyObject_TypeCheck(sim, S.sim_type)) {
        PyErr_SetString(PyExc_TypeError, "expected a Simulator");
        return NULL;
    }
    return PyCFunction_New(md, sim);
}

static PyObject *
bind_timeout(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_checked(sim, &timeout_md);
}

static PyObject *
bind_reg_drain(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_checked(sim, &reg_drain_md);
}

static PyObject *
bind_batch_run(PyObject *Py_UNUSED(mod), PyObject *sim)
{
    return bind_checked(sim, &batch_run_md);
}

static PyMethodDef module_methods[] = {
    {"configure", configure, METH_O,
     "Capture types, slot offsets and helpers from the pure kernel."},
    {"bind_timeout", bind_timeout, METH_O,
     "Return a C `timeout` callable bound to one Simulator."},
    {"bind_reg_drain", bind_reg_drain, METH_O,
     "Return a C register-drain callable bound to one Simulator."},
    {"bind_batch_run", bind_batch_run, METH_O,
     "Return a C batch-dispatch callable bound to one Simulator."},
    {"configure_cells", configure_cells, METH_O,
     "Capture the cells-kernel types and slot offsets (after configure())."},
    {"bind_cells_schedule", bind_cells_schedule, METH_O,
     "Return a C `schedule` callable bound to one CellSimulator."},
    {"bind_cells_call_in", bind_cells_call_in, METH_O,
     "Return a C `call_in` callable bound to one CellSimulator."},
    {"bind_cells_timeout", bind_cells_timeout, METH_O,
     "Return a C `timeout` callable bound to one CellSimulator."},
    {"bind_cells_call_in_cell", bind_cells_call_in_cell, METH_O,
     "Return a C `call_in_cell` callable bound to one CellSimulator."},
    {"bind_cells_drain", bind_cells_drain, METH_O,
     "Return a C cells-drain callable bound to one CellSimulator."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef speedup_module = {
    PyModuleDef_HEAD_INIT, "_speedup",
    "On-demand-compiled accelerator for the timing-wheel kernel.", -1,
    module_methods};

PyMODINIT_FUNC
PyInit__speedup(void)
{
    return PyModule_Create(&speedup_module);
}
