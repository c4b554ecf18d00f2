"""Outside-in span tracer.

The tracer never edits the traced program.  It wraps callables from outside:
class attributes are replaced on the class, and a module-level function is
rebound under every name that refers to it, in every module of the package
(a name imported with ``from .linalg import vec_axpy`` is a separate binding
in the importing module and must be rebound there too).

Spans are kept in memory as parallel arrays (name, start, end, parent) and
written out at the end.  A span's self time is its duration minus the
durations of its direct children.
"""

import inspect
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # name id -> span name
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when no enclosing span has the same name; lets inclusive times
        # of recursive or re-entrant calls be summed without double counting
        self.outermost = array("b")
        self._stack = []
        self._active = []        # name id -> open spans of that name
        self.counters = {}
        self.absent = []         # targets that could not be found

    def register(self, name):
        """The id of a span name, registering it on first use."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, pre=None, post=None):
        """Return a callable that records one span per call of fn.

        pre(args, kwargs) runs before the call and its value is handed to
        post(token, args, result, duration) after a call that returned."""
        nid = self.register(name)
        clock = self.clock
        stack, active = self._stack, self._active
        name_id, parent, outermost = self.name_id, self.parent, self.outermost
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                active[nid] -= 1
            if post is not None:
                post(token, args, result, t1 - start[idx])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def patch_attr(self, owner, attr, name, pre=None, post=None):
        """Wrap owner.attr in place (owner is a class or module).  Returns
        the original, or None when the attribute does not exist."""
        raw = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
        if raw is None:
            self.absent.append(name)
            return None
        if isinstance(raw, staticmethod):
            setattr(owner, attr,
                    staticmethod(self.wrap(raw.__func__, name, pre, post)))
            return raw.__func__
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self.wrap(raw.__func__, name, pre, post)))
            return raw.__func__
        if not callable(raw):
            self.absent.append(name)
            return None
        setattr(owner, attr, self.wrap(raw, name, pre, post))
        return raw

    def patch_function(self, modules, fn, name, pre=None, post=None):
        """Wrap a module-level function and rebind every name in `modules`
        that refers to it.  Returns the number of bindings replaced."""
        return rebind(modules, fn, self.wrap(fn, name, pre, post))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def spans(self):
        """The recorded spans as numpy arrays (closed spans only)."""
        import numpy as np
        n = len(self.start)
        return {
            "names": np.array(self.names if self.names else [""]),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8,
                                       count=n),
        }

    def write(self, path):
        import numpy as np
        np.savez(path, **self.spans())


def rebind(modules, old, new):
    """Point every name in `modules` that refers to old at new; returns the
    number of names rebound."""
    hits = 0
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
                hits += 1
    return hits


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of direct children.

    Arrays are aligned; parent[i] is the index of the enclosing span or -1."""
    import numpy as np
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                         dtype=np.float64)
    parent = np.asarray(parent)
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner],
                        minlength=len(dur))
    return dur - child


def under(spans, ancestor_names):
    """Per span: whether it or an enclosing span has one of the names.

    Pointer doubling over the parent links: after k rounds each flag covers
    the span and its first 2^k ancestors."""
    import numpy as np
    names = list(spans["names"])
    ids = [i for i, n in enumerate(names) if n in ancestor_names]
    flag = np.isin(spans["name_id"], ids)
    anc = np.array(spans["parent"], dtype=np.int64)
    live = anc >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        up = anc[idx]
        flag[idx] |= flag[up]
        anc[idx] = anc[up]
        live = anc >= 0
    return flag


def summarize(spans, layer_of):
    """Aggregate spans by name: calls, inclusive time of outermost spans and
    self time; plus self time per layer, where layer_of maps a span name to
    its layer."""
    import numpy as np
    names = list(spans["names"])
    nid = spans["name_id"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(spans["start"], spans["end"], spans["parent"])
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    outer = spans["outermost"].astype(bool)
    inclusive = np.bincount(nid[outer], weights=dur[outer], minlength=k)
    selfs = np.bincount(nid, weights=self_t, minlength=k)
    by_name = {}
    by_layer = {}
    for i, name in enumerate(names):
        if not calls[i]:
            continue
        by_name[name] = {"calls": int(calls[i]),
                         "inclusive_s": float(inclusive[i]),
                         "self_s": float(selfs[i])}
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + float(selfs[i])
    return by_name, by_layer


def public_callables(owner):
    """(attribute, raw value) pairs of the functions an outside caller can
    reach on a module or class: names without a leading underscore, plus
    the dunder methods of classes."""
    out = []
    for key, raw in vars(owner).items():
        private = key.startswith("_") and not (key.startswith("__")
                                               and key.endswith("__"))
        if private:
            continue
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw
        if inspect.isfunction(fn):
            out.append((key, raw))
    return out
