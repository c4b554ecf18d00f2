"""The layers of xchern as the tracer sees them, and the per-layer metrics.

A layer is a module of the package.  install() wraps the public entry points
of every module from outside; metrics() turns the recorded spans and hook
counters into the per-layer metrics named in BENCHMARK.json.
"""

import importlib
import weakref

from tracer import public_callables, rebind, summarize, under

PACKAGE = "xchern"
MODULES = ("scalars", "linalg", "algebra", "forms", "tensoralg", "qalgebra",
           "xcomplex", "chern", "quasihom", "jlo", "cli")

# Public callables left unwrapped; their time is charged to the caller.
EXCLUDE = {
    # recursive sort key, called once per label per pivot comparison
    "linalg.label_key",
    # coefficient arithmetic, reached only from inside Scalar
    "scalars.GaussianRational",
}
# Dunder methods that are wrapped; the others (__init__, __eq__, __hash__,
# __bool__, __repr__, ...) are bookkeeping charged to the caller.
DUNDERS = {"__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
           "__pow__"}

SPAN_CLASSES = ("Span", "FastSpan", "ProvSpan")

COUNT_METRICS = {
    "scalars.mul_calls": ["scalars.Scalar.__mul__"],
    "scalars.add_calls": ["scalars.Scalar.__add__"],
    "linalg.span_add_calls": ["linalg.%s.add" % c for c in SPAN_CLASSES],
    "linalg.span_reduce_calls": ["linalg.%s.reduce" % c
                                 for c in SPAN_CLASSES],
    "linalg.vec_axpy_calls": ["linalg.vec_axpy"],
    "linalg.solve_calls": ["linalg.solve"],
    "forms.op_calls": ["forms.%s" % f for f in (
        "d", "b", "kappa", "connes_B", "graded_mul", "fedosov_even",
        "fedosov_full", "cyclic_projection")],
    "xcomplex.col_calls": ["xcomplex.ChainMap.even_col",
                           "xcomplex.ChainMap.odd_col"],
    "jlo.jlo_component_calls": ["jlo.jlo_component"],
    "jlo.cs_component_calls": ["jlo.cs_component"],
    "jlo.chi_hat_T_calls": ["jlo.chi_hat_T"],
}
# inclusive time of the outermost spans with these names
TIME_METRICS = {
    "linalg.solve_s": ["linalg.solve"],
    "xcomplex.verify_s": ["xcomplex.verify_chain_map", "xcomplex.maps_equal"],
    "xcomplex.homotopy_solve_s": ["xcomplex.homotopy_solve"],
    "chern.column_s": ["chern.column"],
    "quasihom.column_s": ["quasihom.column"],
    "quasihom.index_pairing_s": ["quasihom.index_pairing"],
}
# hook counters and the span each hook is attached to
COUNTER_METRICS = {
    "linalg.solve_equations": "linalg.solve",
    "xcomplex.relations_builds": "xcomplex.XGenerated.relations",
    "xcomplex.relations_build_s": "xcomplex.XGenerated.relations",
    "xcomplex.relations_rank": "xcomplex.XGenerated.relations",
}
SELF_METRICS = {"%s.self_s" % m: m for m in MODULES}
# span adds that grew the span over span adds attempted
GREW_RATIO = "linalg.span_add_grew_ratio"

UNITS = dict(
    [(m, "count") for m in COUNT_METRICS]
    + [(m, "s") for m in TIME_METRICS]
    + [(m, "s" if m.endswith("_s") else "count") for m in COUNTER_METRICS]
    + [(m, "s") for m in SELF_METRICS]
    + [(GREW_RATIO, "ratio")])


def short(module_name):
    return module_name.rsplit(".", 1)[-1]


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def _span_add_post(tracer):
    def post(_token, _args, grew, _dur):
        if grew:
            tracer.count("linalg.span_add_grew")
    return post


def _solve_pre(tracer):
    def pre(args, kwargs):
        eqs = args[0] if args else kwargs.get("equations", ())
        tracer.count("linalg.solve_equations", len(eqs))
    return pre


def _relations_hooks(tracer):
    # a build is the first relations() call on an instance; later calls
    # return the memoized span
    seen = weakref.WeakSet()

    def pre(args, _kwargs):
        obj = args[0]
        if obj in seen:
            return False
        seen.add(obj)
        return True

    def post(building, _args, span, dur):
        if building:
            tracer.count("xcomplex.relations_builds")
            tracer.count("xcomplex.relations_build_s", dur)
            tracer.count("xcomplex.relations_rank", span.dim)
    return pre, post


def _with_columns(tracer, fn, slots):
    """fn with its column-function arguments traced, each charged to the
    module that defined it.  slots lists (position, keyword) pairs."""
    def call(*args, **kwargs):
        args = list(args)
        for pos, key in slots:
            if len(args) > pos:
                args[pos] = _column(tracer, args[pos])
            elif key in kwargs:
                kwargs[key] = _column(tracer, kwargs[key])
        return fn(*args, **kwargs)
    return call


def _column(tracer, fn):
    mod = short(getattr(fn, "__module__", None) or "unknown")
    return tracer.wrap(fn, "%s.column" % mod)


def install(tracer):
    """Wrap the public entry points of every xchern module.  Targets that
    do not exist are recorded in tracer.absent."""
    mods = {}
    for m in MODULES:
        try:
            mods[m] = importlib.import_module("%s.%s" % (PACKAGE, m))
        except ImportError:
            tracer.absent.append(m)
    allmods = list(mods.values())

    linalg, xcomplex = mods.get("linalg"), mods.get("xcomplex")
    if linalg is not None:
        for cls_name in SPAN_CLASSES:
            cls = getattr(linalg, cls_name, None)
            if cls is None:
                tracer.absent.append("linalg.%s" % cls_name)
                continue
            tracer.patch_attr(cls, "add", "linalg.%s.add" % cls_name,
                              post=_span_add_post(tracer))
        if callable(getattr(linalg, "solve", None)):
            tracer.patch_function(allmods, linalg.solve, "linalg.solve",
                                  pre=_solve_pre(tracer))
        else:
            tracer.absent.append("linalg.solve")
    if xcomplex is not None:
        xgen = getattr(xcomplex, "XGenerated", None)
        if xgen is not None:
            pre, post = _relations_hooks(tracer)
            tracer.patch_attr(xgen, "relations",
                              "xcomplex.XGenerated.relations", pre, post)
        else:
            tracer.absent.append("xcomplex.XGenerated")
        # a chain map's columns come from even_fn/odd_fn, and those of
        # X(hom) from image_of_label
        cmap = getattr(xcomplex, "ChainMap", None)
        if cmap is not None and "__init__" in vars(cmap):
            cmap.__init__ = _with_columns(tracer, cmap.__init__,
                                          ((4, "even_fn"), (5, "odd_fn")))
            for m in MODULES:
                tracer.register("%s.column" % m)
        else:
            tracer.absent.append("xcomplex.ChainMap.__init__")
        x_of_hom = getattr(xcomplex, "x_of_hom", None)
        if x_of_hom is not None:
            rebind(allmods, x_of_hom, tracer.wrap(
                _with_columns(tracer, x_of_hom, ((2, "image_of_label"),)),
                "xcomplex.x_of_hom"))
        else:
            tracer.absent.append("xcomplex.x_of_hom")

    for m, mod in mods.items():
        for key, raw in public_callables(mod):
            name = "%s.%s" % (m, key)
            if name in EXCLUDE or getattr(raw, "__module__", None) \
                    != mod.__name__ or hasattr(raw, "__wrapped__"):
                continue
            tracer.patch_function(allmods, raw, name)
        for key, cls in list(vars(mod).items()):
            if key.startswith("_") or not isinstance(cls, type) \
                    or cls.__module__ != mod.__name__ \
                    or "%s.%s" % (m, key) in EXCLUDE:
                continue
            for attr, raw in public_callables(cls):
                fn = raw.__func__ if isinstance(
                    raw, (staticmethod, classmethod)) else raw
                if hasattr(fn, "__wrapped__") or (
                        attr.startswith("__") and attr not in DUNDERS):
                    continue
                tracer.patch_attr(cls, attr, "%s.%s.%s" % (m, key, attr))
    return mods


def metrics(tracer, spans=None):
    """Per-layer metrics from a finished trace.  Returns (values, absent):
    a metric whose every target was missing is listed in absent and left
    out of values."""
    spans = spans if spans is not None else tracer.spans()
    by_name, by_layer = summarize(spans, layer_of)
    installed = set(tracer.names)
    missing = set(tracer.absent)
    values, absent = {}, []

    def have(targets):
        return any(t in installed for t in targets)

    for metric, targets in COUNT_METRICS.items():
        if have(targets):
            values[metric] = sum(by_name.get(t, {}).get("calls", 0)
                                 for t in targets)
        else:
            absent.append(metric)
    for metric, targets in TIME_METRICS.items():
        if have(targets):
            values[metric] = sum(by_name.get(t, {}).get("inclusive_s", 0.0)
                                 for t in targets)
        else:
            absent.append(metric)
    for metric, target in COUNTER_METRICS.items():
        if target in installed:
            values[metric] = tracer.counters.get(metric, 0)
        else:
            absent.append(metric)
    for metric, layer in SELF_METRICS.items():
        if layer in missing:
            absent.append(metric)
        else:
            values[metric] = by_layer.get(layer, 0.0)
    calls = values.get("linalg.span_add_calls")
    if calls is None:
        absent.append(GREW_RATIO)
    else:
        grew = tracer.counters.get("linalg.span_add_grew", 0)
        values[GREW_RATIO] = grew / calls if calls else 0.0
    return values, absent


CERTIFICATES = ("algebra.Algebra.check_associative",
                "algebra.Algebra.check_unit")


def scalar_calls_outside_certificates(spans):
    """Scalar multiplications and additions not made on behalf of an
    algebra's load-time certificates (associativity, unit)."""
    import numpy as np
    targets = COUNT_METRICS["scalars.mul_calls"] + \
        COUNT_METRICS["scalars.add_calls"]
    ids = [i for i, n in enumerate(spans["names"]) if n in targets]
    mask = np.isin(spans["name_id"], ids)
    return int(np.count_nonzero(mask & ~under(spans, CERTIFICATES)))
