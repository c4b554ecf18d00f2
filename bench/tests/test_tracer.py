import types

import numpy as np
import pytest

import layers
from tracer import Tracer, rebind, self_times, summarize, under


class FakeClock:
    """Each reading advances time by one tick unless told otherwise."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_children():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has child [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert list(self_times(start, end, parent)) == [3.0, 3.0, 3.0, 1.0]


def test_wrapped_calls_record_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 10.0

    leaf_t = tr.wrap(leaf, "a.leaf")

    def outer():
        leaf_t()
        leaf_t()
        clock.now += 5.0

    tr.wrap(outer, "b.outer")()
    spans = tr.spans()
    assert list(spans["parent"]) == [-1, 0, 0]
    by_name, by_layer = summarize(spans, lambda n: n.split(".")[0])
    assert by_name["a.leaf"]["calls"] == 2
    # each leaf: start tick, +10, end tick -> 11; outer adds 5 and the
    # ticks between its own reads
    assert by_name["a.leaf"]["self_s"] == pytest.approx(22.0)
    outer_dur = spans["end"][0] - spans["start"][0]
    assert by_layer["b"] == pytest.approx(outer_dur - 22.0)
    assert by_layer["a"] + by_layer["b"] == pytest.approx(outer_dur)


def test_outermost_flag_avoids_double_counting_recursion():
    tr = Tracer(clock=FakeClock())

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tr.wrap(fact, "m.fact")
    assert traced(4) == 24
    spans = tr.spans()
    assert list(spans["outermost"]) == [1, 0, 0, 0]
    by_name, _ = summarize(spans, lambda n: "m")
    assert by_name["m.fact"]["inclusive_s"] == spans["end"][0] - \
        spans["start"][0]


def test_exception_closes_the_span():
    tr = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "m.boom")()
    assert tr._stack == [] and tr._active == [0]
    assert tr.end[0] > tr.start[0]


def test_patch_function_rebinds_names_imported_by_name():
    def axpy(x):
        return x + 1

    home = types.ModuleType("home")
    home.axpy = axpy
    user = types.ModuleType("user")
    user.axpy = axpy           # from home import axpy
    user.alias = axpy          # from home import axpy as alias
    other = types.ModuleType("other")
    tr = Tracer()
    assert tr.patch_function([home, user, other], axpy, "home.axpy") == 3
    assert user.axpy(1) == 2 and user.alias(1) == 2 and home.axpy(1) == 2
    assert len(tr.start) == 3
    assert user.axpy.__wrapped__ is axpy


def test_patch_attr_handles_static_and_missing():
    class K:
        @staticmethod
        def make(x):
            return [x]

    tr = Tracer()
    tr.patch_attr(K, "make", "m.K.make")
    assert K.make(3) == [3] and len(tr.start) == 1
    assert tr.patch_attr(K, "gone", "m.K.gone") is None
    assert tr.absent == ["m.K.gone"]


def test_under_marks_descendants():
    spans = {"names": np.array(["root", "cert", "mul"]),
             "name_id": np.array([0, 1, 2, 2, 2]),
             "parent": np.array([-1, 0, 1, 0, 2])}
    # span 2 (mul) sits under cert, span 4 under span 2, span 3 only under
    # the root
    assert list(under(spans, ("cert",))) == [False, True, True, False, True]


def test_metrics_of_missing_targets_are_absent():
    tr = Tracer()
    # only jlo.jlo_component exists, as if the rest had been deleted
    tr.wrap(lambda: None, "jlo.jlo_component")()
    tr.absent.extend(["scalars", "linalg.solve"])
    values, absent = layers.metrics(tr)
    assert values["jlo.jlo_component_calls"] == 1
    assert "scalars.mul_calls" in absent and "linalg.solve_s" in absent
    assert "scalars.self_s" in absent
    assert "jlo.jlo_component_calls" not in absent


def test_rebind_counts_only_identical_objects():
    mod = types.ModuleType("m")
    mod.f = len
    mod.g = sum
    assert rebind([mod], len, max) == 1 and mod.f is max and mod.g is sum
