"""The tracer: self time, absent hooks, and restoring what it wrapped."""

import sys
import time
import types

import pytest
from layers import LAYERS, Layer
from tracer import Tracer


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def leaf(items):
        time.sleep(0.01)
        return len(items)

    def outer(items):
        time.sleep(0.01)
        return module.leaf(items) + module.leaf(items)

    class Box:
        def method(self, value):
            return value * 2

    module.leaf, module.outer, module.Box = leaf, outer, Box
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_self_time_excludes_child_spans(fake_module):
    tracer = Tracer()
    tracer.install([
        Layer("outer", ("perfbench_fake_layer:outer",)),
        Layer("leaf", ("perfbench_fake_layer:leaf",), {"items": lambda a, r: len(a[0])}),
    ])
    try:
        assert fake_module.outer([1, 2, 3]) == 6
    finally:
        tracer.uninstall()
    outer, leaf = tracer.stats["outer"], tracer.stats["leaf"]
    assert (outer.calls, leaf.calls) == (1, 2)
    assert leaf.counts == {"items": 6}
    assert leaf.total_s >= 0.02 and outer.self_s >= 0.01
    assert outer.self_s == pytest.approx(outer.total_s - leaf.total_s, abs=1e-3)
    # Only the outer span is top level: the leaf spans were its children.
    assert tracer.toplevel_s == {None: pytest.approx(outer.total_s)}


def test_absent_hooks_are_reported_not_raised(fake_module):
    original_leaf = fake_module.leaf
    original_method = vars(fake_module.Box)["method"]
    tracer = Tracer()
    tracer.install([
        Layer("gone.module", ("perfbench_no_such_module:f",)),
        Layer("gone.attr", ("perfbench_fake_layer:no_such_function",)),
        Layer("gone.class", ("perfbench_fake_layer:NoSuchClass.method",)),
        Layer("gone.method", ("perfbench_fake_layer:Box.no_such_method",)),
        Layer("partial", ("perfbench_fake_layer:leaf", "perfbench_fake_layer:gone")),
        Layer("method", ("perfbench_fake_layer:Box.method",)),
    ])
    try:
        assert set(tracer.absent) == {"gone.module", "gone.attr", "gone.class", "gone.method"}
        assert fake_module.Box().method(4) == 8
        fake_module.leaf([1])
        assert tracer.stats["method"].calls == 1
        assert tracer.stats["partial"].calls == 1
        assert tracer.layer_metrics()["gone.attr.calls"] == 0
    finally:
        tracer.uninstall()
    assert fake_module.leaf is original_leaf
    assert vars(fake_module.Box)["method"] is original_method


def test_every_benchmark_hook_target_exists():
    tracer = Tracer()
    tracer.install(LAYERS, "repro.obs.profiling:Profiler.phase")
    try:
        assert tracer.absent == {}
    finally:
        tracer.uninstall()
    import repro.kernels.shading as shading

    assert not hasattr(shading.gather, "__wrapped__")
